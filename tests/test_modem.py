import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scmodem
from scmodem.channel import apply_awgn
from scmodem.modem import (
    DiffDemod,
    WaveformConfig,
    center_samples,
    diff_decode,
    diff_demod,
    diff_encode,
    eye_opening,
    eye_traces,
    map_bpsk,
    render_waveform,
)


def test_diff_encode_zeros():
    assert np.array_equal(diff_encode([0, 0, 0]), [0, 0, 0, 0])


def test_diff_encode_ones():
    assert np.array_equal(diff_encode([1, 1, 1]), [0, 1, 0, 1])


def test_diff_roundtrip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 500, dtype=np.uint8)
    assert np.array_equal(diff_decode(diff_encode(bits)), bits)


def test_bpsk_mapping():
    assert map_bpsk([0])[0] == 1.0
    assert map_bpsk([1])[0] == -1.0
    rng = np.random.default_rng(1)
    sym = map_bpsk(rng.integers(0, 2, 1000, dtype=np.uint8))
    assert np.mean(np.abs(sym) ** 2) == 1.0


def test_demod_inverts_noiseless_chain():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 1000, dtype=np.uint8)
    assert np.array_equal(diff_demod(map_bpsk(diff_encode(bits))), bits)


def test_phase_ambiguity_invariance():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 500, dtype=np.uint8)
    sym = map_bpsk(diff_encode(bits)).astype(np.complex128)
    noisy = apply_awgn(sym, 12.0, seed=0)
    ref = diff_demod(noisy)
    for phi in (0.3, math.pi / 2, 2.1):
        assert np.array_equal(diff_demod(noisy * np.exp(1j * phi)), ref)


def test_sign_flip_invariance():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 500, dtype=np.uint8)
    sym = map_bpsk(diff_encode(bits))
    assert np.array_equal(diff_demod(-sym), diff_demod(sym))


def test_short_input_gives_empty_output():
    assert diff_demod(np.array([1.0 + 0j])).size == 0
    assert diff_demod(np.array([])).size == 0


def test_tie_decides_zero():
    # orthogonal consecutive symbols give metric exactly 0
    r = np.array([1.0 + 0j, 1j])
    assert diff_demod(r)[0] == 0


def test_chunked_demod_matches_whole_stream():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 1000, dtype=np.uint8)
    sym = apply_awgn(map_bpsk(diff_encode(bits)), 10.0, seed=1)
    whole = diff_demod(sym)
    dd = DiffDemod()
    parts = [dd.process(chunk) for chunk in np.array_split(sym, 7)]
    assert np.array_equal(np.concatenate(parts), whole)


def test_awgn_ber_matches_closed_form_at_8db():
    rng = np.random.default_rng(6)
    n = 1_000_000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    sym = apply_awgn(map_bpsk(diff_encode(bits)), 8.0, seed=2)
    errors = int(np.count_nonzero(diff_demod(sym) != bits))
    p = 0.5 * math.exp(-(10**0.8))
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(errors - p * n) <= 3 * sigma


def test_waveform_dc_passthrough():
    sym = np.ones(64)
    samples = render_waveform(sym, WaveformConfig(oversampling=8))
    settled = samples[8 * 8 : -8 * 8]
    assert np.allclose(settled, 1.0, atol=1e-3)


def test_waveform_requires_oversampling():
    with pytest.raises(ValueError):
        render_waveform(np.ones(8), WaveformConfig(oversampling=1))
    with pytest.raises(ValueError):
        WaveformConfig(oversampling=0)


def test_waveform_config_rejects_one_sample_per_symbol():
    with pytest.raises(ValueError, match="oversampling"):
        WaveformConfig(oversampling=1)


def test_alternating_pattern_has_open_eye():
    sym = map_bpsk(np.arange(256) % 2)
    samples = render_waveform(sym, WaveformConfig(oversampling=8))
    assert eye_opening(samples, sym, 8) > 0


def test_center_sample_decisions_match_symbol_spaced():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 400, dtype=np.uint8)
    sym = map_bpsk(diff_encode(bits))
    # cutoff above the symbol-rate Nyquist: waveform path changes nothing
    cfg = WaveformConfig(oversampling=8, cutoff_ratio=3.0)
    centers = center_samples(render_waveform(sym, cfg), 8)[: sym.size]
    assert np.array_equal((centers < 0).astype(np.uint8), (sym < 0).astype(np.uint8))


def test_eye_traces_shape():
    sym = map_bpsk(np.arange(64) % 2)
    samples = render_waveform(sym, WaveformConfig(oversampling=4))
    traces = eye_traces(samples, 4)
    assert traces.ndim == 2 and traces.shape[1] == 8
    assert traces.shape[0] > 0


def test_import_leaves_scipy_unloaded():
    # scipy is imported lazily, by waveform rendering only
    env = dict(os.environ, PYTHONPATH=str(Path(scmodem.__file__).resolve().parents[1]))
    code = "import scmodem, sys; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
