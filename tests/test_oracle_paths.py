"""The DBPSK channel, demodulator and acquisition scan against their earlier
straightforward versions in ``oracles``: same draws, same decisions and the
same ``SyncDecision`` for every input."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scmodem.channel import ChannelSpec, apply_awgn, apply_multipath
from scmodem.framing import DATA_LEN, build_frames_block
from scmodem.link import _channel_pass
from scmodem.modem import diff_demod, diff_encode, map_bpsk
from scmodem.sync import DECISION_WINDOW_BITS, DEFAULT_PREAMBLE, SCAN_FIRST_BITS, detect

from oracles import slow_awgn, slow_detect, slow_diff_demod

# hypothesis runs a fixed sequence of examples, so tier-1 stays reproducible
PROPERTY = settings(deadline=None, derandomize=True)

EBNO = st.one_of(st.none(), st.just(math.inf), st.floats(-5.0, 30.0))
LENGTH = st.one_of(st.integers(0, 3), st.integers(9_990, 10_010))
KIND = st.sampled_from(["real", "complex", "multipath"])
# junk bits before the first frame; past 6208 the first true hit lies beyond
# the first acquisition prefix
JUNK = st.one_of(st.integers(0, 9000), st.integers(SCAN_FIRST_BITS - DECISION_WINDOW_BITS, 9000))


def _symbols(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sym = map_bpsk(rng.integers(0, 2, n + 1, dtype=np.uint8))
    if kind == "complex":
        return sym[:n].astype(np.complex128)
    if kind == "multipath":
        taps = (1, complex(*rng.uniform(-0.5, 0.5, 2)))
        return apply_multipath(sym, taps)[:n]
    return sym[:n]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(PROPERTY, max_examples=60)
@given(kind=KIND, n=LENGTH, ebno=EBNO, seed=st.integers(0, 2**32 - 1),
       prev=st.one_of(st.none(), st.complex_numbers(max_magnitude=4.0)))
def test_awgn_and_demod_equal_complex_oracles(kind, n, ebno, seed, prev):
    sym = _symbols(kind, n, seed)
    rx = apply_awgn(sym, ebno, seed=seed + 1)
    assert _same_bits(rx, slow_awgn(sym, ebno, seed=seed + 1))
    for r in (sym, rx):
        assert _same_bits(diff_demod(r), slow_diff_demod(r))
        assert _same_bits(diff_demod(r, prev=prev), slow_diff_demod(r, prev=prev))


def _slow_channel_pass(tx_bits, spec, seed):
    sym = map_bpsk(diff_encode(tx_bits)).astype(np.complex128)
    if spec.kind == "multipath":
        sym = apply_multipath(sym, spec.taps)
    if spec.ebno_db is not None:
        sym = slow_awgn(sym, spec.ebno_db, seed=seed)
    return slow_diff_demod(sym)


@settings(PROPERTY, max_examples=20)
@given(ebno=EBNO, multipath=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_channel_pass_equals_complex_chain(ebno, multipath, seed):
    tx_bits = np.random.default_rng(seed).integers(0, 2, 10_000, dtype=np.uint8)
    if multipath:
        spec = ChannelSpec("multipath", ebno_db=ebno, taps=(1, 0.3 - 0.2j))
    else:
        spec = ChannelSpec("awgn", ebno_db=math.inf if ebno is None else ebno)
    seq = np.random.SeedSequence(seed)
    assert _same_bits(_channel_pass(tx_bits, spec, seq), _slow_channel_pass(tx_bits, spec, seq))


def _junk_then_frames(seed: int, n_frames: int, junk: int, p: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    frames = build_frames_block(rng.integers(0, 256, (n_frames, DATA_LEN), dtype=np.uint8), DEFAULT_PREAMBLE)
    bits = np.concatenate([rng.integers(0, 2, junk, dtype=np.uint8), np.unpackbits(frames.reshape(-1))])
    return bits ^ (rng.random(bits.size) < p)


@settings(PROPERTY, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 8), junk=JUNK,
       p=st.floats(0.0, 0.3), threshold=st.integers(14, 32))
@example(seed=1, n_frames=6, junk=9000, p=0.0, threshold=28)  # hit past the first prefix
@example(seed=2, n_frames=8, junk=0, p=0.3, threshold=32)  # no hit anywhere
def test_detect_equals_whole_stream_scan(seed, n_frames, junk, p, threshold):
    bits = _junk_then_frames(seed, n_frames, junk, p)
    if bits.size < DECISION_WINDOW_BITS:
        with pytest.raises(ValueError):
            detect(bits, threshold=threshold)
        return
    assert detect(bits, threshold=threshold) == slow_detect(bits, threshold=threshold)


def test_detect_examples_cover_both_outcomes():
    late = detect(_junk_then_frames(1, 6, 9000, 0.0))
    assert late.detected and late.frame_start_bit == 9000 > SCAN_FIRST_BITS - DECISION_WINDOW_BITS
    assert not detect(_junk_then_frames(2, 8, 0, 0.3), threshold=32).detected
