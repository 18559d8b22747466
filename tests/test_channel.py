import math

import numpy as np
import pytest

from scmodem.channel import ChannelSpec, apply_awgn, apply_bsc, apply_multipath, dbpsk_awgn_flips
from scmodem.modem import diff_demod, diff_encode, map_bpsk


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("wat")
    with pytest.raises(ValueError):
        ChannelSpec("awgn")
    with pytest.raises(ValueError):
        ChannelSpec("bsc", p=1.5)
    with pytest.raises(ValueError):
        ChannelSpec("multipath", taps=(0.5, 1))
    ChannelSpec("multipath", taps=(1, 0.3j))  # ebno_db None: no noise
    ChannelSpec("awgn", ebno_db=math.inf)


def test_awgn_no_noise_mode():
    sym = map_bpsk(np.arange(100) % 2)
    assert np.array_equal(apply_awgn(sym, None), sym)
    assert np.array_equal(apply_awgn(sym, math.inf), sym)


@pytest.mark.parametrize("ebno_db", [-math.inf, math.nan])
def test_ebno_without_a_channel_is_rejected(ebno_db):
    with pytest.raises(ValueError):
        ChannelSpec("awgn", ebno_db=ebno_db)
    with pytest.raises(ValueError):
        ChannelSpec("multipath", ebno_db=ebno_db, taps=(1, 0.3j))
    with pytest.raises(ValueError):
        apply_awgn(np.ones(3), ebno_db)
    with pytest.raises(ValueError):
        dbpsk_awgn_flips(10, ebno_db)


def test_awgn_noise_variance_at_0db():
    sym = np.ones(1_000_000, dtype=np.complex128)
    noisy = apply_awgn(sym, 0.0, seed=0)
    n0 = np.var(noisy - sym)  # total complex variance = N0
    assert abs(n0 - 1.0) < 0.01


def test_awgn_deterministic_per_seed():
    sym = np.ones(1000, dtype=np.complex128)
    assert np.array_equal(apply_awgn(sym, 5.0, seed=7), apply_awgn(sym, 5.0, seed=7))
    assert not np.array_equal(apply_awgn(sym, 5.0, seed=7), apply_awgn(sym, 5.0, seed=8))


def test_disjoint_seeds_give_independent_noise():
    sym = np.zeros(100_000, dtype=np.complex128)
    a = np.real(apply_awgn(sym, 0.0, seed=1))
    b = np.real(apply_awgn(sym, 0.0, seed=2))
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 3.0 / math.sqrt(a.size)


def test_bsc_extremes():
    bits = np.random.default_rng(0).integers(0, 2, 1000, dtype=np.uint8)
    assert np.array_equal(apply_bsc(bits, 0.0), bits)
    assert np.array_equal(apply_bsc(bits, 1.0), bits ^ 1)


def test_bsc_flip_count_binomial():
    bits = np.zeros(1_000_000, dtype=np.uint8)
    flipped = int(apply_bsc(bits, 0.01, seed=3).sum())
    mean, sigma = 10_000, math.sqrt(1_000_000 * 0.01 * 0.99)
    assert abs(flipped - mean) <= 3 * sigma


def test_multipath_identity_tap():
    sym = map_bpsk(np.arange(10) % 2).astype(np.complex128)
    assert np.allclose(apply_multipath(sym, [1]), sym)


def test_multipath_direct_convolution():
    out = apply_multipath(np.array([1.0, 1.0, -1.0]), [1, 0.5])
    assert np.allclose(out, [1.0, 1.5, -0.5, -0.5])


def test_multipath_energy_scaling():
    rng = np.random.default_rng(4)
    sym = map_bpsk(rng.integers(0, 2, 100_000, dtype=np.uint8)).astype(np.complex128)
    taps = np.array([1.0, 0.4j, 0.2])
    out = apply_multipath(sym, taps)
    gain = np.sum(np.abs(out) ** 2) / np.sum(np.abs(sym) ** 2)
    assert abs(gain - np.sum(np.abs(taps) ** 2)) < 0.01


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.3])
def test_isi_suppression_quadrature_tap(rho):
    # delay-and-multiply squares the lobe ratio: with a quarter-turn second
    # tap the residual in the decision metric has rms exactly rho^2 and the
    # noiseless decisions stay error-free
    rng = np.random.default_rng(int(rho * 100))
    bits = rng.integers(0, 2, 50_000, dtype=np.uint8)
    sym = map_bpsk(diff_encode(bits)).astype(np.complex128)
    rx = apply_multipath(sym, [1, rho * 1j])
    assert np.array_equal(diff_demod(rx)[: bits.size], bits)
    y = np.real(rx[1:] * np.conj(rx[:-1]))[: sym.size - 1]
    desired = np.real(sym[1:] * sym[:-1])
    resid = y - desired
    rms = math.sqrt(float(np.mean(resid[1:] ** 2)))  # skip the edge sample
    assert abs(rms - rho**2) < 0.02 * rho**2
