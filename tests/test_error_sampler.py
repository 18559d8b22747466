"""The exact DBPSK/AWGN error sampler against the symbol chain it replaces.

``dbpsk_pair_errors`` must decide every pair as ``diff_demod`` does, given
the same noise.  ``dbpsk_awgn_flips`` draws different numbers than the
chain, so it is compared in distribution: bit error rate, the share of
errors followed by another, and the per-codeword byte-error weights.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from scmodem.channel import ChannelSpec, apply_awgn, dbpsk_awgn_flips, dbpsk_pair_errors
from scmodem.link import _channel_pass
from scmodem.modem import diff_demod, diff_encode, map_bpsk

CODEWORD_BITS = 255 * 8


def _coordinates(sym: np.ndarray, rx: np.ndarray, ebno_db: float) -> tuple[np.ndarray, float]:
    """Rotated, standardized noise coordinates of each symbol, and c."""
    sigma = math.sqrt(10.0 ** (-ebno_db / 10.0) / 2.0)
    v = sym * (rx - sym)  # s n, the noise with the symbol's sign removed
    z = np.stack([v.imag - v.real, -v.imag - v.real], axis=1) / (math.sqrt(2.0) * sigma)
    return z, 10.0 ** (ebno_db / 20.0)


@pytest.mark.parametrize("ebno_db", [-5.0, 0.0, 4.0, 6.0, 10.0])
def test_pair_rule_equals_demod_on_full_noise(ebno_db):
    rng = np.random.default_rng(int(ebno_db) + 100)
    bits = rng.integers(0, 2, 50_000, dtype=np.uint8)
    sym = map_bpsk(diff_encode(bits))
    rx = apply_awgn(sym, ebno_db, seed=rng)
    wrong = diff_demod(rx) ^ bits
    z, c = _coordinates(sym, rx, ebno_db)
    assert np.array_equal(dbpsk_pair_errors(z, c), wrong.astype(bool))
    outside = (z >= c).any(axis=1)
    assert not (wrong & ~outside[:-1] & ~outside[1:]).any()


def test_pair_rule_at_the_wedge_edges():
    # phase-stripped symbols a few nanoradians inside and outside both wedge
    # edges at +-pi/4, plus points far inside and outside; every ordered pair
    # of them occurs as consecutive symbols.  The offsets differ, so no two
    # phases lie exactly pi/2 apart, where the metric is 0 up to rounding.
    e1, e2, e3 = 1e-9, 3e-9, 7e-9
    angles = [math.pi / 4 - e1, math.pi / 4 + e1, -math.pi / 4 + e2, -math.pi / 4 - e2,
              0.0, 0.3, 1.2, math.pi, -3 * math.pi / 4 - e3]
    seq = np.array([a for i in angles for j in angles for a in (i, j)])
    u = np.exp(1j * seq) * np.resize([1.0, 0.5, 2.0], seq.size)
    bits = np.random.default_rng(1).integers(0, 2, u.size - 1, dtype=np.uint8)
    sym = map_bpsk(diff_encode(bits))
    ebno_db = 6.0
    rx = sym * u
    z, c = _coordinates(sym, rx, ebno_db)
    assert np.array_equal((z >= c).any(axis=1), np.abs(seq) >= math.pi / 4)
    wrong = diff_demod(rx) ^ bits
    assert wrong.any() and not wrong.all()
    assert np.array_equal(dbpsk_pair_errors(z, c), wrong.astype(bool))


def _pair_share(pos: np.ndarray) -> float:
    return float(np.count_nonzero(np.diff(pos) == 1)) / pos.size


def _byte_weights(pos: np.ndarray, n_words: int) -> np.ndarray:
    """Number of bytes in error in each 255-byte codeword."""
    nbytes = np.unique(pos >> 3)  # sorted byte indices with at least one error
    return np.bincount(nbytes // 255, minlength=n_words)


@pytest.mark.parametrize("ebno_db", [6.0, 7.0])
def test_sampler_matches_symbol_chain_in_distribution(ebno_db):
    n_words = 1000
    n_bits = n_words * CODEWORD_BITS
    chain = np.flatnonzero(
        _channel_pass(np.zeros(n_bits, dtype=np.uint8), ChannelSpec("awgn", ebno_db=ebno_db), 1)
    )
    sampled = dbpsk_awgn_flips(n_bits, ebno_db, seed=2)
    assert sampled.dtype == np.int64 and np.all(np.diff(sampled) > 0)
    assert 0 <= sampled[0] and sampled[-1] < n_bits

    # error counts are clumped in pairs, so their variance is below twice the count
    ka, kb = chain.size, sampled.size
    assert abs(ka - kb) <= 5 * math.sqrt(2 * (ka + kb))
    p = 0.5 * math.exp(-(10 ** (ebno_db / 10)))
    assert abs(kb - p * n_bits) <= 5 * math.sqrt(2 * p * n_bits)

    sa, sb = _pair_share(chain), _pair_share(sampled)
    assert abs(sa - sb) <= 5 * math.sqrt(sa * (1 - sa) / ka + sb * (1 - sb) / kb)

    wa, wb = _byte_weights(chain, n_words), _byte_weights(sampled, n_words)
    edges = np.quantile(np.concatenate([wa, wb]), np.linspace(0, 1, 9)[1:-1])
    table = [np.bincount(np.searchsorted(edges, w, side="right"), minlength=edges.size + 1)
             for w in (wa, wb)]
    table = np.array(table)
    table = table[:, table.sum(axis=0) > 0]
    assert chi2_contingency(table).pvalue > 1e-3


@pytest.mark.parametrize("ebno_db", [-5.0, 0.0])
def test_sampler_ber_at_low_ebno(ebno_db):
    n_bits = 400_000
    k = dbpsk_awgn_flips(n_bits, ebno_db, seed=3).size
    p = 0.5 * math.exp(-(10 ** (ebno_db / 10)))
    assert abs(k - p * n_bits) <= 5 * math.sqrt(2 * p * n_bits)


def test_sampler_edge_cases():
    assert dbpsk_awgn_flips(0, -5.0, seed=0).size == 0
    one = [dbpsk_awgn_flips(1, -5.0, seed=s) for s in range(40)]
    assert all(f.dtype == np.int64 and set(f.tolist()) <= {0} for f in one)
    assert any(f.size for f in one) and not all(f.size for f in one)
    # past 20 dB the tail probability is below 1e-23; gaps must not overflow
    for ebno_db in (None, math.inf, 20.0, 30.0, 40.0):
        flips = dbpsk_awgn_flips(4_160_000, ebno_db, seed=0)
        assert flips.dtype == np.int64 and flips.size == 0
    with pytest.raises(ValueError):
        dbpsk_awgn_flips(-1, 6.0)


def test_sampler_is_deterministic_per_seed():
    a = dbpsk_awgn_flips(100_000, 5.0, seed=7)
    assert np.array_equal(a, dbpsk_awgn_flips(100_000, 5.0, seed=7))
    assert not np.array_equal(a, dbpsk_awgn_flips(100_000, 5.0, seed=8))
