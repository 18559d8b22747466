import numpy as np
import pytest
from scipy.stats import binom

from scmodem import framing
from scmodem.framing import FRAME_BITS, build_frames_block
from scmodem.sync import (
    DEFAULT_PREAMBLE,
    align,
    correlate,
    detect,
    detection_curve,
    false_alarm_curve,
    mcor,
    mcor_scores_all,
    optimize_extra_byte,
    preamble_bits,
    window_scores,
)

from oracles import brute_best_k, brute_mcor, brute_window_scores

PB = preamble_bits(DEFAULT_PREAMBLE)


def _stream(n_frames, seed=0, preamble=DEFAULT_PREAMBLE, extra_k=64):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (n_frames, 239), dtype=np.uint8)
    frames = build_frames_block(data, preamble, extra_k)
    return data, np.unpackbits(frames.reshape(-1))


def test_correlate_self_and_complement():
    assert correlate(PB, DEFAULT_PREAMBLE) == 32
    assert correlate(PB ^ 1, DEFAULT_PREAMBLE) == 0


def test_correlate_three_flips():
    w = PB.copy()
    w[[2, 17, 30]] ^= 1
    assert correlate(w, DEFAULT_PREAMBLE) == 29


def test_correlate_plus_hamming_is_32():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.integers(0, 2, 32, dtype=np.uint8)
        assert correlate(w, DEFAULT_PREAMBLE) + int(np.count_nonzero(w != PB)) == 32


def test_window_scores_match_correlate():
    _, bits = _stream(2, seed=1)
    scores = window_scores(bits, DEFAULT_PREAMBLE)
    rng = np.random.default_rng(2)
    for u in rng.integers(0, scores.size, 200):
        assert scores[u] == correlate(bits[u : u + 32], DEFAULT_PREAMBLE)


@pytest.mark.parametrize("n_bits", [32, 33, 2112, 4161, 3 * FRAME_BITS + 5])
def test_window_scores_match_brute_scan(n_bits):
    rng = np.random.default_rng(n_bits)
    _, frames = _stream(4, seed=n_bits)
    for bits in (frames[:n_bits], rng.integers(0, 2, n_bits, dtype=np.uint8)):
        for preamble in (DEFAULT_PREAMBLE, bytes(4), rng.integers(0, 256, 4, dtype=np.uint8).tobytes()):
            scores = window_scores(bits, preamble)
            assert scores.dtype == np.uint8
            assert scores.tolist() == brute_window_scores(bits, preamble)


def test_mcor_degenerate_all_zero_preamble():
    assert mcor(bytes(4), 0).mcor == 32  # every window matches fully
    assert mcor(bytes(4), 255).mcor == 31  # worst window misses only 1 bit


def test_mcor_validates_k():
    with pytest.raises(ValueError):
        mcor(DEFAULT_PREAMBLE, 256)


def test_mcor_matches_brute_force_for_default_preamble():
    for k in range(256):
        bm, bscores = brute_mcor(DEFAULT_PREAMBLE, k)
        res = mcor(DEFAULT_PREAMBLE, k)
        assert res.mcor == bm
        assert list(res.scores) == bscores


def test_mcor_scores_all_matches_scalar():
    rng = np.random.default_rng(9)
    preambles = [DEFAULT_PREAMBLE, bytes(4)] + [rng.integers(0, 256, 4, dtype=np.uint8).tobytes() for _ in range(20)]
    for preamble in preambles:
        table = mcor_scores_all(preamble)
        assert table.tolist() == [brute_mcor(preamble, k)[1] for k in range(256)]


def test_optimizer_default_preamble_regression():
    choice = optimize_extra_byte(DEFAULT_PREAMBLE)
    assert (choice.k, choice.mcor) == (1, 20)  # frozen from the brute-force oracle
    assert choice.curve.shape == (256,)
    assert choice.mcor == max(choice.scores_at_best)


def test_optimizer_is_argmin():
    choice = optimize_extra_byte(DEFAULT_PREAMBLE)
    for k in range(256):
        assert choice.mcor <= mcor(DEFAULT_PREAMBLE, k).mcor


def test_optimizer_matches_brute_force_random_preambles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        preamble = rng.integers(0, 256, 4, dtype=np.uint8).tobytes()
        choice = optimize_extra_byte(preamble)
        bk, bm = brute_best_k(preamble)
        assert (choice.k, choice.mcor) == (bk, bm)


@pytest.mark.parametrize("shift", range(8))
def test_detect_clean_stream_all_byte_offsets(shift):
    _, bits = _stream(3, seed=4)
    shifted = np.concatenate([np.zeros(shift, np.uint8), bits])
    for threshold in (20, 28, 32):
        dec = detect(shifted, threshold=threshold)
        assert dec.detected
        assert dec.frame_start_bit == shift
        assert dec.byte_offset == shift
        assert dec.scores_first[shift] == 32 and dec.scores_second[shift] == 32


def test_detect_every_boundary_in_multiframe_stream():
    _, bits = _stream(5, seed=5)
    for n in range(4):  # last frame has no following preamble
        dec = detect(bits[n * FRAME_BITS :], threshold=30)
        assert dec.detected and dec.frame_start_bit == 0


def test_detect_random_bits_no_false_alarm_at_s32():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 100 * FRAME_BITS + 2112, dtype=np.uint8)
    assert not detect(bits, threshold=32).detected


def test_detect_validates_input():
    with pytest.raises(ValueError):
        detect(np.zeros(100, np.uint8))
    with pytest.raises(ValueError):
        detect(np.zeros(4000, np.uint8), threshold=0)


def test_align_identity_and_shift():
    _, bits = _stream(2, seed=7)
    raw = np.packbits(bits).tobytes()
    dec = detect(bits)
    assert align(dec, bits) == raw
    shifted = np.concatenate([np.zeros(5, np.uint8), bits])
    dec5 = detect(shifted)
    assert align(dec5, shifted)[: len(raw)] == raw


@pytest.mark.parametrize("shift", range(8))
def test_align_then_parse_all_offsets(shift):
    data, bits = _stream(2, seed=8 + shift)
    shifted = np.concatenate([np.ones(shift, np.uint8), bits])
    dec = detect(shifted)
    aligned = align(dec, shifted)
    recovered, outcome = framing.parse_frame(aligned[:260], DEFAULT_PREAMBLE)
    assert recovered == data[0].tobytes()
    assert outcome.errors_corrected == 0


def test_detection_curve_p_zero_is_one():
    pts = detection_curve(p_list=[0.0], threshold=32, n_trials=200, seed=0)
    assert pts[0].estimate == 1.0


def test_detection_curve_monotone_in_p():
    pts = detection_curve(p_list=[0.0, 0.02, 0.05, 0.1], threshold=30, n_trials=4000, seed=1)
    estimates = [p.estimate for p in pts]
    assert estimates == sorted(estimates, reverse=True)


def test_detection_curve_matches_binomial():
    p, s, n = 0.05, 28, 30000
    pts = detection_curve(p_list=[p], threshold=s, n_trials=n, seed=2)
    q = binom.sf(s - 1, 32, 1 - p) ** 2
    sigma = np.sqrt(q * (1 - q) / n)
    assert abs(pts[0].estimate - q) <= 3 * sigma


def test_false_alarm_curve_shape_and_monotonicity():
    pts = false_alarm_curve(n_frames=300, seed=0)
    assert len(pts) == 32
    estimates = [p.estimate for p in pts]
    assert estimates == sorted(estimates, reverse=True)
    assert pts[0].estimate > 0.999  # S = 1 fires almost surely
    assert pts[0].x == 1.0 and pts[-1].x == 32.0


def test_false_alarm_s20_near_binomial_product():
    # positions with non-overlapping windows behave like two independent
    # Bin(32, 1/2) exceedances; overlap makes the match approximate
    pts = false_alarm_curve(n_frames=2000, seed=1)
    single = binom.sf(19, 32, 0.5)
    est = pts[19].estimate
    assert 0.5 * single**2 < est < 2.0 * single**2
