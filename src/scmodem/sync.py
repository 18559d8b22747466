"""Joint frame and byte synchronization.

A bank of 8 correlators compares 32-bit windows against the preamble at bit
offsets 0..7 within each byte (39 bits covered per byte position).  Detection
requires the same-rank correlator to clear the threshold S at two windows one
frame (2080 bits) apart.  The module also carries the extra-byte optimizer:
Mcor(k) is the worst partial-overlap correlation between the preamble and the
byte d preceding it, minimized by exhaustive search over k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import framing
from .framing import DEFAULT_EXTRA_K, FRAME_BITS
from .util import wilson_interval

PREAMBLE_BITS = 32
N_OFFSETS = 8
# CCSDS-style 32-bit sync marker; the default, configurable everywhere
DEFAULT_PREAMBLE = bytes.fromhex("1ACFFC1D")
DEFAULT_THRESHOLD = 28
DECISION_WINDOW_BITS = FRAME_BITS + PREAMBLE_BITS  # 264 bytes
# acquisition scans this prefix first, and the whole stream only if it holds no hit
SCAN_FIRST_BITS = 4 * FRAME_BITS
# trials per draw in detection_curve; the draws, and so its estimates, depend on it
DETECTION_BATCH = 4096


@dataclass(frozen=True)
class SyncDecision:
    detected: bool
    frame_start_bit: int
    byte_offset: int  # rank of the firing correlator, 0..7
    scores_first: tuple[int, ...]  # 8 scores of the first bank
    scores_second: tuple[int, ...]  # 8 scores of the bank one frame later
    threshold: int


@dataclass(frozen=True)
class McorResult:
    k: int
    mcor: int
    scores: tuple[int, ...]  # s_1..s_8, per overlap width


@dataclass(frozen=True)
class ExtraByteChoice:
    k: int
    mcor: int
    curve: np.ndarray  # Mcor(k) for k = 0..255
    scores_at_best: tuple[int, ...]


@dataclass(frozen=True)
class CurvePoint:
    x: float
    estimate: float
    ci_low: float
    ci_high: float
    n: int


def check_threshold(threshold: int) -> None:
    if not 1 <= threshold <= PREAMBLE_BITS:
        raise ValueError(f"threshold must be in [1, {PREAMBLE_BITS}], got {threshold}")


def check_p_list(p_list) -> None:
    """The BSC error probabilities of ``detection_curve``: each in [0, 0.5]."""
    if not all(0.0 <= p <= 0.5 for p in p_list):
        raise ValueError(f"p must be in [0, 0.5], got {list(p_list)}")


def preamble_bits(preamble: bytes) -> np.ndarray:
    framing.check_preamble(preamble)
    return np.unpackbits(np.frombuffer(bytes(preamble), dtype=np.uint8))


def correlate(window: np.ndarray, preamble: bytes | np.ndarray) -> int:
    """Match count between a 32-bit window and the preamble (32 - Hamming)."""
    window = np.asarray(window, dtype=np.uint8)
    pb = preamble_bits(preamble) if isinstance(preamble, (bytes, bytearray)) else np.asarray(preamble, dtype=np.uint8)
    if window.size != PREAMBLE_BITS or pb.size != PREAMBLE_BITS:
        raise ValueError("window and preamble must both be 32 bits")
    return int(np.count_nonzero(window == pb))


def window_scores(bits: np.ndarray, preamble: bytes) -> np.ndarray:
    """Correlator score at every bit offset of the stream (valid positions).

    Packed-bit correlator: v holds the 40 stream bits from byte b on, so the
    window at bit 8 b + r is (v >> (8 - r)) & 0xFFFFFFFF, and its score is 32
    minus the popcount of its XOR with the preamble.
    """
    preamble_bits(preamble)  # validates the length
    p = np.uint64(int.from_bytes(preamble, "big"))
    bits = np.asarray(bits, dtype=np.uint8)
    n_valid = max(bits.size - PREAMBLE_BITS + 1, 0)
    n_pos = -(-n_valid // N_OFFSETS)
    raw = np.packbits(bits)
    packed = np.zeros(n_pos + 4, dtype=np.uint64)  # zero bytes past the stream end
    packed[: raw.size] = raw
    v = np.zeros(n_pos, dtype=np.uint64)
    for j in range(5):
        v |= packed[j : j + n_pos] << np.uint64(32 - 8 * j)
    scores = np.empty((n_pos, N_OFFSETS), dtype=np.uint8)
    for r in range(N_OFFSETS):
        scores[:, r] = PREAMBLE_BITS - np.bitwise_count(((v >> np.uint64(8 - r)) ^ p) & np.uint64(0xFFFFFFFF))
    return scores.reshape(-1)[:n_valid]


def mcor(preamble: bytes, k: int) -> McorResult:
    """Worst correlation between P and the windows straddling d and P: row k of ``mcor_scores_all``."""
    if not 0 <= k <= 255:
        raise ValueError(f"k out of range: {k}")
    scores = tuple(int(s) for s in mcor_scores_all(preamble)[k])
    return McorResult(k=k, mcor=max(scores), scores=scores)


def mcor_scores_all(preamble: bytes) -> np.ndarray:
    """(256, 8) score table over every k, via the overlap decomposition."""
    pb = preamble_bits(preamble).astype(np.int64)
    ks = np.arange(256)
    d = (ks[:, None] >> np.arange(8)[None, :]) & 1  # d[:, j] = d(j+1)
    out = np.empty((256, N_OFFSETS), dtype=np.int64)
    for i in range(1, N_OFFSETS + 1):
        overlap = int(np.count_nonzero(pb[i:] == pb[: PREAMBLE_BITS - i]))
        # window head [d(i)..d(1)] lines up with P(1)..P(i)
        head = (d[:, i - 1 :: -1] == pb[:i]).sum(axis=1)
        out[:, i - 1] = overlap + head
    return out


def optimize_extra_byte(preamble: bytes) -> ExtraByteChoice:
    """Exhaustive search of k in [0, 255] minimizing Mcor; ties take the smallest k."""
    scores = mcor_scores_all(preamble)
    curve = scores.max(axis=1)
    k_star = int(np.argmin(curve))  # argmin returns the first minimum
    return ExtraByteChoice(
        k=k_star,
        mcor=int(curve[k_star]),
        curve=curve,
        scores_at_best=tuple(int(s) for s in scores[k_star]),
    )


def detect(bits: np.ndarray, preamble: bytes = DEFAULT_PREAMBLE, threshold: int = DEFAULT_THRESHOLD) -> SyncDecision:
    """Scan for two same-rank preamble hits one frame apart.

    Candidate byte positions advance 8 bits at a time; rank r examines the
    window starting r bits later.  Detection fires at the first byte position
    where some rank clears the threshold in both banks; among simultaneous
    ranks the highest summed score wins, lowest rank on ties.

    The scan covers the first SCAN_FIRST_BITS of the stream, and the whole
    stream only if that prefix holds no hit.  The first hit depends only on
    the bits up to it, and the no-hit answer is taken from the whole-stream
    scan, so the decision equals a whole-stream scan's.
    """
    check_threshold(threshold)
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size < DECISION_WINDOW_BITS:
        raise ValueError(f"stream must hold at least {DECISION_WINDOW_BITS // 8} bytes")
    for n_bits in (min(SCAN_FIRST_BITS, bits.size), bits.size):
        scores = window_scores(bits[:n_bits], preamble).astype(np.int16)
        usable = n_bits - DECISION_WINDOW_BITS + 1
        s1 = scores[:usable]
        s2 = scores[FRAME_BITS : FRAME_BITS + usable]
        ok = (s1 >= threshold) & (s2 >= threshold)
        n_pos = usable // N_OFFSETS  # fully covered byte positions
        okm = ok[: n_pos * N_OFFSETS].reshape(n_pos, N_OFFSETS)
        hits = np.nonzero(okm.any(axis=1))[0]
        if hits.size or n_bits == bits.size:
            break

    def banks(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        a = tuple(int(v) for v in scores[8 * m : 8 * m + 8])
        b = tuple(int(v) for v in scores[8 * m + FRAME_BITS : 8 * m + FRAME_BITS + 8])
        return a, b

    if hits.size:
        m = int(hits[0])
        ranks = np.nonzero(okm[m])[0]
        sums = s1[8 * m + ranks] + s2[8 * m + ranks]
        r = int(ranks[np.argmax(sums)])
        a, b = banks(m)
        return SyncDecision(True, 8 * m + r, r, a, b, threshold)

    # no detection: report the best candidate (highest min score, then sum)
    flat = np.minimum(s1, s2)[: n_pos * N_OFFSETS]
    key = flat * 128 + (s1 + s2)[: n_pos * N_OFFSETS]
    u = int(np.argmax(key))
    a, b = banks(u // 8)
    return SyncDecision(False, u, u % 8, a, b, threshold)


def align(decision: SyncDecision, bits: np.ndarray) -> bytes:
    """Re-pack the stream MSB-first into bytes starting at the frame boundary."""
    bits = np.asarray(bits, dtype=np.uint8)
    start = decision.frame_start_bit
    n_bytes = (bits.size - start) // 8
    return np.packbits(bits[start : start + 8 * n_bytes]).tobytes()


def detection_curve(
    preamble: bytes = DEFAULT_PREAMBLE,
    threshold: int = DEFAULT_THRESHOLD,
    p_list=(0.01, 0.05, 0.1),
    n_trials: int = 20000,
    seed: int = 0,
) -> list[CurvePoint]:
    """Detection probability at the true boundary over BSC-corrupted two-frame
    streams, one point per channel error probability p.

    Only the two preamble windows are read, so the extra byte cannot change
    the estimate.  The arguments are checked before the first draw.
    """
    pb = preamble_bits(preamble)
    check_threshold(threshold)
    check_p_list(p_list)
    children = np.random.SeedSequence(seed).spawn(len(p_list))
    points = []
    for p, child in zip(p_list, children):
        rng = np.random.default_rng(child)
        hits = 0
        done = 0
        while done < n_trials:
            b = min(DETECTION_BATCH, n_trials - done)
            data = rng.integers(0, 256, (2 * b, framing.DATA_LEN), dtype=np.uint8)
            frames = framing.build_frames_block(data, preamble, DEFAULT_EXTRA_K)
            bits = np.unpackbits(frames.reshape(b, -1), axis=1)
            if p > 0.0:
                bits ^= rng.random(bits.shape, dtype=np.float32) < p
            s1 = (bits[:, :PREAMBLE_BITS] == pb).sum(axis=1)
            s2 = (bits[:, FRAME_BITS : FRAME_BITS + PREAMBLE_BITS] == pb).sum(axis=1)
            hits += int(np.count_nonzero((s1 >= threshold) & (s2 >= threshold)))
            done += b
        lo, hi = wilson_interval(hits, n_trials)
        points.append(CurvePoint(float(p), hits / n_trials, lo, hi, n_trials))
    return points


def false_alarm_curve(
    preamble: bytes = DEFAULT_PREAMBLE,
    n_frames: int = 1000,
    seed: int = 0,
    extra_k: int = DEFAULT_EXTRA_K,
) -> list[CurvePoint]:
    """Per-position dual false-alarm probability for every threshold S = 1..32.

    The stream is n_frames of scrambled random bodies with real preambles;
    every bit offset inside the frame period is examined except the true
    boundary alignment, exactly the scan the correlator hardware performs.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # two extra frames so the second bank and the last 32-bit window exist
    data = rng.integers(0, 256, (n_frames + 2, framing.DATA_LEN), dtype=np.uint8)
    frames = framing.build_frames_block(data, preamble, extra_k)
    bits = np.unpackbits(frames.reshape(-1))
    scores = window_scores(bits, preamble)
    n_pos_total = n_frames * FRAME_BITS
    s1 = scores[:n_pos_total]
    s2 = scores[FRAME_BITS : FRAME_BITS + n_pos_total]
    both = np.minimum(s1, s2)
    eligible = both.reshape(n_frames, FRAME_BITS)[:, 1:]  # drop the true boundary
    n_pos = eligible.size
    hist = np.bincount(eligible.ravel(), minlength=PREAMBLE_BITS + 1)
    exceed = np.cumsum(hist[::-1])[::-1]  # exceed[S] = count(min >= S)
    points = []
    for s in range(1, PREAMBLE_BITS + 1):
        k = int(exceed[s])
        lo, hi = wilson_interval(k, n_pos)
        points.append(CurvePoint(float(s), k / n_pos, lo, hi, n_pos))
    return points
