"""End-to-end link simulator: data -> framing -> scrambling -> DBPSK ->
channel -> demodulation -> sync -> descrambling -> RS decode, with seeded
Monte Carlo metrics.

The receiver acquires synchronization once and then tracks frame boundaries
by counting 2080-bit strides; per-frame re-validation is available behind
``redetect`` for sync-robustness studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import framing, scrambler
from .channel import ChannelSpec, apply_awgn, apply_bsc, apply_multipath
from .modem import diff_demod, diff_encode, map_bpsk
from .rs import K as RS_K
from .rs import N as RS_N
from .rs import rs_decode  # noqa: F401 - kept bound here: benchmarks/worker.py wraps link.rs_decode
from .rs import rs_decode_block, rs_encode_block, syndromes_block
from .sync import DEFAULT_PREAMBLE, DEFAULT_THRESHOLD, detect
from .util import wilson_interval


@dataclass(frozen=True)
class LinkConfig:
    n_frames: int
    channel: ChannelSpec | None = None
    threshold: int = DEFAULT_THRESHOLD
    preamble: bytes = DEFAULT_PREAMBLE
    extra_k: int = framing.DEFAULT_EXTRA_K
    coding: bool = True
    seed: int = 0
    redetect: bool = False


@dataclass
class LinkReport:
    frames_sent: int
    frames_detected: int
    frames_missed: int
    sync_acquired: bool
    coding: bool
    n_raw_bits: int = 0
    n_raw_bit_errors: int = 0
    n_data_bits: int = 0
    n_data_bit_errors: int = 0
    frame_errors: int = 0
    ber_raw: float | None = None
    ber_coded: float | None = None
    fer: float | None = None
    errors_corrected_hist: dict[int, int] = field(default_factory=dict)
    uncorrectable_frames: int = 0


def _channel_pass(tx_bits: np.ndarray, spec: ChannelSpec | None, seed) -> np.ndarray:
    if spec is None:
        return tx_bits
    if spec.kind == "bsc":
        return apply_bsc(tx_bits, spec.p, seed=seed)
    coded = diff_encode(tx_bits)
    sym = map_bpsk(coded).astype(np.complex128)
    if spec.kind == "multipath":
        sym = apply_multipath(sym, spec.taps)
    if spec.ebno_db is not None:
        sym = apply_awgn(sym, spec.ebno_db, seed=seed)
    return diff_demod(sym)


def run_link(cfg: LinkConfig) -> LinkReport:
    """Deterministic Monte Carlo run of the full chain for one configuration."""
    if cfg.n_frames < 1:
        raise ValueError("n_frames must be positive")
    ss = np.random.SeedSequence(cfg.seed)
    s_payload, s_channel = ss.spawn(2)
    rng = np.random.default_rng(s_payload)
    n = cfg.n_frames

    data = rng.integers(0, 256, (n, RS_K), dtype=np.uint8)
    tx_codewords = rs_encode_block(data)
    frames = np.empty((n, framing.FRAME_LEN), dtype=np.uint8)
    frames[:, : framing.PREAMBLE_LEN] = np.frombuffer(cfg.preamble, dtype=np.uint8)
    body = np.hstack([tx_codewords, np.full((n, 1), cfg.extra_k, dtype=np.uint8)])
    frames[:, framing.PREAMBLE_LEN :] = scrambler.scramble_block(body)
    tx_bits = np.unpackbits(frames.reshape(-1))

    rx_bits = _channel_pass(tx_bits, cfg.channel, s_channel)

    def no_sync() -> LinkReport:
        return LinkReport(
            frames_sent=n, frames_detected=0, frames_missed=n,
            sync_acquired=False, coding=cfg.coding,
        )

    if rx_bits.size < framing.FRAME_BITS + 32:
        return no_sync()
    decision = detect(rx_bits, cfg.preamble, cfg.threshold)
    if not decision.detected:
        return no_sync()
    start = decision.frame_start_bit
    first_frame, rem = divmod(start, framing.FRAME_BITS)
    if rem != 0 or first_frame >= n:
        # acquired off the true boundary: nothing downstream is meaningful
        return no_sync()

    n_avail = min((rx_bits.size - start) // framing.FRAME_BITS, n - first_frame)
    frame_bits = rx_bits[start : start + n_avail * framing.FRAME_BITS].reshape(n_avail, framing.FRAME_BITS)
    rx_frames = np.packbits(frame_bits, axis=1)

    if cfg.redetect:
        pb = np.unpackbits(np.frombuffer(cfg.preamble, dtype=np.uint8))
        pre_scores = (frame_bits[:, :32] == pb).sum(axis=1)
        fired = pre_scores >= cfg.threshold
        det_mask = np.ones(n_avail, dtype=bool)
        det_mask[:-1] = fired[:-1] & fired[1:]
    else:
        det_mask = np.ones(n_avail, dtype=bool)

    det_idx = np.nonzero(det_mask)[0]
    frames_detected = int(det_idx.size)
    frames_missed = n - frames_detected

    tx_cw = tx_codewords[first_frame : first_frame + n_avail][det_idx]
    tx_data = data[first_frame : first_frame + n_avail][det_idx]
    bodies = scrambler.scramble_block(rx_frames[det_idx, framing.PREAMBLE_LEN :])
    rx_cw = bodies[:, :RS_N]

    raw_err = int(np.bitwise_count(rx_cw ^ tx_cw).sum())
    n_raw_bits = frames_detected * RS_N * 8

    hist: dict[int, int] = {}
    uncorrectable = 0
    if cfg.coding:
        corrected, n_err, flagged = rs_decode_block(rx_cw, syndromes_block(rx_cw))
        rx_data = corrected[:, :RS_K]
        uncorrectable = int(np.count_nonzero(flagged))
        hist[0] = frames_detected - uncorrectable - int(np.count_nonzero(n_err))
        values, tally = np.unique(n_err[n_err > 0], return_counts=True)
        hist.update(zip(values.tolist(), tally.tolist()))
    else:
        rx_data = rx_cw[:, :RS_K]

    data_err = int(np.bitwise_count(rx_data ^ tx_data).sum())
    n_data_bits = frames_detected * RS_K * 8
    frame_errors = int(np.count_nonzero((rx_data != tx_data).any(axis=1)))

    return LinkReport(
        frames_sent=n,
        frames_detected=frames_detected,
        frames_missed=frames_missed,
        sync_acquired=True,
        coding=cfg.coding,
        n_raw_bits=n_raw_bits,
        n_raw_bit_errors=raw_err,
        n_data_bits=n_data_bits,
        n_data_bit_errors=data_err,
        frame_errors=frame_errors,
        ber_raw=raw_err / n_raw_bits if n_raw_bits else None,
        ber_coded=(data_err / n_data_bits if n_data_bits else None) if cfg.coding else None,
        fer=(frame_errors + frames_missed) / n,
        errors_corrected_hist=hist,
        uncorrectable_frames=uncorrectable,
    )


@dataclass(frozen=True)
class BerPoint:
    ebno_db: float
    ber: float  # primary metric: coded if coding is on, else raw
    ber_raw: float
    ber_coded: float | None
    ci_low: float
    ci_high: float
    n_bits: int
    n_errors: int
    low_confidence: bool  # fewer than 100 error events observed


def _point_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])


def ber_sweep(base: LinkConfig, ebno_list) -> list[BerPoint]:
    """Run the link at each Eb/N0 over an AWGN channel; Wilson intervals on BER."""
    points = []
    for i, ebno in enumerate(ebno_list):
        cfg = replace(
            base,
            channel=ChannelSpec("awgn", ebno_db=float(ebno)),
            seed=_point_seed(base.seed, i),
        )
        rep = run_link(cfg)
        if not rep.sync_acquired:
            raise RuntimeError(f"sync never acquired at Eb/N0 = {ebno} dB")
        if base.coding:
            n_bits, n_err = rep.n_data_bits, rep.n_data_bit_errors
            ber = rep.ber_coded
        else:
            n_bits, n_err = rep.n_raw_bits, rep.n_raw_bit_errors
            ber = rep.ber_raw
        lo, hi = wilson_interval(n_err, n_bits)
        points.append(
            BerPoint(
                ebno_db=float(ebno),
                ber=float(ber),
                ber_raw=float(rep.ber_raw),
                ber_coded=rep.ber_coded,
                ci_low=lo,
                ci_high=hi,
                n_bits=n_bits,
                n_errors=n_err,
                low_confidence=n_err < 100,
            )
        )
    return points
