"""End-to-end link simulator: data -> framing -> scrambling -> DBPSK ->
channel -> demodulation -> sync -> descrambling -> RS decode, with seeded
Monte Carlo metrics.

The transmitter builds packed 260-byte frames, and the receiver works on
them as byte rows.  An AWGN-only link never forms symbols: it samples the
demodulator's decision errors exactly (``channel.dbpsk_awgn_flips``, the
same law as the symbol chain but different draws) and XORs them into the
frames; a BSC XORs its flips the same way.  Multipath runs the full symbol
chain, because ISI couples neighbouring symbols.  The stream is unpacked to
bits only for acquisition.

The receiver acquires synchronization once and then tracks frame boundaries
by counting 2080-bit strides; per-frame re-validation is available behind
``redetect`` for sync-robustness studies.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import framing, scrambler
from .channel import ChannelSpec, apply_awgn, apply_multipath, bsc_flips, dbpsk_awgn_flips
from .modem import diff_demod, diff_encode, map_bpsk
from .rs import K as RS_K
from .rs import N as RS_N
from .rs import rs_decode, rs_encode_block  # noqa: F401 - kept bound here: benchmarks/worker.py wraps both
from .rs import rs_decode_block, syndromes_block
from .sync import DECISION_WINDOW_BITS, DEFAULT_PREAMBLE, DEFAULT_THRESHOLD, PREAMBLE_BITS, check_threshold, detect
from .util import wilson_interval

# acquisition reads two preambles one frame apart, DECISION_WINDOW_BITS in all
MIN_FRAMES = -(-DECISION_WINDOW_BITS // framing.FRAME_BITS)


@dataclass(frozen=True)
class LinkConfig:
    """One run of the link; invalid values raise ValueError here, not in ``run_link``."""

    n_frames: int
    channel: ChannelSpec | None = None
    threshold: int = DEFAULT_THRESHOLD
    preamble: bytes = DEFAULT_PREAMBLE
    extra_k: int = framing.DEFAULT_EXTRA_K
    coding: bool = True
    seed: int = 0
    redetect: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n_frames, numbers.Integral) or self.n_frames < MIN_FRAMES:
            raise ValueError(f"n_frames must be an int >= {MIN_FRAMES}, got {self.n_frames!r}")
        check_threshold(self.threshold)
        framing.check_preamble(self.preamble)
        framing.check_extra_k(self.extra_k)


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


def _channel_pass(tx_bits: np.ndarray, spec: ChannelSpec, seed) -> np.ndarray:
    """The DBPSK symbol chain for an AWGN or multipath ``spec``."""
    coded = diff_encode(tx_bits)
    sym = map_bpsk(coded)  # real; multipath and AWGN return complex128
    if spec.kind == "multipath":
        sym = apply_multipath(sym, spec.taps)
    if spec.ebno_db is not None:
        sym = apply_awgn(sym, spec.ebno_db, seed=seed)
    return diff_demod(sym)


def _receive_frames(frames: np.ndarray, spec: ChannelSpec | None, seed) -> np.ndarray:
    """The received stream as (n, FRAME_LEN) byte rows; bit flips are XORed into ``frames`` in place."""
    if spec is None:
        return frames
    n_bits = frames.size * 8
    if spec.kind == "multipath":
        # the ISI tail past the last frame is dropped: the receiver slices at most n frames
        rx_bits = _channel_pass(np.unpackbits(frames.reshape(-1)), spec, seed)
        return np.packbits(rx_bits[:n_bits]).reshape(frames.shape)
    if spec.kind == "bsc":
        flips = bsc_flips(n_bits, spec.p, seed)
    else:
        flips = dbpsk_awgn_flips(n_bits, spec.ebno_db, seed)
    np.bitwise_xor.at(frames.reshape(-1), flips >> 3, (0x80 >> (flips & 7)).astype(np.uint8))
    return frames


def run_link(cfg: LinkConfig) -> LinkReport:
    """Deterministic Monte Carlo run of the full chain for one configuration.

    The channel acts on packed frames.  An AWGN-only channel draws the
    demodulator's decision errors directly, with the law of the symbol chain
    in ``_channel_pass`` but not its draws.  Per 4.16 Mbit this costs about
    70 ms at 6 dB and 17 ms at 10 dB, against 0.3 s for the symbol chain,
    but more than the chain below about 2 dB (0.4 s at 0 dB, 0.7 s at
    -5 dB).  BSC flips equal ``apply_bsc``'s, and multipath runs the symbol
    chain.  The stream is unpacked to bits only for ``detect``.
    """
    ss = np.random.SeedSequence(cfg.seed)
    s_payload, s_channel = ss.spawn(2)
    rng = np.random.default_rng(s_payload)
    n = cfg.n_frames

    data = rng.integers(0, 256, (n, RS_K), dtype=np.uint8)
    frames = framing.build_frames_block(data, cfg.preamble, cfg.extra_k)
    tx = frames.copy()  # the channel XORs its flips into ``frames`` in place

    rx = _receive_frames(frames, cfg.channel, s_channel)

    def no_sync() -> LinkReport:
        return LinkReport(
            frames_sent=n, frames_detected=0, frames_missed=n,
            sync_acquired=False, coding=cfg.coding,
        )

    decision = detect(np.unpackbits(rx.reshape(-1)), cfg.preamble, cfg.threshold)
    if not decision.detected:
        return no_sync()
    first_frame, rem = divmod(decision.frame_start_bit, framing.FRAME_BITS)
    if rem != 0:
        # acquired off the true boundary: nothing downstream is meaningful
        return no_sync()

    n_avail = n - first_frame
    rx_frames = rx[first_frame:]

    if cfg.redetect:
        pre = np.frombuffer(cfg.preamble, dtype=np.uint8)
        pre_errors = np.bitwise_count(rx_frames[:, : framing.PREAMBLE_LEN] ^ pre).sum(axis=1)
        fired = pre_errors <= PREAMBLE_BITS - cfg.threshold
        det_mask = np.ones(n_avail, dtype=bool)
        det_mask[:-1] = fired[:-1] & fired[1:]
    else:
        det_mask = np.ones(n_avail, dtype=bool)

    det_idx = np.nonzero(det_mask)[0]
    frames_detected = int(det_idx.size)
    frames_missed = n - frames_detected

    tx_data = data[first_frame:][det_idx]
    rx_det = rx_frames[det_idx]
    # scrambling is a fixed XOR, so scrambled codewords differ where the plain ones do
    cw = slice(framing.PREAMBLE_LEN, framing.PREAMBLE_LEN + RS_N)
    raw_err = int(np.bitwise_count(rx_det[:, cw] ^ tx[first_frame:][det_idx, cw]).sum())
    rx_cw = scrambler.scramble_block(rx_det[:, framing.PREAMBLE_LEN :])[:, :RS_N]
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
    """Run the link at each Eb/N0 over an AWGN channel; Wilson intervals on BER.

    Every point's channel is built, and so checked, before the first point runs.
    """
    cfgs = [
        replace(base, channel=ChannelSpec("awgn", ebno_db=float(ebno)), seed=_point_seed(base.seed, i))
        for i, ebno in enumerate(ebno_list)
    ]
    points = []
    for cfg in cfgs:
        ebno = cfg.channel.ebno_db
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
                ebno_db=ebno,
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
