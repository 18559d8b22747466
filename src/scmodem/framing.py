"""The 260-byte frame (preamble | data | RS parity | extra byte) and the
dual-clock FIFO rate model.

Layout on the air: 4 preamble bytes (never scrambled), then the scrambled
256-byte body = 239 data + 16 RS parity + 1 extra byte.  Serialization is
MSB-first per byte; the extra byte holds k = d(8)*2^7 + ... + d(1), so it
goes out d(8) first and d(1) last, adjacent to the next frame's preamble.

Byte rates: f2 = 875/8 MHz on the read side, f1 = f2 * 239/260 on the write
side, kept as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import scrambler
from .rs import DecodeOutcome, rs_decode, rs_encode_block

PREAMBLE_LEN = 4
DATA_LEN = 239
PARITY_LEN = 16
EXTRA_LEN = 1
FRAME_LEN = PREAMBLE_LEN + DATA_LEN + PARITY_LEN + EXTRA_LEN  # 260
BODY_LEN = FRAME_LEN - PREAMBLE_LEN  # 256, a multiple of 8
FRAME_BITS = FRAME_LEN * 8  # 2080

DEFAULT_EXTRA_K = 64

# byte-clock rates in MHz, exact: F2 = IF/4 = 875 MHz, F1/F2 = 239/260
F2_MHZ = Fraction(875, 8)
F1_MHZ = F2_MHZ * Fraction(DATA_LEN, FRAME_LEN)

# read-side duty cycle: 4 preamble ticks, 239 data reads, 17 pause ticks
READ_OFFSET = PREAMBLE_LEN
READS_PER_FRAME = DATA_LEN
TICKS_PER_FRAME = FRAME_LEN


def check_preamble(preamble: bytes) -> None:
    if len(preamble) != PREAMBLE_LEN:
        raise ValueError(f"preamble must be {PREAMBLE_LEN} bytes, got {len(preamble)}")


def check_extra_k(extra_k: int) -> None:
    if not 0 <= extra_k <= 255:
        raise ValueError(f"extra byte k out of range: {extra_k}")


def build_frame(data: bytes, preamble: bytes, extra_k: int = DEFAULT_EXTRA_K) -> bytes:
    """Assemble one 260-byte frame: preamble + scrambled(data | parity | extra).

    A block of one: ``build_frames_block`` validates the arguments.
    """
    return build_frames_block(np.frombuffer(bytes(data), dtype=np.uint8)[None, :], preamble, extra_k)[0].tobytes()


def build_frames_block(data: np.ndarray, preamble: bytes, extra_k: int = DEFAULT_EXTRA_K) -> np.ndarray:
    """Vectorized build of (n, 260) frames from (n, 239) data rows."""
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim != 2 or data.shape[1] != DATA_LEN:
        raise ValueError(f"data must have shape (n, {DATA_LEN})")
    check_preamble(preamble)
    check_extra_k(extra_k)
    n = data.shape[0]
    codewords = rs_encode_block(data)
    body = np.hstack([codewords, np.full((n, 1), extra_k, dtype=np.uint8)])
    frames = np.empty((n, FRAME_LEN), dtype=np.uint8)
    frames[:, :PREAMBLE_LEN] = np.frombuffer(preamble, dtype=np.uint8)
    frames[:, PREAMBLE_LEN:] = scrambler.scramble_block(body)
    return frames


def parse_frame(raw: bytes, preamble: bytes) -> tuple[bytes, DecodeOutcome]:
    """Descramble and RS-decode a frame assumed to start at a boundary.

    Returns the corrected 239-byte data field and the decode outcome; the
    extra byte is discarded.
    """
    if len(raw) != FRAME_LEN:
        raise ValueError(f"frame must be {FRAME_LEN} bytes, got {len(raw)}")
    check_preamble(preamble)
    body = scrambler.descramble(raw[PREAMBLE_LEN:])
    outcome = rs_decode(body[: DATA_LEN + PARITY_LEN])
    return outcome.corrected_data, outcome


@dataclass
class FifoReport:
    depth: int
    n_frames: int
    n_writes: int
    n_reads: int
    min_occupancy: int  # lowest level seen after a read, once reading starts
    max_occupancy: int  # highest level seen after a write
    underflow_count: int
    overflow_count: int
    first_underflow_read: int | None
    first_overflow_write: int | None
    read_start_time_us: Fraction
    occupancy_at_reads: np.ndarray | None = None


def simulate_fifo(
    n_frames: int,
    depth: int = 512,
    write_rate_mhz: Fraction = F1_MHZ,
    read_rate_mhz: Fraction = F2_MHZ,
    ticks_per_frame: int = TICKS_PER_FRAME,
    reads_per_frame: int = READS_PER_FRAME,
    read_offset: int = READ_OFFSET,
    include_trace: bool = False,
) -> FifoReport:
    """Discrete-event trace of the dual-clock FIFO.

    Bytes are written at write_rate; the read clock starts once occupancy
    reaches depth/2 and reads on reads_per_frame of every ticks_per_frame
    ticks (the preamble/parity insertion pause).  Underflow and overflow are
    reported as events; occupancy accounting past an event stays nominal.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    if not 0 < reads_per_frame <= ticks_per_frame:
        raise ValueError("reads_per_frame must be in (0, ticks_per_frame]")
    write_rate_mhz = Fraction(write_rate_mhz)
    read_rate_mhz = Fraction(read_rate_mhz)

    w_int = 1 / write_rate_mhz  # us between writes
    r_int = 1 / read_rate_mhz  # us between read-clock ticks
    scale = lcm(w_int.denominator, r_int.denominator)
    iw = int(w_int * scale)
    ir = int(r_int * scale)

    half = (depth + 1) // 2
    t0 = (half - 1) * iw  # instant occupancy first reaches depth/2

    n_ticks = n_frames * ticks_per_frame
    ticks = np.arange(n_ticks, dtype=np.int64)
    in_frame = ticks % ticks_per_frame
    is_read = (in_frame >= read_offset) & (in_frame < read_offset + reads_per_frame)
    read_times = t0 + ticks[is_read] * ir
    n_reads = read_times.size

    t_end = t0 + (n_ticks - 1) * ir
    n_writes = int(t_end // iw) + 1
    write_times = np.arange(n_writes, dtype=np.int64) * iw

    # ties: a write at the same instant lands before the read
    occ_before_read = (read_times // iw + 1) - np.arange(n_reads, dtype=np.int64)
    occ_after_read = occ_before_read - 1
    under = occ_before_read <= 0

    reads_before_write = np.searchsorted(read_times, write_times, side="left")
    occ_after_write = np.arange(1, n_writes + 1, dtype=np.int64) - reads_before_write
    over = occ_after_write > depth

    under_idx = np.nonzero(under)[0]
    over_idx = np.nonzero(over)[0]
    return FifoReport(
        depth=depth,
        n_frames=n_frames,
        n_writes=n_writes,
        n_reads=n_reads,
        min_occupancy=int(occ_after_read.min()) if n_reads else half,
        max_occupancy=int(occ_after_write.max()),
        underflow_count=int(under_idx.size),
        overflow_count=int(over_idx.size),
        first_underflow_read=int(under_idx[0]) if under_idx.size else None,
        first_overflow_write=int(over_idx[0]) if over_idx.size else None,
        read_start_time_us=Fraction(t0, scale),
        occupancy_at_reads=occ_after_read if include_trace else None,
    )
