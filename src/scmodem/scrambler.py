"""64-bit additive scrambling of the non-preamble frame body.

The mask is one 63-bit period of the m-sequence from the LFSR x^6 + x + 1
(all-ones seed) plus one appended 0 bit, packed MSB-first into 8 bytes.
Scrambling is a bytewise XOR with that mask repeated cyclically, so it is
its own inverse.
"""

from __future__ import annotations

import numpy as np

LFSR_DEGREE = 6
LFSR_SEED = 0b111111  # all ones
SEQUENCE_BITS = 64


def generate_sequence() -> np.ndarray:
    """One 64-bit scrambling sequence as a uint8 bit array (63-bit m-sequence + 0)."""
    state = LFSR_SEED
    bits = np.zeros(SEQUENCE_BITS, dtype=np.uint8)
    for i in range(2**LFSR_DEGREE - 1):
        bits[i] = state & 1
        fb = (state ^ (state >> (LFSR_DEGREE - 1))) & 1  # taps for x^6 + x + 1
        state = (state >> 1) | (fb << (LFSR_DEGREE - 1))
    bits[SEQUENCE_BITS - 1] = 0
    return bits


def sequence_bytes() -> bytes:
    """The scrambling sequence packed MSB-first into 8 bytes."""
    return np.packbits(generate_sequence()).tobytes()


_MASK = np.frombuffer(sequence_bytes(), dtype=np.uint8)


def scramble(payload: bytes) -> bytes:
    """XOR the payload with the 8-byte sequence repeated cyclically.

    A block of one: ``scramble_block`` validates the length.
    """
    return scramble_block(np.frombuffer(payload, dtype=np.uint8)[None, :])[0].tobytes()


def descramble(payload: bytes) -> bytes:
    """Inverse of scramble (XOR is self-inverse)."""
    return scramble(payload)


def scramble_block(rows: np.ndarray) -> np.ndarray:
    """Scramble each row of an (n, m) uint8 array, m a multiple of 8."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.shape[-1] % 8:
        raise ValueError(f"row length must be a multiple of 8 bytes, got {rows.shape[-1]}")
    mask = np.tile(_MASK, rows.shape[-1] // 8)
    return rows ^ mask
