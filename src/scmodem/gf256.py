"""GF(256) arithmetic over the field polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).

Log/antilog tables are built once at import; all operations are table lookups.
The antilog table is doubled so that a log-sum up to 508 needs no modulo.
The block Reed-Solomon routines use the full 256x256 product table and the
inverse table instead.
"""

from __future__ import annotations

import numpy as np

FIELD_POLY = 0x11D
ALPHA = 0x02
ORDER = 255


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= FIELD_POLY
    for i in range(ORDER, 510):
        exp[i] = exp[i - ORDER]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()

# numpy views for the block-oriented Reed-Solomon routines
GF_EXP = np.array(EXP_TABLE, dtype=np.uint8)
GF_LOG = np.array(LOG_TABLE, dtype=np.int64)


def _build_mul_table() -> np.ndarray:
    mul = GF_EXP[GF_LOG[:, None] + GF_LOG[None, :]]
    mul[0, :] = 0
    mul[:, 0] = 0
    return mul


# GF_MUL[a, b] = a * b; GF_INV[a] = 1 / a, with GF_INV[0] = 0 so that a
# quotient by zero reads as 0
GF_MUL = _build_mul_table()
GF_INV = np.concatenate([[0], GF_EXP[ORDER - GF_LOG[1:]]]).astype(np.uint8)


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]]


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return EXP_TABLE[(LOG_TABLE[a] - LOG_TABLE[b]) % ORDER]


def gf_pow(a: int, n: int) -> int:
    if a == 0:
        return 0 if n > 0 else 1
    return EXP_TABLE[(LOG_TABLE[a] * n) % ORDER]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return EXP_TABLE[ORDER - LOG_TABLE[a]]


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Multiply polynomials with descending-order coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        la = LOG_TABLE[a]
        for j, b in enumerate(q):
            if b:
                out[i + j] ^= EXP_TABLE[la + LOG_TABLE[b]]
    return out

