"""GF(256) tables over the field polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).

All arithmetic is a numpy table lookup: ``GF_EXP[i] = alpha^i`` for
i = 0..254 with alpha = 0x02, ``GF_LOG`` its inverse on the nonzero
elements, the full 256x256 product table ``GF_MUL`` and the inverse table
``GF_INV``.  They are built once at import.
"""

from __future__ import annotations

import numpy as np

FIELD_POLY = 0x11D
ORDER = 255


def _build_exp() -> np.ndarray:
    exp = np.empty(ORDER, dtype=np.uint8)
    x = 1
    for i in range(ORDER):
        exp[i] = x
        x <<= 1
        if x & 0x100:
            x ^= FIELD_POLY
    return exp


GF_EXP = _build_exp()
GF_LOG = np.zeros(256, dtype=np.int64)  # GF_LOG[0] is unused
GF_LOG[GF_EXP] = np.arange(ORDER)


def _build_mul_table() -> np.ndarray:
    mul = np.tile(GF_EXP, 2)[GF_LOG[:, None] + GF_LOG[None, :]]  # a log sum is at most 508
    mul[0, :] = 0
    mul[:, 0] = 0
    return mul


# GF_MUL[a, b] = a * b; GF_INV[a] = 1 / a, with GF_INV[0] = 0 so that a
# quotient by zero reads as 0
GF_MUL = _build_mul_table()
GF_INV = np.concatenate([[0], GF_EXP[-GF_LOG[1:] % ORDER]]).astype(np.uint8)
