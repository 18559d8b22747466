"""Reed-Solomon (255, 239) codec over GF(256), 8-byte correction capacity.

The codec is block-native: every routine takes n words as an (n, m) uint8
array, and the scalar ``rs_encode`` and ``rs_decode`` are blocks of one.
Generator roots are alpha^1 .. alpha^16 with alpha = 0x02; byte i of a
codeword carries x^(254 - i).

Encoding and syndromes are GF(2)-linear in the input bytes, so each is an XOR
of per-position lookup tables, ``parity = XOR_i T_i[data_i]`` and
``S = XOR_i U_i[word_i]``, with every 16-byte table entry packed as two
uint64.  Decoding takes every row with a nonzero syndrome at once: Berlekamp-
Massey runs its 16 steps with numpy masks over the row axis and a 256x256
multiply table, Chien search evaluates the error locator at all 255 field
points of every row, and Forney's formula gives the magnitude at each of the
(at most 8) roots of a row.  A row is corrected only if 1 <= L <= 8, the
locator has degree L and L roots, no Forney denominator or magnitude is zero,
and the corrected word has zero syndromes; otherwise it is flagged
uncorrectable and passed through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf256 import GF_EXP, GF_INV, GF_MUL, ORDER

N = 255
K = 239
PARITY = N - K  # 16
T = PARITY // 2  # 8
FIRST_ROOT = 1  # generator roots alpha^FIRST_ROOT .. alpha^(FIRST_ROOT+15)
_CHUNK = 512  # rows per table gather: bounds the (m, rows, 2) uint64 temporary


def _generator_poly() -> list[int]:
    g = [1]
    for i in range(FIRST_ROOT, FIRST_ROOT + PARITY):
        g = [a ^ b for a, b in zip(g + [0], [0] + GF_MUL[GF_EXP[i], g].tolist())]  # g (x + alpha^i)
    return g


GENERATOR = _generator_poly()  # monic, degree 16, descending order


def _packed_tables(coef: np.ndarray) -> np.ndarray:
    """Flat (m * 256, 2) uint64 table whose row 256 i + v packs v * coef[i, :16]."""
    table = GF_MUL[:, coef].transpose(1, 0, 2)  # (m, 256, 16): v * coef[i, j]
    return np.ascontiguousarray(table).view(np.uint64).reshape(-1, 2)


def _encoder_coefs() -> np.ndarray:
    """Row i: x^(254 - i) mod g(x), i.e. the parity of a unit at data byte i."""
    by_lead = GF_MUL[:, GENERATOR[1:]].tolist()  # by_lead[c][j] = c * g_(j+1)
    rows = [GENERATOR[1:]]  # x^16 mod g, data byte 238
    for _ in range(K - 1):
        r = rows[-1]
        rows.append([a ^ b for a, b in zip(r[1:] + [0], by_lead[r[0]])])
    return np.array(rows[::-1], dtype=np.uint8)


_EXP_IDX = np.arange(N)
# _SYND_COEF[i, j] = alpha^((j + 1) * (254 - i)): S_(j+1) term of byte i
_SYND_COEF = GF_EXP[(np.arange(FIRST_ROOT, FIRST_ROOT + PARITY)[None, :] * (N - 1 - _EXP_IDX[:, None])) % ORDER]
_ENC_TABLE = _packed_tables(_encoder_coefs())
_SYND_TABLE = _packed_tables(_SYND_COEF)
# _CHIEN[i - 1, c, k] = c * alpha^(i k): term i of Lambda(alpha^k), i = 1..8
_CHIEN = GF_MUL[:, GF_EXP[(np.arange(1, T + 1)[:, None] * _EXP_IDX[None, :]) % ORDER]].transpose(1, 0, 2).copy()


def _xor_lookup(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR over columns i of table[256 i + rows[:, i]], as (n, 16) uint8."""
    n, m = rows.shape
    offsets = (np.arange(m, dtype=np.intp) * 256)[:, None]
    out = np.empty((n, 2), dtype=np.uint64)
    for s in range(0, n, _CHUNK):
        picked = np.take(table, rows[s : s + _CHUNK].T + offsets, axis=0)  # (m, rows, 2)
        np.bitwise_xor.reduce(picked, axis=0, out=out[s : s + _CHUNK])
    return out.view(np.uint8)


def _check_block(arr, width: int, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have shape (n, {width})")
    return arr


@dataclass(frozen=True)
class DecodeOutcome:
    corrected_data: bytes
    errors_corrected: int
    uncorrectable: bool


def rs_encode_block(data: np.ndarray) -> np.ndarray:
    """Encode an (n, 239) uint8 array into an (n, 255) codeword array."""
    data = _check_block(data, K, "data")
    return np.hstack([data, _xor_lookup(_ENC_TABLE, data)])


def rs_encode(data: bytes) -> bytes:
    """Encode 239 data bytes into a systematic 255-byte codeword."""
    if len(data) != K:
        raise ValueError(f"data must be exactly {K} bytes, got {len(data)}")
    return rs_encode_block(np.frombuffer(bytes(data), dtype=np.uint8)[None, :])[0].tobytes()


def syndromes_block(codewords: np.ndarray) -> np.ndarray:
    """Syndromes S_1..S_16 for each row of an (n, 255) uint8 array."""
    return _xor_lookup(_SYND_TABLE, _check_block(codewords, N, "codewords"))


def _berlekamp_massey(synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error locators (m, 17) in ascending order and their lengths L (m,).

    Massey's recursion, one row per word: the correction term x^m B / b is
    kept pre-shifted in ``shifted``, so a zero discrepancy adds nothing.
    Index arrays are intp, which numpy gathers without a cast.
    """
    m = synd.shape[0]
    lam = np.zeros((m, PARITY + 1), dtype=np.intp)
    lam[:, 0] = 1
    shifted = np.zeros_like(lam)
    shifted[:, 1] = 1
    length = np.zeros(m, dtype=np.intp)
    b_inv = np.ones(m, dtype=np.intp)
    # rev[:, PARITY - 1 - j] = S_(j+1); zeros stand for syndromes before S_1
    rev = np.zeros((m, 2 * PARITY), dtype=np.intp)
    rev[:, PARITY - 1 :: -1] = synd
    for r in range(PARITY):
        window = rev[:, PARITY - 1 - r : 2 * PARITY - r]  # column i: S_(r - i + 1)
        d = np.bitwise_xor.reduce(GF_MUL[lam, window], axis=1)
        grow = (d != 0) & (2 * length <= r)
        old = np.where(grow[:, None], lam, shifted)
        lam ^= GF_MUL[GF_MUL[d, b_inv][:, None], shifted]
        length[grow] = r + 1 - length[grow]
        b_inv[grow] = GF_INV[d[grow]]
        shifted[:, 1:] = old[:, :-1]
        shifted[:, 0] = 0
    return lam, length


def rs_decode_block(words: np.ndarray, synd: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounded-distance decode of every row of an (n, 255) uint8 array.

    ``synd`` may carry the rows' ``syndromes_block`` when the caller already
    has it.  Returns the corrected words (n, 255), the number of byte errors
    corrected per row (0 for clean and flagged rows) and the uncorrectable
    flags; flagged rows are passed through unchanged.
    """
    words = _check_block(words, N, "words")
    synd = syndromes_block(words) if synd is None else _check_block(synd, PARITY, "synd")
    if synd.shape[0] != words.shape[0]:
        raise ValueError("synd must have one row per word")
    n = words.shape[0]
    corrected = words.copy()
    n_err = np.zeros(n, dtype=np.int64)
    flagged = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(synd.any(axis=1))
    if rows.size == 0:
        return corrected, n_err, flagged
    flagged[rows] = True  # cleared below for every row that decodes
    s = synd[rows]
    lam, length = _berlekamp_massey(s)
    degree = PARITY - np.argmax(lam[:, ::-1] != 0, axis=1)
    ok = (length >= 1) & (length <= T) & (degree == length)
    rows, s, lam, length = rows[ok], s[ok], lam[ok, : T + 1], length[ok]

    # Chien search: Lambda(alpha^k) for all k; alpha^k = X^-1 marks degree -k
    value = np.ones((rows.size, ORDER), dtype=np.uint8)
    for i in range(1, T + 1):
        value ^= _CHIEN[i - 1][lam[:, i]]
    is_root = value == 0
    ok = is_root.sum(axis=1) == length
    rows, s, lam, length, is_root = rows[ok], s[ok], lam[ok], length[ok], is_root[ok]

    # Forney: e = Omega(X^-1) / Lambda'(X^-1), Omega = S Lambda mod x^16
    omega = np.zeros_like(s)
    for i in range(T + 1):
        omega[:, i:] ^= GF_MUL[lam[:, i : i + 1], s[:, : PARITY - i]]
    r_idx, k = np.nonzero(is_root)
    num = np.bitwise_xor.reduce(
        GF_MUL[omega[r_idx], GF_EXP[(k[:, None] * np.arange(PARITY)) % ORDER]], axis=1)
    # Lambda'(x) keeps the odd-power terms: sum of lam[2t + 1] x^(2t)
    den = np.bitwise_xor.reduce(
        GF_MUL[lam[r_idx, 1::2], GF_EXP[(k[:, None] * np.arange(0, T, 2)) % ORDER]], axis=1)
    mag = GF_MUL[num, GF_INV[den]]  # 0 when den = 0
    ok = np.bincount(r_idx, weights=mag == 0, minlength=rows.size) == 0
    corrected[rows[r_idx], N - 1 - (ORDER - k) % ORDER] ^= mag

    ok[ok] = ~syndromes_block(corrected[rows[ok]]).any(axis=1)
    corrected[rows[~ok]] = words[rows[~ok]]
    flagged[rows[ok]] = False
    n_err[rows[ok]] = length[ok]
    return corrected, n_err, flagged


def rs_decode(received: bytes | np.ndarray) -> DecodeOutcome:
    """Bounded-distance decode of one 255-byte word (a block of one).

    Corrects up to 8 byte errors.  Uncorrectable words are flagged and the
    data field is passed through unchanged.
    """
    raw = bytes(received)
    if len(raw) != N:
        raise ValueError(f"received word must be exactly {N} bytes, got {len(raw)}")
    corrected, n_err, flagged = rs_decode_block(np.frombuffer(raw, dtype=np.uint8)[None, :])
    return DecodeOutcome(corrected[0, :K].tobytes(), int(n_err[0]), bool(flagged[0]))
