"""Channel impairments: AWGN, binary-symmetric bit flips and symbol-spaced
multipath taps.  Everything is deterministic given (input, parameters, seed).

``dbpsk_awgn_flips`` and ``bsc_flips`` give the bit errors of a channel
directly, as sorted positions, for links that need no symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelSpec:
    kind: str  # "awgn" | "bsc" | "multipath"
    ebno_db: float | None = None
    p: float | None = None
    taps: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("awgn", "bsc", "multipath"):
            raise ValueError(f"unknown channel kind: {self.kind!r}")
        if self.kind == "awgn" and self.ebno_db is None:
            raise ValueError("awgn channel requires ebno_db")
        if self.ebno_db is not None:
            _check_ebno(self.ebno_db)
        if self.kind == "bsc" and (self.p is None or not 0.0 <= self.p <= 1.0):
            raise ValueError("bsc channel requires p in [0, 1]")
        if self.kind == "multipath":
            if not self.taps or self.taps[0] != 1:
                raise ValueError("multipath taps must start with 1")
            if not np.isfinite(np.asarray(self.taps, dtype=complex)).all():
                raise ValueError("multipath taps must be finite")


def _check_ebno(ebno_db: float) -> None:
    # +inf is the no-noise mode; -inf and NaN name no channel
    if math.isnan(ebno_db) or ebno_db == -math.inf:
        raise ValueError(f"ebno_db must be a number or +inf, got {ebno_db}")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def apply_awgn(symbols: np.ndarray, ebno_db: float | None, seed=0) -> np.ndarray:
    """Add circular complex Gaussian noise, Eb = 1 per symbol (one bit/symbol).

    Real or complex symbols in, complex128 out.  ebno_db = None (or +inf) is
    the no-noise mode; -inf and NaN raise ValueError.  The draws are a stated
    contract: n standard normals for the in-phase plane, then n for the
    quadrature plane, each scaled by sigma = sqrt(N0 / 2) -- the same numbers
    as two ``rng.normal(0, sigma, n)`` calls.  The noise is written plane by plane into the output, so no
    complex temporaries are built.
    """
    if ebno_db is None or ebno_db == math.inf:
        return np.array(symbols, dtype=np.complex128)
    _check_ebno(ebno_db)
    sym = np.asarray(symbols)
    n0 = 10.0 ** (-ebno_db / 10.0)  # Eb = 1
    rng = _rng(seed)
    sigma = np.sqrt(n0 / 2.0)
    out = np.empty(sym.size, dtype=np.complex128)
    noise = np.empty(sym.size)
    imag = sym.imag if np.iscomplexobj(sym) else 0.0
    for plane, signal in ((out.real, sym.real), (out.imag, imag)):
        rng.standard_normal(out=noise)
        noise *= sigma
        np.add(signal, noise, out=plane)
    return out


def bsc_flips(n_bits: int, p: float, seed=0) -> np.ndarray:
    """Sorted positions of the bits a binary symmetric channel flips.

    One uniform draw per bit, a flip where it is below p; p = 0 draws nothing.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(_rng(seed).random(n_bits) < p)


def apply_bsc(bits: np.ndarray, p: float, seed=0) -> np.ndarray:
    """Flip each bit independently with probability p."""
    out = np.array(bits, dtype=np.uint8)
    out[bsc_flips(out.size, p, seed)] ^= 1
    return out


def dbpsk_pair_errors(z: np.ndarray, c: float) -> np.ndarray:
    """Wrong delay-and-multiply decisions between consecutive symbols.

    ``z`` is (k, 2): for symbol s with noise n, the rotated coordinates
    z1 = (Im - Re)(s n) / (sqrt 2 sigma) and z2 = (-Im - Re)(s n) / (sqrt 2 sigma),
    which are i.i.d. N(0, 1).  With c = sqrt(Eb/N0) and d = c - z, the
    phase-stripped symbol s r = 1 + s n, scaled by the positive
    sqrt(2) / sigma, is (d1 + d2) + i (d2 - d1).  So the real part of the
    product of symbol k with the conjugate of symbol k - 1 is twice the dot
    product of their d, and decision k is wrong where that is negative.
    Returns k - 1 flags.  A symbol lies in the wedge |arg| < pi/4 exactly
    when both its coordinates are below c (d > 0), so two symbols in the
    wedge always decide right.
    """
    d = c - z
    return np.einsum("ij,ij->i", d[1:], d[:-1]) < 0


def _normal_tail(k: int, c: float, rng: np.random.Generator) -> np.ndarray:
    """k draws of N(0, 1) conditioned on z >= c > 0.

    Robert's exponential rejection (Statistics and Computing, 1995): propose
    c + Exp(alpha) with the optimal rate alpha, accept with probability
    exp(-(z - alpha)^2 / 2).
    """
    alpha = 0.5 * (c + math.sqrt(c * c + 4.0))
    out = np.empty(k)
    filled = 0
    while filled < k:
        need = k - filled
        z = c + rng.standard_exponential(need) / alpha
        z = z[rng.random(need) <= np.exp(-0.5 * (z - alpha) ** 2)]
        out[filled : filled + z.size] = z
        filled += z.size
    return out


def _bernoulli_positions(m: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in [0, m) of i.i.d. Bernoulli(q) successes, by geometric gaps."""
    chunks = []
    end = -1
    while end < m - 1:
        k = int(m * q + 6.0 * math.sqrt(m * q) + 16)
        # numpy saturates huge gaps at INT64_MAX; any gap past m ends the run,
        # so the clip changes no position and keeps the cumsum from overflowing
        gaps = np.minimum(rng.geometric(q, k), m + 1)
        pos = end + np.cumsum(gaps)
        chunks.append(pos)
        end = int(pos[-1])
    pos = np.concatenate(chunks)
    return pos[: np.searchsorted(pos, m)]


def dbpsk_awgn_flips(n_bits: int, ebno_db: float | None, seed=0) -> np.ndarray:
    """Sorted int64 positions of the bits that DBPSK over AWGN decides wrongly.

    Exact sampler of the chain diff_encode -> map_bpsk -> apply_awgn ->
    diff_demod: every call has that chain's law for any input bits, but not
    its draws, and it draws no symbols.  With c = sqrt(Eb/N0), each of the
    2 (n_bits + 1) rotated noise coordinates (see ``dbpsk_pair_errors``) is
    in its tail z >= c with probability q = Q(c), independently.  The tails
    are placed by geometric gaps; the symbols holding one, and their
    neighbours, get tail coordinates from N(0, 1) above c and the others
    from N(0, 1) below c; then every consecutive pair of those symbols is
    decided.  Only these pairs can be wrong, since both symbols of any other
    pair lie in the wedge.  Cost grows with q.  Per 4.16 Mbit on a 2-vCPU
    x86 VM (numpy 2.4) it took about 17 ms at 10 dB, 70 ms at 6 dB and
    0.15 s at 4 dB, against 0.3 s for the symbol chain at any Eb/N0; below
    about 2 dB it is the slower of the two (0.4 s at 0 dB, 0.7 s at -5 dB).
    """
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    if ebno_db is None or ebno_db == math.inf:
        return np.empty(0, dtype=np.int64)
    _check_ebno(ebno_db)
    try:
        c = 10.0 ** (ebno_db / 20.0)
    except OverflowError:  # above about 6160 dB; q = Q(c) is 0 from about 32 dB on
        return np.empty(0, dtype=np.int64)
    q = 0.5 * math.erfc(c / math.sqrt(2.0))
    if q == 0.0:
        return np.empty(0, dtype=np.int64)
    rng = _rng(seed)
    n_sym = n_bits + 1
    tails = _bernoulli_positions(2 * n_sym, q, rng)
    is_tail = np.zeros((n_sym, 2), dtype=bool)
    is_tail.reshape(-1)[tails] = True
    code = is_tail.view(np.uint16).reshape(-1)  # a symbol's two flags as one word
    hot = code != 0
    needed = hot.copy()
    needed[1:] |= hot[:-1]
    needed[:-1] |= hot[1:]
    idx = np.flatnonzero(needed)
    is_tail = code[idx].view(bool)  # two flags per needed symbol
    # N(0, 1) below c by rejection, in place: redraw each coordinate until it falls below
    z = rng.standard_normal(is_tail.size)
    redo = np.flatnonzero((z >= c) & ~is_tail)
    while redo.size:
        z[redo] = rng.standard_normal(redo.size)
        redo = redo[z[redo] >= c]
    z[is_tail] = _normal_tail(tails.size, c, rng)
    # a pair across a gap in idx joins two non-tail neighbours, both in the
    # wedge, so it is never wrong and needs no mask
    return idx[1:][dbpsk_pair_errors(z.reshape(-1, 2), c)] - 1


def apply_multipath(symbols: np.ndarray, taps) -> np.ndarray:
    """Symbol-spaced FIR convolution; full convolution, so the tail is kept."""
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.size == 0 or taps[0] != 1:
        raise ValueError("taps must start with 1")
    sym = np.asarray(symbols, dtype=np.complex128)
    return np.convolve(sym, taps)
