"""Channel impairments: AWGN, binary-symmetric bit flips and symbol-spaced
multipath taps.  Everything is deterministic given (input, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelSpec:
    kind: str  # "awgn" | "bsc" | "multipath"
    ebno_db: float | None = None
    p: float | None = None
    taps: tuple[complex, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("awgn", "bsc", "multipath"):
            raise ValueError(f"unknown channel kind: {self.kind!r}")
        if self.kind == "awgn" and self.ebno_db is None:
            raise ValueError("awgn channel requires ebno_db")
        if self.kind == "bsc" and (self.p is None or not 0.0 <= self.p <= 1.0):
            raise ValueError("bsc channel requires p in [0, 1]")
        if self.kind == "multipath":
            if not self.taps or self.taps[0] != 1:
                raise ValueError("multipath taps must start with 1")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def apply_awgn(symbols: np.ndarray, ebno_db: float | None, seed=0) -> np.ndarray:
    """Add circular complex Gaussian noise, Eb = 1 per symbol (one bit/symbol).

    Real or complex symbols in, complex128 out.  ebno_db = None (or +inf) is
    the no-noise mode.  The draws are a stated contract: n standard normals
    for the in-phase plane, then n for the quadrature plane, each scaled by
    sigma = sqrt(N0 / 2) -- the same numbers as two ``rng.normal(0, sigma, n)``
    calls.  The noise is written plane by plane into the output, so no
    complex temporaries are built.
    """
    if ebno_db is None or np.isinf(ebno_db):
        return np.array(symbols, dtype=np.complex128)
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


def apply_bsc(bits: np.ndarray, p: float, seed=0) -> np.ndarray:
    """Flip each bit independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    bits = np.asarray(bits, dtype=np.uint8)
    if p == 0.0:
        return bits.copy()
    rng = _rng(seed)
    flips = (rng.random(bits.size) < p).astype(np.uint8)
    return bits ^ flips


def apply_multipath(symbols: np.ndarray, taps) -> np.ndarray:
    """Symbol-spaced FIR convolution; full convolution, so the tail is kept."""
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.size == 0 or taps[0] != 1:
        raise ValueError("taps must start with 1")
    sym = np.asarray(symbols, dtype=np.complex128)
    return np.convolve(sym, taps)
