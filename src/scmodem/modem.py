"""Differential BPSK: transition encoding, ±1 mapping and delay-and-multiply
demodulation, plus an oversampled waveform mode for eye diagrams.

The chain works at complex baseband, one symbol per bit.  The demodulator
forms Re(r_k * conj(r_{k-1})), so any common phase rotation cancels and no
carrier phase reference is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def diff_encode(bits: np.ndarray) -> np.ndarray:
    """Transition-encode: c_0 = 0 reference, c_k = c_{k-1} xor b_k.

    Output carries one extra leading reference bit.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    out = np.empty(bits.size + 1, dtype=np.uint8)
    out[0] = 0
    np.cumsum(bits, out=out[1:], dtype=np.uint8)
    out[1:] &= 1
    return out


def diff_decode(coded: np.ndarray) -> np.ndarray:
    """Inverse of diff_encode: b_k = c_k xor c_{k-1}."""
    coded = np.asarray(coded, dtype=np.uint8)
    return coded[1:] ^ coded[:-1]


def map_bpsk(coded_bits: np.ndarray) -> np.ndarray:
    """s_k = 1 - 2 c_k, unit energy per symbol."""
    coded_bits = np.asarray(coded_bits, dtype=np.uint8)
    return 1.0 - 2.0 * coded_bits.astype(np.float64)


def diff_demod(received: np.ndarray, prev: complex | None = None) -> np.ndarray:
    """Delay-and-multiply decisions: bit = 1 iff Re(r_k conj(r_{k-1})) < 0.

    The first symbol is consumed as the reference unless ``prev`` carries the
    last symbol of the preceding chunk.  Ties (metric exactly 0) decide 0.
    """
    r = np.asarray(received, dtype=np.complex128)
    if prev is not None:
        r = np.concatenate([[prev], r])
    if r.size < 2:
        return np.empty(0, dtype=np.uint8)
    y = np.real(r[1:] * np.conj(r[:-1]))
    return (y < 0).astype(np.uint8)


class DiffDemod:
    """Streaming demodulator; chunked feeds match whole-stream processing."""

    def __init__(self) -> None:
        self._prev: complex | None = None

    def process(self, chunk: np.ndarray) -> np.ndarray:
        chunk = np.asarray(chunk, dtype=np.complex128)
        out = diff_demod(chunk, prev=self._prev)
        if chunk.size:
            self._prev = complex(chunk[-1])
        return out


@dataclass(frozen=True)
class WaveformConfig:
    oversampling: int = 8
    # cutoff relative to the symbol rate; 8/7 puts it at 1 GHz for 875 Msym/s
    cutoff_ratio: float = 8.0 / 7.0
    numtaps: int | None = None  # default 6*L + 1, linear phase

    def __post_init__(self) -> None:
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")


def lowpass_taps(cfg: WaveformConfig) -> np.ndarray:
    from scipy.signal import firwin  # only waveform rendering needs scipy

    ntaps = cfg.numtaps if cfg.numtaps is not None else 6 * cfg.oversampling + 1
    # firwin cutoff is relative to Nyquist = L/2 symbol rates
    norm = cfg.cutoff_ratio / (cfg.oversampling / 2.0)
    return firwin(ntaps, min(norm, 0.999))


def render_waveform(symbols: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Rectangular pulses at L samples/symbol through the linear-phase lowpass.

    Output is group-delay compensated: sample i*L + L//2 is the center sample
    of symbol i.
    """
    if cfg.oversampling < 2:
        raise ValueError("oversampling must be >= 2 for waveform rendering")
    sym = np.asarray(symbols)
    x = np.repeat(np.real(sym).astype(np.float64), cfg.oversampling)
    taps = lowpass_taps(cfg)
    delay = (len(taps) - 1) // 2
    y = np.convolve(x, taps)
    return y[delay : delay + x.size]


def eye_traces(samples: np.ndarray, oversampling: int, settle_symbols: int = 4) -> np.ndarray:
    """Overlapping 2-symbol segments, one trace per symbol boundary."""
    L = oversampling
    first = settle_symbols
    n_traces = samples.size // L - first - 2
    if n_traces <= 0:
        return np.empty((0, 2 * L))
    idx = (first + np.arange(n_traces))[:, None] * L + np.arange(2 * L)[None, :]
    return samples[idx]


def center_samples(samples: np.ndarray, oversampling: int) -> np.ndarray:
    """One decision-instant sample per symbol (mid-symbol)."""
    return samples[oversampling // 2 :: oversampling]


def eye_opening(samples: np.ndarray, symbols: np.ndarray, oversampling: int, settle_symbols: int = 4) -> float:
    """Vertical opening at the decision instant: min(+1 rail) - max(-1 rail)."""
    centers = center_samples(samples, oversampling)
    sym = np.real(np.asarray(symbols))[: centers.size]
    centers = centers[: sym.size]
    keep = slice(settle_symbols, None)
    hi = centers[keep][sym[keep] > 0]
    lo = centers[keep][sym[keep] < 0]
    if hi.size == 0 or lo.size == 0:
        raise ValueError("need both symbol polarities to measure an eye opening")
    return float(hi.min() - lo.max())
