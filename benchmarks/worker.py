"""One workload in one process: warm up, then run whole cycles of operations
until the time is up, checking every operation's output.

    python3 benchmarks/worker.py --workload ber_coded --seed 0 --seconds 25 --trace 0

Prints one JSON line: operation counts, timed-phase frames and seconds,
peak RSS, the digest of the first cycle's results and, with ``--trace 1``,
every span.  ``run.py`` starts this process and turns its output into
metrics; the package is imported from ``src/`` of this checkout only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import scmodem  # noqa: E402
from scmodem import framing, link, rs, scrambler, sync  # noqa: E402
from scmodem.channel import ChannelSpec  # noqa: E402

import spec  # noqa: E402
from spans import Recorder  # noqa: E402

if not Path(scmodem.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"scmodem was imported from {scmodem.__file__}, not from {SRC}")

# Width of every Wilson interval the checks use.  DBPSK errors come in
# adjacent pairs, which roughly doubles the variance of a bit-error count, so
# z = 7 is about 5 binomial sigmas for BER and 7 for the detection counts:
# a correct program fails a check far less than once per thousand runs.
Z = 7.0
# Frames before acquisition on the coded points (6-8 dB).  At 6 dB a preamble
# window misses with probability ~3e-4, so a point starts one frame late about
# once in 1700 points, and three frames late about once in 10^6.  Uncoded
# points get no such bound: at 4 dB a window misses with probability ~0.025.
MAX_LATE_FRAMES = 2

SIZES = {
    False: {"ber_frames": 2000, "det_trials": 2000, "fa_frames": 4000},
    True: {"ber_frames": 60, "det_trials": 100, "fa_frames": 50},  # smoke / warm-up
}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def wilson(k: int, n: int, z: float = Z) -> tuple[float, float]:
    p = k / n
    z2 = z * z
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return centre - half, centre + half


@dataclass(frozen=True)
class Op:
    """One operation: one sweep point or one curve."""

    name: str
    frames: int  # nominal frames, fixed by the inputs
    run: Callable[[int], object]  # seed -> counts for the digest; raises on a bad output
    bits_read: int = 0  # bits of built frames the result depends on (sync curves)


def ber_point(ebno_db: float, coding: bool, n_frames: int) -> Op:
    """One ber_sweep point, run through run_link so the check sees the report."""
    base = link.LinkConfig(n_frames, channel=ChannelSpec("awgn", ebno_db=ebno_db), coding=coding)

    def run(seed: int):
        rep = link.run_link(replace(base, seed=seed))
        check(rep.sync_acquired, f"sync never acquired at {ebno_db} dB")
        check(rep.frames_sent == n_frames, "frames_sent differs from n_frames")
        check(rep.frames_detected + rep.frames_missed == n_frames, "detected + missed != sent")
        hist = sorted(rep.errors_corrected_hist.items())
        if coding:
            check(rep.frames_missed <= MAX_LATE_FRAMES, f"{rep.frames_missed} frames before acquisition")
            clean = rep.errors_corrected_hist.get(0, 0)
            corrected = sum(v for k, v in hist if k)
            check(
                clean + corrected + rep.uncorrectable_frames == rep.frames_detected,
                "clean + corrected + flagged != frames detected",
            )
        else:
            p = 0.5 * math.exp(-(10 ** (ebno_db / 10)))
            lo, hi = wilson(rep.n_raw_bit_errors, rep.n_raw_bits)
            check(lo <= p <= hi, f"raw BER {rep.ber_raw:.3g} at {ebno_db} dB, theory {p:.3g}")
        return [rep.frames_detected, rep.n_raw_bit_errors, rep.n_data_bit_errors,
                rep.frame_errors, rep.uncorrectable_frames, hist]

    return Op(f"ber_{'coded' if coding else 'uncoded'}_{ebno_db:g}dB", n_frames, run)


def detection_op(p_list: tuple[float, ...], n_trials: int) -> Op:
    thr = sync.DEFAULT_THRESHOLD
    expected = [
        sum(math.comb(32, k) * (1 - p) ** k * p ** (32 - k) for k in range(thr, 33)) ** 2
        for p in p_list
    ]

    def run(seed: int):
        pts = sync.detection_curve(p_list=p_list, n_trials=n_trials, seed=seed)
        hits = [round(pt.estimate * n_trials) for pt in pts]
        check(len(pts) == len(p_list), "one detection point per p")
        for p, k, q in zip(p_list, hits, expected):
            lo, hi = wilson(k, n_trials)
            check(lo <= q <= hi, f"detection {k}/{n_trials} at p={p}, theory {q:.4g}")
        return hits

    # each trial is a two-frame stream of which the two 32-bit preamble windows are read
    return Op("detection_curve", 2 * n_trials * len(p_list), run, bits_read=64 * n_trials * len(p_list))


def false_alarm_op(n_frames: int) -> Op:
    def run(seed: int):
        pts = sync.false_alarm_curve(n_frames=n_frames, seed=seed)
        est = [pt.estimate for pt in pts]
        check(len(pts) == 32, "one false-alarm point per threshold")
        check(all(a >= b for a, b in zip(est, est[1:])), "false-alarm curve increases")
        check(est[-1] == 0.0, "false alarm at S = 32")
        return [round(pt.estimate * pt.n) for pt in pts]

    # the correlator reads the whole stream, two tail frames included
    return Op("false_alarm_curve", n_frames, run, bits_read=(n_frames + 2) * framing.FRAME_BITS)


def cycle(workload: str, tiny: bool) -> list[Op]:
    s = SIZES[tiny]
    if workload == "ber_coded":
        return [ber_point(e, True, s["ber_frames"]) for e in (6.0, 7.0, 8.0)]
    if workload == "ber_uncoded":
        return [ber_point(e, False, s["ber_frames"]) for e in (4.0, 6.0, 8.0, 10.0)]
    if workload == "sync_curves":
        return [detection_op((0.01, 0.05, 0.1), s["det_trials"]), false_alarm_op(s["fa_frames"])]
    raise ValueError(f"unknown workload {workload!r}")


def _detect_counts(args, r):
    n = int(np.size(args[0]))
    useful = min(n, r.frame_start_bit + sync.DECISION_WINDOW_BITS) if r.detected else n
    return {"bits": n, "useful_bits": useful}


# (module, public name, span name, counts) — rebinding the name in the module
# that calls it makes every call through that module record a span.
WRAP_POINTS = [
    (link, "run_link", "link", lambda a, r: {"frames_detected": r.frames_detected}),
    (link, "rs_encode_block", "rs.encode", lambda a, r: {"data_bits": r.shape[0] * rs.K * 8}),
    (link, "syndromes_block", "rs.syndromes", None),
    (link, "rs_decode", "rs.decode", lambda a, r: {"flagged": int(r.uncorrectable)}),
    (link, "apply_awgn", "channel.awgn", lambda a, r: {"symbols": r.size}),
    (link, "diff_encode", "modem.mod", None),
    (link, "map_bpsk", "modem.mod", None),
    (link, "diff_demod", "modem.demod", lambda a, r: {"symbols": r.size}),
    (link, "detect", "sync.detect", _detect_counts),
    (scrambler, "scramble_block", "scrambler", None),
    (framing, "rs_encode_block", "rs.encode", lambda a, r: {"data_bits": r.shape[0] * rs.K * 8}),
    (framing, "build_frames_block", "framing.build_frames", lambda a, r: {"bits": r.size * 8}),
    (sync, "window_scores", "sync.window_scores", lambda a, r: {"bits": int(np.size(a[0]))}),
]


def install_wrappers(rec: Recorder) -> None:
    for module, attr, name, count in WRAP_POINTS:
        setattr(module, attr, rec.wrap(getattr(module, attr), name, count))


def op_seed(seed: int, phase: int, cyc: int, j: int) -> int:
    return int(np.random.SeedSequence((seed, phase, cyc, j)).generate_state(1)[0])


def run_cycle(rec: Recorder, ops: list[Op], seed: int, phase: int, cyc: int, errors: list[str]) -> list:
    results = []
    with rec.span("cycle"):
        for j, op in enumerate(ops):
            idx = rec.begin("op." + op.name)
            try:
                results.append(op.run(op_seed(seed, phase, cyc, j)))
            except Exception as exc:  # one failed operation must not end the run
                if not isinstance(exc, CheckFailed):
                    traceback.print_exc()
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                results.append({"error": type(exc).__name__})
            rec.end(idx, {"frames": op.frames, "bits_read": op.bits_read})
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    rec = Recorder()
    if args.trace:
        install_wrappers(rec)
    errors: list[str] = []
    warm_up = cycle(args.workload, True)
    run_cycle(rec, warm_up, args.seed, 0, 0, errors)  # untimed, but checked and counted
    rec.clear()

    ops = cycle(args.workload, args.tiny)
    first = None
    start = time.perf_counter()
    n_cycles = 0
    while n_cycles == 0 or time.perf_counter() - start < args.seconds:
        results = run_cycle(rec, ops, args.seed, 1, n_cycles, errors)
        if first is None:
            first = results
        n_cycles += 1

    cycles = [s for s in rec.spans if s[0] == "cycle"]
    out = {
        "attempted": len(warm_up) + n_cycles * len(ops),
        "failed": len(errors),
        "errors": errors,
        "cycles": n_cycles,
        "frames": n_cycles * sum(op.frames for op in ops),
        "timed_s": sum(end - begin for _, begin, end, *_ in cycles),
        "digest": hashlib.sha256(json.dumps(first).encode()).hexdigest()[:16],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__, "scmodem": scmodem.__version__},
    }
    if args.trace:
        out["spans"] = rec.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
