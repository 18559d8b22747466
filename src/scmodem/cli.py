"""Command-line front end for the simulator experiments.

Every subcommand writes plot-ready CSV (one-line header) plus a JSON manifest
holding the fully resolved parameters, so any run can be replayed
bit-identically with ``scmodem replay manifest.json``.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, framing, sync
from .channel import apply_awgn
from .link import LinkConfig, ber_sweep
from .modem import WaveformConfig, diff_encode, eye_traces, map_bpsk, render_waveform

OUT_DIR_ENV = "SCMODEM_OUT"


class UsageError(Exception):
    pass


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue().encode())


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".10g")
    return v


def _write_manifest(out_dir: Path, subcommand: str, params: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "scmodem",
        "version": __version__,
        "subcommand": subcommand,
        "params": params,
        "outputs": outputs,
    }
    _atomic_write(out_dir / "manifest.json", (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _parse_preamble(text: str) -> bytes:
    try:
        pre = bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"preamble must be 8 hex digits, got {text!r}")
    if len(pre) != 4:
        raise UsageError(f"preamble must be 8 hex digits, got {text!r}")
    return pre


def _floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated number list, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"numbers must be finite, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# runners take a fully resolved parameter dict; replay reuses them verbatim


def run_ber(params: dict, out_dir: Path) -> list[str]:
    cfg = LinkConfig(
        n_frames=params["frames"],
        threshold=params["threshold"],
        preamble=bytes.fromhex(params["preamble"]),
        extra_k=params["extra_k"],
        coding=params["coding"],
        seed=params["seed"],
    )
    points = ber_sweep(cfg, params["ebno_list"])
    rows = [
        [p.ebno_db, p.ber, p.ber_raw, "" if p.ber_coded is None else p.ber_coded,
         p.ci_low, p.ci_high, p.n_bits, p.n_errors, int(p.low_confidence)]
        for p in points
    ]
    _write_csv(out_dir / "ber.csv",
               ["ebno_db", "ber", "ber_raw", "ber_coded", "ci_low", "ci_high",
                "n_bits", "n_errors", "low_confidence"], rows)
    return ["ber.csv"]


def run_sync(params: dict, out_dir: Path) -> list[str]:
    preamble = bytes.fromhex(params["preamble"])
    if params["mode"] == "detection":
        points = sync.detection_curve(
            preamble, params["threshold"], params["p_list"],
            n_trials=params["trials"], seed=params["seed"],
        )
        name, xcol = "sync_detection.csv", "p"
    else:
        points = sync.false_alarm_curve(preamble, n_frames=params["frames"], seed=params["seed"])
        name, xcol = "sync_false_alarm.csv", "S"
    rows = [[p.x, p.estimate, p.ci_low, p.ci_high, p.n] for p in points]
    _write_csv(out_dir / name, [xcol, "estimate", "ci_low", "ci_high", "n_trials"], rows)
    return [name]


def run_preamble(params: dict, out_dir: Path) -> list[str]:
    preamble = bytes.fromhex(params["preamble"])
    choice = sync.optimize_extra_byte(preamble)
    scores = sync.mcor_scores_all(preamble)
    rows = [[k, int(choice.curve[k])] + [int(s) for s in scores[k]] for k in range(256)]
    _write_csv(out_dir / "preamble_mcor.csv",
               ["k", "mcor"] + [f"s{i}" for i in range(1, 9)], rows)
    best_rows = [[i + 1, int(s)] for i, s in enumerate(choice.scores_at_best)]
    _write_csv(out_dir / "preamble_best.csv", ["offset_i", "score"], best_rows)
    params["k_star"] = choice.k
    params["mcor_star"] = choice.mcor
    return ["preamble_mcor.csv", "preamble_best.csv"]


def run_eye(params: dict, out_dir: Path) -> list[str]:
    rng = np.random.default_rng(params["seed"])
    bits = rng.integers(0, 2, params["symbols"], dtype=np.uint8)
    symbols = map_bpsk(diff_encode(bits))
    ebno = params["ebno"]
    if ebno is not None:
        symbols = apply_awgn(symbols, ebno, seed=np.random.SeedSequence((params["seed"], 1)))
    cfg = WaveformConfig(oversampling=params["oversampling"])
    samples = render_waveform(symbols, cfg)
    traces = eye_traces(np.real(samples), cfg.oversampling)
    rows = []
    for t, trace in enumerate(traces):
        for i, amp in enumerate(trace):
            rows.append([t, i, float(amp)])
    _write_csv(out_dir / "eye.csv", ["trace_id", "sample_index", "amplitude"], rows)
    return ["eye.csv"]


def run_fifo(params: dict, out_dir: Path) -> list[str]:
    w_scale = Fraction(params["write_scale"])
    r_scale = Fraction(params["read_scale"])
    rep = framing.simulate_fifo(
        n_frames=params["frames"],
        depth=params["depth"],
        write_rate_mhz=framing.F1_MHZ * w_scale,
        read_rate_mhz=framing.F2_MHZ * r_scale,
    )
    report = {
        "depth": rep.depth,
        "n_frames": rep.n_frames,
        "n_writes": rep.n_writes,
        "n_reads": rep.n_reads,
        "write_rate_mhz": str(framing.F1_MHZ * w_scale),
        "read_rate_mhz": str(framing.F2_MHZ * r_scale),
        "min_occupancy": rep.min_occupancy,
        "max_occupancy": rep.max_occupancy,
        "underflow_count": rep.underflow_count,
        "overflow_count": rep.overflow_count,
        "first_underflow_read": rep.first_underflow_read,
        "first_overflow_write": rep.first_overflow_write,
        "read_start_time_us": str(rep.read_start_time_us),
    }
    _atomic_write(out_dir / "fifo.json", (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    return ["fifo.json"]


RUNNERS = {
    "ber": run_ber,
    "sync": run_sync,
    "preamble": run_preamble,
    "eye": run_eye,
    "fifo": run_fifo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scmodem", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"scmodem {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or cwd)")

    p = subs.add_parser("ber", help="BER vs Eb/N0 sweep over AWGN (ber.csv)")
    p.add_argument("--ebno-list", default="4,6,8,10", help="comma-separated Eb/N0 values in dB")
    p.add_argument("--frames", type=int, default=500, help="frames per sweep point")
    p.add_argument("--coding", choices=["on", "off"], default="off")
    p.add_argument("--threshold", type=int, default=sync.DEFAULT_THRESHOLD)
    p.add_argument("--preamble", default=sync.DEFAULT_PREAMBLE.hex().upper())
    p.add_argument("--extra-k", type=int, default=framing.DEFAULT_EXTRA_K)
    common(p)

    p = subs.add_parser("sync", help="detection or false-alarm probability curves")
    p.add_argument("--mode", choices=["detection", "false-alarm"], required=True)
    p.add_argument("--p-list", default="0.01,0.05,0.1", help="BSC error probabilities (detection mode)")
    p.add_argument("--threshold", type=int, default=sync.DEFAULT_THRESHOLD)
    p.add_argument("--trials", type=int, default=20000, help="trials per point (detection mode)")
    p.add_argument("--frames", type=int, default=1000, help="random frames scanned (false-alarm mode)")
    p.add_argument("--preamble", default=sync.DEFAULT_PREAMBLE.hex().upper())
    common(p)

    p = subs.add_parser("preamble", help="Mcor(k) curve and best extra byte k*")
    p.add_argument("--preamble", default=sync.DEFAULT_PREAMBLE.hex().upper(), help="8 hex digits")
    common(p)

    p = subs.add_parser("eye", help="simulated eye-diagram traces (eye.csv)")
    p.add_argument("--oversampling", "-L", type=int, default=8)
    p.add_argument("--symbols", type=int, default=512)
    p.add_argument("--ebno", type=float, default=None, help="Eb/N0 in dB; omit for noiseless")
    common(p)

    p = subs.add_parser("fifo", help="dual-clock FIFO occupancy report (fifo.json)")
    p.add_argument("--frames", type=int, default=1000)
    p.add_argument("--depth", type=int, default=512)
    p.add_argument("--write-scale", default="1", help="exact rational scale on f1, e.g. 101/100")
    p.add_argument("--read-scale", default="1", help="exact rational scale on f2")
    common(p)

    p = subs.add_parser("replay", help="re-run a manifest bit-identically")
    p.add_argument("manifest", help="path to manifest.json")
    p.add_argument("--out", default=None, help="output directory (default: manifest's directory)")

    return parser


def _resolve_params(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    if sub == "ber":
        if args.frames < 1:
            raise UsageError("--frames must be positive")
        ebno_list = _floats(args.ebno_list)
        if not ebno_list:
            raise UsageError("--ebno-list must not be empty")
        if not 0 <= args.extra_k <= 255:
            raise UsageError("--extra-k must be in [0, 255]")
        if not 1 <= args.threshold <= 32:
            raise UsageError("--threshold must be in [1, 32]")
        return {
            "ebno_list": ebno_list,
            "frames": args.frames,
            "coding": args.coding == "on",
            "threshold": args.threshold,
            "preamble": _parse_preamble(args.preamble).hex().upper(),
            "extra_k": args.extra_k,
            "seed": args.seed,
        }
    if sub == "sync":
        if args.trials < 1 or args.frames < 1:
            raise UsageError("--trials and --frames must be positive")
        if not 1 <= args.threshold <= 32:
            raise UsageError("--threshold must be in [1, 32]")
        p_list = _floats(args.p_list)
        if not all(0.0 <= p <= 0.5 for p in p_list):
            raise UsageError("--p-list values must be in [0, 0.5]")
        return {
            "mode": args.mode,
            "p_list": p_list,
            "threshold": args.threshold,
            "trials": args.trials,
            "frames": args.frames,
            "preamble": _parse_preamble(args.preamble).hex().upper(),
            "seed": args.seed,
        }
    if sub == "preamble":
        return {"preamble": _parse_preamble(args.preamble).hex().upper(), "seed": args.seed}
    if sub == "eye":
        if args.oversampling < 2:
            raise UsageError("--oversampling must be >= 2")
        if args.symbols < 8:
            raise UsageError("--symbols must be >= 8")
        return {
            "oversampling": args.oversampling,
            "symbols": args.symbols,
            "ebno": args.ebno,
            "seed": args.seed,
        }
    if sub == "fifo":
        if args.depth < 2:
            raise UsageError("--depth must be >= 2")
        if args.frames < 1:
            raise UsageError("--frames must be positive")
        try:
            scales = Fraction(args.write_scale), Fraction(args.read_scale)
        except (ValueError, ZeroDivisionError):
            raise UsageError("--write-scale/--read-scale must be rationals like 1.01 or 101/100")
        if min(scales) <= 0:
            raise UsageError("--write-scale/--read-scale must be positive")
        return {
            "frames": args.frames,
            "depth": args.depth,
            "write_scale": args.write_scale,
            "read_scale": args.read_scale,
            "seed": args.seed,
        }
    raise UsageError(f"unknown subcommand {sub!r}")


def _out_dir(arg: str | None, default: Path | None = None) -> Path:
    if arg:
        path = Path(arg)
    elif default is not None:
        path = default
    else:
        path = Path(os.environ.get(OUT_DIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.subcommand == "replay":
            manifest_path = Path(args.manifest)
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read manifest: {exc}")
            sub = manifest.get("subcommand")
            if sub not in RUNNERS:
                raise UsageError(f"manifest names unknown subcommand {sub!r}")
            out_dir = _out_dir(args.out, default=manifest_path.parent)
            params = dict(manifest["params"])
            outputs = RUNNERS[sub](params, out_dir)
            _write_manifest(out_dir, sub, params, outputs)
        else:
            params = _resolve_params(args)
            out_dir = _out_dir(args.out)
            outputs = RUNNERS[args.subcommand](params, out_dir)
            _write_manifest(out_dir, args.subcommand, params, outputs)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
