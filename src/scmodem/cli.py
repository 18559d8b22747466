"""Command-line front end for the simulator experiments.

Every subcommand writes plot-ready CSV (one-line header) plus a JSON manifest
holding the fully resolved parameters, so any run can be replayed
bit-identically with ``scmodem replay manifest.json``.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
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
    write_rate = framing.F1_MHZ * Fraction(params["write_scale"])
    read_rate = framing.F2_MHZ * Fraction(params["read_scale"])
    rep = framing.simulate_fifo(
        n_frames=params["frames"],
        depth=params["depth"],
        write_rate_mhz=write_rate,
        read_rate_mhz=read_rate,
    )
    fields = dataclasses.asdict(rep) | {"write_rate_mhz": write_rate, "read_rate_mhz": read_rate}
    report = {k: str(v) if isinstance(v, Fraction) else v for k, v in fields.items() if k != "occupancy_at_reads"}
    _atomic_write(out_dir / "fifo.json", (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    return ["fifo.json"]


RUNNERS = {
    "ber": run_ber,
    "sync": run_sync,
    "preamble": run_preamble,
    "eye": run_eye,
    "fifo": run_fifo,
}


# ---------------------------------------------------------------------------
# option types: each turns an option's text into its manifest value and checks
# it, by the library's own check where there is one (a config class checks the
# value it is built from); argparse reports a ValueError, or the
# ZeroDivisionError of a rational like 1/0, as a usage error


def _option_type(convert, check=lambda value: None):
    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _at_least(lo: int):
    def check(value: int) -> None:
        if value < lo:
            raise ValueError(f"must be an integer >= {lo}, got {value}")

    return check


def _numbers(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected a comma-separated list of finite numbers, got {text!r}")
    return values


def _non_empty(values: list) -> None:
    if not values:
        raise ValueError("must not be empty")


def _finite_ebno(value: float) -> None:
    if not math.isfinite(value):
        raise ValueError("--ebno must be a finite number; omit it for noiseless")


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"must be on or off, got {text!r}")
    return text == "on"


def _preamble_hex(text: str) -> str:
    preamble = bytes.fromhex(text)
    framing.check_preamble(preamble)
    return preamble.hex().upper()


def _positive_rational(text: str) -> str:
    if Fraction(text) <= 0:
        raise ValueError(f"must be a positive rational like 1.01 or 101/100, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of each option: its default and a type that converts and checks it.

    Replay parses a manifest's params with this parser too (``_manifest_argv``).
    """
    parser = argparse.ArgumentParser(prog="scmodem", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"scmodem {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    count = _option_type(int, _at_least(1))
    threshold = _option_type(int, sync.check_threshold)
    preamble = _option_type(_preamble_hex)
    default_preamble = sync.DEFAULT_PREAMBLE.hex().upper()
    scale = _option_type(_positive_rational)

    def common(p):
        p.add_argument("--seed", type=_option_type(int, np.random.SeedSequence), default=0)
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or cwd)")

    p = subs.add_parser("ber", help="BER vs Eb/N0 sweep over AWGN (ber.csv)")
    p.add_argument("--ebno-list", type=_option_type(_numbers, _non_empty), default="4,6,8,10",
                   help="comma-separated Eb/N0 values in dB")
    p.add_argument("--frames", type=_option_type(int, LinkConfig), default=500, help="frames per sweep point, >= 2")
    p.add_argument("--coding", type=_option_type(_on_off), default="off", metavar="{on,off}")
    p.add_argument("--threshold", type=threshold, default=sync.DEFAULT_THRESHOLD)
    p.add_argument("--preamble", type=preamble, default=default_preamble)
    p.add_argument("--extra-k", type=_option_type(int, framing.check_extra_k), default=framing.DEFAULT_EXTRA_K)
    common(p)

    p = subs.add_parser("sync", help="detection or false-alarm probability curves")
    p.add_argument("--mode", choices=["detection", "false-alarm"], required=True)
    p.add_argument("--p-list", type=_option_type(_numbers, sync.check_p_list), default="0.01,0.05,0.1",
                   help="BSC error probabilities (detection mode)")
    p.add_argument("--threshold", type=threshold, default=sync.DEFAULT_THRESHOLD)
    p.add_argument("--trials", type=count, default=20000, help="trials per point (detection mode)")
    p.add_argument("--frames", type=count, default=1000, help="random frames scanned (false-alarm mode)")
    p.add_argument("--preamble", type=preamble, default=default_preamble)
    common(p)

    p = subs.add_parser("preamble", help="Mcor(k) curve and best extra byte k*")
    p.add_argument("--preamble", type=preamble, default=default_preamble, help="8 hex digits")
    common(p)

    p = subs.add_parser("eye", help="simulated eye-diagram traces (eye.csv)")
    p.add_argument("--oversampling", "-L", type=_option_type(int, WaveformConfig), default=8)
    p.add_argument("--symbols", type=_option_type(int, _at_least(8)), default=512)
    p.add_argument("--ebno", type=_option_type(float, _finite_ebno), default=None,
                   help="Eb/N0 in dB; omit for noiseless")
    common(p)

    p = subs.add_parser("fifo", help="dual-clock FIFO occupancy report (fifo.json)")
    p.add_argument("--frames", type=count, default=1000)
    p.add_argument("--depth", type=_option_type(int, _at_least(2)), default=512)
    p.add_argument("--write-scale", type=scale, default="1", help="exact rational scale on f1, e.g. 101/100")
    p.add_argument("--read-scale", type=scale, default="1", help="exact rational scale on f2")
    common(p)

    p = subs.add_parser("replay", help="re-run a manifest bit-identically")
    p.add_argument("manifest", help="path to manifest.json")
    p.add_argument("--out", default=None, help="output directory (default: manifest's directory)")

    return parser


def _option_text(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, list):
        return ",".join(_option_text(v) for v in value)
    return str(value)  # the str of a float is its shortest round-trip repr


def _manifest_argv(parser: argparse.ArgumentParser, manifest_path: Path) -> list[str]:
    """The command line whose options a manifest's params are, one ``--name=value`` each.

    A null leaves out an option whose default is None (eye's --ebno) and is
    a usage error elsewhere; a missing option is a usage error; keys that
    name no option, such as preamble's k_star output, are ignored.
    """
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read manifest: {exc}")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("params"), dict):
        parser.error("manifest and its params must be JSON objects")
    sub, params = manifest.get("subcommand"), manifest["params"]
    if not isinstance(sub, str) or sub not in RUNNERS:
        parser.error(f"manifest names unknown subcommand {sub!r}")
    argv = [sub]
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in subparsers.choices[sub]._actions:
        if action.dest in ("help", "out"):  # the run's parameters are its other options
            continue
        if action.dest not in params:
            parser.error(f"manifest parameter {action.dest} is missing")
        if params[action.dest] is not None:
            argv.append(f"{action.option_strings[0]}={_option_text(params[action.dest])}")
        elif action.default is not None:
            parser.error(f"manifest parameter {action.dest} is null")
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
        if args.subcommand == "replay":
            out_dir = Path(args.out or Path(args.manifest).parent)
            args = parser.parse_args(_manifest_argv(parser, Path(args.manifest)))
        params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "out")}
        outputs = RUNNERS[args.subcommand](params, out_dir)
        _write_manifest(out_dir, args.subcommand, params, outputs)
        return 0
    except SystemExit as exc:  # argparse has printed a usage error (exit 2), or --help / --version
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
