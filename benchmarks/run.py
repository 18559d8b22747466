"""scmodem benchmark.

    python3 benchmarks/run.py --workload ber_coded --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py                 # every workload, both runs, with a summary
    python3 benchmarks/run.py --write-spec    # regenerate BENCHMARK.json from spec.py

With ``--trace 0`` the workload runs untraced in its own process and the last
line of stdout is one JSON object with the end-to-end metrics.  With
``--trace 1`` the workload runs twice for half the time each, untraced and
then with every wrap point of ``worker.py`` recording spans, and the last line holds the
per-layer metrics.  Every child process has its BLAS/OpenMP thread variables
pinned to 1, and only one runs at a time.  The package is imported from
``src/`` of this checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from spans import totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s
PER_FRAMES = 2000  # per-layer busy times and counts are per this many nominal frames
SETUP_CODE = "import time\nimport scmodem\nprint(time.monotonic())"


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], deadline: float) -> str:
    """Run one child to completion (killed and reaped at the deadline); return stdout."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{cmd[1]} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(n: int, deadline: float) -> float:
    """Median time from starting a fresh interpreter to ``import scmodem`` done."""
    run_child([sys.executable, "-c", "import scmodem"], deadline)  # bytecode compiled, files cached
    samples = []
    for _ in range(n):
        t0 = time.monotonic()  # CLOCK_MONOTONIC is shared by every process
        samples.append(float(run_child([sys.executable, "-c", SETUP_CODE], deadline).split()[-1]) - t0)
    return statistics.median(samples)


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    out = json.loads(run_child(cmd, deadline).splitlines()[-1])
    for err in out["errors"]:
        print(f"{workload}: operation failed: {err}", file=sys.stderr)
    return out


def frames_per_s(w: dict) -> float:
    return w["frames"] / w["timed_s"]


def end_to_end(w: dict, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "frames_per_s": frames_per_s(w),
        "peak_rss_mb": w["peak_rss_mb"],
        "op_ok_ratio": 1.0 - w["failed"] / w["attempted"],
    }


def per_layer(t: dict[str, dict], traced: dict, untraced: dict) -> dict[str, float]:
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}}

    def get(name: str) -> dict:
        return t.get(name, empty)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per = PER_FRAMES / traced["frames"]
    dec, enc, frm = get("rs.decode"), get("rs.encode"), get("framing.build_frames")
    dem, awgn, det, ws, lnk = (get(n) for n in ("modem.demod", "channel.awgn", "sync.detect",
                                                "sync.window_scores", "link"))
    bits_read = sum(v["counts"].get("bits_read", 0) for k, v in t.items() if k.startswith("op."))
    return {
        "rs.decode.calls": dec["calls"] * per,
        "rs.decode.busy_s": dec["busy"] * per,
        "rs.decode.us_per_word": ratio(dec["busy"] * 1e6, dec["calls"]),
        "rs.decode.dirty_ratio": ratio(dec["calls"], lnk["counts"].get("frames_detected", 0)),
        "rs.decode.flagged_ratio": ratio(dec["counts"].get("flagged", 0), dec["calls"]),
        "rs.encode.busy_s": enc["busy"] * per,
        "rs.encode.mbit_per_s": ratio(enc["counts"].get("data_bits", 0) / 1e6, enc["busy"]),
        "rs.syndromes.busy_s": get("rs.syndromes")["busy"] * per,
        "framing.build_frames.busy_s": frm["busy"] * per,
        "framing.build_frames.useful_bit_ratio": ratio(bits_read, frm["counts"].get("bits", 0)),
        "scrambler.busy_s": get("scrambler")["busy"] * per,
        "modem.mod.busy_s": get("modem.mod")["busy"] * per,
        "modem.demod.busy_s": dem["busy"] * per,
        "modem.demod.msym_per_s": ratio(dem["counts"].get("symbols", 0) / 1e6, dem["busy"]),
        "channel.awgn.busy_s": awgn["busy"] * per,
        "channel.awgn.msym_per_s": ratio(awgn["counts"].get("symbols", 0) / 1e6, awgn["busy"]),
        "sync.detect.busy_s": det["busy"] * per,
        "sync.detect.scanned_bits": det["counts"].get("bits", 0) * per,
        "sync.detect.useful_ratio": ratio(det["counts"].get("useful_bits", 0), det["counts"].get("bits", 0)),
        "sync.window_scores.busy_s": ws["busy"] * per,
        "sync.window_scores.mbit_per_s": ratio(ws["counts"].get("bits", 0) / 1e6, ws["busy"]),
        "link.busy_s": lnk["busy"] * per,
        "link.self_s": lnk["self"] * per,
        "trace.overhead": 1.0 - frames_per_s(traced) / frames_per_s(untraced),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of this checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "commit": git_commit(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: int, trace: int, tiny: bool) -> dict:
    """One benchmark run; returns the result line, an info record and span totals."""
    deadline = time.monotonic() + DEADLINE_S
    if trace == 0:
        setup_s = setup_seconds(1 if tiny else SETUP_SAMPLES, deadline)
        w = run_worker(workload, seed, seconds, 0, tiny, deadline)
        runs, metrics, layers = [w], end_to_end(w, setup_s), {}
        digests_agree = True
    else:
        # half the time each, so a traced run costs no more than an untraced one
        untraced = run_worker(workload, seed, seconds / 2, 0, tiny, deadline)
        traced = run_worker(workload, seed, seconds / 2, 1, tiny, deadline)
        runs, layers = [untraced, traced], totals(traced["spans"])
        metrics = per_layer(layers, traced, untraced)
        digests_agree = untraced["digest"] == traced["digest"]
    attempted = sum(w["attempted"] for w in runs)
    failed = sum(w["failed"] for w in runs)
    info = {
        "workload": workload, "seed": seed, "trace": trace,
        "digest": runs[0]["digest"], "digests_agree": digests_agree,
        "cycles": [w["cycles"] for w in runs],
        "environment": environment(runs[0]["versions"]),
    }
    result = {
        "correct": failed == 0 and digests_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": spec.UNITS[name]} for name, v in metrics.items()},
    }
    return {"result": result, "info": info, "layers": layers}


def design_claims(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    """What the traced runs should show about the workloads at this design."""
    def calls(w: str, name: str) -> int:
        return traced[w].get(name, {}).get("calls", 0)

    claims = [
        (f"rs.decode never runs on {w}", calls(w, "rs.decode") == 0) for w in ("ber_uncoded", "sync_curves")
    ]
    claims += [
        (f"{name} never runs on sync_curves", calls("sync_curves", name) == 0)
        for name in ("channel.awgn", "modem.mod", "modem.demod")
    ]
    layer_self = {k: v["self"] for k, v in traced["ber_coded"].items() if not k.startswith(("op.", "cycle"))}
    claims.append(("rs.decode has the largest self time on ber_coded",
                   max(layer_self, key=layer_self.get) == "rs.decode"))
    return claims


def suite(seed: int, seconds: int, tiny: bool) -> int:
    rows, summary, traced = [], {}, {}
    for workload in spec.WORKLOADS:
        plain = measure(workload, seed, seconds, 0, tiny)
        trace = measure(workload, seed, seconds, 1, tiny)
        traced[workload] = trace["layers"]
        res = plain["result"]
        metrics = {**res["metrics"], **trace["result"]["metrics"]}
        metrics["op_fail_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        summary[workload] = {
            "correct": res["correct"] and trace["result"]["correct"],
            "digest": plain["info"]["digest"],
            "traced_digest_agrees": trace["info"]["digests_agree"],
            "metrics": metrics,
        }
        rows += [(workload, name, m["value"], m["unit"]) for name, m in metrics.items()]
    for row in rows:
        print("{:<12} {:<40} {:>14.6g} {}".format(*row))
    claims = design_claims(traced)
    for text, ok in claims:
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
    env = plain["info"]["environment"]
    print(json.dumps({"environment": env, "workloads": summary, "claims": dict(claims)}))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="scmodem benchmark")
    ap.add_argument("--workload", choices=list(spec.WORKLOADS), help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes, one set-up sample")
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.bench_json(), indent=2) + "\n")
        return 0
    if not (SRC / "scmodem" / "__init__.py").is_file():
        print(f"no scmodem package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return suite(args.seed, args.seconds, args.tiny)
        run = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(run["info"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
