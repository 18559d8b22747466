"""Tiny-size smoke run of the benchmark (about a minute).

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
E2E = [m[0] for m in spec.END_TO_END]
LAYER = [m[0] for m in spec.PER_LAYER]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(metrics: dict, names: list[str]) -> None:
    assert list(metrics) == names
    for name, m in metrics.items():
        assert NAME.fullmatch(name), name
        assert m["unit"] == spec.UNITS[name] and m["unit"], name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.bench_json()


def test_single_workload_result_lines():
    for trace, names in (("0", E2E), ("1", LAYER)):
        proc = run("--workload", "sync_curves", "--seed", "0", "--seconds", "1", "--trace", trace, "--tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        check_metrics(result["metrics"], names)


def test_suite_emits_every_metric_and_confirms_the_design():
    proc = run("--seed", "1", "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert list(summary["workloads"]) == list(spec.WORKLOADS)
    for workload, res in summary["workloads"].items():
        assert res["correct"] and res["traced_digest_agrees"], workload
        metrics = res["metrics"]
        assert metrics.pop("op_fail_rate") == {"value": 0.0, "unit": "ratio"}
        check_metrics(metrics, E2E + LAYER)
    claims = summary["claims"]
    for text, ok in claims.items():
        # the self-time ranking depends on sizes, so it is only checked at full size
        if "largest self time" not in text:
            assert ok, text


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "ber_coded",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
