"""The benchmark's traced run must see the same program as its untraced run.

``benchmarks/worker.py --trace 1`` rebinds a list of public names in the
package to wrappers that record a span and then read counts off the return
value.  A renamed function, a changed return type or an inlined call breaks
that contract: the traced run raises, or its spans miss a layer.  This runs
the worker's smoke-size cycle of each workload in a subprocess, both ways,
and compares what it prints.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "benchmarks" / "worker.py"

# layers each workload must reach through a wrap point; the AWGN-only ber
# points sample decision errors directly, so no channel or modem call runs
LAYERS = {
    "ber_coded": {"link", "sync.detect", "sync.window_scores", "scrambler", "rs.encode",
                  "rs.syndromes"},
    "ber_uncoded": {"link", "sync.detect", "sync.window_scores", "scrambler", "rs.encode"},
    "sync_curves": {"framing.build_frames", "sync.window_scores", "scrambler", "rs.encode"},
}


def _start(workload: str, trace: int) -> subprocess.Popen:
    args = ["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.Popen([sys.executable, str(WORKER)] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", list(LAYERS))
def test_traced_cycle_matches_untraced(workload):
    plain_proc, traced_proc = _start(workload, 0), _start(workload, 1)
    plain, traced = _result(plain_proc), _result(traced_proc)

    assert plain["errors"] == [] and traced["errors"] == []
    assert traced["digest"] == plain["digest"]
    assert LAYERS[workload] <= {span[0] for span in traced["spans"]}
