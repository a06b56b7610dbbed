"""The benchmark's result is the last line of its standard output.

A harness that reads the run's result parses that line alone, so anything
printed after it (an exit hook, a thread that outlives its op) makes the
whole run unreadable.  One short ``solve-cold`` run checks the format,
untraced and traced.  The traced run must also report every per-layer
metric ``BENCHMARK.json`` declares: a tracing target the library no longer
has, or a hook that reads something it no longer returns, drops metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize("trace", [0, 1])
def test_last_stdout_line_is_the_result(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-cold", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    if trace == 0:
        assert {"pass_s", "setup_s", "peak_rss_mb"} <= set(result["metrics"])
    else:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        assert set(result["metrics"]) == {metric["name"] for metric in declared}
