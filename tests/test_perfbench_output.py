"""The benchmark's result is the last line of its standard output.

A harness that reads the run's result parses that line alone, so anything
printed after it (an exit hook, a thread that outlives its op) makes the
whole run unreadable.  One short ``solve-cold`` run checks the format.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_last_stdout_line_is_the_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {"pass_s", "setup_s", "peak_rss_mb"} <= set(result["metrics"])
