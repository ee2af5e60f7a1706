"""One short traced pass of each benchmark workload, run as the benchmark runs it.

`perfbench/run.py --seconds 0 --trace 1` runs one untraced and one traced
pass.  It exits nonzero on a traced group that is never called, and its last
output line reports whether every answer was correct.  So this catches
wrong answers and idle traced groups before a timed benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["curve", "guess", "square", "ising"])
def test_perfbench_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
