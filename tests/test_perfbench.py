"""The benchmark's traced gates, run as the benchmark runs them.

A traced run (``--trace 1``) checks what an untraced one does not: that the
traced artifacts have the digests of the untraced ones, that the self times
sum to the wall time within 2%, that ``cli.runs`` equals the
``run_scenario`` calls, and that the exact counts agree across traced
repetitions.  ``--seconds 0`` still runs the minimum of repetitions.  Each
workload exercises another part of the engine: ``observer-shootout`` (five
estimators on observer feedback, 8 000 steps through the estimator rows'
buffers) takes about 8 s, ``regulation-trace`` (no estimator, every step
sampled into a CSV that is read back) and ``gain-sweep`` (16 runs on one
shared pass) about a second each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["observer-shootout", "regulation-trace", "gain-sweep"])
def test_a_traced_benchmark_run_is_correct(tmp_path, workload):
    # the benchmark writes under its checkout, so it runs from a copy of
    # perfbench/ and src/ and leaves nothing in this one
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"), *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert not (tmp_path / ".perfbench-work").exists()
