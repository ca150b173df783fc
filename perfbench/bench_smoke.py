"""Smoke test of the benchmark itself: every workload at tiny depth, one
untraced and one traced cycle each, with every output check and every span
assertion.  Takes seconds.

    python3 -m pytest perfbench/bench_smoke.py

The file name does not match pytest's default `test_*.py` pattern, so the
repository's test suite does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3
    for result in results:
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 2
        assert set(result["metrics"]) == {"wall_ref_s", "peak_rss_mb", "out_mb", "setup_s", "ok_frac"}
        assert result["metrics"]["ok_frac"]["value"] == 1.0
