"""A memory guard for the streamed value iteration: a depth-16 `solve` of
the Baseline config (the `solve-d11` workload's config at depth 16) in a
fresh interpreter, whose peak RSS (VmHWM) must stay at most 140 MB.
Keeping every field whole until values.csv is written at the end took
about 275 MB, and keeping an int8 decision array per level beside the
values about 157 MB; keeping only the values takes about 122 MB.  The
file name does not match pytest's default `test_*.py` pattern, so the
default test run does not collect it; run it (on Linux) with

    PYTHONPATH=src python -m pytest tests/memory_deep.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PEAK_LIMIT_MB = 140

BASELINE = {
    "process": {"x0": -0.041266, "T": 1.0, "sigma": "0.3 + 0.1*abs(xmax - x)", "drift": None},
    "impulse": {
        "U": [0.5, -0.5, 1.0],
        "psi": {"0.5": 0.1, "-0.5": 0.1, "1.0": 0.15},
        "c": 0.1,
        "gamma": 0.5,
        "h": "clamp(0.5 - abs(x - 0.2), 0, 0.5)",
    },
    "control": None,
    "numerics": {"depth": 16, "tol": 1e-12, "budget": None},
}

# Runs the CLI and prints the interpreter's own VmHWM in kB as the last line.
CHILD = """
import sys
from impulsetree.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_depth_16_solve_peak_rss(tmp_path):
    config = tmp_path / "baseline.json"
    config.write_text(json.dumps(BASELINE), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "solve", "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["status"] == "ok"
    peak_mb = int(proc.stdout.splitlines()[-1]) * 1024 / 1e6
    assert peak_mb <= PEAK_LIMIT_MB, f"peak RSS {peak_mb:.1f} MB above {PEAK_LIMIT_MB} MB"
