"""Memory guards for a fresh interpreter's peak RSS (VmHWM):

- the values-only value iteration: a depth-16 `solve` of the Baseline
  config (the `solve-d11` workload's config at depth 16) must stay at
  most 140 MB.  Keeping every field whole (with Z, K_inc and the
  obstacle) until values.csv was written took about 275 MB, and keeping
  an int8 decision array per level beside the values about 157 MB.
  Keeping only the values, and deriving Z and K_inc one level at a time
  while values.csv is written after the iteration, takes about 111 MB;
- the blocked Monte Carlo walk: `eval --mc-samples 1000000` of the
  Baseline strategy at depth 14 must stay at most 65 MB.  Walking every
  sample at once took about 300 MB, and a block of samples at a time
  about 72 MB with a third per-sample array of values beside the reward
  and cost sums.  Forming the values in the reward array once the means
  are taken, and freeing the cost array before np.std, took about 55 MB;
  sampling the tree's paths, with the tree built and audited first, takes
  about 57 MB;
- the strategy reader: exact `eval` of the Baseline strategy at depth 17
  (6.8 MB, 262,303 rows) must stay at most 80 MB.  Parsing the whole file
  at once and sorting every row took about 110 MB; parsing a chunk of
  lines at a time and checking the rows in blocks takes about 58 MB.
- the combined driver: a depth-16 `solve-combined` of the Combined config
  (the `combined-wide` workload's seed-1 config at T = 1) must stay at
  most 170 MB.  Tables of theta and the reward for every (control, level,
  node, state) of the run held 151 MB of a ~302 MB peak; evaluating them
  per (level, block of shifts) inside each sweep takes about 120 MB.

- the stall bound: library `value_iteration` of the Baseline with c = 0.02
  at depth 14 (budget 25, 76 states, the stall at 5) must stay at most
  170 MB.  The field-major iteration, which stopped at the stall, took
  about 120 MB; computing every field up to the budget would hold 2.44x
  its field columns.

The file name does not match pytest's default `test_*.py` pattern, so the
default test run does not collect it; run it (on Linux) with

    PYTHONPATH=src python -m pytest tests/memory_deep.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from impulsetree import build_tree, extract_strategy, load_config, value_iteration
from impulsetree.csvio import write_strategy_csv

SOLVE_PEAK_LIMIT_MB = 140
MC_PEAK_LIMIT_MB = 65
EXACT_EVAL_PEAK_LIMIT_MB = 80
COMBINED_PEAK_LIMIT_MB = 170
STALL_BOUND_PEAK_LIMIT_MB = 170

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

COMBINED = {
    "process": {"x0": -0.041266, "T": 1.0, "sigma": "0.3 + 0.1*abs(xmax - x)", "drift": None},
    "impulse": {**BASELINE["impulse"], "h": "clamp(0.5 - abs(x - 0.2) + 0.05*u, 0, 0.5)"},
    "control": {"V": [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0], "f": "u"},
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

# Runs value_iteration on the config given as JSON and prints the stall
# index and the interpreter's own VmHWM in kB.
SOLVE_CHILD = """
import json, sys
from impulsetree import build_tree, load_config, value_iteration
loaded = load_config(json.loads(sys.argv[1]))
result = value_iteration(build_tree(loaded.process, loaded.numerics.depth), loaded.impulse, tol=loaded.numerics.tol)
with open("/proc/self/status", encoding="ascii") as fh:
    print(result.stall_index, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _cli_peak_mb(args) -> float:
    """Run the CLI with ``args`` in a fresh interpreter; its peak RSS in MB."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1]) * 1024 / 1e6


def test_depth_16_solve_peak_rss(tmp_path):
    config = tmp_path / "baseline.json"
    config.write_text(json.dumps(BASELINE), encoding="utf-8")
    out = tmp_path / "out"
    peak_mb = _cli_peak_mb(["solve", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["status"] == "ok"
    assert peak_mb <= SOLVE_PEAK_LIMIT_MB, f"peak RSS {peak_mb:.1f} MB above {SOLVE_PEAK_LIMIT_MB} MB"


def _baseline_strategy(tmp_path, depth):
    """The Baseline config at ``depth`` and its optimal strategy's CSV."""
    raw = {**BASELINE, "numerics": {**BASELINE["numerics"], "depth": depth}}
    config = tmp_path / "baseline.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    loaded = load_config(raw)
    tree = build_tree(loaded.process, depth)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
    strategy = tmp_path / "strategy.csv"
    write_strategy_csv(strategy, extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol))
    return config, strategy


def test_million_sample_monte_carlo_eval_peak_rss(tmp_path):
    config, strategy = _baseline_strategy(tmp_path, 14)
    out = tmp_path / "out"
    args = ["eval", "--config", str(config), "--strategy", str(strategy), "--mc-samples", "1000000", "--seed", "7"]
    peak_mb = _cli_peak_mb(args + ["--out", str(out)])
    payload = json.loads((out / "policy_value.json").read_text(encoding="utf-8"))
    assert payload["samples"] == 1_000_000
    assert peak_mb <= MC_PEAK_LIMIT_MB, f"peak RSS {peak_mb:.1f} MB above {MC_PEAK_LIMIT_MB} MB"


def test_depth_17_exact_eval_peak_rss(tmp_path):
    config, strategy = _baseline_strategy(tmp_path, 17)
    out = tmp_path / "out"
    peak_mb = _cli_peak_mb(["eval", "--config", str(config), "--strategy", str(strategy), "--out", str(out)])
    payload = json.loads((out / "policy_value.json").read_text(encoding="utf-8"))
    assert payload["method"] == "exact"
    assert peak_mb <= EXACT_EVAL_PEAK_LIMIT_MB, f"peak RSS {peak_mb:.1f} MB above {EXACT_EVAL_PEAK_LIMIT_MB} MB"


def test_depth_16_solve_combined_peak_rss(tmp_path):
    config = tmp_path / "combined.json"
    config.write_text(json.dumps(COMBINED), encoding="utf-8")
    out = tmp_path / "out"
    peak_mb = _cli_peak_mb(["solve-combined", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["status"] == "ok"
    assert peak_mb <= COMBINED_PEAK_LIMIT_MB, f"peak RSS {peak_mb:.1f} MB above {COMBINED_PEAK_LIMIT_MB} MB"


def test_a_late_stall_solve_peak_rss():
    raw = {**BASELINE, "impulse": {**BASELINE["impulse"], "c": 0.02}, "numerics": {**BASELINE["numerics"], "depth": 14}}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_CHILD, json.dumps(raw)], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    stall, peak_kb = proc.stdout.split()
    peak_mb = int(peak_kb) * 1024 / 1e6
    assert stall == "5"
    assert peak_mb <= STALL_BOUND_PEAK_LIMIT_MB, f"peak RSS {peak_mb:.1f} MB above {STALL_BOUND_PEAK_LIMIT_MB} MB"
