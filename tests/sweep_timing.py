"""Time the tree build, the audit and the solve of two source trees, one
fresh process per run.

    python tests/sweep_timing.py OLD_SRC NEW_SRC [RUNS]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  The
configs: every solve config of tests/equivalence.py's batches (at their
own depth, tol and budget), tests/memory_deep.py's Baseline with c = 0.02
at depth 12 (budget 25, 76 states, the stall at 5), and its Baseline and
Combined configs at depth 16.

Each run is one fresh `python` process with one tree's `src` on
PYTHONPATH.  It times build_tree, validate_model and value_iteration (or
combined_value_iteration) once each.  The trees alternate which runs
first.  For every config the script prints each tree's median solve time
and quartiles (in ms), the ratio of the medians, the median build and
audit times, and the state columns each tree's solve computed (where a
tree's `impulse._fields` engine computes fields past the stall, its
columns are counted through it; otherwise they are the kept fields').
It exits 1 if any field's values or controls (sha256 of their bytes), any
stall index or any sup increment differs between the trees or between
runs.  RUNS (default 11) is the number of runs per tree and config.

The file name does not match pytest's default `test_*.py` pattern, so
the default test run does not collect it.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _configs():
    """(label, config) of every timed config."""
    import equivalence
    from memory_deep import BASELINE, COMBINED

    yield from equivalence._configs()
    cheap = {**BASELINE, "impulse": {**BASELINE["impulse"], "c": 0.02}}
    yield "baseline-c0.02-d12", {**cheap, "numerics": {**cheap["numerics"], "depth": 12}}
    yield "baseline-d16", BASELINE
    yield "combined-d16", COMBINED


def _child(config_path: Path):
    """Build, audit and solve the config at ``config_path``; print the three
    times, the computed state columns and the result's digest as JSON."""
    import numpy as np

    import impulsetree.impulse as impulse
    from impulsetree import HamiltonianSpec, build_tree, combined_value_iteration, load_config, validate_model
    from impulsetree import value_iteration

    loaded = load_config(json.loads(config_path.read_text(encoding="utf-8")))
    columns = []
    engine = getattr(impulse, "_fields", None)
    if engine is not None:

        def counted(*args, **kwargs):
            fields = engine(*args, **kwargs)
            columns.extend(len(f.states) for f in fields)
            return fields

        impulse._fields = counted
    t0 = time.perf_counter()
    tree = build_tree(loaded.process, loaded.numerics.depth)
    t1 = time.perf_counter()
    validate_model(loaded.process, loaded.impulse, loaded.grid, tree, budget=loaded.numerics.budget)
    t2 = time.perf_counter()
    tol, budget = loaded.numerics.tol, loaded.numerics.budget
    if loaded.grid is None:
        result = value_iteration(tree, loaded.impulse, tol=tol, budget=budget)
    else:
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        result = combined_value_iteration(tree, loaded.impulse, spec, tol=tol, budget=budget)
    t3 = time.perf_counter()
    digest = hashlib.sha256(repr((result.stall_index, result.sup_increments)).encode())
    for fld in result.fields:
        for level in (*fld.values, *(fld.controls or ())):
            digest.update(np.ascontiguousarray(level).tobytes())
    if engine is None:
        columns = [len(f.states) for f in result.fields]
    print(json.dumps([t1 - t0, t2 - t1, t3 - t2, sum(columns), digest.hexdigest()]))


def _run(src: Path, config_path: Path):
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(config_path)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(ms):
    if len(ms) < 2:
        return ms[0], ms[0], ms[0]
    q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return q1, med, q3


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        _child(Path(argv[1]))
        return 0
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"old": Path(argv[0]).resolve(), "new": Path(argv[1]).resolve()}
    runs = int(argv[2]) if len(argv) == 3 else 11
    sys.path[:0] = [str(trees["new"]), str(HERE)]
    differing = 0
    summary = {}
    with tempfile.TemporaryDirectory(prefix="sweep-timing-") as tmp:
        for label, config in _configs():
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            times = {side: {"build": [], "audit": [], "solve": []} for side in trees}
            columns, digests = {}, set()
            for i in range(runs):
                for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                    build, audit, solve, columns[side], digest = _run(trees[side], path)
                    for phase, seconds in zip(("build", "audit", "solve"), (build, audit, solve)):
                        times[side][phase].append(seconds * 1e3)
                    digests.add(digest)
            same = len(digests) == 1
            differing += not same
            row = {side: _quartiles(times[side]["solve"]) for side in trees}
            summary[label] = {
                side: {
                    "solve_ms_q1_median_q3": [round(v, 3) for v in row[side]],
                    "build_ms": round(statistics.median(times[side]["build"]), 3),
                    "audit_ms": round(statistics.median(times[side]["audit"]), 3),
                    "columns": columns[side],
                }
                for side in trees
            }
            print(
                f"{label:28s} solve old {row['old'][1]:8.2f} ms [{row['old'][0]:.2f}, {row['old'][2]:.2f}]"
                f"  new {row['new'][1]:8.2f} ms [{row['new'][0]:.2f}, {row['new'][2]:.2f}]"
                f"  new/old {row['new'][1] / row['old'][1]:.3f}"
                f"  build {summary[label]['old']['build_ms']:.2f}/{summary[label]['new']['build_ms']:.2f} ms"
                f"  audit {summary[label]['old']['audit_ms']:.2f}/{summary[label]['new']['audit_ms']:.2f} ms"
                f"  columns {columns['old']}/{columns['new']}  {'same' if same else 'DIFFERS'}",
                flush=True,
            )
    print(json.dumps({"runs": runs, "configs": summary, "differing": differing}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
