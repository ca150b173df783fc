"""impulsetree benchmark: drives the real CLI, one fresh process per
invocation, over a named workload and prints its metrics.

    python3 perfbench/run.py --workload solve-d11 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --smoke                      # tiny depths, every check and span

A closed loop: one client runs one CLI invocation at a time.  A cycle is
one pass over the workload's invocations; cycles repeat, at least once,
while half a cycle still fits in --seconds.  Timings are scaled to a
reference host speed measured between cycles (calibrate.py).  Every
output is compared byte for byte with another run of the same seed.
With --trace 1 untraced and traced cycles alternate and the per-layer
metrics come from the traced ones.
The last line printed is the result as one JSON object.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RERUNS = WORK / "reruns"

SETUP_SAMPLES = 5  # before the cycles, and as many again after them
MB = 1e6
# timings.json is wall-clock by design; every other output must be
# byte-identical across reruns of one seed.
NONDETERMINISTIC_OUTPUTS = {"timings.json"}

END_TO_END_UNITS = {"wall_ref_s": "s", "peak_rss_mb": "MB", "out_mb": "MB", "setup_s": "s", "ok_frac": "fraction"}

# Library function -> the per-layer metric its self time is charged to.
SELF_TIME_METRIC = {
    "run": "cli.self_s",
    "build_tree": "tree.build_s",
    "validate_model": "model.audit_s",
    "eval_expr": "expr.eval_s",
    "reward_tables": "impulse.reward_tables_s",
    "obstacle": "impulse.obstacle_s",
    "value_iteration": "impulse.sweep_s",
    "solve_y0": "impulse.sweep_s",
    "iterate_value": "impulse.sweep_s",
    "extract_strategy": "impulse.extract_s",
    "driver_tables": "combined.driver_tables_s",
    "combined_value_iteration": "combined.sweep_s",
    "extract_pair": "combined.extract_s",
    "walk_strategy_states": "evaluate.walk_s",
    "evaluate_strategy_exact": "evaluate.exact_s",
    "impulse_count_distribution": "evaluate.count_dist_s",
    "evaluate_pair": "evaluate.pair_s",
    "mc_evaluate_strategy": "evaluate.mc_s",
    "snell_envelope": "snell.envelope_s",
}
# (function, counter recorded by cli_child.py) -> per-layer metric.
COUNT_METRIC = {
    ("validate_model", "states"): "model.audit_states",
    ("value_iteration", "states"): "impulse.states",
    ("value_iteration", "iterations"): "impulse.iterations",
    ("value_iteration", "cells"): "impulse.cells",
    ("extract_strategy", "decisions"): "impulse.decisions",
    ("combined_value_iteration", "hmax_cells"): "combined.hmax_cells",
}
CALL_COUNT_METRIC = {"eval_expr": "expr.eval_calls", "walk_strategy_states": "evaluate.walks"}
FILE_METRIC = {
    "values.csv": "cli.values_mb",
    "strategy.csv": "cli.strategy_mb",
    "controls.csv": "cli.controls_mb",
    "envelope.csv": "cli.envelope_mb",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRIC.values()},
    **{name: "count" for name in COUNT_METRIC.values()},
    **{name: "count" for name in CALL_COUNT_METRIC.values()},
    **{name: "MB" for name in FILE_METRIC.values()},
    "cli.timings_coverage": "ratio",
    "trace.overhead_s": "s",
}
# Per-layer metrics that must be fed by at least one span (or output file)
# on each workload, so that none of them can read 0 silently.
EXPECTED = {
    "solve-d11": [
        "cli.self_s", "cli.values_mb", "cli.strategy_mb", "cli.timings_coverage", "tree.build_s",
        "model.audit_s", "expr.eval_s", "impulse.reward_tables_s", "impulse.obstacle_s", "impulse.sweep_s",
        "impulse.extract_s", "evaluate.walk_s", "evaluate.exact_s", "evaluate.count_dist_s",
    ],
    "combined-wide": [
        "cli.self_s", "cli.values_mb", "cli.strategy_mb", "cli.controls_mb", "cli.timings_coverage",
        "tree.build_s", "model.audit_s", "expr.eval_s", "impulse.obstacle_s", "combined.driver_tables_s",
        "combined.sweep_s", "combined.extract_s", "evaluate.walk_s", "evaluate.pair_s", "evaluate.count_dist_s",
    ],
    "replay": [
        "cli.self_s", "cli.envelope_mb", "tree.build_s", "model.audit_s", "expr.eval_s", "evaluate.walk_s",
        "evaluate.exact_s", "evaluate.mc_s", "snell.envelope_s",
    ],
}
WORKLOADS = list(EXPECTED)


@dataclass
class InvocationResult:
    label: str
    wall_s: float
    peak_rss_bytes: int
    problems: "list[str]"
    hashes: "dict[str, str]"
    sizes: "dict[str, int]"
    timings_sum: "float | None" = None
    spans: "list | None" = None


@dataclass
class Cycle:
    traced: bool
    invocations: "list[InvocationResult]" = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.invocations)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, log_dir: Path, name: str):
    """Run a child to completion; returns (exit code, wall seconds).
    stdout/stderr go to files so a chatty child never blocks."""
    with open(log_dir / f"{name}.stdout", "wb") as out, open(log_dir / f"{name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    return code, wall


def measure_setup(env, log_dir: Path, warm_up: bool) -> "list[float]":
    """Wall times of fresh interpreters importing impulsetree.cli, after one
    untimed import that fills the bytecode cache if ``warm_up``."""
    argv = [sys.executable, "-c", "import impulsetree.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES + warm_up):
        code, wall = spawn(argv, env, log_dir, "setup")
        if code != 0:
            raise RuntimeError("importing impulsetree.cli failed: " + (log_dir / "setup.stderr").read_text())
        samples.append(wall)
    return samples[warm_up:]


def hash_outputs(out: Path):
    hashes, sizes = {}, {}
    for path in sorted(out.iterdir()):
        sizes[path.name] = path.stat().st_size
        if path.name in NONDETERMINISTIC_OUTPUTS:
            continue
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        hashes[path.name] = digest.hexdigest()
    return hashes, sizes


def run_invocation(inv, traced: bool, env, work: Path, seq: int) -> InvocationResult:
    out = work / f"out-{seq}"
    report_path = work / f"report-{seq}.json"
    argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report_path), str(int(traced))]
    argv += inv.args + ["--out", str(out)]
    code, wall = spawn(argv, env, work, f"inv-{seq}")

    problems = []
    if code != 0:
        stderr = (work / f"inv-{seq}.stderr").read_text(errors="replace").strip()
        problems.append(f"exit code {code}: {stderr[-500:]}")
    report = {"peak_rss_bytes": 0, "spans": []}
    if report_path.is_file():
        report = json.loads(report_path.read_text())
        report_path.unlink()
    else:
        problems.append("the child wrote no report")
    hashes, sizes, timings_sum = {}, {}, None
    if out.is_dir():
        hashes, sizes = hash_outputs(out)
        if code == 0:
            try:
                problems += inv.check(out)
            except (OSError, KeyError, TypeError, ValueError, StopIteration) as exc:
                problems.append(f"output check failed: {type(exc).__name__}: {exc}")
        if (out / "timings.json").is_file():
            timings_sum = sum(json.loads((out / "timings.json").read_text()).values())
        shutil.rmtree(out)
    return InvocationResult(inv.label, wall, report["peak_rss_bytes"], problems, hashes, sizes, timings_sum, report["spans"])


def rerun_record(name: str, workload, inputs: Path) -> Path:
    """Where the output hashes of this workload and seed are kept across
    runs, keyed by everything that may change them: the program sources,
    the interpreter and numpy versions, the input files and the CLI
    arguments."""
    import numpy

    digest = hashlib.sha256(repr((sys.version, numpy.__version__)).encode())
    for path in sorted(SRC.rglob("*.py")) + sorted(inputs.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    for inv in workload.invocations:
        digest.update(repr([a.replace(str(inputs), "") for a in inv.args]).encode())
    return RERUNS / f"{name}-{digest.hexdigest()[:32]}.json"


def check_reruns(cycles, record: Path) -> str:
    """Every invocation's output hashes must equal those of a run of the
    same seed: the one recorded by an earlier run on the same sources if
    there is one, otherwise the first cycle of this run.  Returns which."""
    recorded = json.loads(record.read_text()) if record.is_file() else None
    reference = recorded or {r.label: r.hashes for r in cycles[0].invocations}
    for cycle in cycles:
        for res in cycle.invocations:
            ref = reference[res.label]
            if res.hashes != ref:
                changed = sorted(k for k in set(ref) | set(res.hashes) if ref.get(k) != res.hashes.get(k))
                res.problems.append(f"outputs differ from another run of this seed: {changed}")
    if recorded is not None:
        return "an earlier run of this seed"
    if not any(r.problems for c in cycles for r in c.invocations):
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference, sort_keys=True))
        tmp.replace(record)
    return "the first cycle of this run"


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(cycle: Cycle, untraced_wall: float) -> "tuple[dict, dict]":
    """Per-layer metrics of one traced cycle and how many spans (or output
    files) fed each of them."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    fed = {name: 0 for name in PER_LAYER_UNITS}
    run_s = timings_sum = 0.0
    for inv in cycle.invocations:
        spans = inv.spans or []
        for span, own in zip(spans, self_times(spans)):
            name, _, start, end, counts = span
            metric = SELF_TIME_METRIC[name]
            values[metric] += own
            fed[metric] += 1
            if name in CALL_COUNT_METRIC:
                values[CALL_COUNT_METRIC[name]] += 1
                fed[CALL_COUNT_METRIC[name]] += 1
            for key, count in (counts or {}).items():
                values[COUNT_METRIC[(name, key)]] += count
                fed[COUNT_METRIC[(name, key)]] += 1
            if name == "run" and inv.timings_sum is not None:
                run_s += end - start
                timings_sum += inv.timings_sum
        for filename, size in inv.sizes.items():
            if filename in FILE_METRIC:
                values[FILE_METRIC[filename]] += size / MB
                fed[FILE_METRIC[filename]] += 1
    if run_s:
        values["cli.timings_coverage"] = timings_sum / run_s
        fed["cli.timings_coverage"] = 1
    values["trace.overhead_s"] = cycle.wall_s - untraced_wall
    return values, fed


def median_and_count(values):
    return statistics.median(values), len(values)


def more_cycles(elapsed: float, done: int, seconds: float) -> bool:
    """Start another cycle while at least half of one, at the mean cycle
    time so far, fits before ``seconds``, so a run lasts about ``seconds``
    whatever the length of its cycles."""
    return seconds - elapsed >= elapsed / done / 2


def run_workload(name: str, prepare, seed: int, params, sizes, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    env = child_env()
    try:
        workload = prepare(inputs, params, sizes)
        cal_path = work / "calibration.csv"
        cal = [calibrate(cal_path)]
        setup = measure_setup(env, work, warm_up=True)
        cal.append(calibrate(cal_path))

        cycles = []
        seq = 0
        start = time.perf_counter()
        while (
            not cycles
            or more_cycles(time.perf_counter() - start, len(cycles), seconds)
            or (trace and len(cycles) % 2)
        ):
            cycle = Cycle(traced=trace and len(cycles) % 2 == 1)
            for inv in workload.invocations:
                seq += 1
                cycle.invocations.append(run_invocation(inv, cycle.traced, env, work, seq))
            cycles.append(cycle)
            cal.append(calibrate(cal_path))
        setup += measure_setup(env, work, warm_up=False)
        cal.append(calibrate(cal_path))
        record = rerun_record(name, workload, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rerun_source = check_reruns(cycles, record)
    return summarize(name, seed, params, workload, setup, cycles, cal, rerun_source)


def summarize(name, seed, params, workload, setup, cycles, cal, rerun_source: str) -> dict:
    results = [r for c in cycles for r in c.invocations]
    problems = [f"{r.label}: {p}" for r in results for p in r.problems]
    ok = sum(1 for r in results if not r.problems)

    plain = [c for c in cycles if not c.traced]
    # Timings at the reference host speed.
    speed = REFERENCE_S / statistics.median(cal)
    wall, cycle_count = median_and_count([c.wall_s for c in plain])
    setup_median, setup_count = median_and_count(setup)
    e2e = {
        "wall_ref_s": (wall * speed, cycle_count),
        "peak_rss_mb": median_and_count([max(r.peak_rss_bytes for r in c.invocations) / MB for c in plain]),
        "out_mb": median_and_count([sum(sum(r.sizes.values()) for r in c.invocations) / MB for c in plain]),
        "setup_s": (setup_median * speed, setup_count),
        "ok_frac": (ok / len(results), len(results)),
    }

    layers = None
    traced = [c for c in cycles if c.traced]
    if traced:
        per_cycle = [layer_metrics(c, wall) for c in traced]
        layers = {m: median_and_count([v[m] for v, _ in per_cycle]) for m in PER_LAYER_UNITS}
        for metric in EXPECTED[name]:
            silent = [i for i, (_, fed) in enumerate(per_cycle) if not fed[metric]]
            if silent:
                problems.append(f"per-layer metric {metric} has no span or output on {name}")

    print(f"workload {name}, seed {seed}: x0 = {params.x0!r}, mc_seed = {params.mc_seed}, "
          f"payoff scale = {params.payoff_scale!r}")
    print("  reference: " + ", ".join(f"{k} = {v!r}" for k, v in workload.info.items()))
    for i, inv in enumerate(workload.invocations):
        walls = [c.invocations[i].wall_s for c in plain]
        print(f"  {inv.label}: " + ", ".join(f"{w:.3f} s" for w in walls))
    print(f"  set-up: median {setup_median:.3f} s")
    print("  calibration: " + ", ".join(f"{c:.3f} s" for c in cal) + f"; timings scaled by {speed:.4f}")
    print(f"  output hashes compared with {rerun_source}")
    for metric, (value, count) in e2e.items():
        print(f"  {metric} = {value:.6g} {END_TO_END_UNITS[metric]} (median of {count})"
              if metric != "ok_frac" else f"  ok_frac = {value:.6g} ({count} invocations)")
    if layers:
        for metric, (value, count) in layers.items():
            print(f"  {metric} = {value:.6g} {PER_LAYER_UNITS[metric]} (median of {count} traced)")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)

    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(results) - ok,
        "e2e": {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, (v, _) in e2e.items()},
        "layers": None if layers is None else {m: {"value": v, "unit": PER_LAYER_UNITS[m]} for m, (v, _) in layers.items()},
    }


def result_line(summary: dict, trace: bool) -> str:
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": summary["layers"] if trace else summary["e2e"],
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny depths, traced and untraced, every workload")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "impulsetree" / "cli.py").is_file():
        print(f"error: no impulsetree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    trace = bool(args.trace) or args.smoke
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = 0.0 if args.smoke else args.seconds
    names = WORKLOADS if args.workload == "all" or args.smoke else [args.workload]

    correct = True
    for name in names:
        params = workloads.seed_params(args.seed)
        summary = run_workload(name, workloads.PREPARE[name], args.seed, params, sizes, seconds, trace)
        correct &= summary["correct"]
        print(result_line(summary, bool(args.trace)))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
