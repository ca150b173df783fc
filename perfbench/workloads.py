"""The benchmark's workloads: seeded configs, the untimed preparation of
reference values and input files, the CLI invocations of one cycle, and
the checks run on each invocation's outputs.

Every reference value comes from the library (`impulsetree.*`) in the
benchmark's own process, so a CLI output is checked against an
independent computation of the same quantity.
"""

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from impulsetree import (
    HamiltonianSpec,
    PayoffProcess,
    build_tree,
    combined_value_iteration,
    extract_strategy,
    load_config,
    snell_envelope,
    stopping_rule_value,
    value_iteration,
)

RESIDUAL_TOL = 1e-10
MC_SIGMAS = 4.0

PROCESS = {"T": 1.0, "sigma": "0.3 + 0.1*abs(xmax - x)", "drift": None}
IMPULSE = {
    "U": [0.5, -0.5, 1.0],
    "psi": {"0.5": 0.1, "-0.5": 0.1, "1.0": 0.15},
    "c": 0.1,
    "gamma": 0.5,
    "h": "clamp(0.5 - abs(x - 0.2), 0, 0.5)",
}
COMBINED_H = "clamp(0.5 - abs(x - 0.2) + 0.05*u, 0, 0.5)"
CONTROL_GRID = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]


@dataclass(frozen=True)
class Sizes:
    solve_depth: int
    combined_depth: int
    eval_depth: int
    snell_depth: int
    mc_samples: int
    # The tilt bound |f/sigma|*sqrt(dt) < 1 needs dt <= 1/12 with |f| = 1 and
    # sigma >= 0.3, so a shallower combined tree gets a shorter horizon.
    combined_horizon: float = 1.0


FULL = Sizes(solve_depth=11, combined_depth=11, eval_depth=14, snell_depth=16, mc_samples=100_000, combined_horizon=0.9)
# Smoke sizes run every command, check and span in seconds.
SMOKE = Sizes(solve_depth=4, combined_depth=3, eval_depth=4, snell_depth=5, mc_samples=2_000, combined_horizon=0.25)


@dataclass
class Invocation:
    """One CLI command of a cycle; ``check(out_dir)`` returns the list of
    problems found in its outputs (empty when they are correct)."""

    label: str
    args: "list[str]"
    check: "Callable[[Path], list[str]]"


@dataclass
class Workload:
    invocations: "list[Invocation]"
    info: "dict[str, object]"


@dataclass(frozen=True)
class SeedParams:
    """What the seed perturbs: the start value, the Monte Carlo seed and the
    scale of the drawdown payoff.  Depth, U, budget and V stay fixed.  The
    scale leaves the payoff's zero set alone, so the size of envelope.csv
    hardly moves with the seed."""

    x0: float
    mc_seed: int
    payoff_scale: float


def seed_params(seed: int) -> SeedParams:
    rng = random.Random(seed)
    return SeedParams(
        # At depth 14 (the replay strategy), x0 in about [0.025, 0.04] takes
        # a fifth iteration; this range keeps every seed at four.
        x0=round(rng.uniform(-0.05, 0.015), 6),
        mc_seed=rng.randrange(1, 2**31),
        payoff_scale=round(rng.uniform(0.9, 1.1), 6),
    )


def solve_config(params: SeedParams, depth: int) -> dict:
    return {
        "process": {"x0": params.x0, **PROCESS},
        "impulse": dict(IMPULSE),
        "control": None,
        "numerics": {"depth": depth, "tol": 1e-12, "budget": None},
    }


def combined_config(params: SeedParams, depth: int, horizon: float) -> dict:
    return {
        "process": {"x0": params.x0, **PROCESS, "T": horizon},
        "impulse": {**IMPULSE, "h": COMBINED_H},
        "control": {"V": CONTROL_GRID, "f": "u"},
        "numerics": {"depth": depth, "tol": 1e-12, "budget": None},
    }


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_report(out: Path, ref: dict) -> "list[str]":
    """report.json of solve / solve-combined against a library run."""
    report = _read_json(out / "report.json")
    problems = []
    if report["status"] != "ok":
        problems.append(f"status {report['status']!r}")
    if not report["consistency_residual"] <= RESIDUAL_TOL:
        problems.append(f"residual {report['consistency_residual']!r} above {RESIDUAL_TOL}")
    if report["Y0"] != ref["Y0"]:
        problems.append(f"Y0 {report['Y0']!r} != library {ref['Y0']!r}")
    if report["per_iteration_Y0"] != ref["per_iteration_Y0"]:
        problems.append(f"per_iteration_Y0 {report['per_iteration_Y0']!r} != library {ref['per_iteration_Y0']!r}")
    return problems


def _summary(result) -> dict:
    """The reference values of a library run, without its large fields."""
    return {
        "Y0": result.y0,
        "per_iteration_Y0": result.per_iteration_y0,
        "states": len(result.states),
        "iterations": len(result.fields) - 1,
        "stall_index": result.stall_index,
    }


def _library_solve(config: dict):
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
    return loaded, tree, result


def prepare_solve(inputs: Path, params: SeedParams, sizes: Sizes) -> Workload:
    config = solve_config(params, sizes.solve_depth)
    ref = _summary(_library_solve(config)[2])
    path = _write_json(inputs / "solve.json", config)
    return Workload(
        invocations=[Invocation("solve", ["solve", "--config", str(path)], lambda out: _check_report(out, ref))],
        info=ref,
    )


def prepare_combined(inputs: Path, params: SeedParams, sizes: Sizes) -> Workload:
    config = combined_config(params, sizes.combined_depth, sizes.combined_horizon)
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    ref = _summary(combined_value_iteration(tree, loaded.impulse, spec, tol=loaded.numerics.tol))
    path = _write_json(inputs / "combined.json", config)
    return Workload(
        invocations=[
            Invocation("solve-combined", ["solve-combined", "--config", str(path)], lambda out: _check_report(out, ref))
        ],
        info=ref,
    )


def _write_strategy_csv(path: Path, strategy) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "state_cum", "state_count", "action", "beta"])
        for level, index, cum, count, action, beta in strategy.rows():
            writer.writerow([level, index, repr(float(cum)), count, action, "" if beta is None else repr(float(beta))])
    return path


def _drawdown_payoff(config: dict, depth: int, scale: float) -> "list[np.ndarray]":
    """scale * max(xmax - x - 0.1*t, 0) on every node of the config's tree."""
    tree = build_tree(load_config(config).process, depth)
    return [
        scale * np.maximum(tree.running_max[k] - tree.state[k] - 0.1 * tree.times[k], 0.0)
        for k in range(depth + 1)
    ]


def _write_payoff_csv(path: Path, levels) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "value"])
        for k, values in enumerate(levels):
            for i, v in enumerate(values.tolist()):
                writer.writerow([k, i, repr(v)])
    return path


def _check_exact_eval(out: Path, y0: float) -> "list[str]":
    value = _read_json(out / "policy_value.json")["value"]
    if not abs(value - y0) <= RESIDUAL_TOL:
        return [f"exact eval {value!r} differs from Y0 {y0!r} by more than {RESIDUAL_TOL}"]
    return []


def _check_mc_eval(out: Path, exact: float, samples: int) -> "list[str]":
    payload = _read_json(out / "policy_value.json")
    problems = []
    if payload["samples"] != samples:
        problems.append(f"MC used {payload['samples']} samples, asked for {samples}")
    if not abs(payload["value"] - exact) <= MC_SIGMAS * payload["std_error"]:
        problems.append(
            f"MC value {payload['value']!r} is more than {MC_SIGMAS} standard errors "
            f"({payload['std_error']!r}) from the exact value {exact!r}"
        )
    return problems


def _check_snell(out: Path, rule_value: float) -> "list[str]":
    with (out / "envelope.csv").open(newline="", encoding="utf-8") as fh:
        root = next(row for row in csv.DictReader(fh) if row["level"] == "0")
    envelope = float(root["envelope"])
    if not abs(envelope - rule_value) <= RESIDUAL_TOL:
        return [f"snell root {envelope!r} != stopping_rule_value {rule_value!r}"]
    return []


def prepare_replay(inputs: Path, params: SeedParams, sizes: Sizes) -> Workload:
    config = solve_config(params, sizes.eval_depth)
    loaded, tree, result = _library_solve(config)
    info = _summary(result)
    y0 = info["Y0"]
    strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol)
    del result
    strategy_csv = _write_strategy_csv(inputs / "strategy.csv", strategy)
    config_path = _write_json(inputs / "replay.json", config)

    payoff = _drawdown_payoff(config, sizes.snell_depth, params.payoff_scale)
    payoff_csv = _write_payoff_csv(inputs / "payoff.csv", payoff)
    process = PayoffProcess.from_arrays(payoff)
    rule_value = stopping_rule_value(process, snell_envelope(process, tol=1e-12))
    info["snell_rule_value"] = rule_value

    eval_args = ["eval", "--config", str(config_path), "--strategy", str(strategy_csv)]
    mc_args = eval_args + ["--mc-samples", str(sizes.mc_samples), "--seed", str(params.mc_seed)]
    return Workload(
        invocations=[
            Invocation("eval-exact", eval_args, lambda out: _check_exact_eval(out, y0)),
            Invocation("eval-mc", mc_args, lambda out: _check_mc_eval(out, y0, sizes.mc_samples)),
            Invocation("snell", ["snell", "--payoff", str(payoff_csv)], lambda out: _check_snell(out, rule_value)),
        ],
        info=info,
    )


PREPARE = {"solve-d11": prepare_solve, "combined-wide": prepare_combined, "replay": prepare_replay}
