"""Command-line entry point: load config, build and audit, solve, extract,
evaluate, and write machine-readable reports.

Reports are byte-identical across runs with the same config, seed and
thread count; per-phase wall-clock timings therefore go to a separate
timings.json that is not part of the deterministic output.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from .combined import HamiltonianSpec, combined_value_iteration, extract_pair
from .csvio import write_controls_csv, write_dump, write_envelope_csv, write_strategy_csv, write_values_csv
from .csvread import CsvFormatError, read_payoff_csv, read_strategy_csv
from .evaluate import (
    evaluate_pair,
    evaluate_strategy_exact,
    enumerate_optimal,
    impulse_count_distribution,
    mc_evaluate_strategy,
    walk_strategy_states,
)
from .impulse import extract_strategy, value_iteration
from .model import DEFAULT_TOL, ConfigError, LimitError, load_config, validate_model
from .snell import snell_envelope
from .tree import build_tree

RESIDUAL_TOLERANCE = 1e-10


class CliUsageError(ValueError):
    pass


class AuditFailure(RuntimeError):
    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_outputs(out: Path, writes: dict):
    """Make ``out`` and write each named file into it, in order, with its
    function.  If one fails, every file they wrote is removed, and so is an
    ``out`` this call made and left empty."""
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    started = []
    try:
        for name, write in writes.items():
            started.append(out / name)
            write(out / name)
    except BaseException:
        for path in started:
            path.unlink(missing_ok=True)
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


def _audit_or_fail(loaded, tree, budget):
    report = validate_model(loaded.process, loaded.impulse, loaded.grid, tree, budget=budget)
    if not report.passed:
        raise AuditFailure(report)
    return report


def _audited_tree(loaded, depth, budget):
    tree = build_tree(loaded.process, depth)
    _audit_or_fail(loaded, tree, budget)
    return tree


def _at_least(source: str, value, low, what: str):
    if value is not None and not value >= low:  # NaN included
        raise CliUsageError(f"{source} must be {what}, got {value!r}")
    return value


def _resolve_numerics(loaded, args):
    """(depth, tol, budget), each from its flag, else from the config; a
    budget of None lets the audit and the solvers take ceil(gamma*T/c).
    --threads changes no result, but must still be at least 1."""
    _at_least("--threads", args.threads, 1, "at least 1")

    def pick(name, low, what):
        flag = getattr(args, name, None)
        if flag is None:
            return _at_least(f"numerics.{name}", getattr(loaded.numerics, name), low, what)
        return _at_least(f"--{name}", flag, low, what)

    return pick("depth", 1, "at least 1"), pick("tol", 0, "non-negative"), pick("budget", 0, "non-negative")


def _check_out(name: str):
    """--out must be a directory, or a path that does not exist yet and whose
    nearest existing ancestor is a directory."""
    existing = next(p for p in (Path(name), *Path(name).parents) if p.exists())
    if not existing.is_dir():
        raise CliUsageError(f"--out must be a directory or a path not yet made, but {existing} is not a directory")


def _existing_file(flag: str, name: str) -> Path:
    path = Path(name)
    if not path.is_file():
        raise CliUsageError(f"{flag} file not found: {path}")
    return path


def _cmd_solve(args, combined: bool) -> int:
    timings = {}
    start = time.perf_counter()
    loaded = load_config(args.config)
    depth, tol, budget = _resolve_numerics(loaded, args)
    if combined and loaded.grid is None:
        raise CliUsageError("solve-combined needs a control section in the config")

    tree = build_tree(loaded.process, depth)
    timings["build"] = time.perf_counter() - start

    t0 = time.perf_counter()
    _audit_or_fail(loaded, tree, budget)
    timings["audit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if combined:
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        result = combined_value_iteration(tree, loaded.impulse, spec, tol=tol, budget=budget)
    else:
        result = value_iteration(tree, loaded.impulse, tol=tol, budget=budget)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if combined:
        strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=tol)
    else:
        strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=tol)
    states = walk_strategy_states(loaded.impulse, strategy)
    if combined:
        forward = evaluate_pair(tree, loaded.impulse, spec, strategy, controls, path_states=states)
    else:
        forward = evaluate_strategy_exact(tree, loaded.impulse, strategy, path_states=states)
    distribution = impulse_count_distribution(tree, loaded.impulse, strategy, path_states=states)
    timings["extract_evaluate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    residual = abs(result.y0 - forward.value)
    status = "ok" if residual <= RESIDUAL_TOLERANCE else "inconsistent"
    report = {
        "Y0": result.y0,
        "iterations": len(result.fields) - 1,
        "stalled": result.stalled,
        "stall_index": result.stall_index,
        "budget_used": result.budget,
        "per_iteration_Y0": result.per_iteration_y0,
        "sup_increments": result.sup_increments,
        "config": loaded.raw,
        "config_hash": loaded.config_hash,
        "mode": "solve-combined" if combined else "solve",
        "tree": {"depth": tree.depth, "node_count": tree.node_count, "state_count": len(result.states)},
        "forward_value": forward.value,
        "consistency_residual": residual,
        "residual_tolerance": RESIDUAL_TOLERANCE,
        "status": status,
        "tol": tol,
        "strategy_summary": {
            "impulse_count_distribution": {str(k): v for k, v in distribution.items()},
            "impulse_decisions": strategy.impulse_decision_count,
            "decision_count": tree.node_count + strategy.impulse_decision_count,
        },
    }

    def timings_json(path):
        timings["write"] = time.perf_counter() - t0
        _write_json(path, {k: round(v, 6) for k, v in timings.items()})

    writes = {
        "values.csv": lambda path: write_values_csv(path, result, tree),
        "report.json": lambda path: _write_json(path, report),
        "strategy.csv": lambda path: write_strategy_csv(path, strategy),
    }
    if combined:
        writes["controls.csv"] = lambda path: write_controls_csv(path, controls, states)
    writes["timings.json"] = timings_json
    _write_outputs(Path(args.out), writes)

    print(f"Y0 = {result.y0!r}  forward = {forward.value!r}  residual = {residual:.3e}  status = {status}")
    return 0 if status == "ok" else 1


def _cmd_oracle(args) -> int:
    _at_least("--max-impulses", args.max_impulses, 0, "non-negative")
    loaded = load_config(args.config)
    depth, _, _ = _resolve_numerics(loaded, args)
    tree = _audited_tree(loaded, depth, None)
    value, strategy = enumerate_optimal(tree, loaded.impulse, args.max_impulses)
    payload = {
        "value": value,
        "max_impulses": args.max_impulses,
        "config_hash": loaded.config_hash,
        "strategy": [
            {"level": lv, "index": ix, "state_cum": cum, "state_count": ct, "action": act, "beta": beta}
            for lv, ix, cum, ct, act, beta in strategy.rows()
        ],
    }
    _write_outputs(Path(args.out), {"oracle.json": lambda path: _write_json(path, payload)})
    print(f"oracle value = {value!r} with at most {args.max_impulses} impulse(s)")
    return 0


def _cmd_eval(args) -> int:
    if args.mc_samples is not None:
        if args.seed is None:
            raise CliUsageError("--mc-samples needs --seed for a reproducible report")
        _at_least("--mc-samples", args.mc_samples, 1, "positive")
        _at_least("--seed", args.seed, 0, "non-negative")
    loaded = load_config(args.config)
    depth, _, budget = _resolve_numerics(loaded, args)
    if "u" in loaded.impulse.reward.variables:
        raise CliUsageError("eval evaluates an impulse strategy without controls, but impulse.h reads 'u'")
    strategy = read_strategy_csv(_existing_file("--strategy", args.strategy), loaded.impulse.impulses)
    if strategy.depth != depth:
        raise CliUsageError(f"strategy depth {strategy.depth} does not match configured depth {depth}")
    if args.mc_samples is None:
        policy = evaluate_strategy_exact(_audited_tree(loaded, depth, budget), loaded.impulse, strategy)
    else:  # the tree is passed unnamed, so that Monte Carlo frees it before sampling
        policy = mc_evaluate_strategy(
            _audited_tree(loaded, depth, budget), loaded.impulse, strategy, args.mc_samples, args.seed
        )
    payload = {
        "value": policy.value,
        "reward_integral": policy.reward_integral,
        "impulse_cost": policy.impulse_cost,
        "method": policy.method,
        "config_hash": loaded.config_hash,
    }
    if policy.method == "monte-carlo":
        payload.update(
            samples=policy.samples, std_error=policy.std_error, seed=policy.seed, generator=policy.generator
        )
    _write_outputs(Path(args.out), {"policy_value.json": lambda path: _write_json(path, payload)})
    print(f"policy value = {policy.value!r} ({policy.method})")
    return 0


def _cmd_snell(args) -> int:
    _at_least("--tol", args.tol, 0, "non-negative")
    payoff = read_payoff_csv(_existing_file("--payoff", args.payoff))
    result = snell_envelope(payoff, tol=args.tol if args.tol is not None else DEFAULT_TOL)

    _write_outputs(Path(args.out), {"envelope.csv": lambda path: write_envelope_csv(path, payoff, result)})
    print(f"envelope root value = {float(result.envelope[0][0])!r}")
    return 0


def _cmd_dump(args) -> int:
    loaded = load_config(args.config)
    depth, _, _ = _resolve_numerics(loaded, args)
    if not 0 <= args.level <= depth:
        raise CliUsageError(f"--level must be in [0, {depth}], got {args.level}")
    tree = build_tree(loaded.process, depth)
    sys.stdout.flush()
    write_dump(sys.stdout.buffer, tree, args.level)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="impulsetree", description="Impulse control on exact binary scenario trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget_flag=True):
        p.add_argument("--config", required=True, help="problem config JSON")
        p.add_argument("--depth", type=int, default=None, help="tree depth (overrides config)")
        p.add_argument("--tol", type=float, default=None, help="equality/stall tolerance (overrides config)")
        if budget_flag:
            p.add_argument("--budget", type=int, default=None, help="impulse budget (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="thread count (results are identical regardless)")

    p_solve = sub.add_parser("solve", help="solve the impulse control problem")
    common(p_solve)
    p_solve.add_argument("--out", required=True)

    p_comb = sub.add_parser("solve-combined", help="solve the combined stochastic/impulse problem")
    common(p_comb)
    p_comb.add_argument("--out", required=True)

    p_oracle = sub.add_parser("oracle", help="brute-force optimum over bounded strategies")
    common(p_oracle, budget_flag=False)
    p_oracle.add_argument("--max-impulses", type=int, required=True)
    p_oracle.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a strategy CSV exactly or by Monte Carlo")
    common(p_eval)
    p_eval.add_argument("--strategy", required=True)
    p_eval.add_argument("--mc-samples", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", required=True)

    p_snell = sub.add_parser("snell", help="Snell envelope of a payoff CSV")
    p_snell.add_argument("--payoff", required=True)
    p_snell.add_argument("--tol", type=float, default=None)
    p_snell.add_argument("--out", required=True)

    p_dump = sub.add_parser("dump", help="dump one tree level as CSV to stdout")
    common(p_dump, budget_flag=False)
    p_dump.add_argument("--level", type=int, required=True)

    return parser


def run(argv) -> int:
    """Dispatch a CLI invocation.  Exit status 0 on success, 2 on audit
    failure (violations listed on stderr), 1 on any other error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # an unknown command is argparse's usage error
        if getattr(args, "out", None) is not None:  # dump has no --out
            _check_out(args.out)
        handlers = {
            "solve": lambda a: _cmd_solve(a, combined=False),
            "solve-combined": lambda a: _cmd_solve(a, combined=True),
            "oracle": _cmd_oracle,
            "eval": _cmd_eval,
            "snell": _cmd_snell,
            "dump": _cmd_dump,
        }
        return handlers[args.command](args)
    except AuditFailure as exc:
        print(exc.report.summary(), file=sys.stderr)
        return 2
    except (CliUsageError, ConfigError, CsvFormatError, LimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
