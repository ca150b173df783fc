import csv
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import impulsetree.cli
from impulsetree.cli import run
from impulsetree.model import config_hash

from conftest import PINNED_CONFIG, random_combined_config, random_impulse_config


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_solve_pinned_instance(tmp_path, capsys):
    config = _write_config(tmp_path, PINNED_CONFIG)
    out = tmp_path / "run"
    assert run(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["Y0"] == pytest.approx(0.7, abs=1e-8)
    assert report["stalled"] is True
    assert report["stall_index"] == 2
    assert report["budget_used"] == 10
    assert report["iterations"] == 2
    assert len(report["per_iteration_Y0"]) == 3
    assert report["status"] == "ok"
    assert report["consistency_residual"] <= report["residual_tolerance"]
    assert report["config"] == PINNED_CONFIG
    assert len(report["config_hash"]) == 64
    assert report["strategy_summary"]["impulse_count_distribution"] == {"1": 1.0}
    assert (out / "strategy.csv").exists()
    assert (out / "values.csv").exists()
    assert (out / "timings.json").exists()

    with (out / "strategy.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    impulse_rows = [r for r in rows if r["action"] == "impulse"]
    assert len(impulse_rows) == 1
    assert impulse_rows[0]["level"] == "0"
    assert float(impulse_rows[0]["beta"]) == 1.0


def test_solve_zero_reward(tmp_path):
    config = _write_config(tmp_path, {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "h": "0"}})
    out = tmp_path / "run"
    assert run(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["Y0"] == 0.0
    assert report["strategy_summary"]["impulse_decisions"] == 0


@pytest.mark.parametrize(
    "command, config",
    [("solve", random_impulse_config(203, depth=3)), ("solve-combined", random_combined_config(203, depth=3))],
)
def test_solve_timings_cover_every_phase(tmp_path, command, config):
    config = _write_config(tmp_path, config)
    out = tmp_path / "run"
    assert run([command, "--config", str(config), "--out", str(out)]) == 0
    timings = _read_json(out / "timings.json")
    # no "total": the phases are disjoint, so their sum is the covered time
    assert set(timings) == {"build", "audit", "solve", "extract_evaluate", "write"}
    assert all(v >= 0 for v in timings.values())


@pytest.mark.parametrize("budget", [None, "1"])
def test_solve_reports_sup_increments(tmp_path, budget):
    config = _write_config(tmp_path, PINNED_CONFIG)
    out = tmp_path / "run"
    flags = [] if budget is None else ["--budget", budget]
    assert run(["solve", "--config", str(config), "--out", str(out)] + flags) == 0
    report = _read_json(out / "report.json")
    sups = report["sup_increments"]
    assert len(sups) == report["iterations"]
    assert all(v >= 0 for v in sups)
    if report["stalled"]:
        assert sups[-1] <= report["tol"]
    else:
        assert sups[-1] > report["tol"]
    assert report["stalled"] is (budget is None)


def test_solve_audit_failure_exit_code(tmp_path, capsys):
    bad = {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "psi": {"1.0": 0.0}}}
    config = _write_config(tmp_path, bad)
    out = tmp_path / "run"
    assert run(["solve", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "A2" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "change, summary",
    [
        ({"c": 0.0}, "A2: cost floor must be positive, got 0.0"),
        ({"gamma": -1.0}, "A1: reward bound must be non-negative, got -1.0"),
    ],
    ids=["c-zero", "gamma-negative"],
)
@pytest.mark.parametrize("command", ["solve", "solve-combined", "oracle", "eval"])
def test_bound_failures_reach_the_audit(tmp_path, capsys, command, change, summary):
    """Without a budget, the audit resolves it: an unusable cost floor or
    reward bound is an audit failure (exit 2), not an internal error."""
    if command == "eval":
        _solved_strategy(tmp_path)  # the pinned instance's strategy.csv under solve/
    base = random_combined_config(202, depth=2) if command == "solve-combined" else PINNED_CONFIG
    config = _write_config(tmp_path, {**base, "impulse": {**base["impulse"], **change}}, "bad.json")
    args = {"oracle": ["--max-impulses", "1"], "eval": ["--strategy", str(tmp_path / "solve" / "strategy.csv")]}
    capsys.readouterr()
    out = tmp_path / "o"
    assert run([command, "--config", str(config), "--out", str(out)] + args.get(command, [])) == 2
    assert summary in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "section, change",
    [("impulse", {"c": 0.0}), ("impulse", {"gamma": -1.0}), ("process", {"sigma": "0"}), ("process", {"sigma": "-0.5"})],
    ids=["c-zero", "gamma-negative", "sigma-zero", "sigma-negative"],
)
def test_mc_eval_runs_the_audit_of_exact_eval(tmp_path, capsys, section, change):
    _solved_strategy(tmp_path)
    bad = {**PINNED_CONFIG, section: {**PINNED_CONFIG[section], **change}}
    config = _write_config(tmp_path, bad, "bad.json")
    args = ["eval", "--config", str(config), "--strategy", str(tmp_path / "solve" / "strategy.csv")]
    capsys.readouterr()
    assert run(args + ["--out", str(tmp_path / "exact")]) == 2
    exact = capsys.readouterr()
    assert run(args + ["--mc-samples", "200", "--seed", "3", "--out", str(tmp_path / "mc")]) == 2
    mc = capsys.readouterr()
    assert mc.out == exact.out == "" and mc.err == exact.err
    assert exact.err.startswith("audit failed")
    assert not (tmp_path / "exact").exists() and not (tmp_path / "mc").exists()


@pytest.mark.parametrize("change", [{"c": 0.0}, {"gamma": -1.0}], ids=["c-zero", "gamma-negative"])
def test_dump_needs_no_budget(tmp_path, capsys, change):
    config = _write_config(tmp_path, {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], **change}})
    assert run(["dump", "--config", str(config), "--level", "1"]) == 0
    assert capsys.readouterr().out.startswith("level,index,t,L,xmax,xmin,xavg\r\n1,0,")


def test_missing_config_is_an_error(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    assert "not found" in capsys.readouterr().err


def test_malformed_json_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert run(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "malformed" in capsys.readouterr().err


def test_unknown_flag_is_an_error(tmp_path, capsys):
    config = _write_config(tmp_path, PINNED_CONFIG)
    assert run(["solve", "--config", str(config), "--out", str(tmp_path / "o"), "--frobnicate"]) == 1


def test_depth_tol_budget_flags_override_config(tmp_path):
    config = _write_config(tmp_path, PINNED_CONFIG)
    out = tmp_path / "run"
    assert run(
        ["solve", "--config", str(config), "--out", str(out), "--depth", "3", "--budget", "1", "--tol", "1e-10"]
    ) == 0
    report = _read_json(out / "report.json")
    assert report["tree"]["depth"] == 3
    assert report["budget_used"] == 1
    assert report["tol"] == 1e-10


def test_solve_reports_are_byte_identical(tmp_path):
    config = _write_config(tmp_path, random_impulse_config(201, depth=4))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", str(config), "--out", str(out1)]) == 0
    # the thread-count flag must not change any output byte
    assert run(["solve", "--config", str(config), "--out", str(out2), "--threads", "4"]) == 0
    for name in ("report.json", "strategy.csv", "values.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_combined_writes_controls(tmp_path):
    config = _write_config(tmp_path, random_combined_config(202, depth=3))
    out = tmp_path / "run"
    assert run(["solve-combined", "--config", str(config), "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["mode"] == "solve-combined"
    assert report["status"] == "ok"
    assert (out / "controls.csv").exists()
    with (out / "controls.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    grid = set(json.loads((tmp_path / "config.json").read_text())["control"]["V"])
    assert {float(r["u_star"]) for r in rows} <= grid


def test_solve_combined_requires_control_section(tmp_path, capsys):
    config = _write_config(tmp_path, PINNED_CONFIG)
    assert run(["solve-combined", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "control section" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "solve-combined"])
@pytest.mark.parametrize(
    "flag, value, source",
    [("--tol", "-1", "--tol"), ("--tol", "nan", "--tol"), (None, -1, "numerics.tol")],
    ids=["flag-negative", "flag-nan", "config-negative"],
)
def test_a_negative_or_nan_tol_is_a_usage_error(tmp_path, capsys, command, flag, value, source):
    base = PINNED_CONFIG if command == "solve" else random_combined_config(202, depth=3)
    numerics = {**base["numerics"], "tol": value} if flag is None else base["numerics"]
    config = _write_config(tmp_path, {**base, "numerics": numerics})
    out = tmp_path / "run"
    assert run([command, "--config", str(config), "--out", str(out)] + ([flag, value] if flag else [])) == 1
    shown = "nan" if value == "nan" else "-1.0"
    assert capsys.readouterr() == ("", f"error: {source} must be non-negative, got {shown}\n")
    assert not out.exists()


def test_a_zero_tol_is_accepted(tmp_path):
    config = _write_config(tmp_path, PINNED_CONFIG)
    out = tmp_path / "run"
    assert run(["solve", "--config", str(config), "--out", str(out), "--tol", "0"]) == 0
    report = _read_json(out / "report.json")
    assert report["tol"] == 0.0 and report["strategy_summary"]["impulse_decisions"] == 1


def test_oracle_command(tmp_path):
    config = _write_config(tmp_path, PINNED_CONFIG)
    out = tmp_path / "run"
    assert run(["oracle", "--config", str(config), "--max-impulses", "2", "--out", str(out)]) == 0
    payload = _read_json(out / "oracle.json")
    assert payload["value"] == pytest.approx(0.7, abs=1e-8)
    assert payload["max_impulses"] == 2
    actions = {row["action"] for row in payload["strategy"]}
    assert "impulse" in actions


def test_eval_exact_round_trip(tmp_path):
    config = _write_config(tmp_path, PINNED_CONFIG)
    solve_out = tmp_path / "solve"
    assert run(["solve", "--config", str(config), "--out", str(solve_out)]) == 0
    eval_out = tmp_path / "eval"
    assert run(
        ["eval", "--config", str(config), "--strategy", str(solve_out / "strategy.csv"), "--out", str(eval_out)]
    ) == 0
    payload = _read_json(eval_out / "policy_value.json")
    report = _read_json(solve_out / "report.json")
    assert payload["method"] == "exact"
    assert payload["value"] == pytest.approx(report["forward_value"], abs=1e-12)
    assert "std_error" not in payload


def test_eval_monte_carlo(tmp_path):
    config = _write_config(tmp_path, PINNED_CONFIG)
    solve_out = tmp_path / "solve"
    assert run(["solve", "--config", str(config), "--out", str(solve_out)]) == 0
    eval_out = tmp_path / "mc"
    assert run(
        [
            "eval",
            "--config",
            str(config),
            "--strategy",
            str(solve_out / "strategy.csv"),
            "--mc-samples",
            "2000",
            "--seed",
            "5",
            "--out",
            str(eval_out),
        ]
    ) == 0
    payload = _read_json(eval_out / "policy_value.json")
    assert payload["method"] == "monte-carlo"
    assert payload["samples"] == 2000
    assert payload["seed"] == 5
    assert payload["generator"] == "numpy.random.PCG64"
    assert payload["value"] == pytest.approx(0.7, abs=1e-6)


def test_eval_mc_requires_seed(tmp_path, capsys):
    config = _write_config(tmp_path, PINNED_CONFIG)
    solve_out = tmp_path / "solve"
    assert run(["solve", "--config", str(config), "--out", str(solve_out)]) == 0
    code = run(
        [
            "eval",
            "--config",
            str(config),
            "--strategy",
            str(solve_out / "strategy.csv"),
            "--mc-samples",
            "100",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mc_args, message",
    [
        (["--mc-samples", "0", "--seed", "1"], "--mc-samples must be positive, got 0"),
        (["--mc-samples", "-3", "--seed", "1"], "--mc-samples must be positive, got -3"),
        (["--mc-samples", "100", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["--mc-samples", "100"], "--mc-samples needs --seed for a reproducible report"),
    ],
    ids=["samples-zero", "samples-negative", "seed-negative", "seed-missing"],
)
def test_eval_rejects_bad_monte_carlo_arguments_before_making_out(tmp_path, capsys, mc_args, message):
    config, _ = _solved_strategy(tmp_path)
    capsys.readouterr()
    out = tmp_path / "mc"
    args = ["eval", "--config", str(config), "--strategy", str(tmp_path / "solve" / "strategy.csv")]
    assert run(args + mc_args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, numerics, args, message",
    [
        ("solve", {}, ["--depth", "0"], "--depth must be at least 1, got 0"),
        ("solve-combined", {"depth": 0}, [], "numerics.depth must be at least 1, got 0"),
        ("solve", {}, ["--budget", "-1"], "--budget must be non-negative, got -1"),
        ("solve-combined", {"budget": -1}, [], "numerics.budget must be non-negative, got -1"),
        ("eval", {"budget": -1}, [], "numerics.budget must be non-negative, got -1"),
        ("oracle", {}, ["--max-impulses", "-1"], "--max-impulses must be non-negative, got -1"),
        ("eval", {}, ["--strategy", "{tmp}/missing.csv"], "--strategy file not found: {tmp}/missing.csv"),
        ("snell", None, ["--payoff", "{tmp}/missing.csv"], "--payoff file not found: {tmp}/missing.csv"),
        ("snell", None, ["--payoff", "{tmp}/payoff.csv", "--tol", "-1"], "--tol must be non-negative, got -1.0"),
        ("snell", None, ["--payoff", "{tmp}/payoff.csv", "--tol", "nan"], "--tol must be non-negative, got nan"),
        ("solve", {}, ["--threads", "-7"], "--threads must be at least 1, got -7"),
        ("solve-combined", {}, ["--threads", "0"], "--threads must be at least 1, got 0"),
        ("solve", {}, ["--depth", "25"], "tree with depth 25 needs 67108863 nodes, over the limit of 4194304"),
        ("solve", {}, ["--budget", "100000"], "impulse state count exceeds the limit of 20000"),
        # a node count too long to print
        ("solve", {"depth": 20000}, [], "tree with depth 20000 needs 2^20001 - 1 nodes, over the limit of 4194304"),
        ("dump", {"depth": 20000}, ["--level", "0"], "tree with depth 20000 needs 2^20001 - 1 nodes, over the limit of 4194304"),
        ("oracle", {"depth": 20000}, ["--max-impulses", "1"], "tree with depth 20000 needs 2^20001 - 1 nodes, over the limit of 4194304"),
        ("dump", {}, ["--level", "99"], "--level must be in [0, 2], got 99"),
        ("dump", {"depth": 3}, ["--level", "-1"], "--level must be in [0, 3], got -1"),
        # --out given twice: argparse keeps the last, this one
        (
            "solve", {}, ["--out", "{tmp}/payoff.csv"],
            "--out must be a directory or a path not yet made, but {tmp}/payoff.csv is not a directory",
        ),
        (
            "eval", {}, ["--out", "{tmp}/payoff.csv/sub"],
            "--out must be a directory or a path not yet made, but {tmp}/payoff.csv is not a directory",
        ),
        (
            "snell", None, ["--payoff", "{tmp}/payoff.csv", "--out", "{tmp}/payoff.csv/a/b"],
            "--out must be a directory or a path not yet made, but {tmp}/payoff.csv is not a directory",
        ),
    ],
    ids=[
        "depth-flag", "depth-config", "budget-flag", "budget-config", "eval-budget-config",
        "max-impulses", "strategy-missing", "payoff-missing", "snell-tol-negative", "snell-tol-nan",
        "threads-negative", "threads-zero", "depth-over-node-limit", "budget-over-state-limit",
        "solve-depth-20000", "dump-depth-20000", "oracle-depth-20000", "dump-level-over", "dump-level-negative",
        "out-a-file", "out-under-a-file", "out-two-below-a-file",
    ],
)
def test_usage_errors_name_their_flag_or_key_before_making_out(tmp_path, capsys, command, numerics, args, message):
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    # The root's payoff equals its envelope: a negative or NaN tol would
    # write it as stop=0, first_stop=1.
    (tmp_path / "payoff.csv").write_text("level,index,value\n0,0,1.0\n1,0,0.0\n1,1,0.0\n", encoding="utf-8")
    if command == "eval" and "--strategy" not in args:
        _solved_strategy(tmp_path)
        args += ["--strategy", str(tmp_path / "solve" / "strategy.csv")]
    if numerics is not None:  # snell reads no config
        base = random_combined_config(202, depth=3) if command == "solve-combined" else PINNED_CONFIG
        config = _write_config(tmp_path, {**base, "numerics": {**base["numerics"], **numerics}}, "case.json")
        args += ["--config", str(config)]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, *([] if command == "dump" else ["--out", str(out)]), *args]) == 1  # dump writes stdout
    assert capsys.readouterr() == ("", "error: " + message.replace("{tmp}", str(tmp_path)) + "\n")
    assert not out.exists() and (tmp_path / "payoff.csv").is_file()


def test_an_unknown_command_is_a_usage_error(capsys):
    assert run(["bogus"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: argument command: invalid choice: 'bogus' (choose from ")


_SIGMA_EXP = {"x0": 1.0, "sigma": "0.3 + exp(1000*x)"}
_SIGMA_EXP_FAILS = "process.sigma fails on the tree at level 0: non-finite result in function 'exp'"


@pytest.mark.parametrize(
    "command, section, change, message",
    [
        ("solve", "process", {"x0": float("nan"), "sigma": "0.3"}, "process.x0 must be a number, got nan"),
        ("solve", "process", {"x0": float("nan"), "sigma": "0.3 + x"}, "process.x0 must be a number, got nan"),
        ("solve", "process", {"T": float("inf")}, "process.T must be a number, got inf"),
        ("solve-combined", "impulse", {"gamma": -float("inf")}, "impulse.gamma must be a number, got -inf"),
        (
            "solve", "impulse", {"gamma": 1e300, "c": 1e-300},
            "impulse budget gamma*T/c = 1e+300*1.0/1e-300 is not finite",
        ),
        ("solve", "process", _SIGMA_EXP, _SIGMA_EXP_FAILS),
        ("dump", "process", _SIGMA_EXP, _SIGMA_EXP_FAILS),
        ("oracle", "process", _SIGMA_EXP, _SIGMA_EXP_FAILS),
        (
            "solve", "process", {"x0": 1.0, "drift": "exp(1000*x)"},
            "process.drift fails on the tree at level 0: non-finite result in function 'exp'",
        ),
        (
            "dump", "process", {"x0": 1.0, "sigma": "0.3 + exp(700*x)"},
            "process.sigma fails on the tree at level 1: non-finite result in function 'exp'",
        ),
    ],
    ids=[
        "x0-nan", "x0-nan-read", "T-inf", "gamma-minus-inf", "budget-overflow",
        "sigma-solve", "sigma-dump", "sigma-oracle", "drift-solve", "sigma-level-1",
    ],
)
def test_non_finite_inputs_are_errors_before_making_out(tmp_path, capsys, command, section, change, message):
    """A non-finite config number, an impulse budget that overflows and a
    coefficient that is not finite on the tree each print ``error: ...``
    (exit 1), not an internal error, and make no --out."""
    base = {**PINNED_CONFIG, "control": {"V": [-1.0, 1.0], "f": "0*u"}} if command == "solve-combined" else PINNED_CONFIG
    config = _write_config(tmp_path, {**base, section: {**base[section], **change}})
    out = tmp_path / "out"
    extra = {"dump": ["--level", "1"], "oracle": ["--max-impulses", "1", "--out", str(out)]}
    assert run([command, "--config", str(config), *extra.get(command, ["--out", str(out)])]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "dump", "oracle", "eval-mc"])
@pytest.mark.parametrize(
    "process, level", [({"x0": 0.0, "sigma": "1e308"}, 3), ({"x0": 1.7e308, "sigma": "1e308"}, 1)], ids=["sum", "x"]
)
def test_a_state_recursion_that_overflows_is_an_error_naming_its_level(tmp_path, capsys, command, process, level):
    """Finite coefficients whose states or running sums overflow print
    ``error: ...`` naming the first such level (exit 1), with no warning,
    no dump row and no --out.  In the first config x is still finite at
    level 3 (1.5e308); only its running sum is not."""
    numerics = {**PINNED_CONFIG["numerics"], "depth": 4}
    fine = _write_config(tmp_path, {**PINNED_CONFIG, "numerics": numerics}, "fine.json")
    assert run(["solve", "--config", str(fine), "--out", str(tmp_path / "solved")]) == 0
    process = {**PINNED_CONFIG["process"], **process}
    config = _write_config(tmp_path, {**PINNED_CONFIG, "process": process, "numerics": numerics})
    out = tmp_path / "out"
    args = {
        "dump": ["dump", "--level", "4"],
        "oracle": ["oracle", "--max-impulses", "1", "--out", str(out)],
        "eval-mc": [
            "eval", "--strategy", str(tmp_path / "solved" / "strategy.csv"), "--mc-samples", "10", "--seed", "1",
            "--out", str(out),
        ],
    }.get(command, [command, "--out", str(out)])
    capsys.readouterr()
    assert run([*args, "--config", str(config)]) == 1
    message = f"the process state or its running sum overflows on the tree at level {level}"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_eval_frees_the_tree_before_monte_carlo_draws_a_sample(tmp_path, monkeypatch):
    """No reference to the tree is alive while Monte Carlo samples."""
    config = _write_config(tmp_path, PINNED_CONFIG)
    assert run(["solve", "--config", str(config), "--out", str(tmp_path / "solve")]) == 0
    trees, alive = [], []
    build_tree, default_rng = impulsetree.cli.build_tree, np.random.default_rng

    def recorded(*args):
        tree = build_tree(*args)
        trees.append(weakref.ref(tree))
        return tree

    def checked(seed):
        alive.extend(ref() is not None for ref in trees)
        return default_rng(seed)

    monkeypatch.setattr(impulsetree.cli, "build_tree", recorded)
    monkeypatch.setattr(np.random, "default_rng", checked)
    strategy = str(tmp_path / "solve" / "strategy.csv")
    args = ["eval", "--config", str(config), "--strategy", strategy, "--mc-samples", "10", "--seed", "1"]
    assert run([*args, "--out", str(tmp_path / "mc")]) == 0
    assert alive == [False]


def test_snell_command(tmp_path):
    payoff = tmp_path / "payoff.csv"
    with payoff.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "value"])
        writer.writerow([0, 0, 0.0])
        writer.writerow([1, 0, 1.0])
        writer.writerow([1, 1, 0.0])
        for i, v in enumerate([0.0, 0.0, 3.0, 0.0]):
            writer.writerow([2, i, v])
    out = tmp_path / "run"
    assert run(["snell", "--payoff", str(payoff), "--out", str(out)]) == 0
    with (out / "envelope.csv").open() as fh:
        rows = {(int(r["level"]), int(r["index"])): r for r in csv.DictReader(fh)}
    assert float(rows[(0, 0)]["envelope"]) == 1.25
    assert float(rows[(1, 1)]["envelope"]) == 1.5
    assert rows[(1, 0)]["stop"] == "1"


def _snell_payoff(tmp_path):
    payoff = tmp_path / "payoff.csv"
    payoff.write_text("level,index,value\n0,0,0.0\n1,0,1.0\n1,1,0.0\n", encoding="utf-8")
    return ["snell", "--payoff", str(payoff)]


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize(
    "command, writer",
    [
        ("solve", "write_values_csv"),
        ("solve", "write_strategy_csv"),
        ("solve-combined", "write_controls_csv"),
        ("snell", "write_envelope_csv"),
        ("eval", "_write_json"),
        ("eval-mc", "_write_json"),
        ("oracle", "_write_json"),
    ],
)
def test_a_failed_write_leaves_no_output_behind(tmp_path, capsys, monkeypatch, command, writer, existing):
    """A writer that fails part way (a few bytes reach its file, then the
    disk is full) leaves none of the run's files and no --out the run
    made; files that were in --out before the run stay."""

    def failing(path, *args):
        path.write_bytes(b"level,ind")
        raise OSError(28, "No space left on device")

    if command == "snell":
        args = _snell_payoff(tmp_path)
    elif command.startswith("eval"):
        config, _ = _solved_strategy(tmp_path)  # before the writer fails
        args = ["eval", "--config", str(config), "--strategy", str(tmp_path / "solve" / "strategy.csv")]
        args += ["--mc-samples", "10", "--seed", "1"] if command == "eval-mc" else []
    else:
        config = random_combined_config(202, depth=3) if command == "solve-combined" else PINNED_CONFIG
        args = [command, "--config", str(_write_config(tmp_path, config))]
        args += ["--max-impulses", "1"] if command == "oracle" else []
    monkeypatch.setattr(impulsetree.cli, writer, failing)
    out = tmp_path / "run"
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("from before", encoding="utf-8")
    assert run(args + ["--out", str(out)]) == 1
    assert "OSError" in capsys.readouterr().err
    assert out.exists() is existing
    if existing:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_snell_missing_node_is_an_error(tmp_path, capsys):
    payoff = tmp_path / "payoff.csv"
    with payoff.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "value"])
        writer.writerow([0, 0, 0.0])
        writer.writerow([1, 0, 1.0])
    assert run(["snell", "--payoff", str(payoff), "--out", str(tmp_path / "o")]) == 1
    assert "missing node" in capsys.readouterr().err


def _write_payoff(tmp_path, rows):
    payoff = tmp_path / "payoff.csv"
    with payoff.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "value"])
        writer.writerows(rows)
    return payoff


# A complete depth-2 payoff (header on line 1, these rows on lines 2-8).
PAYOFF_ROWS = [(0, 0, 0.0), (1, 0, 1.0), (1, 1, 0.0), (2, 0, 0.0), (2, 1, 0.0), (2, 2, 3.0), (2, 3, 0.0)]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ((1, 1, 3.0), "line 9: duplicate node (level 1, index 1)"),
        ((1, 2, 0.0), "line 9: index 2 outside [0, 2^1)"),
        ((2, -1, 0.0), "line 9: index -1 outside [0, 2^2)"),
        ((-1, 0, 0.0), "line 9: negative level -1"),
        ((2, 0, "abc"), "line 9: non-numeric field"),
        (("x", 0, 0.0), "line 9: non-numeric field"),
        ((2, 0, "inf"), "line 9: non-finite value inf"),
        ((2, 0), "line 9: expected 3 fields, got 2"),
    ],
    ids=["duplicate", "index-too-large", "index-negative", "level-negative", "value-text", "level-text",
         "value-inf", "short-row"],
)
def test_snell_rejects_malformed_payoff_row(tmp_path, capsys, bad_row, message):
    payoff = _write_payoff(tmp_path, PAYOFF_ROWS + [bad_row])
    out = tmp_path / "o"
    assert run(["snell", "--payoff", str(payoff), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: payoff CSV " + message.split(":")[0])
    assert message in err
    assert not (out / "envelope.csv").exists()


@pytest.mark.parametrize("value", ["8.98846567431158e+307", "-1.7976931348623157e+308"])
def test_snell_rejects_a_payoff_beyond_half_the_largest_float(tmp_path, capsys, value):
    # the mean of two such siblings would overflow to inf
    payoff = _write_payoff(tmp_path, [(2, 0, value) if r[:2] == (2, 0) else r for r in PAYOFF_ROWS])
    out = tmp_path / "o"
    assert run(["snell", "--payoff", str(payoff), "--out", str(out)]) == 1
    limit = "8.988465674311579e+307"
    assert capsys.readouterr().err == f"error: payoff CSV line 5: value {value} outside [-{limit}, {limit}]\n"
    assert not (out / "envelope.csv").exists()


def test_snell_accepts_rows_in_any_order(tmp_path):
    payoff = _write_payoff(tmp_path, PAYOFF_ROWS[::-1])
    out = tmp_path / "run"
    assert run(["snell", "--payoff", str(payoff), "--out", str(out)]) == 0
    with (out / "envelope.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["level"], r["index"]) for r in rows] == [(str(k), str(i)) for k in range(3) for i in range(2**k)]
    assert float(rows[0]["envelope"]) == 1.25


def test_snell_names_the_first_missing_node(tmp_path, capsys):
    payoff = _write_payoff(tmp_path, [r for r in PAYOFF_ROWS if r[:2] != (2, 1)] + [(3, 0, 1.0)])
    assert run(["snell", "--payoff", str(payoff), "--out", str(tmp_path / "o")]) == 1
    assert "missing node (level 2, index 1)" in capsys.readouterr().err


@pytest.mark.parametrize("level", [70, 2**62, 2**64], ids=["level-70", "level-2^62", "level-beyond-int64"])
def test_snell_large_level_names_the_first_missing_node(tmp_path, capsys, level):
    # 2^level - 1 + index overflows int64 from level 63 on
    payoff = _write_payoff(tmp_path, PAYOFF_ROWS + [(level, 0, 1.0)])
    assert run(["snell", "--payoff", str(payoff), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: payoff CSV missing node (level 3, index 0)\n"


def test_snell_names_the_first_faulty_line_of_several(tmp_path, capsys):
    faults = [(1, 5, 0.0), (2, 0, "inf"), (-1, 0, 0.0), (2, 0, "abc"), (2, 0), (0, 0, 1.0)]
    payoff = _write_payoff(tmp_path, PAYOFF_ROWS + faults)
    assert run(["snell", "--payoff", str(payoff), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: payoff CSV line 9: index 5 outside [0, 2^1)\n"


def _solved_strategy(tmp_path):
    config = _write_config(tmp_path, PINNED_CONFIG)
    solve_out = tmp_path / "solve"
    assert run(["solve", "--config", str(config), "--out", str(solve_out)]) == 0
    return config, (solve_out / "strategy.csv").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_eval_rejects_a_reward_that_reads_the_control(tmp_path, capsys, mode):
    config = _write_config(tmp_path, random_combined_config(202, depth=3))
    solve_out = tmp_path / "solve"
    assert run(["solve-combined", "--config", str(config), "--out", str(solve_out)]) == 0
    capsys.readouterr()
    mc = ["--mc-samples", "100", "--seed", "1"] if mode == "mc" else []
    out = tmp_path / "o"
    args = ["eval", "--config", str(config), "--strategy", str(solve_out / "strategy.csv"), "--out", str(out)]
    assert run(args + mc) == 1
    assert capsys.readouterr().err == (
        "error: eval evaluates an impulse strategy without controls, but impulse.h reads 'u'\n"
    )
    assert not (out / "policy_value.json").exists()


def test_eval_rejects_strategy_header_mismatch(tmp_path, capsys):
    config, lines = _solved_strategy(tmp_path)
    strategy = tmp_path / "strategy.csv"
    strategy.write_text("\n".join(["level,index,cum,count,action,beta"] + lines[1:]) + "\n", encoding="utf-8")
    assert run(["eval", "--config", str(config), "--strategy", str(strategy), "--out", str(tmp_path / "o")]) == 1
    assert "error: strategy CSV must have columns" in capsys.readouterr().err


def test_eval_rejects_unknown_strategy_action(tmp_path, capsys):
    config, lines = _solved_strategy(tmp_path)
    strategy = tmp_path / "strategy.csv"
    strategy.write_text("\n".join([lines[0], lines[1].replace(",impulse,", ",jump,")] + lines[2:]) + "\n")
    assert run(["eval", "--config", str(config), "--strategy", str(strategy), "--out", str(tmp_path / "o")]) == 1
    assert "error: strategy CSV line 2: unknown action 'jump'" in capsys.readouterr().err


@pytest.mark.parametrize("column", [0, 1, 2, 3, 5])
def test_eval_rejects_non_numeric_strategy_field(tmp_path, capsys, column):
    config, lines = _solved_strategy(tmp_path)
    impulse_line = next(n for n, line in enumerate(lines) if ",impulse," in line)
    fields = lines[impulse_line].split(",")
    fields[column] = "x"
    lines[impulse_line] = ",".join(fields)
    strategy = tmp_path / "strategy.csv"
    strategy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["eval", "--config", str(config), "--strategy", str(strategy), "--out", str(tmp_path / "o")]) == 1
    assert f"error: strategy CSV line {impulse_line + 1}: non-numeric field" in capsys.readouterr().err


# The pinned instance's solved strategy.csv: line 2 is the root's impulse,
# line 3 its continue row, lines 4-5 level 1 and lines 6-9 the horizon.
@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0], "0,0,0.0,0,impulse,0.7"] + lines[2:],
         "line 2: impulse beta 0.7 is not one of the impulses (1.0,)"),
        (lambda lines: lines[:3] + lines[4:], "line 4: expected a row of node (level 1, index 0), got (1, 1)"),
        (lambda lines: lines[:5] + ["2,0,1.0,1,impulse,1.0"] + lines[6:], "line 6: impulse at the horizon (level 2)"),
        (lambda lines: lines + ["1,0,0.0,0,impulse,1.0"], "line 10: expected the row (1, 0, 1.0, 1, 'impulse', 1.0)"),
        (lambda lines: lines[:2] + ["0,0,1.0,1,continue,1.0"] + lines[3:],
         "line 3: expected the row (0, 0, 1.0, 1, 'continue', None)"),
    ],
    ids=["unknown-beta", "missing-node", "impulse-at-horizon", "off-path-row", "continue-with-beta"],
)
def test_eval_rejects_strategy_rows_off_the_lattice(tmp_path, capsys, mode, edit, message):
    config, lines = _solved_strategy(tmp_path)
    strategy = tmp_path / "strategy.csv"
    strategy.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    mc = ["--mc-samples", "100", "--seed", "1"] if mode == "mc" else []
    out = tmp_path / "o"
    assert run(["eval", "--config", str(config), "--strategy", str(strategy), "--out", str(out)] + mc) == 1
    assert capsys.readouterr().err == f"error: strategy CSV {message}\n"
    assert not (out / "policy_value.json").exists()


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_eval_checks_the_strategy_depth_in_both_modes(tmp_path, capsys, mode):
    config, lines = _solved_strategy(tmp_path)
    strategy = tmp_path / "strategy.csv"
    strategy.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")  # levels 0-1 of a depth-2 config
    mc = ["--mc-samples", "100", "--seed", "1"] if mode == "mc" else []
    out = tmp_path / "o"
    assert run(["eval", "--config", str(config), "--strategy", str(strategy), "--out", str(out)] + mc) == 1
    assert "error: strategy depth 1 does not match configured depth 2" in capsys.readouterr().err
    assert not (out / "policy_value.json").exists()


def test_dump_command(tmp_path, capsys):
    config = _write_config(tmp_path, PINNED_CONFIG)
    assert run(["dump", "--config", str(config), "--level", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "level,index,t,L,xmax,xmin,xavg"
    assert len(lines) == 3
    assert lines[1].startswith("1,0,0.5,")


def test_mc_eval_reports_are_byte_identical(tmp_path):
    config = _write_config(tmp_path, random_impulse_config(203, depth=4))
    solve_out = tmp_path / "solve"
    assert run(["solve", "--config", str(config), "--out", str(solve_out)]) == 0
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert run(
            [
                "eval",
                "--config",
                str(config),
                "--strategy",
                str(solve_out / "strategy.csv"),
                "--mc-samples",
                "500",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        ) == 0
        outs.append((out / "policy_value.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, config",
    [("solve", PINNED_CONFIG), ("solve-combined", random_combined_config(212, depth=3))],
    ids=["solve", "solve-combined"],
)
def test_a_solve_does_not_import_numpy_ma(tmp_path, command, config):
    """numpy.ma takes ~15 ms to import, and a bare np.unique loads it; a
    fresh interpreter shows whether any step of a solve does."""
    path = _write_config(tmp_path, config)
    child = "import sys\nfrom impulsetree import cli\nprint(cli.run(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    args = [command, "--config", str(path), "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-c", child, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def test_the_cli_hashes_its_config_without_loading_openssl(tmp_path):
    """hashlib loads OpenSSL (as _hashlib, ~3.6 MB resident) for the one
    sha256 of the config; a fresh interpreter shows whether solve,
    solve-combined, exact eval or snell still does.  Monte Carlo eval is
    exempt: numpy.random's default_rng imports secrets, and so hmac and
    _hashlib."""
    pinned = _write_config(tmp_path, PINNED_CONFIG)
    combined = _write_config(tmp_path, random_combined_config(212, depth=3), "combined.json")
    payoff = tmp_path / "payoff.csv"
    payoff.write_text("level,index,value\n0,0,1.0\n1,0,0.0\n1,1,2.0\n", encoding="utf-8")
    invocations = [
        ["solve", "--config", str(pinned), "--out", str(tmp_path / "solve")],
        ["solve-combined", "--config", str(combined), "--out", str(tmp_path / "combined")],
        ["eval", "--config", str(pinned), "--strategy", str(tmp_path / "solve" / "strategy.csv"),
         "--out", str(tmp_path / "eval")],
        ["snell", "--payoff", str(payoff), "--out", str(tmp_path / "snell")],
    ]
    child = (
        "import json, sys\nfrom impulsetree import cli\n"
        "print([cli.run(a) for a in json.loads(sys.argv[1])], '_hashlib' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(invocations)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False", proc.stderr


@pytest.mark.parametrize(
    "config", [PINNED_CONFIG, random_impulse_config(300), random_combined_config(212, depth=3)],
    ids=["pinned", "impulse-300", "combined-212"],
)
def test_config_hash_is_the_sha256_of_the_canonical_json(config):
    import hashlib  # the reference only: the package hashes without it

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert config_hash(config) == hashlib.sha256(canonical).hexdigest()
