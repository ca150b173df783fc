import csv
import json

import numpy as np
import pytest

from impulsetree.cli import run

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
