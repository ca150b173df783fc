"""The CLI's outputs from fields that hold only values (and control
indices): values.csv derives Z and K_inc from them after the iteration
(field_terms), and extraction reads nothing else.  Everything here is
checked against the library's own run of the same config."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from impulsetree import (
    HamiltonianSpec,
    ValueField,
    combined_value_iteration,
    extract_pair,
    extract_strategy,
    field_terms,
    value_iteration,
    walk_strategy_states,
)
from impulsetree import cli, csvio

from conftest import PINNED_CONFIG, build_problem, random_combined_config, random_impulse_config, with_impulse_chains


def _zero_impulse_config():
    config = copy.deepcopy(PINNED_CONFIG)
    config["process"]["sigma"] = "0.3"
    config["impulse"].update(U=[0.0], psi={"0.0": 0.3})
    config["numerics"]["depth"] = 3
    return config


CASES = {
    "impulse-911": random_impulse_config(911),
    "impulse-912-chains": with_impulse_chains(random_impulse_config(912, depth=5), 912),
    "impulse-913-budget-1": with_impulse_chains(random_impulse_config(913, depth=4, budget=1), 913),
    "zero-impulse": _zero_impulse_config(),
    "combined-921": random_combined_config(921),
    "combined-922-chains": with_impulse_chains(random_combined_config(922, depth=4), 922),
}


def _library(config):
    """(loaded, tree, spec or None, full-field result) of the config."""
    loaded, tree = build_problem(config)
    tol, budget = loaded.numerics.tol, loaded.numerics.budget
    if loaded.grid is None:
        return loaded, tree, None, value_iteration(tree, loaded.impulse, tol=tol, budget=budget)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    return loaded, tree, spec, combined_value_iteration(tree, loaded.impulse, spec, tol=tol, budget=budget)


def _solve(tmp_path, config, out):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    command = "solve" if config["control"] is None else "solve-combined"
    return cli.run([command, "--config", str(path), "--out", str(out)])


@pytest.mark.parametrize("name", list(CASES))
def test_streamed_outputs_match_the_full_fields(tmp_path, name):
    config = CASES[name]
    loaded, tree, spec, result = _library(config)
    out = tmp_path / "out"
    assert _solve(tmp_path, config, out) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["stalled"] is (name != "impulse-913-budget-1")
    assert report["per_iteration_Y0"] == result.per_iteration_y0

    ref = tmp_path / "ref"
    ref.mkdir()
    csvio.write_values_csv(ref / "values.csv", result, tree)
    tol = loaded.numerics.tol
    if spec is None:
        strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=tol)
    else:
        strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=tol)
        csvio.write_controls_csv(ref / "controls.csv", controls, walk_strategy_states(loaded.impulse, strategy))
    csvio.write_strategy_csv(ref / "strategy.csv", strategy)
    for path in sorted(ref.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert strategy.impulse_decision_count or "chains" not in name


@pytest.mark.parametrize("name", list(CASES))
def test_extraction_from_compacted_fields_matches_the_full_fields(name):
    # fields rebuilt from their values and controls alone
    loaded, tree, spec, result = _library(CASES[name])
    tol = loaded.numerics.tol
    compact = [ValueField(f.n, f.states, f.values, controls=f.controls) for f in result.fields]
    if spec is None:
        got = extract_strategy(compact, tree, loaded.impulse, tol=tol)
        want = extract_strategy(result.fields, tree, loaded.impulse, tol=tol)
    else:
        got, got_controls = extract_pair(compact, tree, loaded.impulse, spec, tol=tol)
        want, want_controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=tol)
        assert all(np.array_equal(a, b) for a, b in zip(got_controls, want_controls))
    assert got.rows() == want.rows()
    assert got.impulse_decision_count or "chains" not in name


def test_the_cli_keeps_only_compacted_fields(tmp_path, monkeypatch):
    kept = []

    def recording(solver):
        def run(*args, **kwargs):
            kept.append(solver(*args, **kwargs))
            return kept[-1]

        return run

    monkeypatch.setattr(cli, "value_iteration", recording(value_iteration))
    monkeypatch.setattr(cli, "combined_value_iteration", recording(combined_value_iteration))
    for name in ("impulse-912-chains", "combined-922-chains"):
        assert _solve(tmp_path, CASES[name], tmp_path / name) == 0
    impulse, combined = (result.fields for result in kept)
    assert len(impulse) > 1 and len(combined) > 1
    assert [f.name for f in dataclasses.fields(ValueField)] == ["n", "states", "values", "controls"]
    assert all(field.values is not None for field in impulse + combined)
    assert all(f.controls is None for f in impulse)
    assert all(c.dtype == np.int8 for f in combined for c in f.controls)


@pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
@pytest.mark.parametrize("name", ["impulse-912-chains", "combined-922-chains"])
def test_a_failure_after_the_first_field_leaves_no_values_csv(tmp_path, capsys, monkeypatch, name, existing):
    written = []

    def failing(result, n, tree):
        if n == 2:  # every row of fields 0 and 1 is written
            raise RuntimeError("injected after field 1")
        written.append(n)
        return field_terms(result, n, tree)

    monkeypatch.setattr(csvio, "field_terms", failing)
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    assert _solve(tmp_path, CASES[name], out) == 1
    assert "RuntimeError: injected after field 1" in capsys.readouterr().err
    assert written == [0, 1]
    assert not (out / "values.csv").exists()
    assert out.exists() is existing
