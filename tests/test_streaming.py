"""The streamed value iteration: the CLI writes each iterate's values.csv
rows as the iterate finishes and keeps only its compacted field, and
extraction reads compacted decisions.  Everything here is checked against
the full fields that value_iteration and combined_value_iteration return
by default."""

import copy
import json

import numpy as np
import pytest

from impulsetree import (
    HamiltonianSpec,
    combined_value_iteration,
    compact_field,
    extract_pair,
    extract_strategy,
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
    csvio.write_values_csv(ref / "values.csv", result.fields)
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
    loaded, tree, spec, result = _library(CASES[name])
    tol = loaded.numerics.tol
    compact = [compact_field(f, tol) for f in result.fields]
    if spec is None:
        got = extract_strategy(compact, tree, loaded.impulse, tol=tol)
        want = extract_strategy(result.fields, tree, loaded.impulse, tol=tol)
    else:
        got, got_controls = extract_pair(compact, tree, loaded.impulse, spec, tol=tol)
        want, want_controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=tol)
        assert all(np.array_equal(a, b) for a, b in zip(got_controls.levels, want_controls.levels))
    assert got.rows() == want.rows()


@pytest.mark.parametrize("name", ["impulse-912-chains", "combined-922-chains"])
def test_a_compacted_field_keeps_values_and_int8_decisions(name):
    loaded, _, spec, result = _library(CASES[name])
    tol = loaded.numerics.tol
    binding = 0
    for field in result.fields:
        compact = compact_field(field, tol)
        assert compact.z is compact.k_inc is compact.obstacle is compact.obstacle_argmax is None
        assert compact.values is field.values and compact.controls is field.controls
        if spec is not None:
            assert all(c.dtype == np.int8 for c in compact.controls)
        if field.n == 0:
            assert compact.decisions is None
            continue
        for y, obs, arg, dec in zip(field.values, field.obstacle, field.obstacle_argmax, compact.decisions):
            binds = np.abs(y - obs) <= tol
            assert dec.dtype == np.int8 and dec.shape == y.shape
            assert np.array_equal(dec[binds], arg[binds]) and (dec[~binds] == -1).all()
            binding += int(binds.sum())
        again = compact_field(compact, tol)
        assert again.decisions is compact.decisions and again.values is compact.values
    assert binding


def test_the_cli_keeps_only_compacted_fields(tmp_path, monkeypatch):
    kept = []

    def recording(*args, **kwargs):
        kept.append(value_iteration(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(cli, "value_iteration", recording)
    assert _solve(tmp_path, CASES["impulse-912-chains"], tmp_path / "out") == 0
    fields = kept[0].fields
    assert len(fields) > 1
    assert all(f.z is f.k_inc is f.obstacle is f.obstacle_argmax is None for f in fields)
    assert all(f.decisions is not None for f in fields[1:])


@pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
@pytest.mark.parametrize("name", ["impulse-912-chains", "combined-922-chains"])
def test_a_failure_after_the_first_field_leaves_no_values_csv(tmp_path, capsys, monkeypatch, name, existing):
    written = []

    def failing(fh, field):
        csvio.write_value_rows(fh, field)
        written.append(field.n)
        if field.n == 1:
            fh.flush()
            raise RuntimeError("injected after field 1")

    monkeypatch.setattr(cli, "write_value_rows", failing)
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    assert _solve(tmp_path, CASES[name], out) == 1
    assert "RuntimeError: injected after field 1" in capsys.readouterr().err
    assert written == [0, 1]
    assert not (out / "values.csv").exists()
    assert out.exists() is existing
