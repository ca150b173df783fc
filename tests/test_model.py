import json

import pytest

from impulsetree import (
    ConfigError,
    ControlGrid,
    ImpulseModel,
    ProcessModel,
    build_tree,
    config_hash,
    load_config,
    parse_expr,
    validate_model,
)
from impulsetree.impulse import enumerate_states, impulse_budget, reward_tables

from conftest import PINNED_CONFIG, build_problem, random_impulse_config


def test_load_pinned_config():
    loaded = load_config(PINNED_CONFIG)
    assert loaded.process.x0 == 0.0
    assert loaded.process.horizon == 1.0
    assert loaded.impulse.impulses == (1.0,)
    assert loaded.impulse.costs[1.0] == 0.3
    assert loaded.grid is None
    assert loaded.numerics.depth == 2
    assert loaded.numerics.budget is None


def test_load_config_from_json_text_and_file(tmp_path):
    text = json.dumps(PINNED_CONFIG)
    from_text = load_config(text)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    from_file = load_config(path)
    assert from_text.raw == from_file.raw == PINNED_CONFIG


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/does/not/exist.json")


def test_malformed_json():
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_config("{not json")


def test_unknown_keys_rejected():
    bad = {**PINNED_CONFIG, "extra": 1}
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(bad)
    bad = {**PINNED_CONFIG, "process": {**PINNED_CONFIG["process"], "mu": 0}}
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(bad)


def test_psi_keys_must_match_impulses():
    bad = {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "psi": {"2.0": 0.3}}}
    with pytest.raises(ConfigError, match="does not match"):
        load_config(bad)
    bad = {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "psi": {}}}
    with pytest.raises(ConfigError, match="cover exactly"):
        load_config(bad)


def test_drift_forbidden_in_combined_mode():
    bad = {
        **PINNED_CONFIG,
        "process": {**PINNED_CONFIG["process"], "drift": "0.1"},
        "control": {"V": [0.0, 1.0], "f": "u"},
    }
    with pytest.raises(ConfigError, match="drift must be null in combined mode"):
        load_config(bad)


def test_reward_with_u_needs_control_section():
    bad = {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "h": "clamp(x + u, 0, 1)"}}
    with pytest.raises(ConfigError, match="no control section"):
        load_config(bad)


def test_booleans_are_not_numbers():
    bad = {**PINNED_CONFIG, "process": {**PINNED_CONFIG["process"], "x0": True}}
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(bad)


_COMBINED = {**PINNED_CONFIG, "control": {"V": [-1.0, 1.0], "f": "0*u"}}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, edit, key",
    [
        ("process", lambda v: {"x0": v}, "process.x0"),
        ("process", lambda v: {"T": v}, "process.T"),
        ("impulse", lambda v: {"U": [1.0, v], "psi": {"1.0": 0.3}}, "impulse.U entry"),
        ("impulse", lambda v: {"psi": {"1.0": v}}, "impulse.psi['1.0']"),
        ("impulse", lambda v: {"c": v}, "impulse.c"),
        ("impulse", lambda v: {"gamma": v}, "impulse.gamma"),
        ("control", lambda v: {"V": [v]}, "control.V entry"),
        ("numerics", lambda v: {"tol": v}, "numerics.tol"),
    ],
    ids=["x0", "T", "U", "psi", "c", "gamma", "V", "tol"],
)
def test_a_non_finite_number_is_a_config_error_naming_its_key(section, edit, key, value):
    """Python's json parses NaN and Infinity; no numeric key takes them,
    from a file or from a dict."""
    bad = {**_COMBINED, section: {**_COMBINED[section], **edit(value)}}
    message = f"{key} must be a number, got {value!r}"
    for source in (bad, json.dumps(bad)):
        with pytest.raises(ConfigError) as info:
            load_config(source)
        assert str(info.value) == message


def test_process_model_invariants():
    with pytest.raises(ConfigError, match="horizon"):
        ProcessModel(x0=0.0, horizon=0.0, sigma=parse_expr("1"))
    with pytest.raises(ConfigError, match="unsupported variable"):
        ProcessModel(x0=0.0, horizon=1.0, sigma=parse_expr("1 + u"))


def test_impulse_model_invariants():
    h = parse_expr("0.5")
    with pytest.raises(ConfigError, match="non-empty"):
        ImpulseModel(impulses=(), costs={}, cost_floor=0.1, reward_bound=1.0, reward=h)
    with pytest.raises(ConfigError, match="duplicates"):
        ImpulseModel(impulses=(1.0, 1.0), costs={1.0: 0.2}, cost_floor=0.1, reward_bound=1.0, reward=h)
    with pytest.raises(ConfigError, match="cover exactly"):
        ImpulseModel(impulses=(1.0,), costs={2.0: 0.2}, cost_floor=0.1, reward_bound=1.0, reward=h)


def test_control_grid_invariants():
    with pytest.raises(ConfigError, match="non-empty"):
        ControlGrid(controls=(), controlled_drift=parse_expr("u"))
    with pytest.raises(ConfigError, match="duplicates"):
        ControlGrid(controls=(1.0, 1.0), controlled_drift=parse_expr("u"))


def test_audit_passes_constant_reward_within_bound():
    config = {
        **PINNED_CONFIG,
        "impulse": {**PINNED_CONFIG["impulse"], "h": "0.5"},
    }
    loaded = load_config(config)
    tree = build_tree(loaded.process, 2)
    report = validate_model(loaded.process, loaded.impulse, None, tree)
    assert report.passed
    assert report.nodes_checked == 7
    assert report.states_checked > 1


def test_audit_reports_cost_below_floor():
    config = {
        **PINNED_CONFIG,
        "impulse": {**PINNED_CONFIG["impulse"], "psi": {"1.0": 0.0}},
    }
    loaded = load_config(config)
    tree = build_tree(loaded.process, 2)
    report = validate_model(loaded.process, loaded.impulse, None, tree)
    assert not report.passed
    assert any(v.rule == "A2" for v in report.violations)
    assert "A2" in report.summary()


def test_audit_reports_degenerate_volatility():
    config = {**PINNED_CONFIG, "process": {**PINNED_CONFIG["process"], "sigma": "0"}}
    loaded = load_config(config)
    tree = build_tree(loaded.process, 2)
    report = validate_model(loaded.process, loaded.impulse, None, tree)
    assert not report.passed
    assert any(v.rule == "sigma" for v in report.violations)


def test_audit_reports_reward_above_bound():
    config = {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "h": "2", "gamma": 1.0}}
    loaded = load_config(config)
    tree = build_tree(loaded.process, 2)
    report = validate_model(loaded.process, loaded.impulse, None, tree)
    assert not report.passed
    assert any(v.rule == "A1" for v in report.violations)


def test_audit_reports_tilt_violation():
    config = {
        **PINNED_CONFIG,
        "process": {**PINNED_CONFIG["process"], "sigma": "0.1"},
        "impulse": {**PINNED_CONFIG["impulse"]},
        "control": {"V": [2.0], "f": "u"},
        "numerics": {"depth": 2, "tol": 1e-12, "budget": None},
    }
    loaded = load_config(config)
    tree = build_tree(loaded.process, 2)
    # theta = 2 / 0.1 = 20, sqrt(dt) ~ 0.707 -> far above 1
    report = validate_model(loaded.process, loaded.impulse, loaded.grid, tree)
    assert any(v.rule == "tilt" for v in report.violations)


def test_audit_pass_implies_reward_tables_in_bounds():
    for seed in (11, 12, 13):
        loaded, tree = build_problem(random_impulse_config(seed, depth=4))
        budget = impulse_budget(loaded.impulse.reward_bound, loaded.impulse.cost_floor, loaded.process.horizon)
        states = enumerate_states(loaded.impulse.impulses, budget)
        for k in range(tree.depth):
            table = reward_tables(tree, loaded.impulse, states, k)
            assert table.shape == (tree.level_size(k), len(states))
            assert (table >= 0).all()
            assert (table <= loaded.impulse.reward_bound).all()
        assert all(loaded.impulse.costs[b] >= loaded.impulse.cost_floor for b in loaded.impulse.impulses)


def test_config_hash_is_canonical():
    a = {"b": 1, "a": [1, 2]}
    b = {"a": [1, 2], "b": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"a": [1, 2], "b": 2})
