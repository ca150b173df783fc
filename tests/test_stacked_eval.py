"""The model audit, the reward tables and the driver tables evaluate each
coefficient once per level over the level's impulse shifts stacked
(``shifted_env``, in blocks of at most ``STACK_CELLS`` cells).  They are
checked here against copies, kept in this file, of the loops that
evaluated one shift at a time: the same violations in the same order
with the same text, and bit-equal tables, with one block per level and
with many."""

import numpy as np
import pytest

import impulsetree.tree
from impulsetree import HamiltonianSpec, build_tree, load_config, validate_model
from impulsetree.combined import driver_tables
from impulsetree.expr import EvalError, eval_expr
from impulsetree.impulse import enumerate_states, impulse_budget, reward_tables
from impulsetree.model import AuditReport, AuditViolation

from conftest import PINNED_CONFIG, random_combined_config, random_impulse_config

# -- the one-shift-at-a-time references -----------------------------------


def _reference_scan(violations, rule, state, level, control, values, predicate, describe):
    bad = ~predicate(values)
    if np.any(bad):
        count = int(np.count_nonzero(bad))
        first = int(np.argmax(bad))
        sample = float(np.asarray(values).reshape(-1)[first]) if np.ndim(values) else float(values)
        violations.append(
            AuditViolation(
                rule=rule,
                message=f"{describe} at {count} node(s), e.g. value {sample!r}",
                level=level,
                state=state.key if state is not None else None,
                control=control,
            )
        )


def reference_validate_model(process, impulse, grid, tree, budget=None) -> AuditReport:
    violations = []
    if impulse.cost_floor <= 0:
        violations.append(AuditViolation("A2", f"cost floor must be positive, got {impulse.cost_floor!r}"))
    for beta in impulse.impulses:
        if impulse.costs[beta] < impulse.cost_floor:
            violations.append(
                AuditViolation(
                    "A2",
                    f"cost of impulse {beta!r} is {impulse.costs[beta]!r}, below floor {impulse.cost_floor!r}",
                )
            )
    if impulse.reward_bound < 0:
        violations.append(AuditViolation("A1", f"reward bound must be non-negative, got {impulse.reward_bound!r}"))
    if impulse.cost_floor > 0 and impulse.reward_bound >= 0:
        if budget is None:
            budget = impulse_budget(impulse.reward_bound, impulse.cost_floor, tree.horizon)
    else:
        budget = 0
    states = enumerate_states(impulse.impulses, budget)
    controls = grid.controls if grid is not None else (None,)
    gamma = impulse.reward_bound
    for state in states:
        for level in range(tree.depth + 1):
            env = tree.env(level, shift=state.cumulative)
            try:
                sigma = np.asarray(eval_expr(process.sigma, env))
            except EvalError as exc:
                violations.append(AuditViolation("sigma", f"evaluation failed: {exc}", level, state.key))
                continue
            _reference_scan(violations, "sigma", state, level, None, sigma, lambda v: v > 0,
                            "sigma not strictly positive")
            for u in controls:
                env_u = env if u is None else {**env, "u": u}
                try:
                    h = np.asarray(eval_expr(impulse.reward, env_u))
                except EvalError as exc:
                    violations.append(AuditViolation("A1", f"reward evaluation failed: {exc}", level, state.key, u))
                    continue
                _reference_scan(violations, "A1", state, level, u, h, lambda v: (v >= 0) & (v <= gamma),
                                f"reward outside [0, {gamma!r}]")
                if grid is not None and np.all(sigma > 0):
                    try:
                        f_val = np.asarray(eval_expr(grid.controlled_drift, env_u))
                    except EvalError as exc:
                        violations.append(
                            AuditViolation("tilt", f"drift evaluation failed: {exc}", level, state.key, u)
                        )
                        continue
                    theta = f_val / sigma
                    _reference_scan(violations, "tilt", state, level, u, np.abs(theta) * tree.sqrt_dt,
                                    lambda v: v < 1, "measure tilt |f/sigma|*sqrt(dt) not below 1")
    return AuditReport(
        violations=tuple(violations),
        nodes_checked=tree.node_count,
        states_checked=len(states),
        controls_checked=len(grid.controls) if grid is not None else 0,
    )


def reference_reward_tables(tree, model, states):
    tables = []
    for k in range(tree.depth):
        arr = np.empty((tree.level_size(k), len(states)))
        for j, st in enumerate(states):
            arr[:, j] = eval_expr(model.reward, tree.env(k, shift=st.cumulative))
        tables.append(arr)
    return tables


def reference_driver_tables(tree, spec, states):
    thetas, rewards = [], []
    n_controls = len(spec.grid.controls)
    for k in range(tree.depth):
        theta_k = np.empty((n_controls, tree.level_size(k), len(states)))
        reward_k = np.empty_like(theta_k)
        for j, st in enumerate(states):
            env = tree.env(k, shift=st.cumulative)
            sigma = np.asarray(eval_expr(spec.sigma, env))
            for c, u in enumerate(spec.grid.controls):
                env_u = {**env, "u": u}
                theta_k[c, :, j] = np.asarray(eval_expr(spec.grid.controlled_drift, env_u)) / sigma
                reward_k[c, :, j] = eval_expr(spec.reward, env_u)
        thetas.append(theta_k)
        rewards.append(reward_k)
    return thetas, rewards


# -- audit configs ---------------------------------------------------------

# Shifts 0, 1, ..., 10 (impulse +1, budget ceil(1*1/0.1)); depth 3 puts x
# in [-1.8, 1.8] on the unshifted tree.
BASE = {**PINNED_CONFIG, "process": {**PINNED_CONFIG["process"], "sigma": "0.6"},
        "numerics": {"depth": 3, "tol": 1e-12, "budget": None}}
GRID = {"V": [-1.0, 0.5, 2.0], "f": "0.1*u"}
# exp(800*(x - 3)) overflows for x above ~3.9: only under the larger shifts
BLOWUP = "0*exp(800*(x - 3))"


def _config(control=None, **changes):
    """BASE with the given process (sigma, x0) and impulse (h, gamma) entries."""
    process = {**BASE["process"], **{k: v for k, v in changes.items() if k in ("sigma", "x0")}}
    impulse = {**BASE["impulse"], **{k: v for k, v in changes.items() if k in ("h", "gamma")}}
    return {**BASE, "process": process, "impulse": impulse, "control": control}


AUDIT_CASES = {
    "pass": (PINNED_CONFIG, True),
    "pass-combined": (_config(control=GRID), True),
    "sigma-zero": (_config(sigma="0"), False),
    "sigma-x": (_config(sigma="x", x0=-1.3), False),
    "sigma-x-grid": (_config(sigma="x", x0=-1.3, control=GRID), False),
    "h-two": (_config(h="2"), False),
    "h-u-grid": (_config(h="u", control=GRID), False),
    "reward-some-shifts": (_config(h="x", gamma=2.5), False),
    "tilt-some-columns": (_config(sigma="1", control={"V": [-1.0, 1.0], "f": "u*x"}), False),
    # sigma positive at every node under shifts 0-1, at some under 2-4, at none above
    "sigma-zero-some-nodes-grid": (
        _config(sigma="clamp(3 - abs(x), 0, 1)", control={"V": [-1.0, 1.0], "f": "0.3*u*x"}), False
    ),
    "sigma-evalerror-some-columns": (_config(sigma=f"0.6 + {BLOWUP}"), False),
    "h-evalerror-some-columns": (_config(h=f"clamp(x, 0, 1) + {BLOWUP}"), False),
    "h-evalerror-and-bounds": (_config(h=f"x + {BLOWUP}", gamma=2.5, control=GRID), False),
    "f-evalerror-some-columns": (_config(control={"V": [-1.0, 2.0], "f": f"0.1*u + {BLOWUP}"}), False),
    "f-evalerror-and-tilt": (_config(sigma="1", control={"V": [-1.0, 1.0], "f": f"u*x + {BLOWUP}"}), False),
}


@pytest.fixture(params=[None, 8], ids=["one-block-per-level", "blocks-of-8-cells"])
def stack_cells(request, monkeypatch):
    """The default block size (one block per level at these sizes), or
    blocks of 8 cells: 8 shifts at level 0, one shift from level 3 on."""
    if request.param is not None:
        monkeypatch.setattr(impulsetree.tree, "STACK_CELLS", request.param)


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_audit_matches_the_one_shift_reference(case, stack_cells):
    config, passes = AUDIT_CASES[case]
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    report = validate_model(loaded.process, loaded.impulse, loaded.grid, tree)
    reference = reference_validate_model(loaded.process, loaded.impulse, loaded.grid, tree)
    assert report.passed is passes
    assert report.violations == reference.violations
    assert report.summary() == reference.summary()
    assert report.states_checked == reference.states_checked > 1


def test_shift_blocks_cover_every_shift_once_within_the_cell_budget():
    tree = build_tree(load_config(BASE).process, 14)
    for level in range(tree.depth + 1):
        for n_shifts in (1, 7, 16, 100):
            blocks = tree.shift_blocks(level, n_shifts)
            assert [j for b in blocks for j in range(n_shifts)[b]] == list(range(n_shifts))
            width = max(1, impulsetree.tree.STACK_CELLS >> level)
            assert all(len(range(n_shifts)[b]) == width for b in blocks[:-1])
            assert len(range(n_shifts)[blocks[-1]]) <= width


def test_shifted_env_columns_are_the_per_shift_envs():
    loaded = load_config(_config(x0=-0.0, sigma="0.6*x + 0.5"))
    tree = build_tree(loaded.process, 3)
    shifts = [0.0, 0.25, -1.5, 3.0]
    for level in range(tree.depth + 1):
        stacked = tree.shifted_env(level, shifts)
        assert stacked["t"] == tree.env(level)["t"]
        for j, shift in enumerate(shifts):
            single = tree.env(level, shift=shift)
            for name in ("x", "xmax", "xmin", "xavg"):
                assert stacked[name].shape == (tree.level_size(level), len(shifts))
                assert stacked[name][:, j].tobytes() == single[name].tobytes()


# -- tables ----------------------------------------------------------------


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.int64) for a in arrays]


def _states(loaded, tree):
    budget = impulse_budget(loaded.impulse.reward_bound, loaded.impulse.cost_floor, tree.horizon)
    return enumerate_states(loaded.impulse.impulses, budget)


@pytest.mark.parametrize("seed", range(8))
def test_reward_tables_are_bit_equal_to_the_reference(seed, stack_cells):
    loaded = load_config(random_impulse_config(seed, depth=5))
    tree = build_tree(loaded.process, 5)
    states = _states(loaded, tree)
    got = _bits(reward_tables(tree, loaded.impulse, states))
    want = _bits(reference_reward_tables(tree, loaded.impulse, states))
    assert len(states) > 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == len(want) == tree.depth


@pytest.mark.parametrize("seed", range(8))
def test_driver_tables_are_bit_equal_to_the_reference(seed, stack_cells):
    loaded = load_config(random_combined_config(seed, depth=4))
    tree = build_tree(loaded.process, 4)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    states = _states(loaded, tree)
    got, want = driver_tables(tree, spec, states), reference_driver_tables(tree, spec, states)
    assert len(states) > 1
    for new, old in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(_bits(new), _bits(old))) and len(new) == tree.depth
