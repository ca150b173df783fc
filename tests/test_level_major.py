"""The level-major engine against a field-major reference.

The value iteration runs every field of a window level by level: the
coefficients of a (level, block of shifts) are evaluated once on the
window's first field's states, and each field reads its prefix of their
columns; a field whose levels repeat the bits of the field before it is
a view of that field there.  It is checked here against a copy, kept in
this file, of the engine it replaced, which swept one whole field after
another and evaluated each field's coefficients on its own states: the
same values and controls bit for bit, the same stall index, sup
increments and field count, and the same errors, with one shift per
block, 7 cells per block and the default block size."""

import math
import warnings

import numpy as np
import pytest

import impulsetree.impulse as impulse
import impulsetree.tree
from impulsetree import HamiltonianSpec, SolverError, build_tree, combined_value_iteration, load_config
from impulsetree import value_iteration
from impulsetree.combined import driver_tables
from impulsetree.impulse import ValueField, enumerate_states, impulse_budget

from conftest import (
    PINNED_CONFIG,
    SIGNED_ZERO_TIES,
    frozen_control_iteration,
    random_combined_config,
    random_impulse_config,
    with_impulse_chains,
)
from memory_deep import BASELINE

# -- the field-major reference ---------------------------------------------


def _expect(children):
    out = children[0::2] + children[1::2]
    out *= 0.5
    return out


def _z(children, dt):
    return (children[0::2] - children[1::2]) / (2.0 * math.sqrt(dt))


def reference_reflect(terminal, depth, obstacle=None, step=None):
    values = [None] * (depth + 1)
    values[depth] = terminal
    for k in range(depth - 1, -1, -1):
        cont = _expect(values[k + 1])
        if step is not None:
            cont += step(k, values[k + 1])
        values[k] = cont if obstacle is None else np.maximum(obstacle(k), cont, out=cont)
    return values


def reference_sweep(tree, model, driver, states, prev=None):
    controls = [None] * tree.depth

    def step(k, y_next):
        drv, controls[k] = driver(k, y_next, states)
        return drv * tree.dt

    terminal = np.zeros((tree.level_size(tree.depth), len(states)), order="F")
    obs = None if prev is None else (lambda k: impulse.obstacle(prev, model, k))
    return ValueField(
        n=0 if prev is None else prev.n + 1,
        states=states,
        values=tuple(reference_reflect(terminal, tree.depth, obs, step)),
        controls=None if controls[0] is None else tuple(controls),
    )


def reference_iteration(tree, model, tol, budget, driver):
    """(fields, stall index, sup increments) of the field-major iteration."""
    if budget is None:
        budget = impulse_budget(model.reward_bound, model.cost_floor, tree.horizon)
    states = enumerate_states(model.impulses, budget)
    fields = [reference_sweep(tree, model, driver, states)]
    if not np.isfinite(fields[0].values[0]).all():
        raise SolverError("non-finite values in field 0")
    stall_index = 0 if states.budget == 0 else None
    sups = []
    for n in range(1, states.budget + 1):
        nxt = reference_sweep(tree, model, driver, fields[-1].next_states, fields[-1])
        sup = max(float(np.abs(b - a[:, : b.shape[1]]).max()) for a, b in zip(fields[-1].values, nxt.values))
        if not math.isfinite(sup):
            raise SolverError(f"non-finite values in field {n}")
        fields.append(nxt)
        sups.append(sup)
        if sup <= tol:
            stall_index = n
            break
    return fields, stall_index, sups


def reference_reward_driver(tree, model):
    return lambda k, y_next, states, u_idx=None: (impulse.reward_tables(tree, model, states, k), None)


def reference_combined_driver(tree, spec, fixed_controls=None):
    grid = np.asarray(spec.grid.controls, dtype=float)
    dtype = np.min_scalar_type(-grid.size)

    def driver(k, y_next, states, u_idx=None):
        z = _z(y_next, tree.dt)
        if fixed_controls is not None:
            u_idx = fixed_controls[k][:, : z.shape[1]]
            at = np.asarray(u_idx).astype(dtype, order="F")
            drv = np.empty_like(z)
            for cols in tree.shift_blocks(k, z.shape[1]):
                theta, reward = driver_tables(tree, spec, states, k, cols, grid[at[:, cols]])
                drv[:, cols] = z[:, cols] * theta + reward
            return drv, at
        theta, reward = driver_tables(tree, spec, states, k, slice(0, z.shape[1]), grid[:, None, None])
        candidates = np.broadcast_to(z * theta + reward, (grid.size, *z.shape))
        return candidates.max(axis=0), candidates.argmax(axis=0).astype(dtype)

    return driver


# -- the comparison ----------------------------------------------------------


@pytest.fixture(params=[1, 7, None], ids=["one-shift-blocks", "blocks-of-7-cells", "default-blocks"])
def stack_cells(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(impulsetree.tree, "STACK_CELLS", request.param)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _library(loaded, tree, tol, budget, fixed_controls=None):
    if loaded.grid is None:
        return value_iteration(tree, loaded.impulse, tol=tol, budget=budget)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    if fixed_controls is None:
        return combined_value_iteration(tree, loaded.impulse, spec, tol, budget)
    return frozen_control_iteration(tree, loaded.impulse, spec, fixed_controls, tol, budget)


def _reference(loaded, tree, tol, budget, fixed_controls=None):
    """The reference's (fields, stall index, sup increments)."""
    if loaded.grid is None:
        driver = reference_reward_driver(tree, loaded.impulse)
    else:
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        driver = reference_combined_driver(tree, spec, fixed_controls)
    with np.errstate(all="ignore"):  # the reference may warn on a non-finite field before it raises
        return reference_iteration(tree, loaded.impulse, tol, budget, driver)


def _solve(loaded, tree, tol, budget, fixed_controls=None):
    """The library's result and the reference's."""
    return _library(loaded, tree, tol, budget, fixed_controls), _reference(loaded, tree, tol, budget, fixed_controls)


def _assert_same(result, reference):
    fields, stall_index, sups = reference
    assert len(result.fields) == len(fields)
    assert result.stall_index == stall_index
    assert result.sup_increments == sups
    for got, want in zip(result.fields, fields):
        assert got.n == want.n and len(got.states) == len(want.states)
        assert len(got.values) == len(want.values)
        for a, b in zip(got.values, want.values):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))
        assert (got.controls is None) is (want.controls is None)
        for a, b in zip(got.controls or (), want.controls or ()):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _baseline(depth, **impulse_changes):
    """tests/memory_deep.py's Baseline config at ``depth``."""
    return {
        **BASELINE,
        "impulse": {**BASELINE["impulse"], **impulse_changes},
        "numerics": {**BASELINE["numerics"], "depth": depth},
    }


CONFIGS = {
    **{f"impulse-{s}": random_impulse_config(s, depth=3 + s % 4) for s in (300, 304, 309, 311, 313)},
    # stalls at 1 with budget 7: every field of the first window past Y^1 repeats it
    "impulse-316": random_impulse_config(316),
    **{f"impulse-chains-{s}": with_impulse_chains(random_impulse_config(s, depth=4), s) for s in (300, 301)},
    **{f"combined-{s}": random_combined_config(s, depth=4) for s in (400, 401, 404)},
    "combined-chains-302": with_impulse_chains(random_combined_config(302, depth=4), 302),
    "pinned": PINNED_CONFIG,
    "signed-zero-clamp-times-u": SIGNED_ZERO_TIES["clamp-times-u"],
    "baseline-d5": _baseline(5),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_engine_matches_the_field_major_reference(name, stack_cells):
    loaded = load_config(CONFIGS[name])
    tree = build_tree(loaded.process, loaded.numerics.depth)
    result, reference = _solve(loaded, tree, loaded.numerics.tol, loaded.numerics.budget)
    assert len(result.fields) > 1
    _assert_same(result, reference)


@pytest.mark.parametrize("name", ["impulse-300", "combined-400", "pinned"])
@pytest.mark.parametrize("budget", [0, 1, 2])
def test_small_budgets_match_the_reference(name, budget, stack_cells):
    """Budget 0 is Y^0 alone, stalled at 0; budgets 1 and 2, which never
    stall at tol -1, fit in one window."""
    loaded = load_config(CONFIGS[name])
    tree = build_tree(loaded.process, loaded.numerics.depth)
    result, reference = _solve(loaded, tree, -1.0, budget)
    _assert_same(result, reference)
    assert len(result.fields) == budget + 1
    assert result.stall_index == (0 if budget == 0 else None)


@pytest.mark.parametrize("seed", [401, 404])
def test_fixed_controls_match_the_reference(seed, stack_cells):
    loaded = load_config(random_combined_config(seed, depth=4))
    tree = build_tree(loaded.process, loaded.numerics.depth)
    budget = impulse_budget(loaded.impulse.reward_bound, loaded.impulse.cost_floor, tree.horizon)
    n_states = len(enumerate_states(loaded.impulse.impulses, budget))
    rng = np.random.default_rng(seed)
    fixed = [rng.integers(0, len(loaded.grid.controls), size=(tree.level_size(k), n_states)) for k in range(tree.depth)]
    result, reference = _solve(loaded, tree, loaded.numerics.tol, None, fixed)
    _assert_same(result, reference)


def _built_columns(monkeypatch):
    """The state columns of every field the engine builds, as they add up."""
    columns = []
    engine = impulse._fields

    def counted(*args, **kwargs):
        fields = engine(*args, **kwargs)
        columns.extend(len(f.states) for f in fields)
        return fields

    monkeypatch.setattr(impulse, "_fields", counted)
    return columns


@pytest.mark.parametrize("cost", [0.02, 0.05])
def test_a_late_stall_costs_at_most_twice_the_reference_columns(cost, monkeypatch):
    """The Baseline with cheap impulses: budget 25 with 76 states at c =
    0.02, budget 10 at c = 0.05, and a stall at 4 past the first window.
    The fields are taken in windows, so the engine builds at most twice the
    columns of the fields up to the stall."""
    loaded = load_config(_baseline(5, c=cost))
    tree = build_tree(loaded.process, 5)
    columns = _built_columns(monkeypatch)
    result, reference = _solve(loaded, tree, loaded.numerics.tol, None)
    _assert_same(result, reference)
    kept = sum(len(f.states) for f in reference[0])
    assert result.stall_index == 4 and result.budget > 2 * result.stall_index
    assert kept < sum(columns) <= 2 * kept


def _inf_in_obstacle(monkeypatch, field):
    """Make the root level of ``field``'s obstacle +inf at its first state;
    the list returned records each time it is (a field is built at the
    root if it is built at all)."""
    done = []
    original = impulse.obstacle

    def obstacle_with_inf(prev, model, k):
        out = original(prev, model, k)
        if prev.n == field - 1 and k == 0:
            out[0, 0] = np.inf
            done.append(field)
        return out

    monkeypatch.setattr(impulse, "obstacle", obstacle_with_inf)
    return done


# Configs whose stall is not exact: at the tol given, the field past the
# stall does not repeat the stall field, so the engine builds it.  The
# Baseline at depth 6 has sup increments 0.158, 0.0651, 0.0341, 0, 0 and
# stalls at 2 at tol 0.07; combined chains seed 301 at depth 5 has 0.0522,
# 0.0522, 0.0462, 0.0431, 0.00774, 0.00774, 0 and stalls at 5 at tol 0.01.
NON_EXACT_STALLS = {
    "impulse": (_baseline(6), 0.07, 2),
    "combined": (with_impulse_chains(random_combined_config(301, depth=5), 301), 0.01, 5),
}


@pytest.mark.parametrize("mode", sorted(NON_EXACT_STALLS))
def test_an_inf_past_the_stall_changes_nothing(mode, monkeypatch):
    config, tol, stall = NON_EXACT_STALLS[mode]
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    want = _reference(loaded, tree, tol, None)
    assert want[1] == stall
    done = _inf_in_obstacle(monkeypatch, stall + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _library(loaded, tree, tol, None)
    assert done == [stall + 1]  # the engine did build the field past the stall
    _assert_same(result, want)


@pytest.mark.parametrize("before", [True, False], ids=["first-field", "stall-field"])
@pytest.mark.parametrize("mode", sorted(NON_EXACT_STALLS))
def test_an_inf_at_or_before_the_stall_raises_the_references_error(mode, before, monkeypatch):
    config, tol, stall = NON_EXACT_STALLS[mode]
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    field = 1 if before else stall
    _inf_in_obstacle(monkeypatch, field)
    with pytest.raises(SolverError) as want:
        _reference(loaded, tree, tol, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as got:
            _library(loaded, tree, tol, None)
    assert str(got.value) == str(want.value) == f"non-finite values in field {field}"
