import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from impulsetree import (
    ControlGrid,
    HamiltonianSpec,
    SolverError,
    build_tree,
    combined_value_iteration,
    cond_expect,
    evaluate_pair,
    extract_pair,
    field_terms,
    load_config,
    obstacle,
    parse_expr,
    value_iteration,
    walk_strategy_states,
)
from impulsetree.combined import driver_tables
from impulsetree.impulse import enumerate_states
from impulsetree.tree import _z

from conftest import (
    SIGNED_ZERO_TIES,
    build_problem,
    frozen_control_iteration,
    grid_column,
    hamiltonian,
    hamiltonian_max,
    node_env,
    random_combined_config,
    random_impulse_config,
)

# pinned combined instance: driftless unit volatility, control u in {-1, +1}
# steering via f = u, reward clamp(x, 0, 1), one impulse of +1 costing 0.4
COMBINED_CONFIG = {
    "process": {"x0": 0.0, "T": 1.0, "sigma": "1", "drift": None},
    "impulse": {"U": [1.0], "psi": {"1.0": 0.4}, "c": 0.2, "gamma": 1.0, "h": "clamp(x, 0, 1)"},
    "control": {"V": [-1.0, 1.0], "f": "u"},
    "numerics": {"depth": 3, "tol": 1e-12, "budget": None},
}


def _spec(loaded):
    return HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)


def test_hamiltonian_driftless_reduces_to_reward():
    spec = HamiltonianSpec(
        grid=ControlGrid(controls=(0.5,), controlled_drift=parse_expr("0")),
        sigma=parse_expr("1"),
        reward=parse_expr("clamp(x, 0, 1)"),
    )
    env = {"x": 0.3, "xmax": 0.3, "xmin": 0.0, "xavg": 0.2}
    assert hamiltonian(0.0, env, z=5.0, u=0.5, spec=spec) == pytest.approx(0.3)


def test_hamiltonian_zero_z_reduces_to_reward():
    spec = HamiltonianSpec(
        grid=ControlGrid(controls=(0.5,), controlled_drift=parse_expr("u")),
        sigma=parse_expr("2"),
        reward=parse_expr("0.25 + u"),
    )
    env = {"x": 0.0, "xmax": 0.0, "xmin": 0.0, "xavg": 0.0}
    assert hamiltonian(0.0, env, z=0.0, u=0.5, spec=spec) == pytest.approx(0.75)


def test_hamiltonian_arithmetic():
    spec = HamiltonianSpec(
        grid=ControlGrid(controls=(1.0,), controlled_drift=parse_expr("4")),
        sigma=parse_expr("2"),
        reward=parse_expr("0.5"),
    )
    env = {"x": 0.0, "xmax": 0.0, "xmin": 0.0, "xavg": 0.0}
    assert hamiltonian(0.0, env, z=1.0, u=1.0, spec=spec) == pytest.approx(2.5)


def test_hamiltonian_max_singleton():
    spec = HamiltonianSpec(
        grid=ControlGrid(controls=(0.7,), controlled_drift=parse_expr("u")),
        sigma=parse_expr("1"),
        reward=parse_expr("0.1"),
    )
    env = {"x": 0.0, "xmax": 0.0, "xmin": 0.0, "xavg": 0.0}
    value, best = hamiltonian_max(0.0, env, z=2.0, spec=spec)
    assert best == 0.7
    assert value == pytest.approx(2.0 * 0.7 + 0.1)


def test_hamiltonian_max_linear_grid():
    spec = HamiltonianSpec(
        grid=ControlGrid(controls=(-1.0, 0.0, 1.0), controlled_drift=parse_expr("u")),
        sigma=parse_expr("1"),
        reward=parse_expr("0"),
    )
    env = {"x": 0.0, "xmax": 0.0, "xmin": 0.0, "xavg": 0.0}
    value, best = hamiltonian_max(0.0, env, z=3.0, spec=spec)
    assert (value, best) == (3.0, 1.0)


def test_hamiltonian_max_tie_breaks_to_first_grid_element():
    spec = HamiltonianSpec(
        grid=ControlGrid(controls=(-1.0, 0.0, 1.0), controlled_drift=parse_expr("u")),
        sigma=parse_expr("1"),
        reward=parse_expr("0.5"),
    )
    env = {"x": 0.0, "xmax": 0.0, "xmin": 0.0, "xavg": 0.0}
    value, best = hamiltonian_max(0.0, env, z=0.0, spec=spec)
    assert (value, best) == (0.5, -1.0)


def test_driftless_grid_degenerates_to_impulse_mode():
    config = {
        **COMBINED_CONFIG,
        "control": {"V": [-1.0, 1.0], "f": "0"},
    }
    loaded, tree = build_problem(config)
    spec = _spec(loaded)
    combined = combined_value_iteration(tree, loaded.impulse, spec)
    plain = value_iteration(tree, loaded.impulse)
    assert len(combined.fields) == len(plain.fields)
    for fc, fp in zip(combined.fields, plain.fields):
        for a, b in zip(fc.values, fp.values):
            assert np.max(np.abs(a - b)) <= 1e-12
        for (zc, kc), (zp, kp) in zip(field_terms(combined, fc.n, tree), field_terms(plain, fp.n, tree)):
            assert np.max(np.abs(zc - zp)) <= 1e-12
            assert np.max(np.abs(kc - kp)) <= 1e-12


def test_singleton_grid_equals_fixed_control_recursion():
    config = {**COMBINED_CONFIG, "control": {"V": [0.5], "f": "u"}}
    loaded, tree = build_problem(config)
    spec = _spec(loaded)
    free = combined_value_iteration(tree, loaded.impulse, spec)
    states = enumerate_states(loaded.impulse.impulses, free.budget)
    fixed = [
        np.zeros((tree.level_size(k), len(states)), dtype=np.int64) for k in range(tree.depth)
    ]
    pinned = frozen_control_iteration(tree, loaded.impulse, spec, fixed)
    for fa, fb in zip(free.fields, pinned.fields):
        for a, b in zip(fa.values, fb.values):
            np.testing.assert_array_equal(a, b)


def test_pinned_combined_instance_pair_consistency():
    loaded, tree = build_problem(COMBINED_CONFIG)
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    assert result.stalled
    strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec)
    forward = evaluate_pair(tree, loaded.impulse, spec, strategy, controls)
    assert abs(forward.value - result.y0) <= 1e-10


def test_extract_pair_records_grid_controls():
    loaded, tree = build_problem(COMBINED_CONFIG)
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec)
    # one control per node below the horizon, each from the grid
    assert [u.shape for u in controls] == [(tree.level_size(k),) for k in range(tree.depth)]
    assert set(np.concatenate(controls).tolist()) <= set(loaded.grid.controls)


def test_extract_pair_u_independent_model_takes_first_grid_element():
    config = {
        **COMBINED_CONFIG,
        "control": {"V": [-1.0, 1.0], "f": "0"},
    }
    loaded, tree = build_problem(config)
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    _, controls = extract_pair(result.fields, tree, loaded.impulse, spec)
    assert set(np.concatenate(controls).tolist()) == {-1.0}


def test_no_reward_extracts_empty_strategy_and_argmax_controls():
    config = {**COMBINED_CONFIG, "impulse": {**COMBINED_CONFIG["impulse"], "h": "0"}}
    loaded, tree = build_problem(config)
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec)
    assert strategy.impulse_decision_count == 0
    # recorded controls equal the pointwise driver argmax of z*f/sigma
    top = result.fields[-1]
    zs = [z for z, _ in field_terms(result, top.n, tree)]
    states = walk_strategy_states(loaded.impulse, strategy)
    for level in range(tree.depth):
        for index, u in enumerate(controls[level].tolist()):
            cum = float(states.cum[level][index])
            state_idx = top.states.shifts.tolist().index(cum)
            z = float(zs[level][index, state_idx])
            env = node_env(tree, level, index, cum)
            _, best = hamiltonian_max(float(tree.times[level]), env, z, spec)
            assert u == best


def test_pointwise_driver_dominance():
    loaded, tree = build_problem(random_combined_config(7, depth=4))
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    states = result.states
    rng = np.random.default_rng(0)
    top = result.fields[-1]
    for _ in range(200):
        k = int(rng.integers(0, tree.depth))
        i = int(rng.integers(0, tree.level_size(k)))
        j = int(rng.integers(0, len(states)))
        z = float(rng.normal(scale=2.0))
        env = node_env(tree, k, i, float(states.shifts[j]))
        h_star, _ = hamiltonian_max(float(tree.times[k]), env, z, spec)
        for u in loaded.grid.controls:
            assert h_star >= hamiltonian(float(tree.times[k]), env, z, u, spec) - 1e-12
        # the per-(level, block) driver coefficients agree with the scalar route
        theta, reward = driver_tables(tree, spec, states, k, slice(j, j + 1), grid_column(spec))
        values = np.broadcast_to(z * theta + reward, (len(loaded.grid.controls), tree.level_size(k), 1))[:, i, 0]
        assert float(values.max()) == pytest.approx(h_star, abs=1e-12)


def test_fixed_control_tables_are_dominated():
    loaded, tree = build_problem(random_combined_config(11, depth=4))
    spec = _spec(loaded)
    star = combined_value_iteration(tree, loaded.impulse, spec)
    states = star.states
    rng = np.random.default_rng(5)
    for _ in range(10):
        fixed = [
            rng.integers(0, len(loaded.grid.controls), size=(tree.level_size(k), len(states)))
            for k in range(tree.depth)
        ]
        controlled = frozen_control_iteration(tree, loaded.impulse, spec, fixed)
        for fa, fb in zip(controlled.fields, star.fields):
            for a, b in zip(fa.values, fb.values):
                assert np.all(a <= b + 1e-12)


def test_combined_monotonicity_and_bound():
    loaded, tree = build_problem(random_combined_config(13, depth=4))
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    gamma = loaded.impulse.reward_bound
    for prev, nxt in zip(result.fields, result.fields[1:]):
        # Y^n covers a prefix of Y^{n-1}'s states
        for a, b in zip(prev.values, nxt.values):
            assert np.all(b >= a[:, : b.shape[1]] - 1e-12)
    for field in result.fields:
        for k, arr in enumerate(field.values):
            assert np.all(arr >= -1e-12)
            assert np.all(arr <= gamma * (tree.horizon - tree.times[k]) + 1e-12)


def test_the_solved_result_holds_no_coefficient_array():
    """What the result of a combined value iteration keeps is its fields'
    values and controls: the driver closes over the spec and the tree,
    and no theta or reward table (C times a field) outlives its block."""
    loaded = load_config(random_combined_config(3, depth=10, n_controls=9))
    tree = build_tree(loaded.process, loaded.numerics.depth)
    spec = _spec(loaded)
    gc.collect()
    tracemalloc.start()
    try:
        result = combined_value_iteration(tree, loaded.impulse, spec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for fld in result.fields for a in (*fld.values, *fld.controls))
    assert len(result.states) > 1 and len(result.fields) > 1
    assert own <= held <= 1.1 * own, (held, own)


# The benchmark's combined-wide config: its seed-1 x0, T = 0.9, depth 11 and
# a 9-point control grid.
COMBINED_WIDE = {
    "process": {"x0": -0.041266, "T": 0.9, "sigma": "0.3 + 0.1*abs(xmax - x)", "drift": None},
    "impulse": {
        "U": [0.5, -0.5, 1.0],
        "psi": {"0.5": 0.1, "-0.5": 0.1, "1.0": 0.15},
        "c": 0.1,
        "gamma": 0.5,
        "h": "clamp(0.5 - abs(x - 0.2) + 0.05*u, 0, 0.5)",
    },
    "control": {"V": [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0], "f": "u"},
    "numerics": {"depth": 11, "tol": 1e-12, "budget": None},
}
TRANSIENT_LIMIT_BYTES = 1.5e6


def test_the_sweep_allocates_little_beyond_its_fields():
    """The heap peak of a combined value iteration above the fields it
    returns: each sweep's level obstacle, running-max driver and blocks of
    at most STACK_CELLS (control, node, shift) cells.  Building every
    level's obstacle before a sweep and stacking (C, nodes, block)
    candidates took about 3 MB more here."""
    loaded = load_config(COMBINED_WIDE)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    spec = _spec(loaded)
    gc.collect()
    tracemalloc.start()
    try:
        result = combined_value_iteration(tree, loaded.impulse, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for fld in result.fields for a in (*fld.values, *fld.controls))
    assert len(result.fields) > 1 and len(spec.grid.controls) == 9
    assert peak - own < TRANSIENT_LIMIT_BYTES, (peak, own)


def test_tilt_violation_raises_solver_error():
    config = {
        **COMBINED_CONFIG,
        "process": {**COMBINED_CONFIG["process"], "sigma": "0.1"},
        "control": {"V": [2.0], "f": "u"},
    }
    loaded = load_config(config)
    tree = build_tree(loaded.process, 3)
    spec = _spec(loaded)
    with pytest.raises(SolverError, match="tilt"):
        combined_value_iteration(tree, loaded.impulse, spec)


def test_tilt_zero_over_zero_raises_solver_error_without_a_warning():
    # sigma = f = 0 at the root: theta = 0/0 = nan must fail the tilt
    # bound like any value not below 1, naming the level, with no numpy
    # RuntimeWarning (the audit, skipped here, would reject this sigma)
    config = {
        **COMBINED_CONFIG,
        "process": {**COMBINED_CONFIG["process"], "sigma": "max(x, 0)"},
        "control": {"V": [1.0], "f": "u*max(x, 0)"},
    }
    loaded = load_config(config)
    tree = build_tree(loaded.process, 3)
    states = enumerate_states(loaded.impulse.impulses, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="at level 0"):
            driver_tables(tree, _spec(loaded), states, 0, slice(None), grid_column(_spec(loaded)))
        with pytest.raises(SolverError, match="at level 2"):  # the first level of the sweep whose block fails
            combined_value_iteration(tree, loaded.impulse, _spec(loaded))


def _candidate_sweeps(result, tree, model, spec, pick):
    """Per field: (values, K_inc per level) by the sweep's recursion with the
    driver pick(candidates, k, n_states) over all of driver_tables'
    candidates on the field's states, one block per level, against the
    obstacle of the result's previous field."""
    for fld in result.fields:
        obs = [obstacle(result.fields[fld.n - 1], model, k) for k in range(tree.depth + 1)] if fld.n else None
        values, k_incs = [None] * tree.depth + [np.zeros_like(fld.values[-1])], [None] * tree.depth
        for k in range(tree.depth - 1, -1, -1):
            n_states = values[k + 1].shape[1]
            z = _z(values[k + 1], tree.dt)
            theta, reward = driver_tables(tree, spec, result.states, k, slice(0, n_states), grid_column(spec))
            candidates = np.broadcast_to(z * theta + reward, (len(spec.grid.controls), *z.shape))
            cont = cond_expect(values[k + 1]) + pick(candidates, k, n_states) * tree.dt
            values[k] = cont if obs is None else np.maximum(cont, obs[k])
            k_incs[k] = values[k] - cont
        yield values, k_incs


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_fixed_controls_gather_the_candidates_at_their_indices():
    loaded, tree = build_problem(random_combined_config(17, depth=4))
    spec = _spec(loaded)
    rng = np.random.default_rng(17)
    budget = combined_value_iteration(tree, loaded.impulse, spec).budget
    n_states = len(enumerate_states(loaded.impulse.impulses, budget))
    fixed = [
        rng.integers(0, len(loaded.grid.controls), size=(tree.level_size(k), n_states)) for k in range(tree.depth)
    ]
    result = frozen_control_iteration(tree, loaded.impulse, spec, fixed)

    def at_fixed(candidates, k, n):
        return np.take_along_axis(candidates, fixed[k][None, :, :n], axis=0)[0]

    for fld, (values, _) in zip(result.fields, _candidate_sweeps(result, tree, loaded.impulse, spec, at_fixed)):
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(fld.values, values))
        assert all(np.array_equal(c, f[:, : c.shape[1]]) for c, f in zip(fld.controls, fixed))


@pytest.mark.parametrize("name", list(SIGNED_ZERO_TIES))
def test_signed_zero_ties_never_reach_z_or_k_inc(name):
    """field_terms evaluates the driver at the recorded argmax, the sweep took
    the max: they may differ in the sign of a zero driver, but K_inc keeps
    the bits of the max, and no Y, Z or K_inc is -0.0."""
    loaded, tree = build_problem(SIGNED_ZERO_TIES[name])
    spec = _spec(loaded)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    ties = 0
    sweeps = _candidate_sweeps(result, tree, loaded.impulse, spec, lambda candidates, k, n: candidates.max(axis=0))
    for fld, (values, k_incs) in zip(result.fields, sweeps):
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(fld.values, values))
        for k, (z, k_inc) in enumerate(field_terms(result, fld.n, tree)):
            if k < tree.depth:
                assert np.array_equal(_bits(k_inc), _bits(k_incs[k]))
                drv, _ = result.driver(k, fld.values[k + 1], fld.states, fld.controls[k])
                want, _ = result.driver(k, fld.values[k + 1], fld.states)
                ties += int(np.count_nonzero(_bits(drv) != _bits(want)))
            assert not any(np.signbit(a[a == 0]).any() for a in (fld.values[k], z, k_inc))
    assert (ties > 0) is (name == "clamp-times-u")


@pytest.mark.parametrize(
    "config",
    [random_impulse_config(305), random_combined_config(401), SIGNED_ZERO_TIES["clamp-times-u"]],
    ids=["impulse", "combined", "ties"],
)
def test_each_level_is_the_reflected_step_of_the_runs_driver(config):
    """The driver contract both modes share: level k of field n is
    max(obstacle, E[Y_{k+1}] + drv*dt), bit for bit, with (drv, controls) =
    result.driver(k, Y_{k+1}, fld.states) and the obstacle from field n - 1
    (none for n = 0); the controls are the field's, None in pure impulse
    mode."""
    loaded, tree = build_problem(config)
    tol, budget = loaded.numerics.tol, loaded.numerics.budget
    if loaded.grid is None:
        result = value_iteration(tree, loaded.impulse, tol=tol, budget=budget)
    else:
        result = combined_value_iteration(tree, loaded.impulse, _spec(loaded), tol=tol, budget=budget)
    assert len(result.fields) > 1
    for fld in result.fields:
        for k in range(tree.depth):
            drv, at = result.driver(k, fld.values[k + 1], fld.states)
            cont = cond_expect(fld.values[k + 1])
            cont += drv * tree.dt
            if fld.n:
                cont = np.maximum(obstacle(result.fields[fld.n - 1], loaded.impulse, k), cont)
            assert np.array_equal(_bits(cont), _bits(fld.values[k]))
            if loaded.grid is None:
                assert at is None and fld.controls is None
            else:
                assert np.array_equal(at, fld.controls[k])
