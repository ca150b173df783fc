"""The model audit and the solvers' coefficient evaluation go through one
kernel, ``ScenarioTree.coefficients``: each coefficient is evaluated once
per level over a block of the level's impulse shifts stacked
(``ScenarioTree.env`` with a row of shifts, in blocks of at most
``STACK_CELLS`` cells, counting the controls of a broadcast grid), with
the control grid broadcast as a (C, 1, 1) array or one recorded control
per cell; only the features the expressions read are shifted.  No table
outlives its (level, block): ``reward_tables`` returns one level and
``driver_tables`` one block, and the combined driver takes a running
maximum over the controls of a block.  They are checked here against
copies, kept in this file, of the loops that evaluated one shift and one
scalar control at a time, and against the whole candidate stack's max
and argmax: the same violations in the same order with the same text,
and bit-equal coefficients, drivers and control indices, with one block
per level and with many."""

import numpy as np
import pytest

import impulsetree.tree
from impulsetree import HamiltonianSpec, build_tree, combined_value_iteration, load_config, validate_model, z_repr
from impulsetree.combined import driver_tables
from impulsetree.expr import EvalError, eval_expr, parse_expr
from impulsetree.impulse import enumerate_states, impulse_budget, reward_tables
from impulsetree.model import AuditReport, AuditViolation

from conftest import (
    PINNED_CONFIG,
    SIGNED_ZERO_TIES,
    U_FUNCTIONS,
    random_combined_config,
    random_impulse_config,
    with_u_functions,
)

# -- the one-shift-at-a-time references -----------------------------------


def _reference_scan(violations, rule, key, level, control, values, predicate, describe):
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
                state=key,
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
    for key in zip(states.shifts.tolist(), states.counts.tolist()):
        for level in range(tree.depth + 1):
            env = tree.env(level, shift=key[0])
            try:
                sigma = np.asarray(eval_expr(process.sigma, env))
            except EvalError as exc:
                violations.append(AuditViolation("sigma", f"evaluation failed: {exc}", level, key))
                continue
            _reference_scan(violations, "sigma", key, level, None, sigma, lambda v: v > 0,
                            "sigma not strictly positive")
            for u in controls:
                env_u = env if u is None else {**env, "u": u}
                try:
                    h = np.asarray(eval_expr(impulse.reward, env_u))
                except EvalError as exc:
                    violations.append(AuditViolation("A1", f"reward evaluation failed: {exc}", level, key, u))
                    continue
                _reference_scan(violations, "A1", key, level, u, h, lambda v: (v >= 0) & (v <= gamma),
                                f"reward outside [0, {gamma!r}]")
                if grid is not None and np.all(sigma > 0):
                    try:
                        f_val = np.asarray(eval_expr(grid.controlled_drift, env_u))
                    except EvalError as exc:
                        violations.append(
                            AuditViolation("tilt", f"drift evaluation failed: {exc}", level, key, u)
                        )
                        continue
                    theta = f_val / sigma
                    _reference_scan(violations, "tilt", key, level, u, np.abs(theta) * tree.sqrt_dt,
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
        for j, shift in enumerate(states.shifts.tolist()):
            arr[:, j] = eval_expr(model.reward, tree.env(k, shift=shift))
        tables.append(arr)
    return tables


def reference_driver_tables(tree, spec, states):
    thetas, rewards = [], []
    n_controls = len(spec.grid.controls)
    for k in range(tree.depth):
        theta_k = np.empty((n_controls, tree.level_size(k), len(states)))
        reward_k = np.empty_like(theta_k)
        for j, shift in enumerate(states.shifts.tolist()):
            env = tree.env(k, shift=shift)
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
    # A1 and the tilt fail under both controls: per state, A1 then the tilt at u = -1, then at u = 1
    "reward-and-tilt-per-control": (_config(sigma="1", h="x*u", gamma=2.5, control={"V": [-1.0, 1.0], "f": "u*x"}), False),
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


@pytest.mark.parametrize("controls", [1, 3, 9])
def test_shift_blocks_cover_every_shift_once_within_the_cell_budget(controls):
    tree = build_tree(load_config(BASE).process, 14)
    cells = impulsetree.tree.STACK_CELLS
    for level in range(tree.depth + 1):
        for n_shifts in (1, 7, 16, 100):
            blocks = tree.shift_blocks(level, n_shifts, controls)
            assert [j for b in blocks for j in range(n_shifts)[b]] == list(range(n_shifts))
            width = max(1, cells // (controls * 2**level))
            assert width == 1 or controls * 2**level * width <= cells
            assert all(len(range(n_shifts)[b]) == width for b in blocks[:-1])
            assert len(range(n_shifts)[blocks[-1]]) <= width


def test_shifted_env_columns_are_the_per_shift_envs():
    """A row of shifts, a scalar shift and one shift per node give the same
    bits; a zero shift of either sign keeps x0 = -0.0 at the root."""
    loaded = load_config(_config(x0=-0.0, sigma="0.6*x + 0.5"))
    tree = build_tree(loaded.process, 3)
    shifts = [0.0, 0.25, -1.5, 3.0, -0.0]
    for level in range(tree.depth + 1):
        size = tree.level_size(level)
        stacked = tree.env(level, np.array([shifts]))
        plain = tree.env(level)
        assert stacked["t"] == plain["t"]
        assert plain["x"] is tree.state[level]  # a scalar zero shift copies nothing
        for j, shift in enumerate(shifts):
            single = tree.env(level, shift=shift)
            per_node = tree.env(level, np.full(size, shift))
            for name in ("x", "xmax", "xmin", "xavg"):
                assert stacked[name].shape == (size, len(shifts))
                assert stacked[name][:, j].tobytes() == single[name].tobytes() == per_node[name].tobytes()
                if shift == 0.0:
                    assert single[name].tobytes() == plain[name].tobytes()
    assert str(tree.env(0, np.zeros(1))["x"][0]) == "-0.0"


# -- the per-(level, block) coefficients -------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _states(loaded, tree):
    budget = impulse_budget(loaded.impulse.reward_bound, loaded.impulse.cost_floor, tree.horizon)
    return enumerate_states(loaded.impulse.impulses, budget)


def _level_blocks(tree, states):
    for k in range(tree.depth):
        for cols in tree.shift_blocks(k, len(states)):
            yield k, cols


@pytest.mark.parametrize("seed", range(8))
def test_reward_tables_are_bit_equal_to_the_reference(seed, stack_cells):
    loaded = load_config(random_impulse_config(seed, depth=5))
    tree = build_tree(loaded.process, 5)
    states = _states(loaded, tree)
    want = reference_reward_tables(tree, loaded.impulse, states)
    assert len(states) > 1
    for k in range(tree.depth):
        got = reward_tables(tree, loaded.impulse, states, k)
        assert got.shape == want[k].shape and np.array_equal(_bits(got), _bits(want[k]))


def _check_driver_tables(config):
    """driver_tables over every (level, block), at the broadcast grid and at
    one random control per cell, against the per-shift, per-control
    reference and that reference gathered at the cells' controls."""
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    states = _states(loaded, tree)
    thetas, rewards = reference_driver_tables(tree, spec, states)
    grid = np.array(loaded.grid.controls)
    rng = np.random.default_rng(len(states))
    assert len(states) > 1
    for k, cols in _level_blocks(tree, states):
        want = [table[:, :, cols] for table in (thetas[k], rewards[k])]
        for got, table in zip(driver_tables(tree, spec, states, k, cols), want):
            assert np.array_equal(_bits(np.broadcast_to(got, table.shape)), _bits(table))
        idx = rng.integers(0, grid.size, size=want[0].shape[1:])
        for got, table in zip(driver_tables(tree, spec, states, k, cols, grid[idx]), want):
            gathered = np.take_along_axis(table, idx[None], axis=0)[0]
            assert np.array_equal(_bits(np.broadcast_to(got, gathered.shape)), _bits(gathered))


@pytest.mark.parametrize("seed", range(8))
def test_driver_tables_are_bit_equal_to_the_reference(seed, stack_cells):
    _check_driver_tables(random_combined_config(seed, depth=4))


# Combined configs whose f and h call every DSL function on u, and the
# signed-zero ties: the broadcast grid's bits and the running max's.
U_AND_TIES = pytest.mark.parametrize(
    "config",
    [with_u_functions(random_combined_config(seed, depth=4), name) for name in U_FUNCTIONS for seed in (0, 5)]
    + list(SIGNED_ZERO_TIES.values()),
    ids=[f"{name}-{seed}" for name in U_FUNCTIONS for seed in (0, 5)] + [f"ties-{name}" for name in SIGNED_ZERO_TIES],
)


@U_AND_TIES
def test_the_broadcast_grid_keeps_the_bits_of_every_function_and_signed_zero(config, stack_cells):
    """exp, min, max, abs and clamp of u-dependent arguments, and f = 0*u,
    whose tilt is -0.0 at u = -1 and +0.0 at u = 1."""
    _check_driver_tables(config)


@U_AND_TIES
def test_the_running_max_driver_is_the_max_and_first_argmax_of_the_candidates(config, stack_cells):
    """The sweep's driver, a running maximum over the controls of each
    block, against the whole (C, nodes, states) candidate stack: the bits
    of candidates.max(axis=0) (the signed zero np.maximum keeps on a tie)
    and the indices of argmax(axis=0), the first maximizer."""
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    ties = 0
    for fld in result.fields:
        for k in range(tree.depth):
            y_next = fld.values[k + 1]
            z = z_repr(y_next, tree.dt)
            theta, reward = driver_tables(tree, spec, result.states, k, slice(0, z.shape[1]))
            candidates = np.broadcast_to(z * theta + reward, (len(spec.grid.controls), *z.shape))
            drv, at = result.driver(k, y_next, fld.states)
            assert np.array_equal(_bits(drv), _bits(candidates.max(axis=0)))
            assert np.array_equal(at, candidates.argmax(axis=0))
            assert np.array_equal(at, fld.controls[k])
            top, signs = candidates == candidates.max(axis=0), np.signbit(candidates)  # -0.0 == 0.0
            ties += int(np.count_nonzero((top & signs).any(axis=0) & (top & ~signs).any(axis=0)))
    if config is SIGNED_ZERO_TIES["clamp-times-u"]:
        assert ties > 0  # the -0.0 / +0.0 ties this config exists for do occur


def test_the_kernel_shifts_only_the_features_its_expressions_read():
    """An unread feature is None in the environment; each read feature and
    each coefficient keeps the bits of the whole environment's."""
    loaded = load_config(random_combined_config(2, depth=4))
    tree = build_tree(loaded.process, 4)
    shifts = np.array([[0.0, 0.25, -1.5, -0.0]])
    sigma, drift, reward = (parse_expr(e) for e in ("0.6 + 0.1*abs(xmax)", "0.2*u*xmin", "clamp(xavg + 0.1*u, 0, 1)"))
    u = np.array(loaded.grid.controls)[:, None, None]
    for level in range(tree.depth + 1):
        full = tree.env(level, shifts)
        for read in (frozenset(), frozenset({"x"}), frozenset({"xmax", "xavg"})):
            env = tree.env(level, shifts, read)
            for name in ("x", "xmax", "xmin", "xavg"):
                assert (env[name] is None) is (name not in read)
                if name in read:
                    assert np.array_equal(_bits(env[name]), _bits(full[name]))
        got = tree.coefficients(level, shifts, u, sigma, drift, reward)
        want_sigma = np.asarray(eval_expr(sigma, full))
        bound = {**full, "u": u}
        want = (want_sigma, np.asarray(eval_expr(drift, bound)) / want_sigma, np.asarray(eval_expr(reward, bound)))
        for a, b in zip(got, want):
            assert np.array_equal(_bits(np.broadcast_to(a, b.shape)), _bits(b))
