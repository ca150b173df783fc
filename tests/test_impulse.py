import dataclasses
import itertools

import numpy as np
import pytest

import impulsetree.impulse as impulse
from impulsetree import (
    HamiltonianSpec,
    ImpulseModel,
    LimitError,
    SolverError,
    Strategy,
    combined_value_iteration,
    enumerate_optimal,
    enumerate_states,
    evaluate_strategy_exact,
    extract_pair,
    extract_strategy,
    field_terms,
    impulse_budget,
    iterate_value,
    obstacle,
    parse_expr,
    solve_y0,
    state_key,
    strategy_from_rule,
    value_iteration,
)
from impulsetree.impulse import StateSpace, ValueField

from conftest import (
    PINNED_CONFIG,
    build_problem,
    random_combined_config,
    random_comparison_pair,
    random_impulse_config,
    with_impulse_chains,
)


def test_impulse_budget_examples():
    assert impulse_budget(1.0, 0.25, 1.0) == 4
    assert impulse_budget(0.0, 0.25, 1.0) == 0
    assert impulse_budget(1.0, 0.3, 1.0) == 4  # ceil(3.33)
    assert impulse_budget(2.0, 0.5, 1.5) == 6  # exact integer ratio stays put
    with pytest.raises(ValueError):
        impulse_budget(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        impulse_budget(-1.0, 0.1, 1.0)


def test_an_impulse_budget_that_overflows_is_a_limit_error():
    """Finite inputs whose ratio gamma*T/c overflows to inf."""
    with pytest.raises(LimitError, match=r"impulse budget gamma\*T/c = 1e\+300\*1.0/1e-300 is not finite"):
        impulse_budget(1e300, 1e-300, 1.0)


def _brute_force_states(impulses, budget):
    """Test-local oracle: every rounded sum over every tuple of impulses up
    to the budget, with the shortest tuple length that reaches it."""
    found = {}
    for count in range(budget + 1):
        for combo in itertools.product(impulses, repeat=count):
            cum, _ = state_key(sum(combo), count)
            found.setdefault(cum, count)
    return {(cum, count) for cum, count in found.items()}


def _pairs(states):
    """(shift, count) of each state, in order."""
    return list(zip(states.shifts.tolist(), states.counts.tolist()))


def test_enumerate_states_single_impulse():
    states = enumerate_states((1.0,), 2)
    assert _pairs(states) == [(0.0, 0), (1.0, 1), (2.0, 2)]
    assert states.budget == 2 and len(states) == 3


def test_enumerate_states_symmetric_pair_order():
    states = enumerate_states((1.0, -1.0), 2)
    # the shift 0.0 is reached again by two impulses; it keeps count 0
    assert _pairs(states) == [
        (0.0, 0),
        (1.0, 1),
        (-1.0, 1),
        (2.0, 2),
        (-2.0, 2),
    ]


def test_enumerate_states_count_against_brute_force():
    impulses = (0.5, 1.0)
    states = enumerate_states(impulses, 3)
    assert _pairs(states) == [
        (0.0, 0), (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2), (2.5, 3), (3.0, 3)
    ]
    assert set(_pairs(states)) == _brute_force_states(impulses, 3)
    # order is deterministic
    again = enumerate_states(impulses, 3)
    assert _pairs(states) == _pairs(again)
    assert np.array_equal(states.succ, again.succ)


def test_enumerate_states_limit(monkeypatch):
    monkeypatch.setattr(impulse, "DEFAULT_MAX_STATES", 12)
    with pytest.raises(LimitError, match="impulse state count exceeds the limit of 12"):
        enumerate_states((0.1, 0.231), 10)


def test_successor_table():
    impulses = (1.0, -1.0)
    states = enumerate_states(impulses, 2)  # shifts 0, 1, -1, 2, -2
    # 2 + 1 and -2 - 1 need more impulses than the budget: -1
    assert states.succ.tolist() == [[1, 2], [3, 0], [0, 4], [-1, 1], [2, -1]]
    # a prefix keeps the rows and the indices of the full space
    short = states.prefix(1)
    assert _pairs(short) == _pairs(states)[:3] and short.budget == 1
    assert short.succ.tolist() == [[1, 2], [3, 0], [0, 4]]
    assert len(states.prefix(-1)) == 0
    # independent check: each successor is the rounded shift sum
    for s, (cum, _) in enumerate(_pairs(states)):
        for b, beta in enumerate(impulses):
            j = int(states.succ[s, b])
            target = state_key(cum + beta, 0)[0]
            assert (j == -1 and target not in states.shifts.tolist()) or states.shifts[j] == target
    # the obstacle rejects a successor outside the previous field (here a
    # hand-made field that claims one impulse more than was enumerated)
    model = _model("1", impulses=impulses)
    tree = build_problem(PINNED_CONFIG)[1]
    y0 = solve_y0(tree, model, states)
    lying = ValueField(**{**vars(y0), "states": StateSpace(states.shifts, states.counts, states.succ, 3)})
    with pytest.raises(SolverError, match="missing successor state 3.0"):
        obstacle(lying, model, 0)


def _model(h, impulses=(1.0,), psi=None, c=0.1, gamma=1.0):
    psi = psi if psi is not None else {b: 0.3 for b in impulses}
    return ImpulseModel(
        impulses=tuple(impulses),
        costs=psi,
        cost_floor=c,
        reward_bound=gamma,
        reward=parse_expr(h),
    )


def test_solve_y0_constant_reward_telescopes(pinned_problem):
    _, tree = pinned_problem
    model = _model("1")
    states = enumerate_states(model.impulses, 2)
    field = solve_y0(tree, model, states)
    result = value_iteration(tree, model, budget=2)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(field.values, result.fields[0].values))
    for k, (_, k_inc) in enumerate(field_terms(result, 0, tree)):
        expected = 1.0 * (tree.horizon - tree.times[k])
        np.testing.assert_allclose(field.values[k], expected, rtol=0, atol=1e-15)
        assert (k_inc == 0).all()


def test_solve_y0_zero_reward(pinned_problem):
    _, tree = pinned_problem
    model = _model("0")
    field = solve_y0(tree, model, enumerate_states(model.impulses, 2))
    for arr in field.values:
        assert (arr == 0).all()


def test_solve_y0_shifted_state_unlocks_reward(pinned_problem):
    # deterministic L ~ 0 with h = clamp(x, 0, 1): under the +1 shift the
    # reward is 1 at both grid points, so Y0(., shift 1) = 1 at the root
    loaded, tree = pinned_problem
    states = enumerate_states(loaded.impulse.impulses, 2)
    field = solve_y0(tree, loaded.impulse, states)
    shifted = _pairs(states).index(state_key(1.0, 1))
    assert field.values[0][0, shifted] == pytest.approx(1.0, abs=1e-8)
    assert field.values[0][0, 0] == pytest.approx(0.0, abs=1e-8)


def test_obstacle_never_binds_when_costs_exceed_total_reward(pinned_problem):
    _, tree = pinned_problem
    model = _model("1", psi={1.0: 1.5})  # psi >= gamma*T = 1
    states = enumerate_states(model.impulses, 2)
    y0 = solve_y0(tree, model, states)
    obs = [obstacle(y0, model, k) for k in range(tree.depth + 1)]
    for k in range(tree.depth + 1):
        assert np.all(np.isfinite(obs[k]))
        assert np.all(obs[k] <= model.reward_bound * (tree.horizon - tree.times[k]) - 1.5 + 1e-12)
        assert np.all(obs[k] <= y0.values[k][:, : obs[k].shape[1]] + 1e-12)


def test_field_states_shrink_with_the_remaining_budget(pinned_problem):
    _, tree = pinned_problem
    model = _model("clamp(x, 0, 1)", impulses=(1.0, -1.0))
    budget = 3
    result = value_iteration(tree, model, tol=-1.0, budget=budget)  # never stalls
    states = enumerate_states(model.impulses, budget)
    assert _pairs(result.states) == _pairs(states) and result.states.budget == budget
    assert len(result.fields) == budget + 1
    for field in result.fields:
        # exactly the states with count <= budget - n, in state-list order
        expected = [(cum, count) for cum, count in _pairs(states) if count <= budget - field.n]
        assert _pairs(field.states) == expected and field.states.budget == budget - field.n
        assert np.array_equal(field.states.succ, states.succ[: len(expected)])
        for arr in field.values:
            assert arr.shape[1] == len(expected)
        if field.n:
            for y, obs in zip(field.values, [obstacle(result.fields[field.n - 1], model, k) for k in range(tree.depth + 1)]):
                assert obs.shape == y.shape
                assert np.all(np.isfinite(obs))


def _gathered_candidates(prev, model, k):
    """Every (node, state, impulse) successor value less its cost, as the
    obstacle gathered them before its running maximum: the reference is
    their max over impulses."""
    psi = np.array([model.costs[beta] for beta in model.impulses])
    return prev.values[k][:, prev.next_states.succ] - psi[None, None, :]


_TIED_IMPULSES = {  # a constant reward: every impulse of equal cost reaches the same value
    **PINNED_CONFIG,
    "impulse": {"U": [0.5, -0.5, 1.0], "psi": {"0.5": 0.1, "-0.5": 0.1, "1.0": 0.1}, "c": 0.1, "gamma": 0.5, "h": "0.5"},
    "numerics": {**PINNED_CONFIG["numerics"], "depth": 4},
}


@pytest.mark.parametrize(
    "config",
    [random_impulse_config(300 + i, depth=3 + i % 6) for i in range(25)]
    + [random_combined_config(400 + i, depth=4, n_controls=2 + i % 2) for i in range(5)]
    + [with_impulse_chains(random_impulse_config(300 + i), 300 + i) for i in range(5)]
    + [_TIED_IMPULSES],
)
def test_the_running_max_obstacle_keeps_the_bits_of_the_gathered_max(config):
    loaded, tree = build_problem(config)
    model = loaded.impulse
    if loaded.grid is None:
        result = value_iteration(tree, model)
    else:
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=model.reward)
        result = combined_value_iteration(tree, model, spec)
    ties = 0
    for prev in result.fields[:-1]:
        for k in range(tree.depth + 1):
            cand = _gathered_candidates(prev, model, k)
            got, want = obstacle(prev, model, k), cand.max(axis=2)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            ties += int(np.count_nonzero((cand == want[:, :, None]).sum(axis=2) > 1))
    if config is _TIED_IMPULSES:
        assert len(result.fields) > 1 and ties > 0


def test_a_non_finite_value_raises_naming_its_field(pinned_problem, monkeypatch):
    """The sweep checks finiteness once per field: Y^0 at its root row,
    Y^n through its sup increment against Y^{n-1}."""
    _, tree = pinned_problem
    model = _model("clamp(x, 0, 1)", impulses=(1.0, -1.0))
    reward_tables, obstacle_of = impulse.reward_tables, impulse.obstacle

    def reward_with_inf(tree, model, states, k=0):
        table = reward_tables(tree, model, states, k)
        if k == tree.depth - 1:  # the last node of the last state, one step before the horizon
            table[-1, -1] = np.inf
        return table

    monkeypatch.setattr(impulse, "reward_tables", reward_with_inf)
    with pytest.raises(SolverError, match="non-finite values in field 0"):
        value_iteration(tree, model, tol=-1.0, budget=2)
    monkeypatch.setattr(impulse, "reward_tables", reward_tables)

    def obstacle_with_inf(prev, model, k):
        out = obstacle_of(prev, model, k)
        if prev.n == 1 and k == tree.depth - 1:  # in field 2's obstacle
            out[-1, 0] = np.inf
        return out

    monkeypatch.setattr(impulse, "obstacle", obstacle_with_inf)
    with pytest.raises(SolverError, match="non-finite values in field 2"):
        value_iteration(tree, model, tol=-1.0, budget=2)


def test_obstacle_pinned_value(pinned_problem):
    loaded, tree = pinned_problem
    states = enumerate_states(loaded.impulse.impulses, 2)
    y0 = solve_y0(tree, loaded.impulse, states)
    obs = obstacle(y0, loaded.impulse, 0)
    assert obs[0, 0] == pytest.approx(0.7, abs=1e-8)  # -0.3 + Y0(., shift 1)


def test_iterate_zero_reward_stays_zero(pinned_problem):
    _, tree = pinned_problem
    model = _model("0")
    states = enumerate_states(model.impulses, 3)
    field = solve_y0(tree, model, states)
    for _ in range(3):
        field = iterate_value(field, tree, model)
        for arr in field.values:
            assert (arr == 0).all()


def test_zero_reward_stalls_at_first_iteration(pinned_problem):
    _, tree = pinned_problem
    model = _model("0")
    result = value_iteration(tree, model, budget=3)
    assert result.stalled and result.stall_index == 1
    assert len(result.fields) == 2
    assert result.y0 == 0.0


def test_iterate_unprofitable_costs_keep_y0(pinned_problem):
    _, tree = pinned_problem
    model = _model("1", psi={1.0: 1.5})
    states = enumerate_states(model.impulses, 3)
    y0 = solve_y0(tree, model, states)
    y1 = iterate_value(y0, tree, model)
    assert _pairs(y1.states) == _pairs(y0.states)[: len(y1.states)]
    for a, b in zip(y0.values, y1.values):
        np.testing.assert_array_equal(a[:, : b.shape[1]], b)


def test_pinned_instance_value_iteration(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse, tol=1e-12, budget=4)
    assert result.stalled
    assert result.stall_index == 2
    assert result.fields[1].root_value() == pytest.approx(0.7, abs=1e-8)
    assert result.fields[2].root_value() == pytest.approx(0.7, abs=1e-8)
    # pre-verified by the enumeration oracle
    oracle_value, _ = enumerate_optimal(tree, loaded.impulse, 2)
    assert abs(result.y0 - oracle_value) <= 1e-12


@pytest.mark.parametrize(
    "impulses, n_states, y0, stall_index",
    [((0.0,), 1, 1.9245008972987526e-10, 1), ((0.0, 1.0), 11, 0.6999999998075497, 2)],
)
def test_zero_impulse_keeps_the_shift(impulses, n_states, y0, stall_index):
    # A zero impulse maps a shift onto itself, so U = [0.0] has the single
    # state {0} whatever the budget; every field must still cover it.
    config = {
        **PINNED_CONFIG,
        "impulse": {**PINNED_CONFIG["impulse"], "U": list(impulses), "psi": {repr(b): 0.3 for b in impulses}},
        "numerics": {**PINNED_CONFIG["numerics"], "depth": 3},
    }
    loaded, tree = build_problem(config)
    result = value_iteration(tree, loaded.impulse, tol=1e-12)
    assert result.budget == 10
    assert len(result.states) == n_states
    assert all(_pairs(f.states)[:1] == [(0.0, 0)] for f in result.fields)
    assert result.stalled and result.stall_index == stall_index
    assert result.y0 == pytest.approx(y0, rel=1e-12)
    oracle_value, oracle_strategy = enumerate_optimal(tree, loaded.impulse, stall_index)
    assert abs(result.y0 - oracle_value) <= 1e-12
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    assert strategy.decisions == oracle_strategy.decisions


def test_default_next_field_keeps_a_zero_impulse_state():
    # U = [0.0] has the single state {0} whatever the budget: the next
    # field's states are the previous ones with one impulse fewer left, not
    # those below the previous field's largest count (there 0, so none)
    config = {
        **PINNED_CONFIG,
        "process": {**PINNED_CONFIG["process"], "sigma": "0.3"},
        "impulse": {
            **PINNED_CONFIG["impulse"], "U": [0.0], "psi": {"0.0": 0.1}, "gamma": 0.3, "h": "0.3*clamp(x, 0, 1)"
        },
        "numerics": {**PINNED_CONFIG["numerics"], "depth": 3, "budget": 3},
    }
    loaded, tree = build_problem(config)
    model = loaded.impulse
    y0 = solve_y0(tree, model, enumerate_states((0.0,), 3))
    obs = [obstacle(y0, model, k) for k in range(tree.depth + 1)]
    assert obs[0].shape == (1, 1)
    y1 = iterate_value(y0, tree, model)
    assert len(y1.states) == 1 and y1.states.budget == 2
    run = value_iteration(tree, model, tol=-1.0, budget=3)
    want = run.fields[1]
    # Z and K_inc of y1 with the run's driver, which shares y1's one state
    terms = field_terms(dataclasses.replace(run, fields=[y0, y1]), 1, tree)
    for got, ref in zip(
        (y1.values, obs, *zip(*terms)),
        (want.values, [obstacle(run.fields[0], model, k) for k in range(tree.depth + 1)], *zip(*field_terms(run, 1, tree))),
    ):
        assert all(a.tobytes() == b.tobytes() and a.shape == b.shape for a, b in zip(got, ref))
    assert y1.root_value() == want.root_value()


def test_budget_zero_returns_base_field(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse, budget=0)
    assert result.stalled and result.stall_index == 0
    assert len(result.fields) == 1


def test_stall_within_default_budget_on_random_instances():
    for seed in (31, 32, 33):
        loaded, tree = build_problem(random_impulse_config(seed, depth=4))
        result = value_iteration(tree, loaded.impulse)
        assert result.stalled
        assert result.stall_index <= result.budget


def test_stall_within_budget_four_at_quarter_cost_floor():
    # gamma = 1, T = 1, c = 0.25: the budget is exactly 4 and the iteration
    # must stall no later than that
    config = random_impulse_config(34, depth=4)
    config["impulse"]["c"] = 0.25
    config["impulse"]["psi"] = {k: max(0.25, v) for k, v in config["impulse"]["psi"].items()}
    loaded, tree = build_problem(config)
    result = value_iteration(tree, loaded.impulse)
    assert result.budget == 4
    assert result.stalled
    assert result.stall_index <= 4


def test_extract_empty_strategy_when_reward_zero(pinned_problem):
    _, tree = pinned_problem
    model = _model("0")
    result = value_iteration(tree, model, budget=2)
    strategy = extract_strategy(result.fields, tree, model)
    assert strategy.impulse_decision_count == 0
    # covers exactly one state per node
    assert len(strategy.decisions) == tree.node_count


def test_extract_empty_strategy_when_costs_unprofitable(pinned_problem):
    _, tree = pinned_problem
    model = _model("1", psi={1.0: 1.5})
    result = value_iteration(tree, model, budget=2)
    strategy = extract_strategy(result.fields, tree, model)
    assert strategy.impulse_decision_count == 0


def test_extract_pinned_strategy(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    assert strategy.decisions[(0, 0, state_key(0.0, 0))] == ("impulse", 1.0)
    others = [d for key, d in strategy.decisions.items() if key != (0, 0, state_key(0.0, 0))]
    assert all(d == ("continue", None) for d in others)


@pytest.mark.parametrize("impulses", [(1.0, 2.0), (2.0, 1.0)])
def test_extraction_breaks_ties_in_declared_impulse_order(pinned_problem, impulses):
    # both shifts saturate the reward, so the two impulses tie exactly
    _, tree = pinned_problem
    model = _model("clamp(x + 0.5, 0, 1)", impulses=impulses)
    result = value_iteration(tree, model, budget=1)
    y0, y1 = result.fields
    succ = y1.states.succ[0]
    assert y0.values[0][0, succ[0]] == y0.values[0][0, succ[1]]
    strategy = extract_strategy(result.fields, tree, model)
    assert strategy.decisions[(0, 0, state_key(0.0, 0))] == ("impulse", impulses[0])
    assert strategy.rows() == _depth_first_extract(result.fields, tree, model, 1e-12)[0]


def test_extraction_with_zero_tol_impulses_where_the_value_meets_the_obstacle(pinned_problem):
    # Y = max(cont, obstacle) equals the obstacle exactly where it binds
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse, tol=0.0)
    strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=0.0)
    assert strategy.decisions[(0, 0, state_key(0.0, 0))] == ("impulse", 1.0)
    assert strategy.rows() == _depth_first_extract(result.fields, tree, loaded.impulse, 0.0)[0]


def test_extract_rejects_inconsistent_fields(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    broken = result.fields[-1]
    values = list(broken.values)
    corrupted = values[0].copy()
    corrupted[0, 0] = -10.0  # below the obstacle
    values[0] = corrupted
    fields = result.fields[:-1] + [
        ValueField(
            n=broken.n,
            states=broken.states,
            values=tuple(values),
        )
    ]
    with pytest.raises(SolverError):
        extract_strategy(fields, tree, loaded.impulse)


def test_strategy_rows_round_trip(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    rebuilt = Strategy.from_rows(strategy.rows(), impulses=loaded.impulse.impulses)
    assert rebuilt.decisions == strategy.decisions


def test_strategy_decisions_are_built_once(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    assert strategy.decisions is strategy.decisions


def test_strategy_from_rule_builds_complete_tables(pinned_problem):
    loaded, tree = pinned_problem
    strategy = strategy_from_rule(
        tree, lambda level, index, cum, count: 1.0 if (level, count) == (0, 0) else None, (1.0,)
    )
    assert strategy.decisions[(0, 0, state_key(0.0, 0))] == ("impulse", 1.0)
    value = evaluate_strategy_exact(tree, loaded.impulse, strategy)
    assert value.value == pytest.approx(0.7, abs=1e-8)


def test_monotonicity_and_bound_properties():
    for seed in (41, 42, 43, 44):
        loaded, tree = build_problem(random_impulse_config(seed, depth=5))
        result = value_iteration(tree, loaded.impulse)
        gamma = loaded.impulse.reward_bound
        for prev, nxt in zip(result.fields, result.fields[1:]):
            # Y^n covers a prefix of Y^{n-1}'s states
            for a, b in zip(prev.values, nxt.values):
                assert np.all(b >= a[:, : b.shape[1]] - 1e-12)
        for field in result.fields:
            for k, arr in enumerate(field.values):
                bound = gamma * (tree.horizon - tree.times[k])
                assert np.all(arr >= -1e-12)
                assert np.all(arr <= bound + 1e-12)
            assert (field.values[tree.depth] == 0).all()


def test_complementarity_properties():
    for seed in (51, 52):
        loaded, tree = build_problem(random_impulse_config(seed, depth=5))
        result = value_iteration(tree, loaded.impulse)
        for field in result.fields[1:]:
            obs = [obstacle(result.fields[field.n - 1], loaded.impulse, k) for k in range(tree.depth + 1)]
            for k, (_, k_inc) in enumerate(field_terms(result, field.n, tree)):
                y = field.values[k]
                o = obs[k]
                assert np.all(k_inc >= 0)
                assert np.all(y >= o - 1e-12)
                binding = k_inc > 0
                assert np.all(np.abs(y[binding] - o[binding]) <= 1e-12)


def test_comparison_principle():
    for seed in (61, 62, 63):
        low_cfg, high_cfg = random_comparison_pair(seed, depth=4)
        low_loaded, low_tree = build_problem(low_cfg)
        high_loaded, high_tree = build_problem(high_cfg)
        low = value_iteration(low_tree, low_loaded.impulse)
        high = value_iteration(high_tree, high_loaded.impulse)
        for n in range(min(len(low.fields), len(high.fields))):
            for a, b in zip(low.fields[n].values, high.fields[n].values):
                assert np.all(a <= b + 1e-12)


def test_bounded_strategy_optimality_matches_oracle():
    for seed in (71, 72, 73):
        loaded, tree = build_problem(random_impulse_config(seed, depth=4))
        for n in (1, 2, 3):
            result = value_iteration(tree, loaded.impulse, budget=n)
            oracle_value, _ = enumerate_optimal(tree, loaded.impulse, n)
            assert abs(result.top.root_value() - oracle_value) <= 1e-10


def test_forward_backward_consistency():
    for seed in (81, 82, 83):
        loaded, tree = build_problem(random_impulse_config(seed, depth=5))
        result = value_iteration(tree, loaded.impulse)
        strategy = extract_strategy(result.fields, tree, loaded.impulse)
        forward = evaluate_strategy_exact(tree, loaded.impulse, strategy)
        assert abs(forward.value - result.y0) <= 1e-10


def test_state_consistency_single_entry_per_node_state():
    # the continuation value is a function of (node, state) only: the
    # extraction walk must never try to write two decisions for one key
    # (the walk itself raises on conflicts), and every key is unique
    loaded, tree = build_problem(random_impulse_config(91, depth=5))
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    keys = list(strategy.decisions)
    assert len(keys) == len(set(keys))
    # two value-iteration runs read identical continuation values
    again = value_iteration(tree, loaded.impulse)
    for a, b in zip(result.fields, again.fields):
        for va, vb in zip(a.values, b.values):
            assert np.array_equal(va, vb)


def _depth_first_extract(fields, tree, model, tol, grid=None):
    """The depth-first extraction walk the level-wise one replaced, one node
    at a time and from the fields' values alone: a {(level, index,
    state_key): (action, beta)} table and, with a control grid, the control
    at each continue key below the horizon."""
    states = fields[0].states.shifts.tolist()
    position = {cum: j for j, cum in enumerate(states)}
    top = len(fields) - 1
    decisions, controls = {}, {}
    stack = [(0, 0, 0, 0, top)]
    while stack:
        level, index, s_idx, count, m = stack.pop()
        while level < tree.depth and m > 0:
            # the obstacle from field m - 1's values, its first maximizer in declared order
            targets = [position[state_key(states[s_idx] + beta, 0)[0]] for beta in model.impulses]
            prev = fields[m - 1].values[level][index]
            cands = [prev[j] - model.costs[beta] for j, beta in zip(targets, model.impulses)]
            if not abs(fields[m].values[level][index, s_idx] - max(cands)) <= tol:
                break
            b_idx = cands.index(max(cands))
            decisions[(level, index, state_key(states[s_idx], count))] = ("impulse", model.impulses[b_idx])
            s_idx = position[state_key(states[s_idx] + model.impulses[b_idx], 0)[0]]
            count += 1
            m -= 1
        key = (level, index, state_key(states[s_idx], count))
        decisions[key] = ("continue", None)
        if level < tree.depth:
            if grid is not None:
                controls[key] = grid[int(fields[m].controls[level][index, s_idx])]
            stack.append((level + 1, 2 * index + 1, s_idx, count, m))
            stack.append((level + 1, 2 * index, s_idx, count, m))
    rows = sorted(
        ((lv, ix, cum, ct, action, beta) for (lv, ix, (cum, ct)), (action, beta) in decisions.items()),
        key=lambda r: (r[0], r[1], r[3], r[2]),
    )
    return rows, controls


@pytest.mark.parametrize("chains", [False, True], ids=["random", "chains"])
@pytest.mark.parametrize("seed", range(620, 628))
def test_extraction_matches_depth_first_reference(seed, chains):
    depth = 3 + seed % 4
    config = random_impulse_config(seed, depth=depth)
    loaded, tree = build_problem(with_impulse_chains(config, seed) if chains else config)
    result = value_iteration(tree, loaded.impulse)
    rows, _ = _depth_first_extract(result.fields, tree, loaded.impulse, 1e-12)
    assert extract_strategy(result.fields, tree, loaded.impulse, tol=1e-12).rows() == rows


@pytest.mark.parametrize("chains", [False, True], ids=["random", "chains"])
@pytest.mark.parametrize("seed", range(630, 636))
def test_pair_extraction_matches_depth_first_reference(seed, chains):
    depth = 3 + seed % 4
    config = random_combined_config(seed, depth=depth)
    loaded, tree = build_problem(with_impulse_chains(config, seed) if chains else config)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    rows, controls = _depth_first_extract(result.fields, tree, loaded.impulse, 1e-12, grid=loaded.grid.controls)
    strategy, table = extract_pair(result.fields, tree, loaded.impulse, spec, tol=1e-12)
    assert strategy.rows() == rows
    # each node's control sits at its continue row's (post-chain) state
    recorded = {
        (lv, ix, (cum, ct)): float(table[lv][ix])
        for lv, ix, cum, ct, action, _ in rows
        if action == "continue" and lv < tree.depth
    }
    assert recorded == controls
