import tracemalloc
import warnings

import numpy as np
import pytest

import impulsetree.evaluate
from impulsetree import (
    HamiltonianSpec,
    ImpulseModel,
    PolicyValue,
    Strategy,
    StrategyRowError,
    build_tree,
    enumerate_optimal,
    enumerate_states,
    evaluate_pair,
    evaluate_strategy_exact,
    extract_strategy,
    impulse_budget,
    impulse_count_distribution,
    load_config,
    mc_evaluate_strategy,
    parse_expr,
    state_key,
    strategy_from_rule,
    value_iteration,
    walk_strategy_states,
)
from impulsetree.combined import extract_pair
from impulsetree.expr import eval_expr
from impulsetree.tree import STACK_CELLS, _z

from conftest import (
    PINNED_CONFIG,
    build_problem,
    frozen_control_iteration,
    leaf_weights,
    random_combined_config,
    random_impulse_config,
    uniform_controls,
)
from memory_deep import BASELINE


def _empty_strategy(tree, impulses=(1.0,)):
    return strategy_from_rule(tree, lambda *args: None, impulses)


def _constant_reward_model(h, gamma=1.0):
    return ImpulseModel(
        impulses=(1.0,),
        costs={1.0: 0.3},
        cost_floor=0.1,
        reward_bound=gamma,
        reward=parse_expr(h),
    )


def test_exact_constant_reward_telescopes(pinned_problem):
    _, tree = pinned_problem
    model = _constant_reward_model("1")
    value = evaluate_strategy_exact(tree, model, _empty_strategy(tree))
    assert value.value == pytest.approx(1.0, abs=1e-15)  # gamma * T exactly
    assert value.reward_integral == pytest.approx(1.0, abs=1e-15)
    assert value.impulse_cost == 0.0
    assert value.method == "exact"
    assert value.std_error is None


def test_exact_zero_reward(pinned_problem):
    _, tree = pinned_problem
    model = _constant_reward_model("0")
    assert evaluate_strategy_exact(tree, model, _empty_strategy(tree)).value == 0.0


def test_exact_pinned_strategy_value(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    value = evaluate_strategy_exact(tree, loaded.impulse, strategy)
    assert value.value == pytest.approx(0.7, abs=1e-8)
    assert value.value == pytest.approx(result.y0, abs=1e-12)
    assert value.impulse_cost == pytest.approx(0.3, abs=1e-15)


def test_gap_in_decision_table_is_detected(pinned_problem):
    loaded, tree = pinned_problem
    rows = _empty_strategy(tree).rows()
    gap = rows.index((1, 1, 0.0, 0, "continue", None))
    with pytest.raises(StrategyRowError, match=r"expected a row of node \(level 1, index 1\)") as exc:
        Strategy.from_rows(rows[:gap] + rows[gap + 1 :], loaded.impulse.impulses)
    assert exc.value.position == gap  # the row that takes the missing node's place
    with pytest.raises(StrategyRowError, match="missing the continue row") as exc:
        Strategy.from_rows(rows[:-1], loaded.impulse.impulses)
    assert exc.value.position == len(rows) - 1
    # a complete strategy of another depth is no strategy for this tree
    root_only = Strategy.from_rows(rows[:1], loaded.impulse.impulses)
    with pytest.raises(ValueError, match="depth 0 does not match tree depth 2"):
        evaluate_strategy_exact(tree, loaded.impulse, root_only)


def test_impulse_at_horizon_rejected(pinned_problem):
    loaded, tree = pinned_problem
    rows = _empty_strategy(tree).rows()
    horizon = rows.index((tree.depth, 0, 0.0, 0, "continue", None))
    rows[horizon] = (tree.depth, 0, 0.0, 0, "impulse", 1.0)
    with pytest.raises(StrategyRowError, match="horizon") as exc:
        Strategy.from_rows(rows, loaded.impulse.impulses)
    assert exc.value.position == horizon


def _driftless_spec(sigma="1", f="0", h="1", controls=(0.0,)):
    from impulsetree import ControlGrid

    return HamiltonianSpec(
        grid=ControlGrid(controls=tuple(controls), controlled_drift=parse_expr(f)),
        sigma=parse_expr(sigma),
        reward=parse_expr(h),
    )


def test_girsanov_weights_no_tilt(pinned_problem):
    _, tree = pinned_problem
    spec = _driftless_spec()
    weights = leaf_weights(tree, spec, uniform_controls(tree, 0.0))
    np.testing.assert_array_equal(weights, np.ones(4))


def test_girsanov_weights_constant_tilt_factors():
    # theta = 0.5 with dt = 0.25: q = 0.625, up factor 1.25, down factor 0.75
    config = {
        **PINNED_CONFIG,
        "process": {"x0": 0.0, "T": 1.0, "sigma": "1", "drift": None},
        "numerics": {"depth": 4, "tol": 1e-12, "budget": None},
    }
    loaded, tree = build_problem(config)
    spec = _driftless_spec(f="0.5", controls=(1.0,))
    weights = leaf_weights(tree, spec, uniform_controls(tree, 1.0))
    for leaf in range(16):  # leaf index bit pattern: 1 bit = down move
        n_down = bin(leaf).count("1")
        expected = 1.25 ** (4 - n_down) * 0.75**n_down
        assert weights[leaf] == pytest.approx(expected, rel=1e-15)
    assert weights.mean() == pytest.approx(1.0, abs=1e-15)


def test_girsanov_weight_mean_is_one_on_random_instances():
    for seed in (3, 4, 5):
        loaded, tree = build_problem(random_combined_config(seed, depth=5))
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        table = uniform_controls(tree, loaded.grid.controls[-1])
        weights = leaf_weights(tree, spec, table)
        assert np.all(weights > 0)
        assert abs(float(weights.mean()) - 1.0) <= 1e-12


def test_girsanov_tilt_bound_enforced(pinned_problem):
    loaded, tree = pinned_problem
    spec = _driftless_spec(sigma="0.1", f="u", controls=(2.0,))
    with pytest.raises(ValueError, match="tilt"):
        evaluate_pair(tree, loaded.impulse, spec, _empty_strategy(tree), uniform_controls(tree, 2.0))


def test_girsanov_tilt_zero_over_zero_is_rejected_without_a_warning():
    # sigma = f = 0 on the whole zero-shift path from x0 = 0: theta = 0/0
    # = nan fails the tilt bound, naming the level, with no RuntimeWarning
    config = {**PINNED_CONFIG, "process": {"x0": 0.0, "T": 1.0, "sigma": "max(x, 0)", "drift": None}}
    loaded = load_config(config)
    tree = build_tree(loaded.process, 2)
    spec = _driftless_spec(sigma="max(x, 0)", f="u*max(x, 0)", controls=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at level 0"):
            evaluate_pair(tree, loaded.impulse, spec, _empty_strategy(tree), uniform_controls(tree, 1.0))


def test_evaluate_pair_weights_average_out_for_constant_reward(pinned_problem):
    loaded, tree = pinned_problem
    spec = _driftless_spec(f="0.3*u", h="1", controls=(-1.0, 1.0))
    model = _constant_reward_model("1")
    value = evaluate_pair(tree, model, spec, _empty_strategy(tree), uniform_controls(tree, 1.0))
    assert value.value == pytest.approx(1.0, abs=1e-12)  # gamma*T, mean-one weights


def test_evaluate_pair_driftless_equals_exact(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    spec = _driftless_spec(f="0", h="clamp(x, 0, 1)", controls=(0.0,))
    pair_value = evaluate_pair(tree, loaded.impulse, spec, strategy, uniform_controls(tree, 0.0))
    exact_value = evaluate_strategy_exact(tree, loaded.impulse, strategy)
    assert pair_value.value == pytest.approx(exact_value.value, abs=1e-14)


def test_binomial_tilt_algebraic_identity():
    # q*V_up + (1-q)*V_down == cond_expect + theta*dt*Z with
    # q = (1 + theta*sqrt(dt))/2: the identity that makes the backward
    # driver and the forward reweighting agree to machine precision
    from impulsetree import cond_expect

    rng = np.random.default_rng(2)
    dt = 0.17
    sqrt_dt = np.sqrt(dt)
    children = rng.normal(size=8)
    theta = rng.uniform(-1.0, 1.0, size=4) / sqrt_dt * 0.9
    q = 0.5 * (1.0 + theta * sqrt_dt)
    tilted = q * children[0::2] + (1.0 - q) * children[1::2]
    driver = cond_expect(children) + theta * dt * _z(children, dt)
    np.testing.assert_allclose(tilted, driver, rtol=0, atol=1e-15)


def test_driver_vs_tilt_identity_for_fixed_tables():
    # backward value under a frozen control table equals the weighted
    # forward evaluation of the same policy (exact binomial tilt identity)
    for seed in (23, 29):
        loaded, tree = build_problem(random_combined_config(seed, depth=4))
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        budget = impulse_budget(loaded.impulse.reward_bound, loaded.impulse.cost_floor, tree.horizon)
        states = enumerate_states(loaded.impulse.impulses, budget)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            fixed = [
                rng.integers(0, len(loaded.grid.controls), size=(tree.level_size(k), len(states)))
                for k in range(tree.depth)
            ]
            result = frozen_control_iteration(tree, loaded.impulse, spec, fixed)
            strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec)
            forward = evaluate_pair(tree, loaded.impulse, spec, strategy, controls)
            assert abs(forward.value - result.y0) <= 1e-10


def test_oracle_zero_reward(pinned_problem):
    _, tree = pinned_problem
    model = _constant_reward_model("0")
    value, strategy = enumerate_optimal(tree, model, 2)
    assert value == 0.0
    assert strategy.impulse_decision_count == 0


def test_oracle_pinned_instance(pinned_problem):
    loaded, tree = pinned_problem
    value, strategy = enumerate_optimal(tree, loaded.impulse, 2)
    assert value == pytest.approx(0.7, abs=1e-8)
    assert strategy.decisions[(0, 0, state_key(0.0, 0))] == ("impulse", 1.0)
    forward = evaluate_strategy_exact(tree, loaded.impulse, strategy)
    assert forward.value == pytest.approx(value, abs=1e-12)


def test_oracle_matches_solver_on_random_instances():
    for seed in (101, 102):
        loaded, tree = build_problem(random_impulse_config(seed, depth=4))
        for n in (1, 2):
            result = value_iteration(tree, loaded.impulse, budget=n)
            value, _ = enumerate_optimal(tree, loaded.impulse, n)
            assert abs(value - result.top.root_value()) <= 1e-10


def test_oracle_zero_impulses_is_plain_expectation():
    loaded, tree = build_problem(random_impulse_config(103, depth=4))
    value, strategy = enumerate_optimal(tree, loaded.impulse, 0)
    plain = evaluate_strategy_exact(tree, loaded.impulse, _empty_strategy(tree, loaded.impulse.impulses))
    assert value == pytest.approx(plain.value, abs=1e-12)
    assert strategy.impulse_decision_count == 0


def test_oracle_call_limit(monkeypatch):
    from impulsetree import LimitError

    monkeypatch.setattr(impulsetree.evaluate, "DEFAULT_ORACLE_CALL_LIMIT", 10)
    loaded, tree = build_problem(random_impulse_config(104, depth=4))
    with pytest.raises(LimitError, match="oracle search exceeded 10 recursive calls"):
        enumerate_optimal(tree, loaded.impulse, 3)


def test_forced_impulse_strategies_bound_and_decrease():
    # impulsing at every node of the first m levels costs at least m*c per
    # path, so J <= gamma*T - m*c, decreasing in m
    loaded, tree = build_problem(random_impulse_config(105, depth=4))
    model = loaded.impulse
    gamma_t = model.reward_bound * tree.horizon
    beta = model.impulses[0]
    previous_bound = None
    for m in range(1, 4):
        strategy = strategy_from_rule(
            tree,
            lambda level, index, cum, count, m=m: beta if level < m and count < m and count == level else None,
            model.impulses,
        )
        value = evaluate_strategy_exact(tree, model, strategy)
        bound = gamma_t - m * model.cost_floor
        assert value.value <= bound + 1e-12
        if previous_bound is not None:
            assert bound < previous_bound
        previous_bound = bound


def test_walk_strategy_states_tracks_post_chain_state(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    ps = walk_strategy_states(loaded.impulse, strategy)
    assert ps.cum[0][0] == 1.0 and ps.count[0][0] == 1
    assert ps.cost[0][0] == pytest.approx(0.3)
    for k in range(1, tree.depth + 1):
        assert np.all(ps.cum[k] == 1.0)
        assert np.all(ps.count[k] == 1)
        assert np.all(ps.cost[k] == 0.0)


def test_impulse_count_distribution(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    assert impulse_count_distribution(tree, loaded.impulse, strategy) == {1: 1.0}
    empty = _empty_strategy(tree)
    assert impulse_count_distribution(tree, loaded.impulse, empty) == {0: 1.0}


def test_mc_constant_reward_has_zero_error(pinned_problem):
    _, pinned_tree = pinned_problem
    loaded, tree = build_problem(
        {**PINNED_CONFIG, "impulse": {**PINNED_CONFIG["impulse"], "h": "1"}}
    )
    strategy = _empty_strategy(tree)
    estimate = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=500, seed=9)
    assert estimate.value == pytest.approx(1.0, abs=1e-12)
    assert estimate.std_error == pytest.approx(0.0, abs=1e-12)
    assert estimate.method == "monte-carlo"
    assert estimate.samples == 500
    assert estimate.seed == 9
    assert estimate.generator == "numpy.random.PCG64"


def test_mc_pinned_instance_degenerate_randomness(pinned_problem):
    loaded, tree = pinned_problem
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    estimate = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=10_000, seed=1)
    assert estimate.value == pytest.approx(0.7, abs=1e-8)
    assert estimate.std_error <= 1e-8


def test_mc_is_deterministic_given_seed(pinned_problem):
    loaded, tree = pinned_problem
    strategy = _empty_strategy(tree)
    a = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=200, seed=77)
    b = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=200, seed=77)
    assert a == b


def test_mc_agrees_with_exact_within_three_standard_errors():
    loaded, tree = build_problem(random_impulse_config(106, depth=8))
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    exact = evaluate_strategy_exact(tree, loaded.impulse, strategy)
    estimate = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=20_000, seed=13)
    assert abs(estimate.value - exact.value) <= 3 * max(estimate.std_error, 1e-12)


def _resolve_chain(decisions, model_costs, level, index, cum, count):
    """Apply a node's impulse chain from a {(level, index, state_key):
    (action, beta)} table; returns the post-chain (cum, count, cost)."""
    cost = 0.0
    while True:
        action, beta = decisions[(level, index, state_key(cum, count))]
        if action == "continue":
            return cum, count, cost
        cost += model_costs[beta]
        cum, count = state_key(cum + beta, count + 1)


def _mc_masked_reference(model, process, strategy, samples, seed):
    """mc_evaluate_strategy's per-node masked loop: each visited node's
    chain is resolved from its first sample, in a table keyed by the
    rounded state, and written through a mask over all samples."""
    decisions = {(lv, ix, (cum, ct)): (act, beta) for lv, ix, cum, ct, act, beta in strategy.rows()}
    depth = strategy.depth
    dt = process.horizon / depth
    sqrt_dt = float(np.sqrt(dt))
    downs = np.random.default_rng(seed).integers(0, 2, size=(samples, depth))
    x = np.full(samples, float(process.x0))
    xmax, xmin, xsum = x.copy(), x.copy(), x.copy()
    node = np.zeros(samples, dtype=np.int64)
    cum = np.zeros(samples)
    count = np.zeros(samples, dtype=np.int64)
    reward_acc = np.zeros(samples)
    cost_acc = np.zeros(samples)
    for k in range(depth):
        for node_id in np.unique(node):
            mask = node == node_id
            first = int(np.argmax(mask))
            n_cum, n_count, n_cost = _resolve_chain(
                decisions, model.costs, k, int(node_id), float(cum[first]), int(count[first])
            )
            cum[mask] = n_cum
            count[mask] = n_count
            cost_acc[mask] += n_cost
        env = {"t": k * dt, "x": x + cum, "xmax": xmax + cum, "xmin": xmin + cum, "xavg": xsum / (k + 1) + cum}
        reward_acc += np.broadcast_to(np.asarray(eval_expr(model.reward, env)), x.shape) * dt
        env_plain = {"t": k * dt, "x": x, "xmax": xmax, "xmin": xmin, "xavg": xsum / (k + 1)}
        sigma = np.broadcast_to(np.asarray(eval_expr(process.sigma, env_plain)), x.shape)
        drift = 0.0 if process.drift is None else np.broadcast_to(np.asarray(eval_expr(process.drift, env_plain)), x.shape)
        x = x + drift * dt + sigma * (sqrt_dt * (1.0 - 2.0 * downs[:, k]))
        xmax, xmin, xsum = np.maximum(xmax, x), np.minimum(xmin, x), xsum + x
        node = 2 * node + downs[:, k]
    values = reward_acc - cost_acc
    return PolicyValue(
        value=float(np.mean(values)),
        reward_integral=float(np.mean(reward_acc)),
        impulse_cost=float(np.mean(cost_acc)),
        method="monte-carlo",
        samples=samples,
        std_error=float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0,
        seed=seed,
        generator="numpy.random.PCG64",
    )


# Besides two random configs: a drift, with sigma and the reward reading
# xmin and xavg (so the kernel shifts them), a config that reads x alone,
# and one whose sigma, drift and reward call exp (which numpy may
# vectorise differently for a level's nodes than for a block of samples).
MC_REFERENCE_CONFIGS = {
    107: (107, {}, {}),
    108: (108, {}, {}),
    "drift-xmin-xavg": (
        109,
        {"sigma": "0.6 + 0.2*clamp(abs(xmin - xavg), 0, 2)", "drift": "0.2 - 0.1*clamp(xavg, -1, 1)"},
        {"h": "clamp(0.4 + 0.3*xavg - 0.2*xmin, 0, 1)"},
    ),
    "x-only": (110, {"sigma": "0.7 + 0.1*clamp(abs(x), 0, 2)", "drift": "0.1"}, {"h": "clamp(0.5 + 0.4*x, 0, 1)"}),
    "exp-drift": (
        111,
        {"sigma": "0.4 + 0.3*exp(-abs(x - xmax))", "drift": "0.2*exp(clamp(xavg, -2, 2)) - 0.25"},
        {"h": "clamp(exp(xmin - x) - 0.3*x, 0, 1)"},
    ),
}
MC_REFERENCE_DEPTH = 5  # does not divide STACK_CELLS: a sign draw of STACK_CELLS // 5 rows leaves cells over
SIGN_ROWS = STACK_CELLS // MC_REFERENCE_DEPTH


@pytest.mark.parametrize(
    "samples",
    [1, 2, 300, SIGN_ROWS - 1, SIGN_ROWS, SIGN_ROWS + 1, STACK_CELLS - 1, STACK_CELLS, STACK_CELLS + 1, 2 * STACK_CELLS + 3],
)
@pytest.mark.parametrize("config", list(MC_REFERENCE_CONFIGS))
def test_mc_matches_per_node_masked_reference(config, samples):
    """The blocked walk against one draw of every sign, at sample counts
    around the sign draws and the block size."""
    seed, process, impulse = MC_REFERENCE_CONFIGS[config]
    raw = random_impulse_config(seed, depth=MC_REFERENCE_DEPTH)
    raw = {**raw, "process": {**raw["process"], **process}, "impulse": {**raw["impulse"], **impulse}}
    loaded, tree = build_problem(raw)
    beta = loaded.impulse.impulses[0]
    # impulses at many nodes, chains of up to two at some of them
    strategy = strategy_from_rule(
        tree, lambda level, index, cum, count: beta if index % 3 == 1 and count < min(level, 2) else None,
        loaded.impulse.impulses,
    )
    impulse_nodes = {key[:2] for key, d in strategy.decisions.items() if d[0] == "impulse"}
    assert len(impulse_nodes) >= 5
    estimate = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=samples, seed=seed)
    assert estimate == _mc_masked_reference(loaded.impulse, loaded.process, strategy, samples, seed)
    if samples > 2:
        assert estimate.impulse_cost > 0


def test_mc_expression_work_does_not_grow_with_the_sample_count(monkeypatch):
    """Monte Carlo evaluates the reward once per level of the tree, not per
    block of samples: one sample and 3*STACK_CELLS + 1 samples (four
    blocks) make the same eval_expr calls."""
    loaded, tree = build_problem(random_impulse_config(107, depth=MC_REFERENCE_DEPTH))
    strategy = extract_strategy(value_iteration(tree, loaded.impulse).fields, tree, loaded.impulse)
    calls = []

    def counted(expr, env):
        calls.append(expr)
        return eval_expr(expr, env)

    for module in ("impulsetree.tree", "impulsetree.evaluate"):
        monkeypatch.setattr(f"{module}.eval_expr", counted)
    counts = []
    for samples in (1, 3 * STACK_CELLS + 1):
        calls.clear()
        mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=samples, seed=1)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("block", [1, 2, 7, 64, "sign-rows"])
@pytest.mark.parametrize("depth", [1, 4, 5, 14])
def test_block_draws_continue_one_draw(block, depth):
    """The premise of the blocked Monte Carlo walk: consecutive
    integers(0, 2) draws of one generator, a block of samples at a time,
    are the rows of a single draw, for odd and even block sizes and
    depths; also as the walk draws them, STACK_CELLS // depth rows at a
    time stored into an int8 array."""
    rows = STACK_CELLS // depth if block == "sign-rows" else block
    samples = 3 * rows + 1
    whole = np.random.default_rng(5).integers(0, 2, size=(samples, depth))
    rng = np.random.default_rng(5)
    signs = np.empty((samples, depth), dtype=np.int8)
    for s in range(0, samples, rows):
        signs[s : s + rows] = rng.integers(0, 2, size=(min(rows, samples - s), depth))
    assert np.array_equal(signs, whole)


def test_mc_peak_memory_is_two_per_sample_arrays_and_a_block():
    """tracemalloc's peak above what mc_evaluate_strategy retains, for 100k
    samples of a depth-14 Baseline strategy, stays under four per-sample
    float64 arrays.  Beside the reward and cost sums, a third array of
    values, the whole walk_strategy_states, an int64 sign block and running
    features no expression reads took about 6.4 arrays.  The walk now holds
    the sums, the per-node path sums of level depth - 1 and one int8 sign
    block with its nodes, about 2.7 arrays; the path sums are made before
    sampling from one level of the strategy's walk at a time (about 1.1)."""
    depth, samples = 14, 100_000
    raw = {**BASELINE, "numerics": {**BASELINE["numerics"], "depth": depth}}
    loaded = load_config(raw)
    tree = build_tree(loaded.process, depth)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
    strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol)
    del result
    mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=10, seed=1)  # loads what any run needs
    tracemalloc.start()
    try:
        estimate = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=samples, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate.samples == samples
    assert peak - held <= 4 * 8 * samples, f"peak {peak - held} bytes above the {held} retained"
