"""Property tests of the solver invariants over random small instances
built by the conftest generators: monotonicity in n, the gamma*(T - t)
bound, forward/backward consistency, agreement with the brute-force
oracle, the comparison principle and the strategy CSV round trip, for
pure impulse and combined control."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsetree import (
    HamiltonianSpec,
    combined_value_iteration,
    enumerate_optimal,
    evaluate_pair,
    evaluate_strategy_exact,
    extract_pair,
    extract_strategy,
    value_iteration,
)
from impulsetree.csvio import write_strategy_csv
from impulsetree.csvread import read_strategy_csv

from conftest import (
    build_problem,
    random_combined_config,
    random_comparison_pair,
    random_impulse_config,
    with_impulse_chains,
)

TOL = 1e-12
FORWARD_TOL = 1e-10
ORACLE_TOL = 1e-10

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small = settings(max_examples=25, deadline=None)


def _check_monotone_and_bounded(result, tree, gamma):
    for prev, nxt in zip(result.fields, result.fields[1:]):
        # Y^n covers a prefix of Y^{n-1}'s states
        assert nxt.states.budget == prev.states.budget - 1
        for a, b in ((prev.states.shifts, nxt.states.shifts), (prev.states.counts, nxt.states.counts)):
            assert np.array_equal(a[: b.size], b)
        for a, b in zip(prev.values, nxt.values):
            assert np.all(b >= a[:, : b.shape[1]] - TOL)
    for field in result.fields:
        for k, arr in enumerate(field.values):
            assert np.all(arr >= -TOL)
            assert np.all(arr <= gamma * (tree.horizon - float(tree.times[k])) + TOL)


@small
@given(seed=seeds, depth=st.integers(min_value=1, max_value=5))
def test_impulse_invariants(seed, depth):
    loaded, tree = build_problem(random_impulse_config(seed, depth=depth))
    result = value_iteration(tree, loaded.impulse)
    _check_monotone_and_bounded(result, tree, loaded.impulse.reward_bound)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    forward = evaluate_strategy_exact(tree, loaded.impulse, strategy)
    assert abs(result.y0 - forward.value) <= FORWARD_TOL


@small
@given(seed=seeds, depth=st.integers(min_value=1, max_value=4), budget=st.integers(min_value=1, max_value=3))
def test_bounded_root_equals_oracle(seed, depth, budget):
    loaded, tree = build_problem(random_impulse_config(seed, depth=depth))
    result = value_iteration(tree, loaded.impulse, budget=budget)
    oracle_value, _ = enumerate_optimal(tree, loaded.impulse, budget)
    assert abs(result.top.root_value() - oracle_value) <= ORACLE_TOL


@small
@given(seed=seeds, depth=st.integers(min_value=2, max_value=5))
def test_combined_invariants(seed, depth):
    loaded, tree = build_problem(random_combined_config(seed, depth=depth))
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    result = combined_value_iteration(tree, loaded.impulse, spec)
    _check_monotone_and_bounded(result, tree, loaded.impulse.reward_bound)
    strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec)
    forward = evaluate_pair(tree, loaded.impulse, spec, strategy, controls)
    assert abs(result.y0 - forward.value) <= FORWARD_TOL


@small
@given(seed=seeds, depth=st.integers(min_value=1, max_value=5))
def test_comparison_principle(seed, depth):
    # h2 >= h1 pointwise, so Y^n(h2) >= Y^n(h1) on the columns both cover
    low_config, high_config = random_comparison_pair(seed, depth=depth)
    low_loaded, tree = build_problem(low_config)
    high_loaded, _ = build_problem(high_config)
    low = value_iteration(tree, low_loaded.impulse)
    high = value_iteration(tree, high_loaded.impulse)
    for n in range(min(len(low.fields), len(high.fields))):
        for a, b in zip(low.fields[n].values, high.fields[n].values):
            cols = min(a.shape[1], b.shape[1])
            assert np.all(a[:, :cols] <= b[:, :cols] + TOL)


@small
@given(
    seed=seeds,
    depth=st.integers(min_value=2, max_value=5),
    combined=st.booleans(),
    chains=st.booleans(),
)
def test_strategy_csv_round_trip(seed, depth, combined, chains):
    config = random_combined_config(seed, depth=depth) if combined else random_impulse_config(seed, depth=depth)
    loaded, tree = build_problem(with_impulse_chains(config, seed) if chains else config)
    if combined:
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        result = combined_value_iteration(tree, loaded.impulse, spec)
        strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec)

        def evaluate(s):
            return evaluate_pair(tree, loaded.impulse, spec, s, controls)
    else:
        result = value_iteration(tree, loaded.impulse)
        strategy = extract_strategy(result.fields, tree, loaded.impulse)

        def evaluate(s):
            return evaluate_strategy_exact(tree, loaded.impulse, s)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        write_strategy_csv(path, strategy)
        back = read_strategy_csv(path, loaded.impulse.impulses)
    assert back.rows() == strategy.rows()
    assert evaluate(back) == evaluate(strategy)  # bit for bit
