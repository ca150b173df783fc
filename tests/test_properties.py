"""Property tests of the solver invariants over random small instances
built by the conftest generators: monotonicity in n, the gamma*(T - t)
bound, forward/backward consistency and agreement with the brute-force
oracle, for pure impulse and combined control."""

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

from conftest import build_problem, random_combined_config, random_impulse_config

TOL = 1e-12
FORWARD_TOL = 1e-10
ORACLE_TOL = 1e-10

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small = settings(max_examples=25, deadline=None)


def _check_monotone_and_bounded(result, tree, gamma):
    for prev, nxt in zip(result.fields, result.fields[1:]):
        # Y^n covers a prefix of Y^{n-1}'s states
        assert nxt.states == prev.states[: len(nxt.states)]
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
