"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import csv
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from impulsetree import (
    HamiltonianSpec,
    PayoffProcess,
    cond_expect,
    combined_value_iteration,
    enumerate_optimal,
    evaluate_pair,
    evaluate_strategy_exact,
    extract_pair,
    extract_strategy,
    field_terms,
    girsanov_weights,
    mc_evaluate_strategy,
    obstacle,
    snell_envelope,
    state_key,
    stopping_rule_value,
    value_iteration,
)
from impulsetree.cli import run

from conftest import (
    PINNED_CONFIG,
    build_problem,
    hamiltonian,
    hamiltonian_max,
    node_env,
    random_combined_config,
    random_comparison_pair,
    random_impulse_config,
    uniform_controls,
)

MONOTONE_TOL = 1e-12
BOUND_TOL = 1e-12
ORACLE_TOL = 1e-10
FORWARD_TOL = 1e-10
COMPLEMENTARITY_TOL = 1e-12
COMPARISON_TOL = 1e-12
DEGENERATION_TOL = 1e-12
GIRSANOV_MEAN_TOL = 1e-12


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:>2}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:>2}: PASS - {description}")


@pytest.fixture(scope="module")
def impulse_batch():
    """25 randomized impulse instances, solved once and shared by criteria
    1, 2, 3, 5 and 6."""
    instances = []
    start = time.perf_counter()
    for i in range(25):
        depth = 3 + (i % 6)
        loaded, tree = build_problem(random_impulse_config(300 + i, depth=depth))
        result = value_iteration(tree, loaded.impulse, tol=1e-12)
        instances.append((loaded, tree, result))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def combined_batch():
    """5 combined instances with |V| in {2, 3}, solved once and shared by
    criteria 9 and 10."""
    instances = []
    start = time.perf_counter()
    for i in range(5):
        n_controls = 2 + (i % 2)
        loaded, tree = build_problem(random_combined_config(400 + i, depth=4, n_controls=n_controls))
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        result = combined_value_iteration(tree, loaded.impulse, spec, tol=1e-12)
        instances.append((loaded, tree, spec, result))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_01_monotone_value_iteration(impulse_batch):
    instances, elapsed = impulse_batch
    with criterion(1, "monotone value iteration on 25 randomized instances, < 30 s"):
        for _, _, result in instances:
            for prev, nxt in zip(result.fields, result.fields[1:]):
                # Y^n covers a prefix of Y^{n-1}'s states
                for a, b in zip(prev.values, nxt.values):
                    assert np.all(b >= a[:, : b.shape[1]] - MONOTONE_TOL)
        assert elapsed < 30.0, f"solve phase took {elapsed:.1f} s"


def test_criterion_02_gamma_bound(impulse_batch):
    instances, _ = impulse_batch
    with criterion(2, "0 <= Y^n <= gamma*(T - t_k) everywhere"):
        for loaded, tree, result in instances:
            gamma = loaded.impulse.reward_bound
            for field in result.fields:
                for k, arr in enumerate(field.values):
                    bound = gamma * (tree.horizon - float(tree.times[k]))
                    assert np.all(arr >= -BOUND_TOL)
                    assert np.all(arr <= bound + BOUND_TOL)


def test_criterion_03_budget_stall(impulse_batch):
    instances, _ = impulse_batch
    with criterion(3, "iteration stalls at n <= ceil(gamma*T/c) on every instance"):
        for _, _, result in instances:
            assert result.stalled
            assert result.stall_index is not None
            assert result.stall_index <= result.budget


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    with criterion(4, "bounded-strategy optimum equals the enumeration oracle (10 instances)"):
        for i in range(10):
            loaded, tree = build_problem(random_impulse_config(500 + i, depth=3 + (i % 2)))
            n = 1 + (i % 3)
            result = value_iteration(tree, loaded.impulse, budget=n)
            oracle_value, _ = enumerate_optimal(tree, loaded.impulse, n)
            assert abs(result.top.root_value() - oracle_value) <= ORACLE_TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_05_forward_backward_consistency(impulse_batch):
    instances, _ = impulse_batch
    with criterion(5, "|J(strategy) - Y0| <= 1e-10 exact; depth-12 MC within 3 std errors, < 10 s"):
        for loaded, tree, result in instances:
            strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=1e-12)
            forward = evaluate_strategy_exact(tree, loaded.impulse, strategy)
            assert abs(forward.value - result.y0) <= FORWARD_TOL

        start = time.perf_counter()
        loaded, tree = build_problem(random_impulse_config(550, depth=12))
        result = value_iteration(tree, loaded.impulse)
        strategy = extract_strategy(result.fields, tree, loaded.impulse)
        exact = evaluate_strategy_exact(tree, loaded.impulse, strategy)
        assert abs(exact.value - result.y0) <= FORWARD_TOL
        estimate = mc_evaluate_strategy(tree, loaded.impulse, strategy, samples=100_000, seed=550)
        assert abs(estimate.value - exact.value) <= 3 * max(estimate.std_error, 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"depth-12 exact+MC took {elapsed:.1f} s"


def test_criterion_06_complementarity(impulse_batch):
    instances, _ = impulse_batch
    with criterion(6, "reflection increments satisfy the discrete Skorokhod condition"):
        for loaded, tree, result in instances:
            for field in result.fields[1:]:
                obs = [obstacle(result.fields[field.n - 1], loaded.impulse, k) for k in range(tree.depth + 1)]
                for k, (_, k_inc) in enumerate(field_terms(result, field.n, tree)):
                    y = field.values[k]
                    o = obs[k]
                    assert np.all(k_inc >= 0)
                    assert np.all(y >= o - COMPLEMENTARITY_TOL)
                    binding = k_inc > 0
                    assert np.all(np.abs(y[binding] - o[binding]) <= COMPLEMENTARITY_TOL)


def test_criterion_07_comparison_principle():
    with criterion(7, "h1 <= h2 pointwise implies Y(1) <= Y(2) on 5 paired instances"):
        for i in range(5):
            low_cfg, high_cfg = random_comparison_pair(600 + i, depth=3 + (i % 3))
            low_loaded, low_tree = build_problem(low_cfg)
            high_loaded, _ = build_problem(high_cfg)
            low = value_iteration(low_tree, low_loaded.impulse)
            high = value_iteration(low_tree, high_loaded.impulse)
            for n in range(min(len(low.fields), len(high.fields))):
                for a, b in zip(low.fields[n].values, high.fields[n].values):
                    assert np.all(a <= b + COMPARISON_TOL)


def test_criterion_08_pinned_deterministic_instance():
    with criterion(8, "pinned instance: Y0 = 0.7, single impulse at the root, stall at n = 2"):
        loaded, tree = build_problem(PINNED_CONFIG)
        result = value_iteration(tree, loaded.impulse, tol=1e-12)
        assert result.stalled and result.stall_index == 2
        assert result.y0 == pytest.approx(0.7, abs=1e-8)
        oracle_value, _ = enumerate_optimal(tree, loaded.impulse, 2)
        assert abs(result.y0 - oracle_value) <= ORACLE_TOL
        strategy = extract_strategy(result.fields, tree, loaded.impulse)
        assert strategy.decisions[(0, 0, state_key(0.0, 0))] == ("impulse", 1.0)
        assert strategy.impulse_decision_count == 1
        forward = evaluate_strategy_exact(tree, loaded.impulse, strategy)
        assert abs(forward.value - result.y0) <= FORWARD_TOL


def test_criterion_09_combined_control(combined_batch):
    instances, solve_elapsed = combined_batch
    start = time.perf_counter()
    with criterion(9, "combined control: driver dominance, Y^u <= Y*, pair consistency, degeneration"):
        rng = np.random.default_rng(900)
        for loaded, tree, spec, result in instances:
            # (a) pointwise driver dominance at sampled (node, z) points
            for _ in range(200):
                k = int(rng.integers(0, tree.depth))
                i = int(rng.integers(0, tree.level_size(k)))
                shift = float(result.states.shifts[int(rng.integers(0, len(result.states)))])
                z = float(rng.normal(scale=2.0))
                env = node_env(tree, k, i, shift)
                h_star, _ = hamiltonian_max(float(tree.times[k]), env, z, spec)
                for u in loaded.grid.controls:
                    assert h_star >= hamiltonian(float(tree.times[k]), env, z, u, spec) - 1e-12

            # (b) 10 random frozen control tables are dominated by Y*
            for _ in range(10):
                fixed = [
                    rng.integers(0, len(loaded.grid.controls), size=(tree.level_size(k), len(result.states)))
                    for k in range(tree.depth)
                ]
                controlled = combined_value_iteration(tree, loaded.impulse, spec, fixed_controls=fixed)
                for fa, fb in zip(controlled.fields, result.fields):
                    for a, b in zip(fa.values, fb.values):
                        assert np.all(a <= b + MONOTONE_TOL)

            # (c) the extracted pair reproduces Y*0 exactly
            strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=1e-12)
            forward = evaluate_pair(tree, loaded.impulse, spec, strategy, controls)
            assert abs(forward.value - result.y0) <= FORWARD_TOL

        # (d) f == 0 collapses combined mode to impulse mode field-by-field
        for i in range(2):
            config = random_impulse_config(950 + i, depth=4)
            config["process"] = {**config["process"], "drift": None}
            combined_config = {**config, "control": {"V": [-1.0, 1.0], "f": "0"}}
            loaded, tree = build_problem(combined_config)
            spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
            combined = combined_value_iteration(tree, loaded.impulse, spec)
            plain = value_iteration(tree, loaded.impulse)
            assert len(combined.fields) == len(plain.fields)
            for fc, fp in zip(combined.fields, plain.fields):
                for a, b in zip(fc.values, fp.values):
                    assert np.max(np.abs(a - b)) <= DEGENERATION_TOL
                for (zc, kc), (zp, kp) in zip(field_terms(combined, fc.n, tree), field_terms(plain, fp.n, tree)):
                    assert np.max(np.abs(zc - zp)) <= DEGENERATION_TOL
                    assert np.max(np.abs(kc - kp)) <= DEGENERATION_TOL

        elapsed = solve_elapsed + time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_10_girsanov_exactness(combined_batch):
    instances, _ = combined_batch
    with criterion(10, "leaf-weight mean = 1 within 1e-12; driver-vs-tilt identity <= 1e-10"):
        rng = np.random.default_rng(1000)
        for loaded, tree, spec, result in instances:
            for u in loaded.grid.controls:
                weights = girsanov_weights(tree, spec, uniform_controls(tree, u))
                assert np.all(weights > 0)
                assert abs(float(weights.mean()) - 1.0) <= GIRSANOV_MEAN_TOL

            # identity for the maximized driver and for frozen tables
            strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=1e-12)
            forward = evaluate_pair(tree, loaded.impulse, spec, strategy, controls)
            assert abs(forward.value - result.y0) <= FORWARD_TOL
            for _ in range(3):
                fixed = [
                    rng.integers(0, len(loaded.grid.controls), size=(tree.level_size(k), len(result.states)))
                    for k in range(tree.depth)
                ]
                controlled = combined_value_iteration(tree, loaded.impulse, spec, fixed_controls=fixed)
                s_u, c_u = extract_pair(controlled.fields, tree, loaded.impulse, spec, tol=1e-12)
                forward_u = evaluate_pair(tree, loaded.impulse, spec, s_u, c_u)
                assert abs(forward_u.value - controlled.y0) <= FORWARD_TOL


def test_criterion_11_snell_properties():
    with criterion(11, "Snell envelope properties on 20 random payoffs and 5 monotone chains"):
        rng = np.random.default_rng(1100)
        for _ in range(20):
            depth = int(rng.integers(2, 11))
            payoff = PayoffProcess.from_arrays(
                [rng.uniform(-1.0, 3.0, size=2**k) for k in range(depth + 1)]
            )
            result = snell_envelope(payoff, tol=1e-12)
            for k in range(depth + 1):
                assert np.all(result.envelope[k] >= payoff.values[k] - 1e-15)
                if k < depth:
                    cont = cond_expect(result.envelope[k + 1])
                    assert np.all(result.envelope[k] >= cont - 1e-15)
                    np.testing.assert_array_equal(
                        result.envelope[k], np.maximum(payoff.values[k], cont)
                    )
            assert abs(stopping_rule_value(payoff, result) - float(result.envelope[0][0])) <= 1e-12

        for chain_idx in range(5):
            depth = int(rng.integers(2, 7))
            target = PayoffProcess.from_arrays(
                [rng.uniform(0.0, 2.0, size=2**k) for k in range(depth + 1)]
            )
            gap = [rng.uniform(0.0, 1.0, size=2**k) for k in range(depth + 1)]
            limit = snell_envelope(target)
            previous = None
            for j in range(4):
                scale = 0.0 if j == 3 else 2.0 ** -(j + 1)
                payoff = PayoffProcess.from_arrays(
                    [target.values[k] - scale * gap[k] for k in range(depth + 1)]
                )
                result = snell_envelope(payoff)
                for k in range(depth + 1):
                    if previous is not None:
                        assert np.all(result.envelope[k] >= previous[k] - 1e-15)
                previous = result.envelope
            for k in range(depth + 1):
                np.testing.assert_array_equal(previous[k], limit.envelope[k])


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "repeated runs produce byte-identical reports"):
        # plain solve
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(random_impulse_config(1200, depth=5)), encoding="utf-8")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["solve", "--config", str(config_path), "--out", str(out)]) == 0
            outputs.append(out)
        for name in ("report.json", "strategy.csv", "values.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()

        # combined solve
        combined_path = tmp_path / "combined.json"
        combined_path.write_text(json.dumps(random_combined_config(1201, depth=4)), encoding="utf-8")
        outputs = []
        for name in ("ca", "cb"):
            out = tmp_path / name
            assert run(["solve-combined", "--config", str(combined_path), "--out", str(out)]) == 0
            outputs.append(out)
        for name in ("report.json", "strategy.csv", "values.csv", "controls.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()

        # seeded Monte Carlo evaluation
        outputs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run(
                [
                    "eval",
                    "--config",
                    str(config_path),
                    "--strategy",
                    str(tmp_path / "a" / "strategy.csv"),
                    "--mc-samples",
                    "1000",
                    "--seed",
                    "12",
                    "--out",
                    str(out),
                ]
            ) == 0
            outputs.append(out)
        assert (outputs[0] / "policy_value.json").read_bytes() == (outputs[1] / "policy_value.json").read_bytes()
