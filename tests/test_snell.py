import itertools

import numpy as np
import pytest

from impulsetree import (
    PayoffProcess,
    cond_expect,
    snell_envelope,
    stopping_rule_value,
)


def _random_payoff(rng, depth, low=-1.0, high=3.0):
    return PayoffProcess.from_arrays([rng.uniform(low, high, size=2**k) for k in range(depth + 1)])


def _enumerate_stopping_rules_value(payoff):
    """Independent optimal stopping oracle: brute force over all adapted
    stopping rules (stop/continue decision at every node, forced stop at
    the horizon).  Exponential; depths <= 3 only."""
    depth = payoff.depth

    def best_from(level, index):
        stop_value = float(payoff.values[level][index])
        if level == depth:
            return stop_value
        children = 0.5 * (best_from(level + 1, 2 * index) + best_from(level + 1, 2 * index + 1))
        return max(stop_value, children)

    # recursion above is the compact equivalent of enumerating rule tables;
    # spot-check it against literal enumeration at depth 2
    if depth == 2:
        candidates = []
        for decisions in itertools.product([0, 1], repeat=3):  # root, up, down
            stop_root, stop_up, stop_down = decisions
            if stop_root:
                candidates.append(float(payoff.values[0][0]))
                continue
            up = float(payoff.values[1][0]) if stop_up else 0.5 * (
                float(payoff.values[2][0]) + float(payoff.values[2][1])
            )
            down = float(payoff.values[1][1]) if stop_down else 0.5 * (
                float(payoff.values[2][2]) + float(payoff.values[2][3])
            )
            candidates.append(0.5 * (up + down))
        literal = max(candidates)
        assert literal == pytest.approx(best_from(0, 0), abs=1e-14)
    return best_from(0, 0)


def test_constant_payoff_stops_everywhere():
    payoff = PayoffProcess.from_arrays([np.ones(2**k) for k in range(4)])
    result = snell_envelope(payoff)
    for k in range(4):
        np.testing.assert_array_equal(result.envelope[k], 1.0)
        assert result.stop_region[k].all()
        np.testing.assert_array_equal(result.first_optimal_stop[k], k)


def test_supermartingale_payoff_stops_immediately():
    # deterministic decreasing payoff 1 - t_k is its own envelope
    depth = 5
    payoff = PayoffProcess.from_arrays([np.full(2**k, 1.0 - k / depth) for k in range(depth + 1)])
    result = snell_envelope(payoff)
    for k in range(depth + 1):
        np.testing.assert_array_equal(result.envelope[k], payoff.values[k])
        assert result.stop_region[k].all()


def test_depth_two_example_against_enumeration():
    payoff = PayoffProcess.from_arrays(
        [np.array([0.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0, 3.0, 0.0])]
    )
    result = snell_envelope(payoff)
    assert result.envelope[1][0] == 1.0
    assert result.envelope[1][1] == 1.5
    assert result.envelope[0][0] == 1.25
    assert _enumerate_stopping_rules_value(payoff) == pytest.approx(1.25, abs=1e-14)


def test_envelope_equals_enumeration_on_random_small_trees():
    rng = np.random.default_rng(21)
    for _ in range(20):
        payoff = _random_payoff(rng, 3)
        result = snell_envelope(payoff)
        assert float(result.envelope[0][0]) == pytest.approx(
            _enumerate_stopping_rules_value(payoff), abs=1e-12
        )


def test_envelope_properties_on_random_payoffs():
    rng = np.random.default_rng(5)
    for trial in range(10):
        depth = int(rng.integers(2, 9))
        payoff = _random_payoff(rng, depth)
        result = snell_envelope(payoff)
        for k in range(depth + 1):
            # domination
            assert np.all(result.envelope[k] >= payoff.values[k] - 1e-15)
            if k < depth:
                cont = cond_expect(result.envelope[k + 1])
                # supermartingale property
                assert np.all(result.envelope[k] >= cont - 1e-15)
                # pointwise Bellman minimality
                np.testing.assert_array_equal(
                    result.envelope[k], np.maximum(payoff.values[k], cont)
                )
        # terminal equality
        np.testing.assert_array_equal(result.envelope[depth], payoff.values[depth])
        # the debut rule achieves the envelope value
        assert stopping_rule_value(payoff, result) == pytest.approx(
            float(result.envelope[0][0]), abs=1e-12
        )


def test_monotone_limit_property():
    # increasing payoff chains X_j: envelopes increase pointwise, are
    # |X - X_j|-close to the limit envelope, and match it exactly at the top
    rng = np.random.default_rng(17)
    depth = 5
    target = _random_payoff(rng, depth, low=0.0, high=2.0)
    gap = PayoffProcess.from_arrays([rng.uniform(0.0, 1.0, size=2**k) for k in range(depth + 1)])
    limit = snell_envelope(target)

    chain = []
    for j in range(5):
        scale = 0.0 if j == 4 else 2.0 ** -(j + 1)
        chain.append(
            PayoffProcess.from_arrays(
                [target.values[k] - scale * gap.values[k] for k in range(depth + 1)]
            )
        )

    previous = None
    for j, payoff in enumerate(chain):
        result = snell_envelope(payoff)
        sup_gap = max(
            float(np.max(np.abs(target.values[k] - payoff.values[k]))) for k in range(depth + 1)
        )
        for k in range(depth + 1):
            if previous is not None:
                assert np.all(result.envelope[k] >= previous[k] - 1e-15)
            assert np.max(np.abs(result.envelope[k] - limit.envelope[k])) <= sup_gap + 1e-15
        previous = result.envelope
    for k in range(depth + 1):
        np.testing.assert_array_equal(previous[k], limit.envelope[k])


def test_first_optimal_stop_is_path_debut():
    payoff = PayoffProcess.from_arrays(
        [np.array([0.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0, 3.0, 0.0])]
    )
    result = snell_envelope(payoff)
    assert result.first_optimal_stop[0][0] == 1  # earliest reachable stop
    assert result.first_optimal_stop[1][0] == 1  # up node stops immediately
    assert result.first_optimal_stop[1][1] == 2  # down node continues to the leaves


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError, match="must have"):
        PayoffProcess.from_arrays([np.array([0.0]), np.array([1.0])])
    with pytest.raises(ValueError, match="non-finite"):
        PayoffProcess.from_arrays([np.array([np.nan])])
