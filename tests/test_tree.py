import dataclasses

import numpy as np
import pytest

import impulsetree.tree
from impulsetree import (
    LimitError,
    ProcessModel,
    build_tree,
    cond_expect,
    eval_expr,
    parse_expr,
    z_repr,
)

from conftest import dump_level_rows


def _process(sigma, drift=None, x0=0.0, horizon=1.0):
    return ProcessModel(
        x0=x0,
        horizon=horizon,
        sigma=parse_expr(sigma),
        drift=None if drift is None else parse_expr(drift),
    )


def _sign_path(level, index):
    """Increment signs leading to node (level, index): +1 for up (0 bit)."""
    signs = []
    for k in range(level - 1, -1, -1):
        signs.append(-1 if (index >> k) & 1 else 1)
    return signs


def _recompute_node(process, depth, level, index):
    """Independent scalar recomputation of one node's caches by following
    its sign path and re-evaluating the coefficients step by step."""
    dt = process.horizon / depth
    sqrt_dt = dt**0.5
    x = process.x0
    samples = [x]
    for step, sign in enumerate(_sign_path(level, index)):
        env = {
            "t": step * dt,
            "x": x,
            "xmax": max(samples),
            "xmin": min(samples),
            "xavg": sum(samples) / len(samples),
        }
        sigma = eval_expr(process.sigma, env)
        drift = eval_expr(process.drift, env) if process.drift is not None else 0.0
        x = x + drift * dt + sigma * sign * sqrt_dt
        samples.append(x)
    return {
        "L": x,
        "xmax": max(samples),
        "xmin": min(samples),
        "xavg": sum(samples) / len(samples),
    }


def test_single_step_leaves():
    tree = build_tree(_process("1"), 1)
    np.testing.assert_allclose(tree.state[1], [1.0, -1.0])


def test_near_deterministic_path():
    tree = build_tree(_process("0.000001", x0=5.0), 3)
    bound = 1e-6 * tree.sqrt_dt * 3
    for level in range(4):
        assert np.all(np.abs(tree.state[level] - 5.0) <= bound)


def test_path_dependent_sigma_matches_hand_unrolled_recursion():
    # sigma = 1 + 0.5*xmax, two steps: checked against an independent
    # recomputation over all four sign paths
    process = _process("1 + 0.5*xmax")
    tree = build_tree(process, 2)
    for index in range(4):
        expected = _recompute_node(process, 2, 2, index)
        assert tree.state[2][index] == pytest.approx(expected["L"], abs=1e-14)
        assert tree.running_max[2][index] == pytest.approx(expected["xmax"], abs=1e-14)
        assert tree.running_min[2][index] == pytest.approx(expected["xmin"], abs=1e-14)
        assert tree.running_avg[2][index] == pytest.approx(expected["xavg"], abs=1e-14)


def test_caches_match_brute_force_recomputation_exhaustively():
    process = _process("0.8 + 0.2*clamp(abs(x), 0, 2)", drift="0.1", x0=0.25, horizon=2.0)
    depth = 10
    tree = build_tree(process, depth)
    for level in range(depth + 1):
        for index in range(2**level):
            expected = _recompute_node(process, depth, level, int(index))
            assert tree.state[level][index] == pytest.approx(expected["L"], rel=1e-12, abs=1e-13)
            assert tree.running_max[level][index] == pytest.approx(expected["xmax"], rel=1e-12, abs=1e-13)
            assert tree.running_min[level][index] == pytest.approx(expected["xmin"], rel=1e-12, abs=1e-13)
            assert tree.running_avg[level][index] == pytest.approx(expected["xavg"], rel=1e-12, abs=1e-13)


def test_build_is_deterministic_and_bit_identical():
    process = _process("1 + 0.3*abs(xavg)", drift="-0.05", x0=0.1)
    first = build_tree(process, 6)
    second = build_tree(process, 6)
    for k in range(7):
        assert np.array_equal(first.state[k], second.state[k])
        assert np.array_equal(first.running_max[k], second.running_max[k])
        assert np.array_equal(first.running_avg[k], second.running_avg[k])


def test_arrays_are_read_only():
    tree = build_tree(_process("1"), 2)
    with pytest.raises(ValueError):
        tree.state[1][0] = 99.0


def test_a_tree_holds_only_the_path_features():
    """Four arrays of 2^(d+1) - 1 nodes (state, running max, min and
    average) and the times: nothing the recursion does not read."""
    depth = 6
    tree = build_tree(_process("1"), depth)
    held = 0
    for field in dataclasses.fields(tree):
        value = getattr(tree, field.name)
        held += sum(a.nbytes for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray))
    assert held == 4 * (2 ** (depth + 1) - 1) * 8 + tree.times.nbytes


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 100, 127, 128])
def test_depth_and_size_limits(monkeypatch, limit):
    with pytest.raises(ValueError):
        build_tree(_process("1"), 0)
    monkeypatch.setattr(impulsetree.tree, "DEFAULT_MAX_NODES", limit)
    deepest = max((d for d in range(1, 8) if 2 ** (d + 1) - 1 <= limit), default=0)
    if deepest:
        assert build_tree(_process("1"), deepest).node_count == 2 ** (deepest + 1) - 1
    message = f"tree with depth {deepest + 1} needs {2 ** (deepest + 2) - 1} nodes, over the limit of {limit}"
    with pytest.raises(LimitError, match=message):
        build_tree(_process("1"), deepest + 1)


def test_cond_expect_examples():
    assert cond_expect(np.array([2.0, 4.0]))[0] == 3.0
    assert cond_expect(np.array([7.0, 7.0]))[0] == 7.0


def test_cond_expect_tower_property():
    leaves = np.array([1.0, 2.0, 3.0, 4.0])
    assert cond_expect(cond_expect(leaves))[0] == leaves.mean()


def test_z_repr_examples():
    assert z_repr(np.array([2.0, 4.0]), 0.25)[0] == -2.0
    assert z_repr(np.array([5.5, 5.5]), 0.1)[0] == 0.0


def test_z_repr_of_noise_is_one():
    """With no drift, sigma = 1 and x0 = 0 the state is the driving path,
    whose representation coefficient is 1 at every node."""
    tree = build_tree(_process("1"), 4)
    for k in range(4):
        np.testing.assert_allclose(z_repr(tree.state[k + 1], tree.dt), np.ones(2**k), rtol=1e-14)


def test_martingale_reconstruction_identity():
    tree = build_tree(_process("1.2"), 5)
    rng = np.random.default_rng(3)
    values = rng.normal(size=2**5)
    for k in range(4, -1, -1):
        parent = cond_expect(values)
        z = z_repr(values, tree.dt)
        rebuilt_up = parent + z * tree.sqrt_dt
        rebuilt_down = parent - z * tree.sqrt_dt
        np.testing.assert_allclose(rebuilt_up, values[0::2], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(rebuilt_down, values[1::2], rtol=1e-12, atol=1e-15)
        values = parent


def test_operators_reject_bad_input():
    with pytest.raises(ValueError, match="even"):
        cond_expect(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        cond_expect(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        z_repr(np.array([np.inf, 0.0]), 0.5)
    with pytest.raises(ValueError, match="dt"):
        z_repr(np.array([1.0, 2.0]), 0.0)


def test_env_shift_moves_all_path_features():
    tree = build_tree(_process("1", x0=0.5), 3)
    base = tree.env(2)
    shifted = tree.env(2, shift=0.75)
    np.testing.assert_allclose(shifted["x"], base["x"] + 0.75)
    np.testing.assert_allclose(shifted["xmax"], base["xmax"] + 0.75)
    np.testing.assert_allclose(shifted["xmin"], base["xmin"] + 0.75)
    np.testing.assert_allclose(shifted["xavg"], base["xavg"] + 0.75)
    assert shifted["t"] == base["t"]


def test_dump_level_rows():
    tree = build_tree(_process("1"), 2)
    rows = list(dump_level_rows(tree, 1))
    assert len(rows) == 2
    level, index, t, state, xmax, xmin, xavg = rows[0]
    assert (level, index) == (1, 0)
    assert t == tree.dt
    assert state == pytest.approx(tree.sqrt_dt)
    with pytest.raises(ValueError):
        list(dump_level_rows(tree, 5))
