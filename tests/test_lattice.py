"""An independent reference for the value iteration at depths the
enumeration oracle cannot reach: recombining lattices.

With a constant sigma and no drift, x = x0 + sigma*sqrt(dt)*(k - 2d) after
k steps with d down-steps.  If the coefficients read only ``t``, ``x``
(and ``u``), Y^n at tree node (k, i) depends only on k, d and the
cumulative shift (the Markovian lattice: node d has children d (up) and
d + 1 (down)).  If they also read ``xmax``, the lattice node carries the
running max M of the walk k - 2d as well (Hull and White 1993): node
(d, M) has children (d, max(M, k + 1 - 2d)) and (d + 1, M), and
xmax = x0 + sigma*sqrt(dt)*M.  The lattice runs the same reflected
recursion on one (nodes, S) array per level, with its own features, its
own shift list and successors; it never calls the tree's environment
builder, the solver's state enumeration or its obstacle, so it checks the
uniform-path shift of ``x`` and ``xmax`` independently.

The deep checks (depths 16 and 18) live in ``lattice_deep.py``, which the default
test run does not collect:

    PYTHONPATH=src python -m pytest tests/lattice_deep.py
"""

import math

import numpy as np
import pytest

from impulsetree import HamiltonianSpec, build_tree, combined_value_iteration, eval_expr, load_config, value_iteration

AGREEMENT_TOL = 1e-12

# The impulses and reward of the benchmark's baseline config, with sigma
# constant so the tree recombines.
BASELINE = {
    "process": {"x0": 0.0, "T": 1.0, "sigma": "0.3", "drift": None},
    "impulse": {
        "U": [0.5, -0.5, 1.0],
        "psi": {"0.5": 0.1, "-0.5": 0.1, "1.0": 0.15},
        "c": 0.1,
        "gamma": 0.5,
        "h": "clamp(0.5 - abs(x - 0.2), 0, 0.5)",
    },
    "control": None,
    "numerics": {"depth": 12, "tol": 1e-12, "budget": None},
}
GRID_9 = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]


def combined_config(depth: int, grid) -> dict:
    """BASELINE in combined mode: the control steers the drift (f = u) and
    adds to the reward; T = 0.9 keeps |u/sigma|*sqrt(dt) below 1."""
    return {
        "process": {**BASELINE["process"], "T": 0.9},
        "impulse": {**BASELINE["impulse"], "h": "clamp(0.5 - abs(x - 0.2) + 0.05*u, 0, 0.5)"},
        "control": {"V": list(grid), "f": "u"},
        "numerics": {**BASELINE["numerics"], "depth": depth},
    }


# BASELINE with a reward that also reads the running max, and its combined
# counterpart on a 5-point grid.
RUNNING_MAX = {
    **BASELINE,
    "impulse": {**BASELINE["impulse"], "h": "clamp(0.5 - abs(x - 0.2) - 0.3*abs(xmax - 0.45), 0, 0.5)"},
}
GRID_5 = [-1.0, -0.5, 0.0, 0.5, 1.0]


def running_max_combined_config(depth: int, grid) -> dict:
    config = combined_config(depth, grid)
    h = "clamp(0.5 - abs(x - 0.2) - 0.3*abs(xmax - 0.45) + 0.05*u, 0, 0.5)"
    return {**config, "impulse": {**config["impulse"], "h": h}}


def markov_lattice(x0: float, step: float, depth: int):
    """Per level k: the features of nodes d = 0..k and each node's up and
    down child in level k + 1."""
    levels = []
    for k in range(depth + 1):
        d = np.arange(k + 1)
        levels.append(({"x": x0 + step * (k - 2 * d)}, d, d + 1))
    return levels


def running_max_lattice(x0: float, step: float, depth: int):
    """As markov_lattice, on the reachable nodes (d, M): the walk k - 2d
    with running max M needs max(0, k - 2d) <= M <= k - d."""
    nodes = [[(d, m) for d in range(k + 1) for m in range(max(0, k - 2 * d), k - d + 1)] for k in range(depth + 2)]
    levels = []
    for k in range(depth + 1):
        index = {node: j for j, node in enumerate(nodes[k + 1])}
        up = [index[d, max(m, k + 1 - 2 * d)] for d, m in nodes[k]]
        down = [index[d + 1, m] for d, m in nodes[k]]
        d, m = np.array(nodes[k]).T
        levels.append(({"x": x0 + step * (k - 2 * d), "xmax": x0 + step * m}, np.array(up), np.array(down)))
    return levels


def _shift(value: float) -> float:
    return round(value, 12) + 0.0


def lattice_iteration(loaded, depth: int, lattice=markov_lattice):
    """The fields Y^0, Y^1, ... of the reflected recursion on the levels
    ``lattice`` builds, each as ({shift: column}, per-level (nodes, S)
    arrays), the sup increments and the lattice levels.  It stops as the
    solver does: when the sup-norm of Y^n - Y^{n-1} over Y^n's (node,
    shift) pairs is at most tol, or at the impulse budget."""
    process, impulse, grid = loaded.process, loaded.impulse, loaded.grid
    sigma = float(eval_expr(process.sigma, {"t": 0.0, "x": 0.0}))
    dt = process.horizon / depth
    sqrt_dt = math.sqrt(dt)
    nodes = lattice(process.x0, sigma * sqrt_dt, depth)
    tol = loaded.numerics.tol
    budget = math.ceil(impulse.reward_bound * process.horizon / impulse.cost_floor - 1e-12)

    # fewest impulses reaching each shift, breadth first
    fewest = {0.0: 0}
    frontier = [0.0]
    for count in range(1, budget + 1):
        reached = [_shift(s + beta) for s in frontier for beta in impulse.impulses]
        frontier = [s for s in dict.fromkeys(reached) if s not in fewest]
        fewest.update((s, count) for s in frontier)

    controls = grid.controls if grid is not None else (None,)
    psi = np.array([impulse.costs[beta] for beta in impulse.impulses])
    fields, sups = [], []
    prev = None  # Y^{n-1}
    for n in range(budget + 1):
        shifts = sorted(s for s, count in fewest.items() if count <= budget - n)
        levels = [None] * (depth + 1)
        levels[depth] = np.zeros((len(nodes[depth][1]), len(shifts)))
        if prev is not None:
            succ = np.array([[prev[0][_shift(s + beta)] for beta in impulse.impulses] for s in shifts])
        for k in range(depth - 1, -1, -1):
            features, up, down = nodes[k]
            up, down = levels[k + 1][up], levels[k + 1][down]
            env = {"t": k * dt, **{name: v[:, None] + np.array(shifts)[None, :] for name, v in features.items()}}
            z = (up - down) / (2.0 * sqrt_dt)
            candidates = []
            for u in controls:
                env_u = env if u is None else {**env, "u": u}
                h = np.broadcast_to(eval_expr(impulse.reward, env_u), z.shape)
                if u is None:
                    candidates.append(h)
                else:
                    candidates.append(z * (eval_expr(grid.controlled_drift, env_u) / sigma) + h)
            value = 0.5 * (up + down) + np.max(candidates, axis=0) * dt
            if prev is not None:
                obstacle = (prev[1][k][:, succ] - psi).max(axis=2)
                value = np.maximum(value, obstacle)
            levels[k] = value
        fields.append(({s: j for j, s in enumerate(shifts)}, levels))
        if prev is not None:
            cols = [prev[0][s] for s in shifts]
            sups.append(max(float(np.max(np.abs(a - b[:, cols]))) for a, b in zip(levels, prev[1])))
            if sups[-1] <= tol:
                break
        prev = fields[-1]
    return fields, sups, nodes


def check_against_lattice(config: dict, lattice=markov_lattice):
    """Solve ``config`` on the tree and on the lattice: the same fields over
    the same shifts, Y^n at every node of the tree equal to Y^n at its
    lattice node, and the same sup increments."""
    loaded = load_config(config)
    depth = loaded.numerics.depth
    tree = build_tree(loaded.process, depth)
    if loaded.grid is None:
        result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
    else:
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        result = combined_value_iteration(tree, loaded.impulse, spec, tol=loaded.numerics.tol)
    fields, sups, nodes = lattice_iteration(loaded, depth, lattice)
    assert len(result.fields) == len(fields) > 2  # some impulses pay off
    np.testing.assert_allclose(result.sup_increments, sups, rtol=0, atol=AGREEMENT_TOL)
    for field, (columns, levels) in zip(result.fields, fields):
        shifts = field.states.shifts.tolist()
        assert sorted(shifts) == sorted(columns)
        cols = [columns[s] for s in shifts]
        at = np.zeros(1, dtype=np.int64)  # each tree node's lattice node; node 2i is i's up child, 2i + 1 its down
        for k, values in enumerate(field.values):
            np.testing.assert_allclose(values, levels[k][at][:, cols], rtol=0, atol=AGREEMENT_TOL)
            at = np.stack([nodes[k][1][at], nodes[k][2][at]], axis=1).ravel()
    assert result.per_iteration_y0[-1] > result.per_iteration_y0[0]


def test_impulse_tree_matches_the_lattice_at_depth_12():
    check_against_lattice(BASELINE)


def test_combined_tree_matches_the_lattice_at_depth_12():
    check_against_lattice(combined_config(12, GRID_9))


@pytest.mark.parametrize("x0", [-0.4, 0.35])
def test_impulse_tree_matches_the_lattice_off_centre(x0):
    check_against_lattice({**BASELINE, "process": {**BASELINE["process"], "x0": x0}, "numerics": {"depth": 10}})


def test_impulse_tree_matches_the_running_max_lattice_at_depth_12():
    check_against_lattice(RUNNING_MAX, running_max_lattice)


def test_combined_tree_matches_the_running_max_lattice_at_depth_12():
    check_against_lattice(running_max_combined_config(12, GRID_5), running_max_lattice)
