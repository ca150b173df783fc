"""Combined stochastic and impulse control: pointwise maximization of the
driver over a finite control grid, the driver-augmented reflected
recursion, and extraction of the optimal strategy/control pair."""

import numpy as np

from .expr import CoefficientExpr
from .impulse import ImpulseModel, SolverError, StateSpace, ValueIterationResult, _extract_walk, _iterate
from .model import DEFAULT_TOL, ControlGrid
from .record import record
from .tree import ScenarioTree, _z


@record
class HamiltonianSpec:
    """Everything the driver needs: the control grid with its drift
    functional, the volatility, and the (possibly control-dependent)
    reward.  The model audit must have passed (sigma positive, tilt bound)."""

    grid: ControlGrid
    sigma: CoefficientExpr
    reward: CoefficientExpr


def driver_tables(tree: ScenarioTree, spec: HamiltonianSpec, states: StateSpace, k: int, cols, u):
    """Level k's (theta = f/sigma, reward) under the shifts of the block
    ``cols`` of ``states``, at ``u``: one control per cell, or the grid
    broadcast as (C, 1, 1).

    Raises SolverError naming level k where the tilt bound
    |theta|*sqrt(dt) < 1 fails in the block, 0/0 included (the audit
    should have rejected the model first).
    """
    coefficients = (spec.sigma, spec.grid.controlled_drift, spec.reward)
    _, theta, reward = tree.coefficients(k, states.shifts[None, cols], u, *coefficients)
    if not np.abs(theta).max() * tree.sqrt_dt < 1:  # the bound at every cell; nan fails it
        raise SolverError(f"tilt bound |f/sigma|*sqrt(dt) < 1 violated at level {k}")
    return theta, reward


def _by_control(a):
    """A coefficient over (controls, nodes, shifts); one without a control axis stands for every control."""
    return np.reshape(a, (1,) * (3 - np.ndim(a)) + np.shape(a))


def _hamiltonian_drive(tree: ScenarioTree, spec: HamiltonianSpec):
    """The combined driver, the maximized Hamiltonian H*(t_k, shifted path,
    Z_k) over the grid: level k's drivers and maximizing control-grid
    indices on ``states``, whose column prefixes the fields read; the
    Hamiltonian at the indices ``u_idx`` instead, when given.

    Theta and the reward live for one (level, block of shifts, counting
    the grid's controls), and each field reads its part of the block.  The
    maximum is a running one per field (Z differs between fields) over the
    controls; a strict > keeps the first maximizer, as argmax does, and
    np.maximum keeps the bits of the max."""
    grid = np.asarray(spec.grid.controls, dtype=float)
    broadcast = grid[:, None, None]  # every control, against (nodes, shifts)
    dtype = np.min_scalar_type(-grid.size)  # the smallest signed dtype holding a grid index

    def drive(k, y_nexts, states, u_idx=None):
        at = None if u_idx is None else np.asarray(u_idx).astype(dtype, order="F")
        drvs = [np.empty((tree.level_size(k), y.shape[1]), order="F") for y in y_nexts]
        ats = [np.zeros(d.shape, dtype, order="F") if at is None else at[:, : d.shape[1]] for d in drvs]
        for cols in tree.shift_blocks(k, len(states), grid.size if at is None else 1):
            tables = driver_tables(tree, spec, states, k, cols, broadcast if at is None else grid[at[:, cols]])
            theta, reward = np.broadcast_arrays(*map(_by_control, tables))
            for y, drv, at_n in zip(y_nexts, drvs, ats):  # the widest field first; each takes its part of the block
                part = slice(cols.start, min(cols.stop, y.shape[1]))
                if part.start >= part.stop:
                    break
                z, best, width = _z(y[:, part], tree.dt), drv[:, part], part.stop - part.start
                cand, better = np.empty_like(z), np.empty(z.shape, bool)
                for c in range(theta.shape[0]):  # candidate c is z*theta + reward at control c
                    np.add(np.multiply(z, theta[c][:, :width], out=cand), reward[c][:, :width], out=cand if c else best)
                    if c:
                        np.copyto(at_n[:, part], c, where=np.greater(cand, best, out=better))
                        np.maximum(best, cand, out=best)
        return drvs, ats

    return drive


def combined_value_iteration(
    tree: ScenarioTree,
    model: ImpulseModel,
    spec: HamiltonianSpec,
    tol: float = DEFAULT_TOL,
    budget: "int | None" = None,
) -> ValueIterationResult:
    """The impulse value iteration with the driver h replaced by the maximized
    Hamiltonian: Y_k = max(E[Y_{k+1}] + H*(t_k, shifted path, Z_k)*dt, obstacle),
    Z_k as in field_terms; the fields record each (node, state)'s maximizing control."""
    return _iterate(tree, model, tol, budget, _hamiltonian_drive(tree, spec))


def extract_pair(fields, tree: ScenarioTree, model: ImpulseModel, spec: HamiltonianSpec, tol: float = DEFAULT_TOL):
    """Extract (strategy, controls) from a combined field sequence:
    ``controls[k]`` holds the control applied at each node of level k, at
    its post-chain state, for levels 0..depth-1, laid out like
    Strategy.chains.

    The strategy walk is identical to the pure-impulse extraction; at each
    node the control is the recorded driver argmax of the field with the
    walker's remaining budget, at the walker's post-chain state (the
    segment-wise reading of the optimal control).  Reads only the fields'
    values and control indices.
    """
    strategy, posts = _extract_walk(fields, model, tree.depth, tol)
    grid = np.asarray(spec.grid.controls, dtype=float)
    levels = []
    for k, (s, m) in enumerate(posts):
        u_idx = np.empty(s.size, dtype=np.int64)
        for n in sorted(set(m.tolist())):
            nodes = np.flatnonzero(m == n)
            u_idx[nodes] = fields[n].controls[k][nodes, s[nodes]]
        levels.append(grid[u_idx])
    return strategy, tuple(levels)
