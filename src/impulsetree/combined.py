"""Combined stochastic and impulse control: pointwise maximization of the
driver over a finite control grid, the driver-augmented reflected
recursion, and extraction of the optimal strategy/control pair."""

from dataclasses import dataclass

import numpy as np

from .expr import CoefficientExpr, eval_expr
from .impulse import (
    ImpulseModel,
    StateSpace,
    ValueIterationResult,
    SolverError,
    _extract_walk,
    _reflect_until_stall,
    enumerate_states,
    impulse_budget,
)
from .model import DEFAULT_TOL, ControlGrid
from .strategy import Strategy
from .tree import ScenarioTree, z_repr


@dataclass(frozen=True)
class HamiltonianSpec:
    """Everything the driver needs: the control grid with its drift
    functional, the volatility, and the (possibly control-dependent)
    reward.  The model audit must have passed (sigma positive, tilt bound)."""

    grid: ControlGrid
    sigma: CoefficientExpr
    reward: CoefficientExpr


def driver_tables(tree: ScenarioTree, spec: HamiltonianSpec, states: StateSpace):
    """Per-level (n_controls, 2^k, len(states)) arrays of the tilt
    theta = f/sigma and the reward, both on the state-shifted path, each
    evaluated per control over a level's stacked shifts.

    Raises SolverError if the tilt bound |theta|*sqrt(dt) < 1 fails anywhere,
    0/0 included (the audit should have rejected the model first).
    """
    thetas = []
    rewards = []
    n_controls = len(spec.grid.controls)
    for k in range(tree.depth):
        theta_k = np.empty((n_controls, tree.level_size(k), len(states)))
        reward_k = np.empty_like(theta_k)
        for cols in tree.shift_blocks(k, len(states)):
            env = tree.env(k, states.shifts[None, cols])
            sigma = np.asarray(eval_expr(spec.sigma, env))
            for c, u in enumerate(spec.grid.controls):
                env_u = {**env, "u": u}
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(eval_expr(spec.grid.controlled_drift, env_u), sigma, out=theta_k[c, :, cols])
                reward_k[c, :, cols] = eval_expr(spec.reward, env_u)
        if not (np.abs(theta_k) * tree.sqrt_dt < 1).all():
            raise SolverError(f"tilt bound |f/sigma|*sqrt(dt) < 1 violated at level {k}")
        thetas.append(theta_k)
        rewards.append(reward_k)
    return thetas, rewards


def combined_value_iteration(
    tree: ScenarioTree,
    model: ImpulseModel,
    spec: HamiltonianSpec,
    tol: float = DEFAULT_TOL,
    budget: "int | None" = None,
    *,
    fixed_controls=None,
) -> ValueIterationResult:
    """The impulse value iteration with the driver h replaced by the
    maximized Hamiltonian: Z_k = z_repr(Y_{k+1}), then
    Y_k = max(E[Y_{k+1}] + H*(t_k, shifted path, Z_k)*dt, obstacle).

    ``fixed_controls`` (per-level (2^k, n_states) arrays of control-grid
    indices over the run's states, levels 0..depth-1) evaluates the
    recursion under a frozen control table instead of the pointwise
    maximum; the value fields then record that table.
    """
    if budget is None:
        budget = impulse_budget(model.reward_bound, model.cost_floor, tree.horizon)
    states = enumerate_states(model.impulses, budget)
    thetas, rewards = driver_tables(tree, spec, states)
    dtype = np.min_scalar_type(-len(spec.grid.controls))  # the smallest signed dtype holding a grid index

    def driver(k, y_next, u_idx=None):  # at u_idx, else at fixed_controls, else maximized over the grid
        z = z_repr(y_next, tree.dt)
        theta, reward = thetas[k][:, :, : z.shape[1]], rewards[k][:, :, : z.shape[1]]
        if u_idx is None and fixed_controls is not None:
            u_idx = fixed_controls[k][:, : z.shape[1]]
        if u_idx is not None:
            at = np.asarray(u_idx, dtype=np.int64)[None]
            gathered = z * np.take_along_axis(theta, at, axis=0)[0] + np.take_along_axis(reward, at, axis=0)[0]
            return gathered, at[0].astype(dtype)
        candidates = z[None, :, :] * theta + reward
        return candidates.max(axis=0), candidates.argmax(axis=0).astype(dtype)

    return _reflect_until_stall(tree, model, states, tol, driver)


@dataclass(frozen=True, eq=False)
class ControlTable:
    """The control applied at each node, at its post-chain state:
    ``levels[k]`` holds one value per node of level k, for levels
    0..depth-1."""

    levels: "tuple[np.ndarray, ...]"


def extract_pair(fields, tree: ScenarioTree, model: ImpulseModel, spec: HamiltonianSpec, tol: float = DEFAULT_TOL):
    """Extract (Strategy, ControlTable) from a combined field sequence.

    The strategy walk is identical to the pure-impulse extraction; at each
    node the control is the recorded driver argmax of the field with the
    walker's remaining budget, at the walker's post-chain state (the
    segment-wise reading of the optimal control).  Reads only the fields'
    values and control indices.
    """
    chains, posts, top = _extract_walk(fields, model, tree.depth, tol)
    grid = np.asarray(spec.grid.controls, dtype=float)
    levels = []
    for k, (s, m) in enumerate(posts):
        u_idx = np.empty(s.size, dtype=np.int64)
        for n in sorted(set(m.tolist())):
            nodes = np.flatnonzero(m == n)
            u_idx[nodes] = fields[n].controls[k][nodes, s[nodes]]
        levels.append(grid[u_idx])
    strategy = Strategy(chains=chains, impulses=model.impulses, iteration=top, tol=tol)
    return strategy, ControlTable(levels=tuple(levels))
