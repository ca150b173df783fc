"""Combined stochastic and impulse control: pointwise maximization of the
driver over a finite control grid, the driver-augmented reflected
recursion, and extraction of the optimal strategy/control pair."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .expr import CoefficientExpr, eval_expr
from .impulse import (
    DEFAULT_MAX_STATES,
    ImpulseModel,
    ValueIterationResult,
    SolverError,
    _extract_walk,
    _reflect_until_stall,
    _sweep,
    enumerate_states,
    impulse_budget,
)
from .model import DEFAULT_TOL, ControlGrid
from .strategy import Strategy
from .tree import ScenarioTree


@dataclass(frozen=True)
class HamiltonianSpec:
    """Everything the driver needs: the control grid with its drift
    functional, the volatility, and the (possibly control-dependent)
    reward.  The model audit must have passed (sigma positive, tilt bound)."""

    grid: ControlGrid
    sigma: CoefficientExpr
    reward: CoefficientExpr


def hamiltonian(t: float, env: dict, z: float, u: float, spec: HamiltonianSpec) -> float:
    """Driver value z * f(t,w,u)/sigma(t,w) + h(t,w,u) at one environment."""
    bound = {**env, "t": t, "u": u}
    sigma = eval_expr(spec.sigma, bound)
    drift = eval_expr(spec.grid.controlled_drift, bound)
    reward = eval_expr(spec.reward, bound)
    return z * drift / sigma + reward


def hamiltonian_max(t: float, env: dict, z: float, spec: HamiltonianSpec):
    """Exhaustive maximum of the driver over the control grid.

    Returns (best value, maximizer); ties pick the control with the
    smallest index in the declared grid order.
    """
    best_value = None
    best_u = None
    for u in spec.grid.controls:
        value = hamiltonian(t, env, z, u, spec)
        if best_value is None or value > best_value:
            best_value = value
            best_u = u
    return best_value, best_u


def driver_tables(tree: ScenarioTree, spec: HamiltonianSpec, states):
    """Per-level (n_controls, 2^k, n_states) arrays of the tilt
    theta = f/sigma and the reward, both on the state-shifted path, each
    evaluated per control over a level's stacked shifts.

    Raises SolverError if the tilt bound |theta|*sqrt(dt) < 1 fails anywhere
    (the audit should have rejected the model first).
    """
    thetas = []
    rewards = []
    n_controls = len(spec.grid.controls)
    shifts = [st.cumulative for st in states]
    for k in range(tree.depth):
        theta_k = np.empty((n_controls, tree.level_size(k), len(states)))
        reward_k = np.empty_like(theta_k)
        for cols in tree.shift_blocks(k, len(shifts)):
            env = tree.shifted_env(k, shifts[cols])
            sigma = np.asarray(eval_expr(spec.sigma, env))
            for c, u in enumerate(spec.grid.controls):
                env_u = {**env, "u": u}
                np.divide(eval_expr(spec.grid.controlled_drift, env_u), sigma, out=theta_k[c, :, cols])
                reward_k[c, :, cols] = eval_expr(spec.reward, env_u)
        if np.any(np.abs(theta_k) * tree.sqrt_dt >= 1):
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
    max_states: int = DEFAULT_MAX_STATES,
) -> ValueIterationResult:
    """The impulse value iteration with the driver h replaced by the
    maximized Hamiltonian: Z from the next level, then
    Y_k = max(E[Y_{k+1}] + H*(t_k, shifted path, Z_k)*dt, obstacle).

    ``fixed_controls`` (per-level (2^k, n_states) arrays of control-grid
    indices over the run's states, levels 0..depth-1) evaluates the
    recursion under a frozen control table instead of the pointwise
    maximum; the value fields then record that table.
    """
    if budget is None:
        budget = impulse_budget(model.reward_bound, model.cost_floor, tree.horizon)
    states = enumerate_states(model.impulses, budget, max_states)
    thetas, rewards = driver_tables(tree, spec, states)

    def driver(k, z):
        n_cols = z.shape[1]
        candidates = z[None, :, :] * thetas[k][:, :, :n_cols] + rewards[k][:, :, :n_cols]
        if fixed_controls is not None:
            u_idx = np.asarray(fixed_controls[k], dtype=np.int64)[:, :n_cols]
            return np.take_along_axis(candidates, u_idx[None, :, :], axis=0)[0], u_idx
        return candidates.max(axis=0), candidates.argmax(axis=0)

    def sweep(prev, domain):
        return _sweep(tree, model, domain, driver, prev)

    return _reflect_until_stall(states, budget, tol, sweep)


@dataclass(frozen=True, eq=False)
class ControlTable:
    """The control applied at each node, at its post-chain state:
    ``levels[k]`` holds one value per node of level k, for levels
    0..depth-1 (a uniform table maps every level to its one control)."""

    levels: "tuple[np.ndarray, ...]"
    grid_values: "tuple[float, ...]" = ()

    @classmethod
    def uniform(cls, u: float, grid_values=()) -> "ControlTable":
        return cls(levels=defaultdict(lambda: np.float64(u)), grid_values=tuple(grid_values))


def extract_pair(fields, tree: ScenarioTree, model: ImpulseModel, spec: HamiltonianSpec, tol: float = DEFAULT_TOL):
    """Extract (Strategy, ControlTable) from a combined field sequence.

    The strategy walk is identical to the pure-impulse extraction; at each
    node the control is the recorded driver argmax of the field with the
    walker's remaining budget, at the walker's post-chain state (the
    segment-wise reading of the optimal control).
    """
    chains, posts, top = _extract_walk(fields, tree, model, tol)
    grid = np.asarray(spec.grid.controls, dtype=float)
    levels = []
    for k, (s, m) in enumerate(posts):
        u_idx = np.empty(s.size, dtype=np.int64)
        for n in np.unique(m).tolist():
            nodes = np.flatnonzero(m == n)
            u_idx[nodes] = fields[n].controls[k][nodes, s[nodes]]
        levels.append(grid[u_idx])
    strategy = Strategy(chains=chains, impulses=model.impulses, iteration=top, tol=tol)
    return strategy, ControlTable(levels=tuple(levels), grid_values=spec.grid.controls)
