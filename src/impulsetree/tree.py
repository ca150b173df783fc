"""Exact binary scenario tree for the driving noise and the uncontrolled
state process, plus the two backward operators every solver uses."""

import math
from dataclasses import dataclass

import numpy as np

from .expr import eval_expr
from .model import LimitError, ProcessModel

DEFAULT_MAX_NODES = 2**22
# The most (node, shift) cells one stacked environment holds, 64 KB per
# array; a wider level is evaluated a block of shifts at a time.  Larger
# stacks leave the CPU caches: stacking whole levels at depth 18 made the
# audit 2.5x slower and raised its peak RSS by 250 MB (2-CPU host).
STACK_CELLS = 2**13


@dataclass(frozen=True)
class NodeRef:
    """Node (level k, index i); children are (k+1, 2i) [up] and (k+1, 2i+1) [down]."""

    level: int
    index: int

    def up(self) -> "NodeRef":
        return NodeRef(self.level + 1, 2 * self.index)

    def down(self) -> "NodeRef":
        return NodeRef(self.level + 1, 2 * self.index + 1)

    def parent(self) -> "NodeRef":
        if self.level == 0:
            raise ValueError("root has no parent")
        return NodeRef(self.level - 1, self.index // 2)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Full binary tree of +-sqrt(dt) noise increments with per-node caches
    of the state value and its running max / min / average.

    Level k holds 2^k nodes; node (k, i) is identified by the sign sequence
    given by the binary digits of i (0 bit = up).  All arrays are read-only.
    """

    depth: int
    dt: float
    sqrt_dt: float
    times: np.ndarray
    state: "tuple[np.ndarray, ...]"  # L values per level
    running_max: "tuple[np.ndarray, ...]"
    running_min: "tuple[np.ndarray, ...]"
    running_avg: "tuple[np.ndarray, ...]"
    noise: "tuple[np.ndarray, ...]"  # cumulative Brownian value per level

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def node_count(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def level_size(self, level: int) -> int:
        return 2**level

    def env(self, level: int, shift=0.0, control=None) -> dict:
        """Expression environment at every node of a level.

        ``shift`` (scalar or per-node array) is the cumulative impulse: the
        whole path is shifted uniformly, so every running functional moves
        by the same amount.
        """
        plain = isinstance(shift, float) and shift == 0.0
        env = {
            "t": float(self.times[level]),
            "x": self.state[level] if plain else self.state[level] + shift,
            "xmax": self.running_max[level] if plain else self.running_max[level] + shift,
            "xmin": self.running_min[level] if plain else self.running_min[level] + shift,
            "xavg": self.running_avg[level] if plain else self.running_avg[level] + shift,
        }
        if control is not None:
            env["u"] = control
        return env

    def shifted_env(self, level: int, shifts) -> dict:
        """Expression environment at every node of a level under every
        shift at once: ``x``, ``xmax``, ``xmin`` and ``xavg`` have shape
        (2^level, len(shifts)), column j being ``env(level, shifts[j])``
        bit for bit (a zero shift leaves its column unshifted)."""
        shifts = np.asarray(shifts, dtype=np.float64)
        plain = shifts == 0.0
        env = {"t": float(self.times[level])}
        for name, arrays in (
            ("x", self.state), ("xmax", self.running_max), ("xmin", self.running_min), ("xavg", self.running_avg)
        ):
            column = arrays[level][:, None]
            env[name] = column + shifts
            np.copyto(env[name], column, where=plain)  # x + 0.0 would turn -0.0 into 0.0
        return env

    def shift_blocks(self, level: int, n_shifts: int) -> "list[slice]":
        """Consecutive blocks of shift indices, each stacked level at most
        STACK_CELLS cells (one shift per block on levels wider than that)."""
        width = max(1, STACK_CELLS >> level)
        return [slice(j, j + width) for j in range(0, n_shifts, width)]

    def node_env(self, node: NodeRef, shift=0.0, control=None) -> dict:
        """Scalar expression environment at one node."""
        k, i = node.level, node.index
        env = {
            "t": float(self.times[k]),
            "x": float(self.state[k][i]) + shift,
            "xmax": float(self.running_max[k][i]) + shift,
            "xmin": float(self.running_min[k][i]) + shift,
            "xavg": float(self.running_avg[k][i]) + shift,
        }
        if control is not None:
            env["u"] = control
        return env


def build_tree(process: ProcessModel, depth: int, max_nodes: int = DEFAULT_MAX_NODES) -> ScenarioTree:
    """Build the full binary tree for ``process`` with ``depth`` steps.

    Deterministic: the tree enumerates every increment sign pattern.  The
    state recursion uses left-endpoint coefficient evaluation:
    L(child) = L(node) + b(t_k, node)*dt + sigma(t_k, node)*dB, dB = +-sqrt(dt).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if 2 ** (depth + 1) - 1 > max_nodes:
        raise LimitError(
            f"tree with depth {depth} needs {2 ** (depth + 1) - 1} nodes, over the limit of {max_nodes}"
        )

    dt = process.horizon / depth
    sqrt_dt = math.sqrt(dt)
    times = _frozen(np.arange(depth + 1, dtype=np.float64) * dt)

    state = [np.full(1, float(process.x0))]
    running_max = [state[0].copy()]
    running_min = [state[0].copy()]
    running_sum = [state[0].copy()]
    noise = [np.zeros(1)]

    for k in range(depth):
        env = {
            "t": float(times[k]),
            "x": state[k],
            "xmax": running_max[k],
            "xmin": running_min[k],
            "xavg": running_sum[k] / (k + 1),
        }
        sigma = np.broadcast_to(np.asarray(eval_expr(process.sigma, env), dtype=np.float64), state[k].shape)
        if process.drift is not None:
            drift = np.broadcast_to(np.asarray(eval_expr(process.drift, env), dtype=np.float64), state[k].shape)
        else:
            drift = np.zeros_like(state[k])

        size = 2 ** (k + 1)
        child_state = np.empty(size)
        base = state[k] + drift * dt
        child_state[0::2] = base + sigma * sqrt_dt
        child_state[1::2] = base - sigma * sqrt_dt

        child_noise = np.empty(size)
        child_noise[0::2] = noise[k] + sqrt_dt
        child_noise[1::2] = noise[k] - sqrt_dt

        parent_max = np.repeat(running_max[k], 2)
        parent_min = np.repeat(running_min[k], 2)
        parent_sum = np.repeat(running_sum[k], 2)

        state.append(child_state)
        running_max.append(np.maximum(parent_max, child_state))
        running_min.append(np.minimum(parent_min, child_state))
        running_sum.append(parent_sum + child_state)
        noise.append(child_noise)

    running_avg = [running_sum[k] / (k + 1) for k in range(depth + 1)]
    return ScenarioTree(
        depth=depth,
        dt=dt,
        sqrt_dt=sqrt_dt,
        times=times,
        state=tuple(_frozen(a) for a in state),
        running_max=tuple(_frozen(a) for a in running_max),
        running_min=tuple(_frozen(a) for a in running_min),
        running_avg=tuple(_frozen(a) for a in running_avg),
        noise=tuple(_frozen(a) for a in noise),
    )


def cond_expect(children: np.ndarray) -> np.ndarray:
    """One-step conditional expectation under symmetric Bernoulli increments.

    ``children`` holds level-(k+1) values laid out [up0, down0, up1, down1,
    ...] along axis 0 (extra axes pass through); returns the level-k values
    (value(up) + value(down)) / 2.
    """
    children = np.asarray(children, dtype=np.float64)
    if children.shape[0] % 2:
        raise ValueError("children axis must have even length")
    if not np.all(np.isfinite(children)):
        raise ValueError("non-finite child values")
    return 0.5 * (children[0::2] + children[1::2])


def z_repr(children: np.ndarray, dt: float) -> np.ndarray:
    """Discrete martingale-representation coefficient:
    (value(up) - value(down)) / (2*sqrt(dt)), laid out as in cond_expect."""
    children = np.asarray(children, dtype=np.float64)
    if children.shape[0] % 2:
        raise ValueError("children axis must have even length")
    if not np.all(np.isfinite(children)):
        raise ValueError("non-finite child values")
    if not dt > 0:
        raise ValueError("dt must be positive")
    return (children[0::2] - children[1::2]) / (2.0 * math.sqrt(dt))


def dump_level_rows(tree: ScenarioTree, level: int):
    """Yield (level, index, t, L, xmax, xmin, xavg) rows for one level."""
    if not 0 <= level <= tree.depth:
        raise ValueError(f"level must be in [0, {tree.depth}]")
    t = float(tree.times[level])
    for i in range(tree.level_size(level)):
        yield (
            level,
            i,
            t,
            float(tree.state[level][i]),
            float(tree.running_max[level][i]),
            float(tree.running_min[level][i]),
            float(tree.running_avg[level][i]),
        )
