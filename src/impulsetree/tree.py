"""Exact binary scenario tree of the uncontrolled state process and its
path features, plus the backward operators and the one reflected backward
recursion every solver runs."""

import math

import numpy as np

from .expr import FEATURES, VARIABLES, EvalError, eval_expr
from .model import ConfigError, LimitError, ProcessModel
from .record import record

DEFAULT_MAX_NODES = 2**22
# The most (control, node, shift) cells one stacked evaluation holds, 64 KB
# per array; a wider level is evaluated a block of shifts at a time, and a
# broadcast control grid counts its controls.  Larger stacks leave the CPU
# caches: stacking whole levels at depth 18 made the audit 2.5x slower and
# raised its peak RSS by 250 MB (2-CPU host).
STACK_CELLS = 2**13


def path_env(t, x, xmax, xmin, xavg, shift=0.0) -> dict:
    """Expression environment of paths at time ``t`` from their features.

    ``shift`` is the cumulative impulse, a scalar, one per path, or a 2-D
    row of shifts (features become columns, giving (paths, shifts)
    arrays): the whole path is shifted uniformly, so every running
    functional moves by the same amount.  A feature keeps its bits
    wherever the shift is +-0.0, and a scalar zero shift returns the
    features themselves.  A feature given as None (one no expression
    reads) stays None.
    """
    features = (x, xmax, xmin, xavg)
    if np.ndim(shift) or shift != 0.0:
        neg = 0.0 - shift  # v - (0.0 - s) is v + s bit for bit, and v itself for s = +-0.0
        features = [None if v is None else (v[:, None] if np.ndim(neg) == 2 else v) - neg for v in features]
    return dict(zip(VARIABLES, (t, *features)))  # every variable but the last, the control


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@record(eq=False)
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

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def node_count(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def level_size(self, level: int) -> int:
        return 2**level

    def env(self, level: int, shift=0.0, read=FEATURES) -> dict:
        """Expression environment at every node of a level under ``shift``
        (a scalar, one per node or a 2-D row of shifts; see path_env); the
        features not in ``read`` are None."""
        features = zip(FEATURES, (self.state, self.running_max, self.running_min, self.running_avg))
        return path_env(float(self.times[level]), *(a[level] if n in read else None for n, a in features), shift)

    def coefficients(self, level: int, shift, u=None, sigma=None, drift=None, reward=None):
        """The one coefficient kernel: (sigma, theta = drift/sigma, reward)
        at a level's nodes under ``shift`` (as in env), None where the
        expression is.  ``u`` broadcasts: the grid as a (C, 1, 1) array
        (what does not read u is evaluated once for all controls), one
        control per node or cell, or None.  0/0 gives nan, not a warning.
        Only the features the expressions read are shifted."""
        exprs = [e for e in (sigma, drift, reward) if e is not None]
        env = self.env(level, shift, frozenset().union(*(e.variables for e in exprs)))
        sig = None if sigma is None else np.asarray(eval_expr(sigma, env))
        if u is not None:
            env[VARIABLES[-1]] = u
        h = None if reward is None else np.asarray(eval_expr(reward, env))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            theta = None if drift is None else np.asarray(eval_expr(drift, env)) / sig
        return sig, theta, h

    def shift_blocks(self, level: int, n_shifts: int, controls: int = 1) -> "list[slice]":
        """Consecutive blocks of shift indices, each stacked level over
        ``controls`` broadcast controls at most STACK_CELLS cells (one shift
        per block where a single shift holds more)."""
        width = max(1, STACK_CELLS // (controls << level))
        return [slice(j, min(j + width, n_shifts)) for j in range(0, n_shifts, width)]


def build_tree(process: ProcessModel, depth: int) -> ScenarioTree:
    """Build the full binary tree for ``process`` with ``depth`` steps.

    Deterministic: the tree enumerates every increment sign pattern.  The
    state recursion uses left-endpoint coefficient evaluation:
    L(child) = L(node) + b(t_k, node)*dt + sigma(t_k, node)*dB, dB = +-sqrt(dt).
    A coefficient that is not finite at a node raises ConfigError naming it
    and the level, and so does a state or running sum that overflows.  A
    tree of more than DEFAULT_MAX_NODES nodes raises LimitError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    # A depth past the limit's bit length is over it before its node count
    # is built.  Past 2^64 the count is written as a power, which keeps the
    # message readable; Python also refuses to format an integer of more
    # than 4300 digits, which a depth near 14000 reaches.
    if depth >= DEFAULT_MAX_NODES.bit_length() or 2 ** (depth + 1) - 1 > DEFAULT_MAX_NODES:
        nodes = 2 ** (depth + 1) - 1 if depth < 64 else f"2^{depth + 1} - 1"
        raise LimitError(f"tree with depth {depth} needs {nodes} nodes, over the limit of {DEFAULT_MAX_NODES}")

    dt = process.horizon / depth
    sqrt_dt = math.sqrt(dt)
    times = _frozen(np.arange(depth + 1, dtype=np.float64) * dt)

    state = [np.full(1, float(process.x0))]
    running_max = [state[0].copy()]
    running_min = [state[0].copy()]
    running_sum = [state[0].copy()]

    def coefficient(name, expr, k, env):
        try:
            return np.broadcast_to(np.asarray(eval_expr(expr, env), dtype=np.float64), state[k].shape)
        except EvalError as exc:
            raise ConfigError(f"process.{name} fails on the tree at level {k}: {exc}") from None

    for k in range(depth):
        env = path_env(float(times[k]), state[k], running_max[k], running_min[k], running_sum[k] / (k + 1))
        sigma = coefficient("sigma", process.sigma, k, env)
        drift = np.zeros_like(state[k]) if process.drift is None else coefficient("drift", process.drift, k, env)

        size = 2 ** (k + 1)
        child_state = np.empty(size)
        with np.errstate(over="ignore", invalid="ignore"):  # the running sum is checked instead
            base = state[k] + drift * dt
            child_state[0::2] = base + sigma * sqrt_dt
            child_state[1::2] = base - sigma * sqrt_dt
            child_sum = np.repeat(running_sum[k], 2) + child_state
        if not np.isfinite(child_sum).all():  # the parents' sums are finite, so a child state is too
            raise ConfigError(f"the process state or its running sum overflows on the tree at level {k + 1}")

        state.append(child_state)
        running_max.append(np.maximum(np.repeat(running_max[k], 2), child_state))
        running_min.append(np.minimum(np.repeat(running_min[k], 2), child_state))
        running_sum.append(child_sum)

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
    )


def _checked(children: np.ndarray) -> np.ndarray:
    """Level-(k+1) values laid out [up0, down0, up1, down1, ...] along axis
    0, after the shape and finiteness checks."""
    children = np.asarray(children, dtype=np.float64)
    if children.shape[0] % 2:
        raise ValueError("children axis must have even length")
    if not np.all(np.isfinite(children)):
        raise ValueError("non-finite child values")
    return children


# cond_expect without its checks, for values the engine checks itself
def _expect(children: np.ndarray) -> np.ndarray:
    out = children[0::2] + children[1::2]
    out *= 0.5  # the bits of 0.5 * (up + down), in the sum's buffer
    return out


def _z(children: np.ndarray, dt: float) -> np.ndarray:
    """The discrete martingale-representation coefficient (value(up) - value(down)) / (2*sqrt(dt)), unchecked."""
    out = children[0::2] - children[1::2]
    out /= 2.0 * math.sqrt(dt)  # the bits of (up - down) / (2*sqrt(dt)), in the difference's buffer
    return out


def cond_expect(children: np.ndarray) -> np.ndarray:
    """One-step conditional expectation under symmetric Bernoulli increments.

    ``children`` holds level-(k+1) values laid out [up0, down0, up1, down1,
    ...] along axis 0 (extra axes pass through); returns the level-k values
    (value(up) + value(down)) / 2.
    """
    return _expect(_checked(children))


def reflect_backward(fields, obstacle=None, step=None) -> list:
    """The reflected recursion of every solver, level-major over fields laid
    out as in cond_expect, each a list of levels 0..depth holding only its
    terminal value (a first field given whole is only reflected against),
    filled in place: for k = depth-1..0, then n = 0, 1, ... in order,
    Y^n_k = max(obstacle(n, k), E[Y^n_{k+1}] + increment), so obstacle(n, k)
    may read field n-1's level k; step(k, levels k+1 of the fields it
    computes) returns their increments, to be overwritten.  No step adds
    nothing, no obstacle (or None) reflects nothing, a tie keeps the
    continuation's bits; the caller checks finiteness.  Each field holds a
    prefix of the previous one's columns, which step and obstacle treat
    column by column: so where field n repeats n-1 at levels k+1.. and n-1
    repeats n-2 at level k, field n repeats n-1 at level k, as a view."""
    start, copies = 0 if fields[0][0] is None else 1, 1  # fields copies, copies + 1, ... repeat so far
    for k in range(len(fields[0]) - 2, -1, -1):
        live = fields[start : copies + 1]
        incs = [None] * len(live) if step is None else step(k, [f[k + 1] for f in live])
        for n, (f, inc) in enumerate(zip(live, incs), start):
            cont = _expect(f[k + 1]) if inc is None else np.add(inc, _expect(f[k + 1]), out=inc)  # in any order
            obs = None if obstacle is None else obstacle(n, k)
            f[k] = cont if obs is None else np.maximum(obs, cont, out=None if n == copies else cont)
        while copies < len(fields) and not _same(fields[copies][k], fields[copies - 1][k]):
            copies += 1  # the next field's level k+1 repeats it: so does the continuation, kept above
            if copies < len(fields):
                fields[copies][k] = np.maximum(obstacle(copies, k), cont[:, : fields[copies][k + 1].shape[1]])
        for f in fields[copies + 1 :]:
            f[k] = fields[copies][k][:, : f[k + 1].shape[1]]
    return fields


def _same(level: np.ndarray, prev: np.ndarray) -> bool:  # whether level has the bits of prev's first columns
    return bool((level.view(np.int64) == prev[:, : level.shape[1]].view(np.int64)).all())
