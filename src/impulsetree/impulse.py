"""Iterated reflected backward recursion for impulse control: value fields
Y0, Y1, ... with impulse obstacle, stall detection and optimal strategy
extraction."""

import math
from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_TOL, ImpulseModel, LimitError
from .strategy import Strategy, shift_key
from .tree import ScenarioTree, _expect, _z, reflect_backward

DEFAULT_MAX_STATES = 20000


class SolverError(RuntimeError):
    """Internal inconsistency in solver outputs (indicates a bug)."""


def impulse_budget(reward_bound: float, cost_floor: float, horizon: float) -> int:
    """Maximum number of impulses any optimal strategy can use.

    Each impulse costs at least the floor while the total attainable reward
    is bounded by reward_bound * horizon, so ceil(bound * T / floor) caps
    the count.  A tiny slack guards the ceiling against float noise when
    the ratio is an exact integer.
    """
    if cost_floor <= 0:
        raise ValueError("cost floor must be positive")
    if reward_bound < 0:
        raise ValueError("reward bound must be non-negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    ratio = reward_bound * horizon / cost_floor
    if not math.isfinite(ratio):
        raise LimitError(f"impulse budget gamma*T/c = {reward_bound!r}*{horizon!r}/{cost_floor!r} is not finite")
    return max(0, math.ceil(ratio - 1e-12))


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Cumulative shifts reachable with at most ``budget`` impulses, as
    arrays in count-major order.

    ``shifts[s]`` is stored already rounded by shift_key, so the backward
    fields and every forward walk agree bit-for-bit on it, and
    ``counts[s]`` is the fewest impulses that reach it.  ``succ[s, b]`` is
    the index of shifts[s] + impulses[b], or -1 where that shift needs more
    impulses than were enumerated.  A prefix keeps the indices.
    """

    shifts: np.ndarray
    counts: np.ndarray
    succ: np.ndarray
    budget: int

    def __len__(self) -> int:
        return self.shifts.size

    def prefix(self, remaining: int) -> "StateSpace":
        """The states reachable with at most ``remaining`` impulses."""
        n = int(np.searchsorted(self.counts, remaining, side="right"))
        return StateSpace(self.shifts[:n], self.counts[:n], self.succ[:n], remaining)


def enumerate_states(impulses, budget: int) -> StateSpace:
    """All cumulative shifts reachable with at most ``budget`` impulses,
    each with the fewest impulses that reach it, and their successors.

    One pass in deterministic count-major order: the states in turn,
    impulses in declared order, each new shift appended.  Deduplicated by
    shift_key, so the states reachable with at most m impulses form a
    prefix.  More than DEFAULT_MAX_STATES states raise LimitError.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    shifts, counts, succ = [shift_key(0.0)], [0], []
    index = {shifts[0]: 0}
    for cum, count in zip(shifts, counts):  # both lists grow while they are walked
        for beta in impulses:
            nxt = shift_key(cum + beta)
            if nxt not in index and count < budget:
                index[nxt] = len(shifts)
                shifts.append(nxt)
                counts.append(count + 1)
                if len(shifts) > DEFAULT_MAX_STATES:
                    raise LimitError(f"impulse state count exceeds the limit of {DEFAULT_MAX_STATES}")
            succ.append(index.get(nxt, -1))
    table = np.array(succ, dtype=np.int64).reshape(len(shifts), len(impulses))
    return StateSpace(np.array(shifts), np.array(counts, dtype=np.int64), table, budget)


@dataclass(frozen=True)
class ValueField:
    """One iterate Y^n of the reflected recursion.

    ``states`` is the prefix of the run's StateSpace reachable with at most
    budget - n impulses; their impulse successors all lie in Y^{n-1}'s
    states.  ``values[k]`` has shape (2^k, len(states)); in combined mode
    ``controls[k]`` holds the control-grid index of the driver at each
    (node, state) of levels 0..depth-1.  The rest of the recursion is a
    function of these: field_terms gives Z and the reflection increment,
    obstacle(Y^{n-1}, model, k) the intervention value.  The sweeps
    allocate the level arrays column-major, one state's nodes contiguous.
    """

    n: int
    states: StateSpace
    values: "tuple[np.ndarray, ...]"
    controls: "tuple[np.ndarray, ...] | None" = None

    @property
    def next_states(self) -> StateSpace:
        """Y^{n+1}'s states: those with one impulse fewer left."""
        return self.states.prefix(self.states.budget - 1)

    def root_value(self) -> float:
        return float(self.values[0][0, 0])


def reward_tables(tree: ScenarioTree, model: ImpulseModel, states: StateSpace, k: int = 0):
    """Level k's running reward under each state's path shift, (2^k,
    len(states)), the shifts stacked a block at a time; by default the root's."""
    table = np.empty((tree.level_size(k), len(states)), order="F")
    for cols in tree.shift_blocks(k, len(states)):
        table[:, cols] = tree.coefficients(k, states.shifts[None, cols], reward=model.reward)[2]
    return table


def _reward_driver(tree: ScenarioTree, model: ImpulseModel):
    """The pure impulse driver: the running reward h, which reads no Z and
    uses no control."""
    return lambda k, y_next, states, u_idx=None: (reward_tables(tree, model, states, k), None)


def _sweep(tree: ScenarioTree, model: ImpulseModel, driver, states: StateSpace, prev=None) -> ValueField:
    """One backward sweep over ``states``, shared by both modes: the
    reflected kernel with Y_k = E[Y_{k+1}] + driver*dt, reflected against
    the obstacle from ``prev`` when one is given (then ``states`` are
    prev.next_states).  ``driver(k, Y_{k+1}, states, u_idx=None)`` returns
    the level-k driver on ``states`` and the control-grid indices it used
    (None where it uses no control), at ``u_idx`` when one is given.
    Terminal value 0: no impulses at the horizon.  The obstacle is built
    one level at a time, as the kernel reaches it.
    """
    controls = [None] * tree.depth

    def step(k, y_next):
        drv, controls[k] = driver(k, y_next, states)
        return drv * tree.dt

    terminal = np.zeros((tree.level_size(tree.depth), len(states)), order="F")
    obs = None if prev is None else (lambda k: obstacle(prev, model, k))
    return ValueField(
        n=0 if prev is None else prev.n + 1,
        states=states,
        values=tuple(reflect_backward(terminal, tree.depth, obs, step)),
        controls=None if controls[0] is None else tuple(controls),
    )


def solve_y0(tree: ScenarioTree, model: ImpulseModel, states: StateSpace) -> ValueField:
    """Unreflected base field: expected remaining reward for a strategy
    already holding each state's cumulative impulse, with no further
    impulses allowed.  Terminal value 0; reflection increments identically 0."""
    return _sweep(tree, model, _reward_driver(tree, model), states)


def obstacle(prev: ValueField, model: ImpulseModel, k: int) -> np.ndarray:
    """Level k's intervention value against the previous field, on the next
    field's states (prev.next_states), whose successors must lie in prev's
    states: max over impulses b of Y^{n-1}_k[:, succ[s, b]] - psi(b), a
    running maximum over one state's column at a time (column-major)."""
    states = prev.next_states
    missing = (states.succ < 0) | (states.succ >= len(prev.states))
    if missing.any():
        s, b = np.argwhere(missing)[0]
        raise SolverError(f"missing successor state {shift_key(states.shifts[s] + model.impulses[b])}")
    psi = [model.costs[beta] for beta in model.impulses]
    level = prev.values[k]
    out = np.empty((level.shape[0], len(states)), order="F")
    cand = np.empty(level.shape[0])
    for col, succ in zip(out.T, states.succ.tolist()):
        np.subtract(level[:, succ[0]], psi[0], out=col)
        for j, cost in zip(succ[1:], psi[1:]):
            np.maximum(col, np.subtract(level[:, j], cost, out=cand), out=col)
    return out


def iterate_value(prev: ValueField, tree: ScenarioTree, model: ImpulseModel) -> ValueField:
    """One reflected step: Y_k = max(E[Y_{k+1}] + h*dt, obstacle from the
    previous field) on prev.next_states.  Terminal value stays 0 (no
    impulses at the horizon; the terminal obstacle is <= -cost floor and
    never binds)."""
    return _sweep(tree, model, _reward_driver(tree, model), prev.next_states, prev)


@dataclass
class ValueIterationResult:
    fields: "list[ValueField]"
    stall_index: "int | None"
    sup_increments: "list[float]"
    states: StateSpace
    driver: object  # the sweeps' driver(k, Y_{k+1}, states, u_idx=None) -> (driver, control indices or None)

    @property
    def stalled(self) -> bool:
        return self.stall_index is not None

    @property
    def budget(self) -> int:
        return self.states.budget

    @property
    def top(self) -> ValueField:
        return self.fields[-1]

    @property
    def y0(self) -> float:
        return self.top.root_value()

    @property
    def per_iteration_y0(self) -> "list[float]":
        return [f.root_value() for f in self.fields]


def _sup_increment(prev: np.ndarray, values: np.ndarray) -> float:
    diff = np.subtract(values, prev[:, : values.shape[1]])
    return float(np.abs(diff, out=diff).max())


def _reflect_until_stall(tree: ScenarioTree, model: ImpulseModel, tol: float, budget: "int | None", driver):
    """The value iteration both modes share, with the mode's driver: Y^0 is
    the unreflected sweep over the states reachable within the budget
    (ceil(gamma*T/c) by default), then Y^n the sweep reflected against
    Y^{n-1} over its next states, until the sup-norm of Y^n - Y^{n-1} over
    Y^n's (node, state) pairs drops to ``tol`` or n reaches the budget.

    Finiteness is checked once per field: a non-finite value of Y^0 reaches
    the root of its state (no obstacle masks it), and one of Y^n, against
    the finite Y^{n-1}, makes the sup increment non-finite."""
    if budget is None:
        budget = impulse_budget(model.reward_bound, model.cost_floor, tree.horizon)
    states = enumerate_states(model.impulses, budget)
    fields = [_sweep(tree, model, driver, states)]
    if not np.isfinite(fields[0].values[0]).all():
        raise SolverError("non-finite values in field 0")
    stall_index = 0 if states.budget == 0 else None  # no impulse is ever admissible, Y0 is the value
    sups = []
    for n in range(1, states.budget + 1):
        nxt = _sweep(tree, model, driver, fields[-1].next_states, fields[-1])
        sup = max(_sup_increment(a, b) for a, b in zip(fields[-1].values, nxt.values))
        if not math.isfinite(sup):
            raise SolverError(f"non-finite values in field {n}")
        fields.append(nxt)
        sups.append(sup)
        if sup <= tol:
            stall_index = n
            break
    return ValueIterationResult(fields, stall_index, sups, states, driver)


def value_iteration(
    tree: ScenarioTree, model: ImpulseModel, tol: float = DEFAULT_TOL, budget: "int | None" = None
) -> ValueIterationResult:
    """Iterate the reflected recursion until the sup-norm increment over all
    (node, state) pairs drops to ``tol`` or the impulse budget is reached.

    Returns the field sequence and whether stabilization occurred; hitting
    the budget without a stall is reported, not fatal.
    """
    return _reflect_until_stall(tree, model, tol, budget, _reward_driver(tree, model))


def field_terms(result: ValueIterationResult, n: int, tree: ScenarioTree):
    """Yield field n's (Z_k, K_inc_k), levels 0..depth (both 0 at the
    horizon): Z_k = z_repr(Y_{k+1}) and K_inc_k = Y_k - (E[Y_{k+1}] +
    driver*dt), the run's driver taken at the field's recorded controls.

    The sweep's own operations, so the sweep's bits, without the finiteness
    checks the sweep made on the same values.  A driver evaluated at a tied
    argmax may differ from the sweep's max in the sign of a zero,
    which never shows: no Y is -0.0 (the horizon's zeros are +0.0 and each
    obstacle lies a positive cost below a field), so E[Y_{k+1}] is not.
    """
    fld = result.fields[n]
    for k, u_idx in enumerate(fld.controls or (None,) * tree.depth):
        y_next = fld.values[k + 1]
        drv, _ = result.driver(k, y_next, fld.states, u_idx)
        cont = _expect(y_next)
        cont += drv * tree.dt
        yield _z(y_next, tree.dt), np.subtract(fld.values[k], cont, out=cont)
    horizon = fld.values[tree.depth]  # zeros: nothing is paid or reflected at the horizon
    yield horizon, horizon


def _extract_walk(fields, model: ImpulseModel, depth: int, tol: float):
    """Forward walk shared by strategy and strategy+control extraction,
    one level at a time over every node's (state index, remaining field m).

    Reads only the fields' values.  From the root's zero shift and m = top
    iteration index: while field m meets its obstacle (built from field
    m - 1 as in ``obstacle``) within tol at a node's state, apply the first
    maximizing impulse in declared order there (chains at one date
    allowed) and step to field m - 1; then descend.  Raises SolverError
    where a walked value lies below its obstacle beyond tol.  Returns the
    Strategy and the post-chain (state index, m) arrays of levels
    0..depth-1.
    """
    if not fields:
        raise ValueError("empty field sequence")
    for j, f in enumerate(fields):
        if f.n != j:
            raise ValueError("fields must be the consecutive sequence Y0..Yn")
    psi = np.array([model.costs[beta] for beta in model.impulses])

    top = len(fields) - 1
    succ = fields[0].states.succ
    s = np.zeros(1, dtype=np.int64)
    m = np.full(1, top, dtype=np.int64)
    chains, posts = [], []
    for k in range(depth):
        cols = []
        live = np.flatnonzero(m > 0)
        while live.size:
            arg = np.empty(live.size, dtype=np.int64)
            for n in sorted(set(m[live].tolist())):
                sel = np.flatnonzero(m[live] == n)
                nodes, st = live[sel], s[live[sel]]
                cand = fields[n - 1].values[k][nodes[:, None], succ[st]] - psi
                obs = cand.max(axis=1)
                y = fields[n].values[k][nodes, st]
                if np.any(y < obs - tol):
                    raise SolverError(f"field {n}: value below obstacle beyond tolerance (solver bug)")
                arg[sel] = np.where(np.abs(y - obs) <= tol, cand.argmax(axis=1), -1)
            live, arg = live[arg >= 0], arg[arg >= 0]
            if not live.size:
                break
            col = np.full(s.size, -1, dtype=np.int64)
            col[live] = arg
            cols.append(col)
            s[live] = succ[s[live], arg]
            m[live] -= 1
            live = live[m[live] > 0]
        chains.append(np.stack(cols, axis=1) if cols else np.empty((s.size, 0), dtype=np.int64))
        posts.append((s, m))
        s, m = np.repeat(s, 2), np.repeat(m, 2)
    chains.append(np.empty((s.size, 0), dtype=np.int64))
    return Strategy(chains=tuple(chains), impulses=model.impulses), posts


def extract_strategy(fields, tree: ScenarioTree, model: ImpulseModel, tol: float = DEFAULT_TOL) -> Strategy:
    """Extract the optimal strategy from a value-field sequence.

    Impulse wherever the remaining field meets its obstacle within tol
    (first-in-order impulse on argmax ties, simultaneous impulses allowed,
    none at the horizon); continue elsewhere.  Reads only the fields'
    values.
    """
    return _extract_walk(fields, model, tree.depth, tol)[0]
