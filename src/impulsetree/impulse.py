"""Iterated reflected backward recursion for impulse control: value fields
Y0, Y1, ... with impulse obstacle, stall detection and optimal strategy
extraction."""

import math
from itertools import accumulate

import numpy as np

from .model import DEFAULT_TOL, ImpulseModel, LimitError
from .record import record
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


@record(eq=False)
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


@record
class ValueField:
    """One iterate Y^n of the reflected recursion.

    ``states`` is the prefix of the run's StateSpace reachable with at most
    budget - n impulses; their impulse successors all lie in Y^{n-1}'s
    states.  ``values[k]`` has shape (2^k, len(states)); in combined mode
    ``controls[k]`` holds the control-grid index of the driver at each
    (node, state) of levels 0..depth-1.  field_terms gives Z and the
    reflection increment, obstacle(Y^{n-1}, model, k) the intervention
    value.  Levels are column-major (one state's nodes contiguous); one that
    repeats Y^{n-1}'s bits may be a view of it.
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


def reward_tables(tree: ScenarioTree, model: ImpulseModel, states: StateSpace, k: int):
    """Level k's running reward under each state's path shift, (2^k,
    len(states)), the shifts stacked a block at a time."""
    table = np.empty((tree.level_size(k), len(states)), order="F")
    for cols in tree.shift_blocks(k, len(states)):
        table[:, cols] = tree.coefficients(k, states.shifts[None, cols], reward=model.reward)[2]
    return table


def _reward_drive(tree: ScenarioTree, model: ImpulseModel):
    """The pure impulse driver, the running reward h (no Z, no control): level
    k's table on ``states``, whose column prefixes the fields read."""

    def drive(k, y_nexts, states, u_idx=None):
        table = reward_tables(tree, model, states, k)
        return [table[:, : y.shape[1]] for y in y_nexts], None

    return drive


@np.errstate(over="ignore", invalid="ignore")  # past a non-finite field; the caller checks finiteness
def _fields(tree: ScenarioTree, model: ImpulseModel, drive, states: StateSpace, count: int, prev=None):
    """The backward engine both modes share: ``count`` consecutive fields in
    one level-major pass, the first over ``states`` (prev.next_states when
    reflected against ``prev``), from 0 at the horizon: Y^n_k =
    max(obstacle from Y^{n-1}, E[Y^n_{k+1}] + driver*dt).  ``drive(k,
    [Y_{k+1}, ...], states, u_idx=None)`` returns the fields' level-k
    drivers and control-grid indices (None without a control), at ``u_idx``
    when given, from one kernel call per (level, block) of ``states``."""
    new = [ValueField(0 if prev is None else prev.n + 1, states, [None] * tree.depth)]
    while len(new) < count:
        new.append(ValueField(new[-1].n + 1, new[-1].next_states, [None] * tree.depth))
    for f in new:
        f.values.append(np.zeros((tree.level_size(tree.depth), len(f.states)), order="F"))
    chain, controls = new if prev is None else [prev, *new], [[None] * tree.depth for _ in new]

    def step(k, y_nexts):  # the first new fields; a field past them repeats the last one's controls
        drvs, ats = drive(k, y_nexts, states)
        for i, (c, f) in enumerate(zip(controls, new) if ats else ()):
            c[k] = ats[min(i, len(ats) - 1)][:, : len(f.states)]
        # times dt in place where the driver owns its array, else (a shared reward table's prefix) anew
        return [np.multiply(d, tree.dt, out=d if d.base is None else None) for d in drvs]

    reflect_backward([f.values for f in chain], lambda n, k: obstacle(chain[n - 1], model, k) if n else None, step)
    controls = [None if c[0] is None else tuple(c) for c in controls]
    return [ValueField(f.n, f.states, tuple(f.values), c) for f, c in zip(new, controls)]


def solve_y0(tree: ScenarioTree, model: ImpulseModel, states: StateSpace) -> ValueField:
    """Unreflected base field, the engine's one-field case: expected
    remaining reward for a strategy already holding each state's cumulative
    impulse, with no further impulses allowed (no reflection)."""
    return _fields(tree, model, _reward_drive(tree, model), states, 1)[0]


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
    never binds).  The engine's one-step case."""
    return _fields(tree, model, _reward_drive(tree, model), prev.next_states, 1, prev)[0]


@record(frozen=False)
class ValueIterationResult:
    fields: "list[ValueField]"
    stall_index: "int | None"
    sup_increments: "list[float]"
    states: StateSpace
    drive: object  # the engine's drive(k, [Y_{k+1}, ...], states, u_idx=None) -> (drivers, control indices or None)

    def driver(self, k: int, y_next: np.ndarray, states: StateSpace, u_idx=None):  # the drive's one-field case
        drvs, ats = self.drive(k, [y_next], states, u_idx)
        return drvs[0], None if ats is None else ats[0]

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


def _iterate(tree: ScenarioTree, model: ImpulseModel, tol: float, budget: "int | None", drive):
    """The value iteration both modes share, with the mode's drive: Y^0 over
    the states within the budget (ceil(gamma*T/c) by default), then Y^n
    reflected against Y^{n-1} over its next states, until the sup-norm of
    Y^n - Y^{n-1} drops to ``tol`` (the stall) or n reaches the budget.
    The engine runs before the stall is known, in windows of fields: the
    first of at most 2*(|Y^0| + |Y^1|) state columns, each later one of at
    most the columns done so far, so no run computes twice the columns up
    to the stall; fields past it are dropped.  Finiteness is checked per
    field, in order: at Y^0's root row, then through Y^n's sup increment."""
    if budget is None:
        budget = impulse_budget(model.reward_bound, model.cost_floor, tree.horizon)
    states = enumerate_states(model.impulses, budget)
    widths = np.searchsorted(states.counts, range(budget, -1, -1), side="right").tolist()  # each field's states
    fields, sups, stall_index = [], [], 0 if budget == 0 else None  # budget 0: no impulse, Y0 is the value
    while not fields or (stall_index is None and len(fields) <= budget):
        n, prev = len(fields), fields[-1] if fields else None
        room = sum(widths[:n]) if n else 2 * sum(widths[:2])
        count = max(1, sum(total <= room for total in accumulate(widths[n:])))  # the fields that fit
        for fld in _fields(tree, model, drive, prev.next_states if prev else states, count, prev):
            if fld.n:
                pairs = zip(fields[-1].values, fld.values)  # a level that is a view of the one below adds 0.0
                diffs = (np.subtract(b, a[:, : b.shape[1]]) for a, b in pairs if not np.may_share_memory(a, b))
                sups.append(max(float(np.abs(d, out=d).max()) for d in diffs))
            if not (math.isfinite(sups[-1]) if fld.n else np.isfinite(fld.values[0]).all()):
                raise SolverError(f"non-finite values in field {fld.n}")
            fields.append(fld)
            if fld.n and sups[-1] <= tol:
                stall_index = fld.n
                break
    return ValueIterationResult(fields, stall_index, sups, states, drive)


def value_iteration(
    tree: ScenarioTree, model: ImpulseModel, tol: float = DEFAULT_TOL, budget: "int | None" = None
) -> ValueIterationResult:
    """Iterate the reflected recursion until the sup-norm increment over all
    (node, state) pairs drops to ``tol`` or the impulse budget is reached.

    Returns the field sequence and whether stabilization occurred; hitting
    the budget without a stall is reported, not fatal.
    """
    return _iterate(tree, model, tol, budget, _reward_drive(tree, model))


def field_terms(result: ValueIterationResult, n: int, tree: ScenarioTree):
    """Yield field n's (Z_k, K_inc_k), levels 0..depth (both 0 at the
    horizon): Z_k = (Y_{k+1}(up) - Y_{k+1}(down))/(2*sqrt(dt)) and K_inc_k =
    Y_k - (E[Y_{k+1}] + driver*dt), the run's driver at the field's controls.
    Y^0 has no obstacle: the engine set it to that continuation, so its
    K_inc is +0.0 with no driver evaluated.

    The engine's own operations, so the engine's bits, without the
    finiteness checks it made on the same values.  A driver evaluated at a
    tied argmax may differ from the engine's max in the sign of a zero,
    which never shows: no Y is -0.0 (the horizon's zeros are +0.0 and each
    obstacle lies a positive cost below a field), so E[Y_{k+1}] is not.
    """
    fld = result.fields[n]
    for k, u_idx in enumerate(fld.controls or (None,) * tree.depth):
        y_next = fld.values[k + 1]
        if n:
            cont = _expect(y_next)
            cont += result.driver(k, y_next, fld.states, u_idx)[0] * tree.dt
        yield _z(y_next, tree.dt), np.subtract(fld.values[k], cont, out=cont) if n else np.zeros_like(fld.values[k])
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
