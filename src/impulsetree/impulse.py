"""Iterated reflected backward recursion for impulse control: value fields
Y0, Y1, ... with impulse obstacle, stall detection and optimal strategy
extraction."""

import math
from dataclasses import dataclass

import numpy as np

from .expr import eval_expr
from .model import DEFAULT_TOL, ImpulseModel, LimitError
from .strategy import Strategy, shift_key, state_key
from .tree import ScenarioTree, cond_expect, z_repr

DEFAULT_MAX_STATES = 20000


class SolverError(RuntimeError):
    """Internal inconsistency in solver outputs (indicates a bug)."""


@dataclass(frozen=True)
class ImpulseState:
    """A cumulative applied impulse and the fewest impulses that reach it.

    ``cumulative`` is stored already rounded to the dedup precision so the
    backward fields and every forward walk agree bit-for-bit on the shift.
    Value fields are keyed by the shift alone; ``count`` decides which
    fields cover the state (field Y^n holds the shifts with count <= budget - n).
    """

    cumulative: float
    count: int

    @property
    def key(self) -> "tuple[float, int]":
        return state_key(self.cumulative, self.count)


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
    return max(0, math.ceil(ratio - 1e-12))


def enumerate_states(impulses, budget: int, max_states: int = DEFAULT_MAX_STATES):
    """All cumulative shifts reachable with at most ``budget`` impulses,
    each with the fewest impulses that reach it.

    Deterministic order: count-major, then generation order (previous states
    in order, impulses in declared order).  Deduplicated by shift_key, so
    the states reachable with at most m impulses form a prefix.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    root = ImpulseState(shift_key(0.0), 0)
    states = [root]
    seen = {root.cumulative}
    frontier = [root]
    for count in range(1, budget + 1):
        next_frontier = []
        for prev in frontier:
            for beta in impulses:
                cum = shift_key(prev.cumulative + beta)
                if cum in seen:
                    continue
                seen.add(cum)
                st = ImpulseState(cum, count)
                states.append(st)
                next_frontier.append(st)
                if len(states) > max_states:
                    raise LimitError(f"impulse state count exceeds the limit of {max_states}")
        frontier = next_frontier
    return states


def field_states(states, remaining: int) -> "tuple[ImpulseState, ...]":
    """The states a field with ``remaining`` impulses left covers: those
    reachable with at most that many impulses (a prefix of ``states``)."""
    return tuple(st for st in states if st.count <= remaining)


def successor_table(states, impulses, targets) -> np.ndarray:
    """(len(states), n_impulses) index table: entry [s, b] is the index in
    ``targets`` of the shift reached from states[s] by impulses[b].  A
    successor missing from ``targets`` is a SolverError."""
    index = {st.cumulative: j for j, st in enumerate(targets)}
    table = np.empty((len(states), len(impulses)), dtype=np.int64)
    for j, st in enumerate(states):
        for b, beta in enumerate(impulses):
            key = shift_key(st.cumulative + beta)
            try:
                table[j, b] = index[key]
            except KeyError:
                raise SolverError(f"missing successor state {key}") from None
    return table


@dataclass(frozen=True)
class ValueField:
    """One iterate Y^n of the reflected recursion.

    ``states`` are the shifts reachable with at most budget - n impulses, a
    prefix of the run's count-major state list whose impulse successors all
    lie in Y^{n-1}'s states.  ``values[k]`` has shape (2^k, len(states));
    ``z`` is the martingale representation of the next level, ``k_inc``
    the reflection increment, and for n >= 1 ``obstacle``/``obstacle_argmax``
    record the intervention value max_beta(-cost(beta) + Y^{n-1}(.,
    state+beta)) and its first maximizer in declared impulse order.
    """

    n: int
    states: "tuple[ImpulseState, ...]"
    values: "tuple[np.ndarray, ...]"
    z: "tuple[np.ndarray, ...]"
    k_inc: "tuple[np.ndarray, ...]"
    obstacle: "tuple[np.ndarray, ...] | None" = None
    obstacle_argmax: "tuple[np.ndarray, ...] | None" = None
    controls: "tuple[np.ndarray, ...] | None" = None  # combined mode, levels 0..depth-1

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    def root_value(self) -> float:
        return float(self.values[0][0, 0])


def reward_tables(tree: ScenarioTree, model: ImpulseModel, states):
    """Per-level (2^k, n_states) arrays of the running reward under each
    state's path shift (levels 0..depth-1; left endpoint; shifts stacked)."""
    shifts = [st.cumulative for st in states]
    tables = [np.empty((tree.level_size(k), len(states))) for k in range(tree.depth)]
    for k, arr in enumerate(tables):
        for cols in tree.shift_blocks(k, len(shifts)):
            arr[:, cols] = eval_expr(model.reward, tree.shifted_env(k, shifts[cols]))
    return tables


def _reward_driver(tables):
    """Pure impulse driver: the running reward on the field's states (a
    prefix of the tables' columns), with no control."""
    return lambda k, z: (tables[k][:, : z.shape[1]], None)


def _sweep(tree: ScenarioTree, model: ImpulseModel, states, driver, prev=None) -> ValueField:
    """One backward sweep over ``states``, shared by both modes.

    Z_k comes from the next level, then Y_k = E[Y_{k+1}] + driver*dt,
    reflected against the obstacle from ``prev`` when one is given.
    ``driver(k, z_k)`` returns the level-k driver on the field's states and
    the control-grid indices it used (None in pure impulse mode).  Terminal
    value 0: no impulses at the horizon.
    """
    obs, arg = (None, None) if prev is None else obstacle(prev, model, states)
    depth = tree.depth

    values = [None] * (depth + 1)
    zs = [None] * (depth + 1)
    k_incs = [None] * (depth + 1)
    controls = [None] * depth
    values[depth] = np.zeros((tree.level_size(depth), len(states)))
    zs[depth] = np.zeros_like(values[depth])
    k_incs[depth] = np.zeros_like(values[depth])
    for k in range(depth - 1, -1, -1):
        zs[k] = z_repr(values[k + 1], tree.dt)
        drv, controls[k] = driver(k, zs[k])
        cont = cond_expect(values[k + 1]) + drv * tree.dt
        if obs is None:
            values[k] = cont
            k_incs[k] = np.zeros_like(cont)
        else:
            values[k] = np.maximum(cont, obs[k])
            k_incs[k] = values[k] - cont

    return ValueField(
        n=0 if prev is None else prev.n + 1,
        states=tuple(states),
        values=tuple(values),
        z=tuple(zs),
        k_inc=tuple(k_incs),
        obstacle=obs,
        obstacle_argmax=arg,
        controls=None if controls[0] is None else tuple(controls),
    )


def solve_y0(tree: ScenarioTree, model: ImpulseModel, states, *, _tables=None) -> ValueField:
    """Unreflected base field: expected remaining reward for a strategy
    already holding each state's cumulative impulse, with no further
    impulses allowed.  Terminal value 0; reflection increments identically 0."""
    tables = _tables if _tables is not None else reward_tables(tree, model, states)
    return _sweep(tree, model, states, _reward_driver(tables))


def _next_states(prev: ValueField, states):
    """The next field's states: ``states`` if given, else prev's states
    below its largest count (right when that count is prev's remaining
    budget, as for a field built from enumerate_states)."""
    if states is not None:
        return tuple(states)
    return field_states(prev.states, max(st.count for st in prev.states) - 1)


def obstacle(prev: ValueField, model: ImpulseModel, states=None):
    """Intervention value and argmax against the previous field, on the next
    field's ``states`` (see _next_states); their successors must lie in
    prev's states.

    Returns (per-level obstacle arrays, per-level argmax arrays).  Ties pick
    the first impulse in declared order.
    """
    succ = successor_table(_next_states(prev, states), model.impulses, prev.states)
    psi = np.array([model.costs[beta] for beta in model.impulses])

    obstacles = []
    argmaxes = []
    for level_values in prev.values:
        cand = level_values[:, succ] - psi[None, None, :]
        obstacles.append(cand.max(axis=2))
        argmaxes.append(cand.argmax(axis=2))
    return tuple(obstacles), tuple(argmaxes)


def iterate_value(
    prev: ValueField, tree: ScenarioTree, model: ImpulseModel, states=None, *, _tables=None
) -> ValueField:
    """One reflected step: Y_k = max(E[Y_{k+1}] + h*dt, obstacle from the
    previous field) on the next field's ``states`` (see _next_states).
    Terminal value stays 0 (no impulses at the horizon; the terminal
    obstacle is <= -cost floor and never binds)."""
    states = _next_states(prev, states)
    tables = _tables if _tables is not None else reward_tables(tree, model, states)
    return _sweep(tree, model, states, _reward_driver(tables), prev)


@dataclass
class ValueIterationResult:
    fields: "list[ValueField]"
    stalled: bool
    stall_index: "int | None"
    sup_increments: "list[float]"
    budget: int
    states: "tuple[ImpulseState, ...]"

    @property
    def top(self) -> ValueField:
        return self.fields[-1]

    @property
    def y0(self) -> float:
        return self.top.root_value()

    @property
    def per_iteration_y0(self) -> "list[float]":
        return [f.root_value() for f in self.fields]


def _reflect_until_stall(states, budget: int, tol: float, sweep) -> ValueIterationResult:
    """The value iteration both modes share: Y^0 = sweep(None, states of
    Y^0), then Y^n = sweep(Y^{n-1}, states of Y^n) until the sup-norm of
    Y^n - Y^{n-1} over Y^n's (node, state) pairs drops to ``tol`` or n
    reaches the budget.  Y^n covers the states reachable with at most
    budget - n impulses."""
    fields = [sweep(None, field_states(states, budget))]
    stalled = budget == 0  # no impulse is ever admissible, Y0 is the value
    stall_index = 0 if stalled else None
    sups = []
    for n in range(1, budget + 1):
        nxt = sweep(fields[-1], field_states(states, budget - n))
        sup = max(
            float(np.max(np.abs(b - a[:, : b.shape[1]]))) for a, b in zip(fields[-1].values, nxt.values)
        )
        fields.append(nxt)
        sups.append(sup)
        if sup <= tol:
            stalled = True
            stall_index = n
            break
    return ValueIterationResult(
        fields=fields,
        stalled=stalled,
        stall_index=stall_index,
        sup_increments=sups,
        budget=budget,
        states=tuple(states),
    )


def value_iteration(
    tree: ScenarioTree,
    model: ImpulseModel,
    tol: float = DEFAULT_TOL,
    budget: "int | None" = None,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> ValueIterationResult:
    """Iterate the reflected recursion until the sup-norm increment over all
    (node, state) pairs drops to ``tol`` or the impulse budget is reached.

    Returns the full field sequence (strategy extraction needs it) and
    whether stabilization occurred; hitting the budget without a stall is
    reported, not fatal.
    """
    if budget is None:
        budget = impulse_budget(model.reward_bound, model.cost_floor, tree.horizon)
    states = enumerate_states(model.impulses, budget, max_states)
    tables = reward_tables(tree, model, states)

    def sweep(prev, domain):
        if prev is None:
            return solve_y0(tree, model, domain, _tables=tables)
        return iterate_value(prev, tree, model, domain, _tables=tables)

    return _reflect_until_stall(states, budget, tol, sweep)


def _check_fields_consistent(fields, tol):
    for f in fields[1:]:
        for level_values, level_obs in zip(f.values, f.obstacle):
            if np.any(level_values < level_obs - tol):
                raise SolverError(f"field {f.n}: value below obstacle beyond tolerance (solver bug)")


def _extract_walk(fields, tree, model, tol):
    """Forward walk shared by strategy and strategy+control extraction,
    one level at a time over every node's (state index, remaining field m).

    From the root's zero shift and m = top iteration index: while field m
    meets its obstacle within tol at a node's state, apply its recorded
    argmax impulse there (chains at one date allowed) and step to field
    m - 1; then descend.  Returns the per-level chains, the post-chain
    (state index, m) arrays of levels 0..depth-1, and the top index.
    """
    if not fields:
        raise ValueError("empty field sequence")
    for j, f in enumerate(fields):
        if f.n != j:
            raise ValueError("fields must be the consecutive sequence Y0..Yn")
    _check_fields_consistent(fields, tol)

    top = len(fields) - 1
    succ = successor_table(fields[1].states, model.impulses, fields[0].states) if top else None
    s = np.zeros(1, dtype=np.int64)
    m = np.full(1, top, dtype=np.int64)
    chains, posts = [], []
    for k in range(tree.depth):
        cols = []
        live = np.flatnonzero(m > 0)
        while live.size:
            arg = np.full(live.size, -1, dtype=np.int64)
            for n in np.unique(m[live]).tolist():
                sel = np.flatnonzero(m[live] == n)
                nodes, st = live[sel], s[live[sel]]
                fld = fields[n]
                binds = np.abs(fld.values[k][nodes, st] - fld.obstacle[k][nodes, st]) <= tol
                arg[sel[binds]] = fld.obstacle_argmax[k][nodes[binds], st[binds]]
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
    return tuple(chains), posts, top


def extract_strategy(fields, tree: ScenarioTree, model: ImpulseModel, tol: float = DEFAULT_TOL) -> Strategy:
    """Extract the optimal strategy from a value-field sequence.

    Impulse wherever the remaining field meets its obstacle within tol
    (first-in-order impulse on argmax ties, simultaneous impulses allowed,
    none at the horizon); continue elsewhere.
    """
    chains, _, top = _extract_walk(fields, tree, model, tol)
    return Strategy(chains=chains, impulses=model.impulses, iteration=top, tol=tol)
