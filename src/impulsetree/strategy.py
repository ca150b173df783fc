"""Strategies as arrays: the impulse chain applied at each node, the
forward walk of the impulse state along it, and its rows, the form the
strategy CSV and the oracle report use."""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

STATE_DECIMALS = 12


def shift_key(cumulative: float) -> float:
    """Cumulative shift rounded to the dedup precision (12 decimals, with
    -0.0 folded into 0.0)."""
    return round(float(cumulative), STATE_DECIMALS) + 0.0


def state_key(cumulative: float, count: int) -> "tuple[float, int]":
    """Strategy key of a walker's impulse state: the rounded cumulative
    shift plus the number of impulses applied so far."""
    return (shift_key(cumulative), int(count))


@dataclass(frozen=True)
class Decision:
    action: str  # "continue" | "impulse"
    beta: "float | None" = None


class StrategyRowError(ValueError):
    """A strategy row that does not fit the strategy the rows describe;
    ``position`` is its index in the rows given (their count for a row
    missing at the end)."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


def _shift_keys(values: np.ndarray) -> np.ndarray:
    """shift_key elementwise, rounding each distinct value once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([shift_key(v) for v in distinct.tolist()], dtype=float)[inverse]


def _level_and_index(flat: np.ndarray):
    """(level, index) of each breadth-first node number 2^level - 1 + index."""
    level = np.frexp(flat + 1.0)[1].astype(np.int64) - 1
    return level, flat + 1 - (np.int64(1) << level)


@dataclass(frozen=True, eq=False)
class Strategy:
    """The impulse chain applied at each node of the tree.

    ``chains[k]`` has shape (2^k, c_k): row i holds the indices into
    ``impulses`` applied in order at node (k, i), padded with -1, and c_k
    is the longest chain on level k (0 at the horizon, where impulses are
    forbidden).  Each node of the non-recombining tree has one history, so
    the chains fix the impulse state at every node.
    """

    chains: "tuple[np.ndarray, ...]"
    impulses: "tuple[float, ...]"
    iteration: "int | None" = None
    tol: "float | None" = None

    @property
    def depth(self) -> int:
        return len(self.chains) - 1

    @property
    def impulse_decision_count(self) -> int:
        return sum(int(np.count_nonzero(chain >= 0)) for chain in self.chains)

    def walk(self):
        """Yield, level by level, (shifts, count): shifts[i, j] is node i's
        cumulative shift before its j-th impulse and the last column its
        post-chain shift (a shorter chain repeats it); count[i] is the
        number of impulses applied before the node."""
        impulses = np.asarray(self.impulses, dtype=float)
        cum = np.zeros(1)
        count = np.zeros(1, dtype=np.int64)
        for chain in self.chains:
            cols = [cum]
            for col in chain.T:
                on = np.flatnonzero(col >= 0)
                nxt = cols[-1].copy()
                nxt[on] = _shift_keys(nxt[on] + impulses[col[on]])
                cols.append(nxt)
            yield np.stack(cols, axis=1), count
            cum = np.repeat(cols[-1], 2)
            count = np.repeat(count + np.count_nonzero(chain >= 0, axis=1), 2)

    def row_arrays(self):
        """rows() as arrays (level, index, state_cum, state_count, code),
        where code indexes ``impulses`` and is -1 on a continue row."""
        parts = []
        for k, ((shifts, count), chain) in enumerate(zip(self.walk(), self.chains)):
            node, step = np.nonzero(np.arange(chain.shape[1] + 1) <= np.count_nonzero(chain >= 0, axis=1)[:, None])
            code = np.pad(chain, ((0, 0), (0, 1)), constant_values=-1)[node, step]  # -1: the continue row
            parts.append((np.full(node.size, k), node, shifts[node, step], count[node] + step, code))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def rows(self):
        """(level, index, state_cum, state_count, action, beta) rows in
        (level, index, count) order: each node's impulses in chain order,
        then its continue row at the post-chain state."""
        level, index, cum, count, code = self.row_arrays()
        decisions = [("continue", None)] + [("impulse", beta) for beta in self.impulses]
        return [
            (k, i, c, n, *decisions[b + 1])
            for k, i, c, n, b in zip(level.tolist(), index.tolist(), cum.tolist(), count.tolist(), code.tolist())
        ]

    @cached_property
    def decisions(self):
        """Read-only {(level, index, state_key): Decision} view of rows(),
        built on first access."""
        return MappingProxyType(
            {(lv, ix, (cum, ct)): Decision(act, beta) for lv, ix, cum, ct, act, beta in self.rows()}
        )

    def decision_at(self, level: int, index: int, cumulative: float, count: int) -> "Decision | None":
        return self.decisions.get((level, index, state_key(cumulative, count)))

    @classmethod
    def from_rows(cls, rows, impulses) -> "Strategy":
        """The strategy whose rows() are ``rows``, given in any order; see
        from_columns."""
        return cls.from_columns(*(list(zip(*rows)) or [()] * 6), impulses)

    @classmethod
    def from_columns(cls, level, index, cum, count, action, beta, impulses) -> "Strategy":
        """The strategy whose rows() are the rows of these columns, given in
        any order: each node's impulse rows, by state_count, form its chain,
        and its continue row ends it.  Raises StrategyRowError for the first
        row, in rows() order, that breaks this or differs from the rows the
        chains regenerate (a row off the strategy's own path)."""
        impulses = tuple(impulses)
        n = len(action)
        # kind: an impulse row's code into impulses, or one of these
        CONTINUE, CONTINUE_WITH_BETA, BAD_BETA, BAD_ACTION = -1, -2, -3, -4
        IMPULSE = NO_BETA = -5  # the action and the beta column's markers
        codes = {beta: impulses.index(beta) for beta in impulses}
        acts = {a: {"continue": CONTINUE, "impulse": IMPULSE}.get(a, BAD_ACTION) for a in set(action)}
        betas = {b: NO_BETA if b is None else codes.get(b, BAD_BETA) for b in set(beta)}
        act = np.fromiter(map(acts.__getitem__, action), np.int64, n)
        code = np.fromiter(map(betas.__getitem__, beta), np.int64, n)
        kind = np.where(
            act == CONTINUE,
            np.where(code == NO_BETA, CONTINUE, CONTINUE_WITH_BETA),
            np.where(act == IMPULSE, np.where(code >= 0, code, BAD_BETA), BAD_ACTION),
        )
        level, index, count = (np.asarray(c, dtype=np.int64).reshape(n) for c in (level, index, count))
        keys = _shift_keys(np.asarray(cum, dtype=float).reshape(n))
        order = np.lexsort((keys, count, index, level))
        level, index, keys, count, kind = level[order], index[order], keys[order], count[order], kind[order]

        # In order, the rows walk the nodes breadth first, a continue row
        # ending its node: node[r] is the node row r must belong to.
        is_continue = (kind == CONTINUE) | (kind == CONTINUE_WITH_BETA)
        node = np.cumsum(is_continue) - is_continue
        node_level, node_index = _level_and_index(node)
        faults = (
            (level != node_level) | (index != node_index),
            kind == BAD_ACTION,
            kind == BAD_BETA,
            (kind >= 0) & (node_level >= level.max(initial=0)),  # the largest level is the horizon
        )
        bad = np.logical_or.reduce(faults)
        if bad.any():
            r = int(np.argmax(bad))
            p = int(order[r])
            messages = (
                f"expected a row of node (level {node_level[r]}, index {node_index[r]}), got ({level[r]}, {index[r]})",
                f"unknown action {action[p]!r}",
                f"impulse beta {beta[p]!r} is not one of the impulses {impulses}",
                f"impulse at the horizon (level {node_level[r]})",
            )
            raise StrategyRowError(p, next(m for m, fault in zip(messages, faults) if fault[r]))
        (end_level,), (end_index,) = _level_and_index(np.array([np.count_nonzero(is_continue)]))
        if end_index or not n:
            raise StrategyRowError(n, f"missing the continue row of node (level {end_level}, index {end_index})")

        impulse = np.flatnonzero(kind >= 0)
        node_start = np.concatenate(([0], np.flatnonzero(is_continue) + 1))
        step = impulse - node_start[node[impulse]]
        chains = []
        for k in range(end_level):
            on = node_level[impulse] == k
            chain = np.full((2**k, step[on].max(initial=-1) + 1), -1, dtype=np.int64)
            chain[node_index[impulse[on]], step[on]] = kind[impulse[on]]
            chains.append(chain)
        strategy = cls(chains=tuple(chains), impulses=impulses)
        mismatch = np.logical_or.reduce(
            [got != want for got, want in zip((level, index, keys, count, kind), strategy.row_arrays())]
        )
        if mismatch.any():
            r = int(np.argmax(mismatch))
            raise StrategyRowError(int(order[r]), f"expected the row {strategy.rows()[r]}")
        return strategy


def strategy_from_rule(tree, rule, impulses, max_chain: int = 1000) -> Strategy:
    """Build a complete strategy from ``rule(level, index, cumulative,
    count) -> beta or None`` (None means continue).  Useful for hand-made
    policies in tests and experiments; impulses at the horizon are rejected."""
    rows = []
    stack = [(0, 0, 0.0, 0)]
    while stack:
        level, index, cum, count = stack.pop()
        if level < tree.depth:
            for _ in range(max_chain + 1):
                beta = rule(level, index, cum, count)
                if beta is None:
                    break
                if beta not in impulses:
                    raise ValueError(f"rule returned {beta!r}, not an allowed impulse")
                rows.append((level, index, cum, count, "impulse", beta))
                cum, count = state_key(cum + beta, count + 1)
            else:
                raise ValueError("impulse chain exceeds max_chain; rule never continues")
        rows.append((level, index, cum, count, "continue", None))
        if level < tree.depth:
            stack.append((level + 1, 2 * index + 1, cum, count))
            stack.append((level + 1, 2 * index, cum, count))
    return Strategy.from_rows(rows, impulses)
