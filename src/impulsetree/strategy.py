"""Strategies as arrays: the impulse chain applied at each node, the
forward walk of the impulse state along it, and its rows, the form the
strategy CSV and the oracle report use."""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

STATE_DECIMALS = 12
# Rows (or nodes) that a check, a gather or a regeneration of rows takes
# at once, so that its temporaries stay small beside the columns.
BLOCK_ROWS = 2**11


def shift_key(cumulative: float) -> float:
    """Cumulative shift rounded to the dedup precision (12 decimals, with
    -0.0 folded into 0.0)."""
    return round(float(cumulative), STATE_DECIMALS) + 0.0


def state_key(cumulative: float, count: int) -> "tuple[float, int]":
    """Strategy key of a walker's impulse state: the rounded cumulative
    shift plus the number of impulses applied so far."""
    return (shift_key(cumulative), int(count))


class StrategyRowError(ValueError):
    """A strategy row that does not fit the strategy the rows describe;
    ``position`` is its index in the rows given (their count for a row
    missing at the end)."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


def _blocks(n: int):
    """Slices of at most BLOCK_ROWS rows covering rows 0..n-1."""
    return (slice(r0, r0 + BLOCK_ROWS) for r0 in range(0, n, BLOCK_ROWS))


def _shift_keys(values: np.ndarray) -> np.ndarray:
    """shift_key elementwise, rounding each distinct value once."""
    distinct = np.sort(values)  # then the first of each run of equal values (np.unique would import numpy.ma)
    distinct = np.concatenate((distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]]))
    rounded = np.array([shift_key(v) for v in distinct.tolist()], dtype=float)
    keys = np.empty(values.size)
    for rows in _blocks(values.size):
        keys[rows] = rounded[np.searchsorted(distinct, values[rows])]
    return keys


def _level_and_index(flat: np.ndarray):
    """(level, index) of each breadth-first node number 2^level - 1 + index."""
    level = np.frexp(flat + 1.0)[1].astype(np.int64) - 1
    return level, flat + 1 - (np.int64(1) << level)


# A row's kind: an impulse row's code into the impulses, or one of these.
CONTINUE, CONTINUE_WITH_BETA, BAD_BETA, BAD_ACTION = -1, -2, -3, -4


class CodedColumn:
    """A column of few distinct values, held as each row's code into
    ``values``: row r holds values[codes[r]]."""

    def __init__(self, codes: np.ndarray, values):
        self.codes, self.values = codes, tuple(values)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, r):
        return self.values[self.codes[r]]


def _coded(column) -> CodedColumn:
    """A sequence as a CodedColumn, one code per distinct (equal) value."""
    if isinstance(column, CodedColumn):
        return column
    codes = {}
    return CodedColumn(np.fromiter((codes.setdefault(v, len(codes)) for v in column), np.int64, len(column)), codes)


def _row_kinds(action, beta, impulses) -> np.ndarray:
    """Each row's kind, looked up in a table over the distinct (action,
    beta) pairs."""
    action, beta = _coded(action), _coded(beta)
    codes = {b: impulses.index(b) for b in impulses}

    def kind(a, b):
        if a == "continue":
            return CONTINUE if b is None else CONTINUE_WITH_BETA
        if a != "impulse":
            return BAD_ACTION
        return BAD_BETA if b is None else codes.get(b, BAD_BETA)

    dtype = np.promote_types(np.int8, np.min_scalar_type(len(impulses)))
    table = np.array([[kind(a, b) for b in beta.values] for a in action.values], dtype=dtype)
    kinds = np.empty(len(action.codes), dtype)
    for rows in _blocks(kinds.size):
        kinds[rows] = table[action.codes[rows], beta.codes[rows]]
    return kinds


def _in_order(*columns) -> bool:
    """Whether the rows of these equally long columns, most significant
    column first, are in non-decreasing lexicographic order."""
    ordered = True
    for column in reversed(columns):
        a, b = column[:-1], column[1:]
        ordered = (a < b) | ((a == b) & ordered)
    return bool(np.all(ordered))


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
        for k, chain in enumerate(self.chains):
            cols = [cum]
            for col in chain.T:
                on = np.flatnonzero(col >= 0)
                nxt = cols[-1].copy()
                nxt[on] = _shift_keys(nxt[on] + impulses[col[on]])
                cols.append(nxt)
            yield np.stack(cols, axis=1), count
            if k < self.depth:
                cum = np.repeat(cols[-1], 2)
                count = np.repeat(count + np.count_nonzero(chain >= 0, axis=1), 2)

    def row_blocks(self):
        """Yield rows() as arrays (level, index, state_cum, state_count,
        code) for up to BLOCK_ROWS nodes of a level at a time, where code
        indexes ``impulses`` and is -1 on a continue row."""
        for k, ((shifts, count), chain) in enumerate(zip(self.walk(), self.chains)):
            for nodes in _blocks(chain.shape[0]):
                block = np.pad(chain[nodes], ((0, 0), (0, 1)), constant_values=-1)  # -1: the continue row
                node, step = np.nonzero(np.arange(block.shape[1]) <= np.count_nonzero(block >= 0, axis=1)[:, None])
                code = block[node, step]
                node += nodes.start
                yield np.full(node.size, k), node, shifts[node, step], count[node] + step, code

    def row_arrays(self):
        """rows() as arrays (level, index, state_cum, state_count, code)."""
        return tuple(np.concatenate(column) for column in zip(*self.row_blocks()))

    @cached_property
    def actions(self) -> "list[tuple[str, float | None]]":
        """The (action, beta) of a row whose code is c at index c + 1: the
        continue row first, then an impulse of each of ``impulses``."""
        return [("continue", None)] + [("impulse", beta) for beta in self.impulses]

    def rows(self):
        """(level, index, state_cum, state_count, action, beta) rows in
        (level, index, count) order: each node's impulses in chain order,
        then its continue row at the post-chain state."""
        level, index, cum, count, code = self.row_arrays()
        return [
            (k, i, c, n, *self.actions[b + 1])
            for k, i, c, n, b in zip(level.tolist(), index.tolist(), cum.tolist(), count.tolist(), code.tolist())
        ]

    @cached_property
    def decisions(self):
        """Read-only {(level, index, state_key): (action, beta)} view of
        rows(), built on first access."""
        return MappingProxyType({(lv, ix, (cum, ct)): (act, beta) for lv, ix, cum, ct, act, beta in self.rows()})

    @classmethod
    def from_rows(cls, rows, impulses) -> "Strategy":
        """The strategy whose rows() are ``rows``, given in any order; see
        from_columns."""
        return cls.from_columns(*(list(zip(*rows)) or [()] * 6), impulses)

    @classmethod
    def from_columns(cls, level, index, cum, count, action, beta, impulses) -> "Strategy":
        """The strategy whose rows() are the rows of these columns, given in
        any order: each node's impulse rows, by state_count, form its chain,
        and its continue row ends it.  ``action`` and ``beta`` are sequences
        (of str, and of float or None) or CodedColumns.  Raises
        StrategyRowError for the first row, in rows() order, that breaks
        this or differs from the rows the chains regenerate (a row off the
        strategy's own path)."""
        impulses = tuple(impulses)
        n = len(action)
        kind = _row_kinds(action, beta, impulses)
        level, index, count = (np.asarray(c, dtype=np.int64).reshape(n) for c in (level, index, count))
        keys = _shift_keys(np.asarray(cum, dtype=float).reshape(n))
        order = None  # rows() order is how the writers emit them: no gathers
        if not _in_order(level, index, count, keys):
            order = np.lexsort((keys, count, index, level))
            level, index, keys, count, kind = level[order], index[order], keys[order], count[order], kind[order]
        position = int if order is None else lambda r: int(order[r])

        # In order, the rows walk the nodes breadth first, a continue row
        # ending its node: node[r] is the node row r must belong to.
        is_continue = (kind == CONTINUE) | (kind == CONTINUE_WITH_BETA)
        node = np.cumsum(is_continue)
        node -= is_continue
        horizon = level.max(initial=0)
        for rows in _blocks(n):
            node_level, node_index = _level_and_index(node[rows])
            faults = (
                (level[rows] != node_level) | (index[rows] != node_index),
                kind[rows] == BAD_ACTION,
                kind[rows] == BAD_BETA,
                (kind[rows] >= 0) & (node_level >= horizon),  # the largest level is the horizon
            )
            bad = np.logical_or.reduce(faults)
            if bad.any():
                j = int(np.argmax(bad))
                r, p = rows.start + j, position(rows.start + j)
                messages = (
                    f"expected a row of node (level {node_level[j]}, index {node_index[j]}), got ({level[r]}, {index[r]})",
                    f"unknown action {action[p]!r}",
                    f"impulse beta {beta[p]!r} is not one of the impulses {impulses}",
                    f"impulse at the horizon (level {node_level[j]})",
                )
                raise StrategyRowError(p, next(m for m, fault in zip(messages, faults) if fault[j]))
        (end_level,), (end_index,) = _level_and_index(np.array([np.count_nonzero(is_continue)]))
        if end_index or not n:
            raise StrategyRowError(n, f"missing the continue row of node (level {end_level}, index {end_index})")

        # An impulse row's step in its chain: its place in its run of
        # impulse rows, which a continue row ends.
        impulse = np.flatnonzero(kind >= 0)
        new_run = np.diff(impulse, prepend=-2) != 1
        step = impulse - impulse[new_run][np.cumsum(new_run) - 1]
        impulse_level, impulse_index = _level_and_index(node[impulse])
        del is_continue, node
        chains = []
        for k in range(end_level):
            on = impulse_level == k
            chain = np.full((2**k, step[on].max(initial=-1) + 1), -1, dtype=np.int64)
            chain[impulse_index[on], step[on]] = kind[impulse[on]]
            chains.append(chain)
        strategy = cls(chains=tuple(chains), impulses=impulses)
        # The chains regenerate as many rows, node by node, as were given.
        r0 = 0
        for want in strategy.row_blocks():
            rows = slice(r0, r0 + want[0].size)
            got = (level[rows], index[rows], keys[rows], count[rows], kind[rows])
            mismatch = np.logical_or.reduce([g != w for g, w in zip(got, want)])
            if mismatch.any():
                j = int(np.argmax(mismatch))
                k, i, c, m, b = (w[j].item() for w in want)
                raise StrategyRowError(position(r0 + j), f"expected the row {(k, i, c, m, *strategy.actions[b + 1])}")
            r0 = rows.stop
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
