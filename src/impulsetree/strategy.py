"""Strategies as arrays: the impulse chain applied at each node, the
forward walk of the impulse state along it, and its rows, the form the
strategy CSV and the oracle report use."""

from dataclasses import dataclass
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


def _shifted(cum: np.ndarray, codes: np.ndarray, impulses) -> np.ndarray:
    """shift_key(cum + impulses[code]) elementwise, rounding each distinct
    (shift, impulse) pair once."""
    pairs, inverse = np.unique(np.stack([cum, codes]), axis=1, return_inverse=True)
    return np.array([shift_key(c + impulses[int(b)]) for c, b in pairs.T.tolist()], dtype=float)[inverse]


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
        cum = np.zeros(1)
        count = np.zeros(1, dtype=np.int64)
        for chain in self.chains:
            cols = [cum]
            for col in chain.T:
                on = np.flatnonzero(col >= 0)
                nxt = cols[-1].copy()
                nxt[on] = _shifted(nxt[on], col[on], self.impulses)
                cols.append(nxt)
            yield np.stack(cols, axis=1), count
            cum = np.repeat(cols[-1], 2)
            count = np.repeat(count + np.count_nonzero(chain >= 0, axis=1), 2)

    def rows(self):
        """(level, index, state_cum, state_count, action, beta) rows in
        (level, index, count) order: each node's impulses in chain order,
        then its continue row at the post-chain state."""
        out = []
        for k, ((shifts, count), chain) in enumerate(zip(self.walk(), self.chains)):
            node, step = np.nonzero(np.arange(chain.shape[1] + 1) <= np.count_nonzero(chain >= 0, axis=1)[:, None])
            codes = np.pad(chain, ((0, 0), (0, 1)), constant_values=-1)[node, step]  # -1: the continue row
            betas = [None if b < 0 else self.impulses[b] for b in codes.tolist()]
            out.extend(
                (k, i, cum, n, "continue" if beta is None else "impulse", beta)
                for i, cum, n, beta in zip(
                    node.tolist(), shifts[node, step].tolist(), (count[node] + step).tolist(), betas
                )
            )
        return out

    @property
    def decisions(self):
        """Read-only {(level, index, state_key): Decision} view of rows()."""
        return MappingProxyType(
            {(lv, ix, (cum, ct)): Decision(act, beta) for lv, ix, cum, ct, act, beta in self.rows()}
        )

    def decision_at(self, level: int, index: int, cumulative: float, count: int) -> "Decision | None":
        return self.decisions.get((level, index, state_key(cumulative, count)))

    @classmethod
    def from_rows(cls, rows, impulses) -> "Strategy":
        """The strategy whose rows() are ``rows``, given in any order: each
        node's impulse rows, by state_count, form its chain, and its
        continue row ends it.  Raises StrategyRowError for the first row,
        in rows() order, that breaks this or differs from the rows the
        chains regenerate (a row off the strategy's own path)."""
        impulses = tuple(impulses)
        codes = {beta: impulses.index(beta) for beta in impulses}
        rows = [(lv, ix, shift_key(cum), ct, action, beta) for lv, ix, cum, ct, action, beta in rows]
        order = sorted(range(len(rows)), key=lambda p: (rows[p][0], rows[p][1], rows[p][3], rows[p][2]))
        depth = rows[order[-1]][0] if rows else 0
        steps = []  # (level, node, step, impulse index) of every impulse row
        level, index, step = 0, 0, 0
        for p in order:
            lv, ix, _, _, action, beta = rows[p]
            if (lv, ix) != (level, index):
                raise StrategyRowError(p, f"expected a row of node (level {level}, index {index}), got ({lv}, {ix})")
            if action == "continue":
                index, step = index + 1, 0
                if index == 2**level:
                    level, index = level + 1, 0
                continue
            if action != "impulse":
                raise StrategyRowError(p, f"unknown action {action!r}")
            if beta not in codes:
                raise StrategyRowError(p, f"impulse beta {beta!r} is not one of the impulses {impulses}")
            if level >= depth:
                raise StrategyRowError(p, f"impulse at the horizon (level {level})")
            steps.append((level, index, step, codes[beta]))
            step += 1
        if index or not rows:
            raise StrategyRowError(len(rows), f"missing the continue row of node (level {level}, index {index})")
        steps = np.array(steps, dtype=np.int64).reshape(-1, 4)
        chains = []
        for k in range(level):
            _, node, col, code = steps[steps[:, 0] == k].T
            chains.append(np.full((2**k, col.max(initial=-1) + 1), -1, dtype=np.int64))
            chains[k][node, col] = code
        strategy = cls(chains=tuple(chains), impulses=impulses)
        for p, expected in zip(order, strategy.rows()):
            if rows[p] != expected:
                raise StrategyRowError(p, f"expected the row {expected}")
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
