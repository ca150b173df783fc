"""Discrete Snell envelope: smallest supermartingale dominating a payoff
process on the tree, with optimal stopping extraction."""

import numpy as np

from .model import DEFAULT_TOL
from .record import record
from .tree import cond_expect, reflect_backward


@record
class PayoffProcess:
    """Per-node payoff values, one array of length 2^k per level."""

    values: "tuple[np.ndarray, ...]"

    def __post_init__(self):
        for k, arr in enumerate(self.values):
            if arr.shape != (2**k,):
                raise ValueError(f"level {k} must have {2**k} values, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite payoff at level {k}")

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    @classmethod
    def from_arrays(cls, values) -> "PayoffProcess":
        return cls(tuple(np.asarray(a, dtype=np.float64) for a in values))


@record
class EnvelopeResult:
    """Envelope values, the stopping region (envelope meets payoff within
    tol) and the earliest stopping level reachable from each node."""

    envelope: "tuple[np.ndarray, ...]"
    stop_region: "tuple[np.ndarray, ...]"
    first_optimal_stop: "tuple[np.ndarray, ...]"


def snell_envelope(payoff: PayoffProcess, tol: float = DEFAULT_TOL) -> EnvelopeResult:
    """Backward induction V_N = X_N, V_k = max(X_k, E[V_{k+1} | node]): the
    reflected kernel's one-field case, the payoff levels as obstacle and as
    terminal value, no driver (a payoff is checked finite when built)."""
    depth = payoff.depth
    envelope = reflect_backward([[None] * depth + [payoff.values[depth].copy()]], lambda n, k: payoff.values[k])[0]
    stop = [np.abs(v - x) <= tol for v, x in zip(envelope[:depth], payoff.values)]
    stop.append(np.ones(2**depth, dtype=bool))
    first_stop = [None] * depth + [np.full(2**depth, depth, dtype=np.int64)]
    for k in range(depth - 1, -1, -1):  # the debut: the earliest stop below each node
        child_first = first_stop[k + 1]
        first_stop[k] = np.where(stop[k], k, np.minimum(child_first[0::2], child_first[1::2]))

    return EnvelopeResult(
        envelope=tuple(envelope),
        stop_region=tuple(stop),
        first_optimal_stop=tuple(first_stop),
    )


def stopping_rule_value(payoff: PayoffProcess, result: EnvelopeResult) -> float:
    """Expected payoff of stopping at the first entry into the stopping
    region (the debut rule); equals the root envelope value."""
    depth = payoff.depth
    value = payoff.values[depth].copy()
    for k in range(depth - 1, -1, -1):
        cont = cond_expect(value)
        value = np.where(result.stop_region[k], payoff.values[k], cont)
    return float(value[0])
