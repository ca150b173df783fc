"""Forward policy evaluation (exact and Monte Carlo), the exact discrete
change-of-measure tilt for controlled drift, and the brute-force strategy
enumeration oracle."""

from dataclasses import dataclass

import numpy as np

from .combined import HamiltonianSpec
from .expr import eval_expr
from .impulse import ImpulseModel
from .model import LimitError
from .strategy import Strategy, state_key, strategy_from_rule
from .tree import STACK_CELLS, ScenarioTree, path_env

MC_GENERATOR = "numpy.random.PCG64"
DEFAULT_ORACLE_CALL_LIMIT = 5_000_000


@dataclass(frozen=True)
class PolicyValue:
    """Expected reward of a policy with its reward/cost breakdown.

    ``std_error`` and the sampling fields are present for Monte Carlo
    estimates only.
    """

    value: float
    reward_integral: float
    impulse_cost: float
    method: str  # "exact" | "monte-carlo"
    samples: "int | None" = None
    std_error: "float | None" = None
    seed: "int | None" = None
    generator: "str | None" = None


@dataclass(frozen=True)
class PathStates:
    """Per-node impulse state along every path under a strategy: cumulative
    shift, impulse count, and the intervention cost charged at the node
    (all post-chain, since rewards accrue after same-date impulses)."""

    cum: "tuple[np.ndarray, ...]"
    count: "tuple[np.ndarray, ...]"
    cost: "tuple[np.ndarray, ...]"


def _walk_levels(model: ImpulseModel, strategy: Strategy):
    """walk_strategy_states one level at a time: (cum, count, cost)."""
    psi = np.array([model.costs[beta] for beta in strategy.impulses])
    for (shifts, count), chain in zip(strategy.walk(), strategy.chains):
        cost = np.zeros(chain.shape[0])
        for col in chain.T:
            on = col >= 0
            cost[on] += psi[col[on]]
        yield shifts[:, -1], count + np.count_nonzero(chain >= 0, axis=1), cost


def walk_strategy_states(model: ImpulseModel, strategy: Strategy) -> PathStates:
    """Every node's post-chain impulse state under the strategy, one level
    at a time (each node is reached by a unique path, so it is
    well-defined); a chain's costs are added in chain order."""
    return PathStates(*zip(*_walk_levels(model, strategy)))


def _same_depth(tree: ScenarioTree, strategy: Strategy) -> Strategy:
    if strategy.depth != tree.depth:
        raise ValueError(f"strategy depth {strategy.depth} does not match tree depth {tree.depth}")
    return strategy


def _walked(tree: ScenarioTree, model: ImpulseModel, strategy: Strategy, path_states) -> PathStates:
    return walk_strategy_states(model, _same_depth(tree, strategy)) if path_states is None else path_states


def _exact_value(tree: ScenarioTree, ps: PathStates, levels) -> PolicyValue:
    """The expected reward and cost, each node at level k weighted by 2^-k
    times its weight from ``levels`` (as _tilted_levels yields them)."""
    reward = 0.0
    cost = 0.0
    for k, (weights, h) in enumerate(levels):
        prob = 2.0 ** (-k)
        cost += prob * float(np.sum(weights * ps.cost[k]))
        if h is not None:
            reward += prob * float(np.sum(weights * h)) * tree.dt
    return PolicyValue(value=reward - cost, reward_integral=reward, impulse_cost=cost, method="exact")


def evaluate_strategy_exact(
    tree: ScenarioTree, model: ImpulseModel, strategy: Strategy, path_states=None
) -> PolicyValue:
    """Exact expected reward of a strategy: every node at level k carries
    probability 2^-k, rewards use the left endpoint and the post-chain
    path shift, costs are charged where impulses apply.

    ``path_states`` is the strategy's walk_strategy_states result, if the
    caller already has it; omitted, the strategy is walked here.
    """
    ps = _walked(tree, model, strategy, path_states)
    return _exact_value(tree, ps, _tilted_levels(tree, model.reward, ps.cum))


def _tilted_levels(tree: ScenarioTree, reward, shifts, spec: "HamiltonianSpec | None" = None, controls=None):
    """Per level k = 0..depth: each node's cumulative change-of-measure
    weight (1 without a spec) and, below the horizon, its reward, from one
    kernel evaluation per level at the node's path shift (``shifts[k]``)
    and ``controls`` entry.  Per step the up factor is 1 + theta*sqrt(dt)
    (twice the tilted up-probability), the down factor 1 - theta*sqrt(dt)."""
    tilt_of = (None, None) if spec is None else (spec.sigma, spec.grid.controlled_drift)
    weights = np.ones(1)
    for k in range(tree.depth):
        u = None if spec is None else controls[k]
        _, theta, h = tree.coefficients(k, shifts[k], u, *tilt_of, reward)
        tilt = np.broadcast_to(0.0 if theta is None else theta, weights.shape) * tree.sqrt_dt
        if not (np.abs(tilt) < 1).all():  # 0/0 = nan fails it too
            raise ValueError(f"tilt bound violated at level {k}: |f/sigma|*sqrt(dt) >= 1")
        yield weights, np.broadcast_to(h, weights.shape)
        nxt = np.empty(2 * weights.size)
        nxt[0::2] = weights * (1.0 + tilt)
        nxt[1::2] = weights * (1.0 - tilt)
        weights = nxt
    yield weights, None


def girsanov_weights(tree: ScenarioTree, spec: HamiltonianSpec, controls) -> np.ndarray:
    """Per-leaf positive weights turning reference-measure expectations into
    controlled-drift expectations on the uncontrolled path (zero impulse
    shift); they average exactly to 1.  ``controls[k]`` holds the control
    at each node of level k, as extract_pair returns them."""
    return list(_tilted_levels(tree, spec.reward, [0.0] * tree.depth, spec, controls))[-1][0]


def evaluate_pair(
    tree: ScenarioTree,
    model: ImpulseModel,
    spec: HamiltonianSpec,
    strategy: Strategy,
    controls,
    path_states=None,
) -> PolicyValue:
    """Exact expected reward of a (strategy, control) pair under the tilted
    measure: rewards and the tilt use the post-chain path shift and, at
    each node of level k, its entry of ``controls[k]`` (as extract_pair
    returns them).  ``path_states`` as in
    evaluate_strategy_exact."""
    ps = _walked(tree, model, strategy, path_states)
    return _exact_value(tree, ps, _tilted_levels(tree, spec.reward, ps.cum, spec, controls))


def impulse_count_distribution(
    tree: ScenarioTree, model: ImpulseModel, strategy: Strategy, path_states=None
) -> "dict[int, float]":
    """Probability of each total impulse count over the 2^depth paths.
    ``path_states`` as in evaluate_strategy_exact."""
    leaf_counts = _walked(tree, model, strategy, path_states).count[tree.depth]
    counts, paths = np.unique(leaf_counts, return_counts=True)
    return {int(c): float(n * 2.0 ** (-tree.depth)) for c, n in zip(counts.tolist(), paths)}


def enumerate_optimal(tree: ScenarioTree, model: ImpulseModel, max_impulses: int):
    """Exhaustive search over all adapted strategies with at most
    ``max_impulses`` impulses (decisions per (node, state); simultaneous
    chains allowed, none at the horizon).

    Direct recursive maximization over actions with no value fields and no
    memoization; intended for small depths as the independent optimum
    oracle.  Returns (best value, one optimizer); ties prefer impulsing
    with the earliest impulse in declared order.  More than
    DEFAULT_ORACLE_CALL_LIMIT recursive calls raise LimitError.
    """
    if max_impulses < 0:
        raise ValueError("max_impulses must be non-negative")
    depth = tree.depth
    dt = tree.dt
    calls = [0]

    def reward_at(level, index, cum):
        values = (float(a[level][index]) for a in (tree.state, tree.running_max, tree.running_min, tree.running_avg))
        return eval_expr(model.reward, path_env(float(tree.times[level]), *values, shift=cum))

    def choose(level, index, cum, count, remaining):
        """(value, action) at a node below the horizon: the first impulse in
        declared order that maximizes, unless continuing is strictly better
        (action None)."""
        top, action = None, None
        if remaining > 0:
            for beta in model.impulses:
                n_cum, n_count = state_key(cum + beta, count + 1)
                value = -model.costs[beta] + best(level, index, n_cum, n_count, remaining - 1)
                if top is None or value > top:
                    top, action = value, beta
        cont = reward_at(level, index, cum) * dt + 0.5 * (
            best(level + 1, 2 * index, cum, count, remaining)
            + best(level + 1, 2 * index + 1, cum, count, remaining)
        )
        return (cont, None) if top is None or cont > top else (top, action)

    def best(level, index, cum, count, remaining):
        calls[0] += 1
        if calls[0] > DEFAULT_ORACLE_CALL_LIMIT:
            raise LimitError(f"oracle search exceeded {DEFAULT_ORACLE_CALL_LIMIT} recursive calls")
        return 0.0 if level == depth else choose(level, index, cum, count, remaining)[0]

    def optimal_action(level, index, cum, count):
        return choose(level, index, cum, count, max_impulses - count)[1]

    value = best(0, 0, 0.0, 0, max_impulses)
    return value, strategy_from_rule(tree, optimal_action, model.impulses, max_chain=max_impulses)


def mc_evaluate_strategy(
    tree: ScenarioTree,
    model: ImpulseModel,
    strategy: Strategy,
    samples: int,
    seed: int,
) -> PolicyValue:
    """Monte Carlo estimate of a strategy's reward over sampled paths of the
    tree; deterministic for a fixed seed.

    Each node at level depth - 1 carries its path sums, in level order:
    0.0 + h_0*dt + h_1*dt + ... over its path's rewards (the kernel's, once
    per level, at the post-chain shifts of walk_strategy_states, walked a
    level at a time) and 0.0 + c_0 + c_1 + ... over its chain costs.  A
    sample is a path of signs (0 = up) and gathers both sums at the node
    its first depth - 1 signs reach, with the bits of simulating that path.
    The tree is released before sampling, so a caller that passes it
    unnamed frees it.  The samples are drawn STACK_CELLS at a time; a
    block's signs are int8, filled by draws of at most STACK_CELLS cells
    (consecutive draws of one generator continue a single draw), all depth
    of them, though the last reaches the horizon, where nothing accrues.
    So memory beyond the per-sample reward and cost is one block's and the
    path sums.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    depth = tree.depth
    sums = np.zeros((1, 2))  # each node's (reward, cost) path sums
    for k, (cum, _, cost) in zip(range(depth), _walk_levels(model, _same_depth(tree, strategy))):
        h = tree.coefficients(k, cum, reward=model.reward)[2]
        sums = np.repeat(sums, 2 if k else 1, axis=0) + np.stack(np.broadcast_arrays(h * tree.dt, cost), axis=1)
    del tree, cum, cost, h

    rng = np.random.default_rng(seed)
    rows = max(1, STACK_CELLS // depth)  # sign rows per draw
    reward_acc = np.empty(samples)
    cost_acc = np.empty(samples)
    for start in range(0, samples, STACK_CELLS):
        n = min(STACK_CELLS, samples - start)
        signs = np.empty((n, depth), dtype=np.int8)
        for r in range(0, n, rows):
            signs[r : r + rows] = rng.integers(0, 2, size=(min(rows, n - r), depth))
        node = np.zeros(n, dtype=np.int64)
        for col in signs.T[:-1]:  # to the node at level depth - 1; the last sign reaches the horizon
            node *= 2
            node += col
        reward_acc[start : start + n], cost_acc[start : start + n] = sums[node].T

    reward_integral = float(np.mean(reward_acc))
    impulse_cost = float(np.mean(cost_acc))
    values = np.subtract(reward_acc, cost_acc, out=reward_acc)
    del cost_acc
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return PolicyValue(
        value=mean,
        reward_integral=reward_integral,
        impulse_cost=impulse_cost,
        method="monte-carlo",
        samples=samples,
        std_error=std_error,
        seed=seed,
        generator=MC_GENERATOR,
    )
