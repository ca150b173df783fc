"""Forward policy evaluation (exact and Monte Carlo), the exact discrete
change-of-measure tilt for controlled drift, and the brute-force strategy
enumeration oracle."""

from dataclasses import dataclass

import numpy as np

from .combined import ControlTable, HamiltonianSpec
from .expr import eval_expr
from .impulse import Decision, ImpulseModel, Strategy, StrategyGapError, state_key
from .model import LimitError, ProcessModel
from .tree import NodeRef, ScenarioTree

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

    @classmethod
    def zero(cls, tree: ScenarioTree) -> "PathStates":
        return cls(
            cum=tuple(np.zeros(tree.level_size(k)) for k in range(tree.depth + 1)),
            count=tuple(np.zeros(tree.level_size(k), dtype=np.int64) for k in range(tree.depth + 1)),
            cost=tuple(np.zeros(tree.level_size(k)) for k in range(tree.depth + 1)),
        )


def _resolve_chain(strategy: Strategy, model_costs, level, index, cum, count, allow_impulse=True):
    """Apply the strategy's impulse chain at one node; returns the
    post-chain (cum, count, cost charged)."""
    cost = 0.0
    while True:
        decision = strategy.decision_at(level, index, cum, count)
        if decision is None:
            raise StrategyGapError(
                f"no decision for node ({level}, {index}) in state {state_key(cum, count)}"
            )
        if decision.action == "continue":
            return cum, count, cost
        if not allow_impulse:
            raise ValueError(f"impulse at the horizon (node ({level}, {index}))")
        cost += model_costs[decision.beta]
        cum, count = state_key(cum + decision.beta, count + 1)


def walk_strategy_states(tree: ScenarioTree, model: ImpulseModel, strategy: Strategy) -> PathStates:
    """Forward sweep over all nodes resolving the strategy's impulse chains;
    each node is reached by a unique path, so its post-chain state is
    well-defined."""
    cums = [None] * (tree.depth + 1)
    counts = [None] * (tree.depth + 1)
    costs = [None] * (tree.depth + 1)

    prev_cum = np.zeros(1)
    prev_count = np.zeros(1, dtype=np.int64)
    for k in range(tree.depth + 1):
        if k > 0:
            prev_cum = np.repeat(cums[k - 1], 2)
            prev_count = np.repeat(counts[k - 1], 2)
        size = tree.level_size(k)
        cum_k = np.empty(size)
        count_k = np.empty(size, dtype=np.int64)
        cost_k = np.zeros(size)
        for i in range(size):
            cum_k[i], count_k[i], cost_k[i] = _resolve_chain(
                strategy, model.costs, k, i, float(prev_cum[i]), int(prev_count[i]),
                allow_impulse=k < tree.depth,
            )
        cums[k] = cum_k
        counts[k] = count_k
        costs[k] = cost_k
    return PathStates(cum=tuple(cums), count=tuple(counts), cost=tuple(costs))


def _walked(tree: ScenarioTree, model: ImpulseModel, strategy: Strategy, path_states) -> PathStates:
    return walk_strategy_states(tree, model, strategy) if path_states is None else path_states


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
    reward = 0.0
    cost = 0.0
    for k in range(tree.depth + 1):
        weight = 2.0 ** (-k)
        cost += weight * float(np.sum(ps.cost[k]))
        if k < tree.depth:
            h = np.asarray(eval_expr(model.reward, tree.env(k, shift=ps.cum[k])))
            reward += weight * float(np.sum(np.broadcast_to(h, ps.cum[k].shape))) * tree.dt
    return PolicyValue(value=reward - cost, reward_integral=reward, impulse_cost=cost, method="exact")


def _weight_levels(tree: ScenarioTree, spec: HamiltonianSpec, controls: ControlTable, ps: PathStates):
    """Per-level arrays of the cumulative change-of-measure weight: per step
    the up factor is 1 + theta*sqrt(dt) (twice the tilted up-probability)
    and the down factor 1 - theta*sqrt(dt), with theta = f/sigma evaluated
    at the node's current path shift and recorded control."""
    weights = [np.ones(1)]
    for k in range(tree.depth):
        size = tree.level_size(k)
        u = np.empty(size)
        for i in range(size):
            u[i] = controls.control_at(k, i, float(ps.cum[k][i]), int(ps.count[k][i]))
        env = tree.env(k, shift=ps.cum[k], control=u)
        sigma = np.asarray(eval_expr(spec.sigma, env))
        theta = np.broadcast_to(
            np.asarray(eval_expr(spec.grid.controlled_drift, env)) / sigma, (size,)
        )
        tilt = theta * tree.sqrt_dt
        if np.any(np.abs(tilt) >= 1):
            raise ValueError(f"tilt bound violated at level {k}: |f/sigma|*sqrt(dt) >= 1")
        nxt = np.empty(2 * size)
        nxt[0::2] = weights[k] * (1.0 + tilt)
        nxt[1::2] = weights[k] * (1.0 - tilt)
        weights.append(nxt)
    return weights


def girsanov_weights(tree: ScenarioTree, spec: HamiltonianSpec, controls: ControlTable, path_states=None) -> np.ndarray:
    """Per-leaf positive weights turning reference-measure expectations into
    controlled-drift expectations; they average exactly to 1.

    ``path_states`` carries the impulse shift at each node (from
    walk_strategy_states); omitted it defaults to the zero shift, i.e. the
    tilt on the plain uncontrolled path.
    """
    if path_states is None:
        path_states = PathStates.zero(tree)
    return _weight_levels(tree, spec, controls, path_states)[tree.depth]


def evaluate_pair(
    tree: ScenarioTree,
    model: ImpulseModel,
    spec: HamiltonianSpec,
    strategy: Strategy,
    controls: ControlTable,
    path_states=None,
) -> PolicyValue:
    """Exact expected reward of a (strategy, control) pair under the tilted
    measure: rewards and the tilt use the post-chain path shift and the
    table's control at each node.  ``path_states`` as in
    evaluate_strategy_exact."""
    ps = _walked(tree, model, strategy, path_states)
    weights = _weight_levels(tree, spec, controls, ps)
    reward = 0.0
    cost = 0.0
    for k in range(tree.depth + 1):
        prob = 2.0 ** (-k)
        cost += prob * float(np.sum(weights[k] * ps.cost[k]))
        if k < tree.depth:
            size = tree.level_size(k)
            u = np.empty(size)
            for i in range(size):
                u[i] = controls.control_at(k, i, float(ps.cum[k][i]), int(ps.count[k][i]))
            env = tree.env(k, shift=ps.cum[k], control=u)
            h = np.broadcast_to(np.asarray(eval_expr(spec.reward, env)), (size,))
            reward += prob * float(np.sum(weights[k] * h)) * tree.dt
    return PolicyValue(value=reward - cost, reward_integral=reward, impulse_cost=cost, method="exact")


def impulse_count_distribution(
    tree: ScenarioTree, model: ImpulseModel, strategy: Strategy, path_states=None
) -> "dict[int, float]":
    """Probability of each total impulse count over the 2^depth paths.
    ``path_states`` as in evaluate_strategy_exact."""
    ps = _walked(tree, model, strategy, path_states)
    leaf_counts = ps.count[tree.depth]
    prob = 2.0 ** (-tree.depth)
    dist = {}
    for c in np.sort(np.unique(leaf_counts)):
        dist[int(c)] = float(np.count_nonzero(leaf_counts == c) * prob)
    return dist


def enumerate_optimal(
    tree: ScenarioTree,
    model: ImpulseModel,
    max_impulses: int,
    *,
    call_limit: int = DEFAULT_ORACLE_CALL_LIMIT,
):
    """Exhaustive search over all adapted strategies with at most
    ``max_impulses`` impulses (decisions per (node, state); simultaneous
    chains allowed, none at the horizon).

    Direct recursive maximization over actions with no value fields and no
    memoization; intended for small depths as the independent optimum
    oracle.  Returns (best value, one optimizer); ties prefer impulsing
    with the earliest impulse in declared order.
    """
    if max_impulses < 0:
        raise ValueError("max_impulses must be non-negative")
    depth = tree.depth
    dt = tree.dt
    calls = [0]

    def reward_at(level, index, cum):
        return eval_expr(model.reward, tree.node_env(NodeRef(level, index), shift=cum))

    def best(level, index, cum, count, remaining):
        calls[0] += 1
        if calls[0] > call_limit:
            raise LimitError(f"oracle search exceeded {call_limit} recursive calls")
        if level == depth:
            return 0.0
        top_value = None
        if remaining > 0:
            for beta in model.impulses:
                n_cum, n_count = state_key(cum + beta, count + 1)
                value = -model.costs[beta] + best(level, index, n_cum, n_count, remaining - 1)
                if top_value is None or value > top_value:
                    top_value = value
        cont = reward_at(level, index, cum) * dt + 0.5 * (
            best(level + 1, 2 * index, cum, count, remaining)
            + best(level + 1, 2 * index + 1, cum, count, remaining)
        )
        if top_value is None or cont > top_value:
            top_value = cont
        return top_value

    value = best(0, 0, 0.0, 0, max_impulses)

    decisions = {}
    stack = [(0, 0, 0.0, 0, max_impulses)]
    while stack:
        level, index, cum, count, remaining = stack.pop()
        while level < depth:
            action = None
            action_value = None
            if remaining > 0:
                for beta in model.impulses:
                    n_cum, n_count = state_key(cum + beta, count + 1)
                    v = -model.costs[beta] + best(level, index, n_cum, n_count, remaining - 1)
                    if action_value is None or v > action_value:
                        action_value = v
                        action = beta
            cont = reward_at(level, index, cum) * dt + 0.5 * (
                best(level + 1, 2 * index, cum, count, remaining)
                + best(level + 1, 2 * index + 1, cum, count, remaining)
            )
            if action is None or cont > action_value:
                break
            decisions[(level, index, state_key(cum, count))] = Decision("impulse", action)
            cum, count = state_key(cum + action, count + 1)
            remaining -= 1
        decisions[(level, index, state_key(cum, count))] = Decision("continue")
        if level < depth:
            stack.append((level + 1, 2 * index + 1, cum, count, remaining))
            stack.append((level + 1, 2 * index, cum, count, remaining))

    return value, Strategy(decisions=decisions, impulses=model.impulses, iteration=max_impulses)


def mc_evaluate_strategy(
    model: ImpulseModel,
    process: ProcessModel,
    strategy: Strategy,
    samples: int,
    seed: int,
) -> PolicyValue:
    """Monte Carlo estimate of a strategy's reward by simulating sign paths
    directly from the process coefficients (no tree build); deterministic
    for a fixed seed.

    The tree depth is inferred from the strategy's decision table.  Samples
    sharing a node share its whole sign prefix, so the impulse state is
    resolved once per visited node.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    depth = strategy.depth
    if depth < 1:
        raise ValueError("strategy covers no levels")
    dt = process.horizon / depth
    sqrt_dt = float(np.sqrt(dt))

    rng = np.random.default_rng(seed)
    downs = rng.integers(0, 2, size=(samples, depth))

    x = np.full(samples, float(process.x0))
    xmax = x.copy()
    xmin = x.copy()
    xsum = x.copy()
    node = np.zeros(samples, dtype=np.int64)
    cum = np.zeros(samples)
    count = np.zeros(samples, dtype=np.int64)
    reward_acc = np.zeros(samples)
    cost_acc = np.zeros(samples)

    for k in range(depth):
        t_k = k * dt
        # resolve impulse chains once per visited node (state is a function
        # of the node on a non-recombining tree), then gather per sample
        visited, first, sample_node = np.unique(node, return_index=True, return_inverse=True)
        resolved = [
            _resolve_chain(strategy, model.costs, k, node_id, cum_i, count_i)
            for node_id, cum_i, count_i in zip(visited.tolist(), cum[first].tolist(), count[first].tolist())
        ]
        n_cum, n_count, n_cost = (np.array(col) for col in zip(*resolved))
        cum = n_cum[sample_node]
        count = n_count[sample_node]
        cost_acc += n_cost[sample_node]
        del sample_node  # one sample-sized array fewer while the reward is evaluated

        env = {"t": t_k, "x": x + cum, "xmax": xmax + cum, "xmin": xmin + cum, "xavg": xsum / (k + 1) + cum}
        reward_acc += np.broadcast_to(np.asarray(eval_expr(model.reward, env)), x.shape) * dt

        env_plain = {"t": t_k, "x": x, "xmax": xmax, "xmin": xmin, "xavg": xsum / (k + 1)}
        sigma = np.broadcast_to(np.asarray(eval_expr(process.sigma, env_plain)), x.shape)
        if process.drift is not None:
            drift = np.broadcast_to(np.asarray(eval_expr(process.drift, env_plain)), x.shape)
        else:
            drift = 0.0
        db = sqrt_dt * (1.0 - 2.0 * downs[:, k])
        x = x + drift * dt + sigma * db
        xmax = np.maximum(xmax, x)
        xmin = np.minimum(xmin, x)
        xsum = xsum + x
        node = 2 * node + downs[:, k]

    values = reward_acc - cost_acc
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return PolicyValue(
        value=mean,
        reward_integral=float(np.mean(reward_acc)),
        impulse_cost=float(np.mean(cost_acc)),
        method="monte-carlo",
        samples=samples,
        std_error=std_error,
        seed=seed,
        generator=MC_GENERATOR,
    )
