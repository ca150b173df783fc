"""Problem data: process, impulse and control specifications, model audit,
and JSON config loading."""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expr import CoefficientExpr, EvalError, eval_expr, parse_expr

PATH_VARIABLES = frozenset({"t", "x", "xmax", "xmin", "xavg"})

DEFAULT_DEPTH = 10
DEFAULT_TOL = 1e-12


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


class LimitError(RuntimeError):
    """A configured size limit (tree nodes, states, search space) was hit."""


def _check_vars(expr, allowed, what):
    extra = expr.variables() - allowed
    if extra:
        raise ConfigError(f"{what} uses unsupported variable(s): {sorted(extra)}")


@dataclass(frozen=True)
class ProcessModel:
    """Uncontrolled state process: initial value, horizon and coefficients.

    ``sigma`` must evaluate strictly positive on every audited environment;
    ``drift`` is optional and must be absent in combined-control mode.
    """

    x0: float
    horizon: float
    sigma: CoefficientExpr
    drift: "CoefficientExpr | None" = None

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        _check_vars(self.sigma, PATH_VARIABLES, "sigma")
        if self.drift is not None:
            _check_vars(self.drift, PATH_VARIABLES, "drift")


@dataclass(frozen=True)
class ImpulseModel:
    """Impulse set, intervention cost table and running reward.

    ``costs`` maps each impulse value to its cost; the cost floor and the
    reward bound are declared by the user and audited against the built
    tree, not inferred.
    """

    impulses: "tuple[float, ...]"
    costs: "dict[float, float]"
    cost_floor: float
    reward_bound: float
    reward: CoefficientExpr

    def __post_init__(self):
        if not self.impulses:
            raise ConfigError("impulse set must be non-empty")
        if len(set(self.impulses)) != len(self.impulses):
            raise ConfigError("impulse set contains duplicates")
        if set(self.costs) != set(self.impulses):
            raise ConfigError("cost table must cover exactly the impulse set")
        _check_vars(self.reward, PATH_VARIABLES | {"u"}, "reward")

    def cost(self, beta: float) -> float:
        return self.costs[beta]


@dataclass(frozen=True)
class ControlGrid:
    """Finite control grid and the controlled-drift functional."""

    controls: "tuple[float, ...]"
    controlled_drift: CoefficientExpr

    def __post_init__(self):
        if not self.controls:
            raise ConfigError("control grid must be non-empty")
        if len(set(self.controls)) != len(self.controls):
            raise ConfigError("control grid contains duplicates")
        _check_vars(self.controlled_drift, PATH_VARIABLES | {"u"}, "controlled drift")


@dataclass(frozen=True)
class AuditViolation:
    rule: str  # "A1" | "A2" | "sigma" | "tilt"
    message: str
    level: "int | None" = None
    state: "tuple[float, int] | None" = None
    control: "float | None" = None


@dataclass(frozen=True)
class AuditReport:
    violations: "tuple[AuditViolation, ...]"
    nodes_checked: int = 0
    states_checked: int = 0
    controls_checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.passed:
            return (
                f"audit passed ({self.nodes_checked} nodes, "
                f"{self.states_checked} states, {self.controls_checked} controls)"
            )
        lines = [f"audit failed with {len(self.violations)} violation(s):"]
        for v in self.violations:
            where = []
            if v.level is not None:
                where.append(f"level {v.level}")
            if v.state is not None:
                where.append(f"state {v.state}")
            if v.control is not None:
                where.append(f"u={v.control}")
            suffix = f" [{', '.join(where)}]" if where else ""
            lines.append(f"  {v.rule}: {v.message}{suffix}")
        return "\n".join(lines)


def _scan(columns, rule, level, control, values, predicate, describe):
    """Append one violation entry to each (state key, entries) column whose
    nodes fail a vectorized check; ``values`` holds one column per entry of
    ``columns``, and a scalar counts as one node of every column."""
    bad = ~predicate(values)
    if values.ndim == 0:
        hits = [(j, 1, float(values)) for j in range(len(columns)) if bad]
    else:
        counts = np.count_nonzero(bad, axis=0)
        firsts = np.argmax(bad, axis=0)
        hits = [(j, int(counts[j]), float(values[firsts[j], j])) for j in np.flatnonzero(counts).tolist()]
    for j, count, sample in hits:
        key, entries = columns[j]
        message = f"{describe} at {count} node(s), e.g. value {sample!r}"
        entries.append(AuditViolation(rule, message, level, key, control))


def _audit_level(process, impulse, grid, tree, level, states):
    """The violations at one level, one (state key, entries) column per
    state, from one evaluation over the states' stacked shifts (per
    control): sigma first, then per control A1 and the tilt, which is
    scanned only where sigma is positive at every node.  With one state an
    EvalError is that state's violation; with several it propagates, and
    the caller re-runs each state alone."""
    env = tree.shifted_env(level, [st.cumulative for st in states])
    columns = [(st.key, []) for st in states]

    def evaluate(expr, env, rule, what, control=None):
        try:
            return np.asarray(eval_expr(expr, env))
        except EvalError as exc:
            if len(states) > 1:
                raise
            columns[0][1].append(AuditViolation(rule, f"{what} failed: {exc}", level, states[0].key, control))
            return None

    sigma = evaluate(process.sigma, env, "sigma", "evaluation")
    if sigma is None:
        return columns
    _scan(columns, "sigma", level, None, sigma, lambda v: v > 0, "sigma not strictly positive")
    positive = np.flatnonzero(np.all(sigma > 0, axis=0) if sigma.ndim else np.full(len(states), sigma > 0))
    tilted = [columns[j] for j in positive.tolist()]
    pick = lambda v: v[:, positive] if v.ndim else v
    gamma = impulse.reward_bound
    for u in grid.controls if grid is not None else (None,):
        env_u = env if u is None else {**env, "u": u}
        h = evaluate(impulse.reward, env_u, "A1", "reward evaluation", u)
        if h is None:
            continue
        _scan(columns, "A1", level, u, h, lambda v: (v >= 0) & (v <= gamma), f"reward outside [0, {gamma!r}]")
        if grid is not None and tilted:
            f_val = evaluate(grid.controlled_drift, env_u, "tilt", "drift evaluation", u)
            if f_val is None:
                continue
            tilt = np.abs(pick(f_val) / pick(sigma)) * tree.sqrt_dt
            _scan(tilted, "tilt", level, u, tilt, lambda v: v < 1, "measure tilt |f/sigma|*sqrt(dt) not below 1")
    return columns


def validate_model(process, impulse, grid, tree, budget=None) -> AuditReport:
    """Audit a built tree against the declared model bounds.

    Evaluates the reward, the volatility and (in combined mode) the measure
    tilt over every (node, reachable impulse shift, control) environment of
    levels 0..depth and reports, by state, then level, violations of the
    reward bound (A1), the cost floor (A2), sigma positivity and the tilt
    bound.  Violations are report entries, not exceptions; callers decide
    whether to abort.
    """
    from .impulse import enumerate_states, impulse_budget

    violations = []
    if impulse.cost_floor <= 0:
        violations.append(AuditViolation("A2", f"cost floor must be positive, got {impulse.cost_floor!r}"))
    for beta in impulse.impulses:
        if impulse.costs[beta] < impulse.cost_floor:
            violations.append(
                AuditViolation(
                    "A2",
                    f"cost of impulse {beta!r} is {impulse.costs[beta]!r}, below floor {impulse.cost_floor!r}",
                )
            )
    if impulse.reward_bound < 0:
        violations.append(AuditViolation("A1", f"reward bound must be non-negative, got {impulse.reward_bound!r}"))

    if impulse.cost_floor > 0 and impulse.reward_bound >= 0:
        if budget is None:
            budget = impulse_budget(impulse.reward_bound, impulse.cost_floor, tree.horizon)
    else:
        budget = 0
    states = enumerate_states(impulse.impulses, budget)

    by_state = [[] for _ in states]
    for level in range(tree.depth + 1):
        for cols in tree.shift_blocks(level, len(states)):
            try:
                columns = _audit_level(process, impulse, grid, tree, level, states[cols])
            except EvalError:
                columns = [_audit_level(process, impulse, grid, tree, level, [st])[0] for st in states[cols]]
            for entries, (_, found) in zip(by_state[cols], columns):
                entries.extend(found)

    return AuditReport(
        violations=tuple(violations) + tuple(v for entries in by_state for v in entries),
        nodes_checked=tree.node_count,
        states_checked=len(states),
        controls_checked=len(grid.controls) if grid is not None else 0,
    )


@dataclass(frozen=True)
class Numerics:
    depth: int = DEFAULT_DEPTH
    tol: float = DEFAULT_TOL
    budget: "int | None" = None


@dataclass(frozen=True)
class LoadedConfig:
    process: ProcessModel
    impulse: ImpulseModel
    grid: "ControlGrid | None"
    numerics: Numerics
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _as_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _as_expr(value, what):
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be an expression string, got {value!r}")
    try:
        return parse_expr(value)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _check_keys(section, allowed, required, what):
    if not isinstance(section, dict):
        raise ConfigError(f"{what} section must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {what}: {sorted(missing)}")


def load_config(source) -> LoadedConfig:
    """Load a problem config from a dict, a JSON string or a file path.

    Exact schema: {"process": {"x0", "T", "sigma", "drift"},
    "impulse": {"U", "psi", "c", "gamma", "h"}, "control": {"V", "f"}|null,
    "numerics": {"depth", "tol", "budget"}} with numerics optional.
    """
    if isinstance(source, (str, Path)) and not (isinstance(source, str) and source.lstrip().startswith("{")):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text(encoding="utf-8")
    elif isinstance(source, str):
        text = source
    else:
        text = None

    if text is not None:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    _check_keys(raw, {"process", "impulse", "control", "numerics"}, {"process", "impulse"}, "config")

    proc_raw = raw["process"]
    _check_keys(proc_raw, {"x0", "T", "sigma", "drift"}, {"x0", "T", "sigma"}, "process")
    drift_raw = proc_raw.get("drift")
    process = ProcessModel(
        x0=_as_number(proc_raw["x0"], "process.x0"),
        horizon=_as_number(proc_raw["T"], "process.T"),
        sigma=_as_expr(proc_raw["sigma"], "process.sigma"),
        drift=None if drift_raw is None else _as_expr(drift_raw, "process.drift"),
    )

    imp_raw = raw["impulse"]
    _check_keys(imp_raw, {"U", "psi", "c", "gamma", "h"}, {"U", "psi", "c", "gamma", "h"}, "impulse")
    if not isinstance(imp_raw["U"], list) or not imp_raw["U"]:
        raise ConfigError("impulse.U must be a non-empty list of numbers")
    impulses = tuple(_as_number(v, "impulse.U entry") for v in imp_raw["U"])
    if not isinstance(imp_raw["psi"], dict):
        raise ConfigError("impulse.psi must be an object keyed by impulse value")
    costs = {}
    for key, value in imp_raw["psi"].items():
        try:
            beta = float(key)
        except ValueError:
            raise ConfigError(f"impulse.psi key {key!r} is not a number") from None
        if beta not in impulses:
            raise ConfigError(f"impulse.psi key {key!r} does not match any impulse in U")
        costs[beta] = _as_number(value, f"impulse.psi[{key!r}]")
    impulse = ImpulseModel(
        impulses=impulses,
        costs=costs,
        cost_floor=_as_number(imp_raw["c"], "impulse.c"),
        reward_bound=_as_number(imp_raw["gamma"], "impulse.gamma"),
        reward=_as_expr(imp_raw["h"], "impulse.h"),
    )

    grid = None
    if raw.get("control") is not None:
        ctl_raw = raw["control"]
        _check_keys(ctl_raw, {"V", "f"}, {"V", "f"}, "control")
        if not isinstance(ctl_raw["V"], list) or not ctl_raw["V"]:
            raise ConfigError("control.V must be a non-empty list of numbers")
        grid = ControlGrid(
            controls=tuple(_as_number(v, "control.V entry") for v in ctl_raw["V"]),
            controlled_drift=_as_expr(ctl_raw["f"], "control.f"),
        )
        if process.drift is not None:
            raise ConfigError("process.drift must be null in combined mode; drift enters via control.f")
    elif "u" in impulse.reward.variables():
        raise ConfigError("impulse.h uses 'u' but no control section is present")

    numerics = Numerics()
    if "numerics" in raw and raw["numerics"] is not None:
        num_raw = raw["numerics"]
        _check_keys(num_raw, {"depth", "tol", "budget"}, set(), "numerics")
        budget = num_raw.get("budget")
        numerics = Numerics(
            depth=_as_int(num_raw["depth"], "numerics.depth") if "depth" in num_raw else DEFAULT_DEPTH,
            tol=_as_number(num_raw["tol"], "numerics.tol") if "tol" in num_raw else DEFAULT_TOL,
            budget=None if budget is None else _as_int(budget, "numerics.budget"),
        )

    return LoadedConfig(process=process, impulse=impulse, grid=grid, numerics=numerics, raw=raw)
