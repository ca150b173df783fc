"""Problem data: process, impulse and control specifications, model audit,
and JSON config loading."""

import json
from dataclasses import dataclass, field
from pathlib import Path
try:  # hashlib loads OpenSSL (about 3.6 MB resident) for this one digest; the built-in module does not
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

import numpy as np

from .expr import VARIABLES, CoefficientExpr, EvalError, eval_expr, parse_expr

PATH_VARIABLES = frozenset(VARIABLES[:-1])  # all but the control

DEFAULT_DEPTH = 10
DEFAULT_TOL = 1e-12


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


class LimitError(RuntimeError):
    """A configured size limit (tree nodes, states, search space) was hit."""


def _check_vars(expr, what):
    extra = expr.variables - PATH_VARIABLES
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
        _check_vars(self.sigma, "sigma")
        if self.drift is not None:
            _check_vars(self.drift, "drift")


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
            checked = (self.nodes_checked, self.states_checked, self.controls_checked)
            return "audit passed ({} nodes, {} states, {} controls)".format(*checked)
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


def _scan(columns, rule, level, controls, values, predicate, describe):
    """(control index, entries, violation) for each (control, (state key,
    entries) column) whose nodes fail a vectorized check, control-major.
    ``values`` is (controls, nodes, columns); a part without an axis there
    (one that reads no u, a column or node it does not depend on) counts
    as one entry of it, so a scalar fails at one node of every column."""
    values = np.reshape(values, (1,) * (3 - np.ndim(values)) + np.shape(values))
    bad = ~predicate(values)
    if not bad.any():
        return
    samples = np.take_along_axis(values, np.argmax(bad, axis=1)[:, None], axis=1)[:, 0]
    counts, samples = (np.broadcast_to(a, (len(controls), len(columns))) for a in (np.count_nonzero(bad, 1), samples))
    for c, j in np.argwhere(counts).tolist():
        message = f"{describe} at {counts[c, j]} node(s), e.g. value {float(samples[c, j])!r}"
        yield c, columns[j][1], AuditViolation(rule, message, level, columns[j][0], controls[c])


def _audit_level(process, impulse, grid, tree, level, keys):
    """The violations at one level, one (state key, entries) column per
    state key (shift, count), from one call of the coefficient kernel over
    the stacked shifts and the broadcast grid: sigma, then per control A1
    and the tilt (only where sigma is positive at every node), each scanned
    over all controls at once.  An EvalError propagates with several states
    (the caller re-runs each alone); with one, each coefficient and control
    is evaluated alone and a failure is that state's violation."""
    shifts = np.array([[cum for cum, _ in keys]])
    columns, hits = [(key, []) for key in keys], []  # hits: (control index, entries, violation)
    drift = None if grid is None else grid.controlled_drift

    def evaluate(u, i=slice(None), rule=None, what=None, **coefficients):  # part i of the kernel at u
        try:
            return tree.coefficients(level, shifts, u, **coefficients)[i]
        except EvalError as exc:
            if len(keys) > 1:
                raise
            if rule is not None:
                hits.append((0, columns[0][1], AuditViolation(rule, f"{what} failed: {exc}", level, keys[0], u)))

    controls = (None,) if grid is None else grid.controls
    grid_u = None if grid is None else np.array(controls)[:, None, None]
    whole = evaluate(grid_u, sigma=process.sigma, drift=drift, reward=impulse.reward)  # None: one state failed
    sigma = whole[0] if whole else evaluate(None, 0, "sigma", "evaluation", sigma=process.sigma)
    if sigma is not None:
        hits += _scan(columns, "sigma", level, (None,), sigma, lambda v: v > 0, "sigma not strictly positive")
        positive = np.all(sigma > 0, axis=0) if sigma.ndim else sigma > 0  # per column
        gamma, tilt_of = impulse.reward_bound, {"sigma": process.sigma, "drift": drift}
        in_bounds = lambda v: (v >= 0) & (v <= gamma)
        for us in [controls] if whole else [(u,) for u in controls]:  # the grid at once, else a control at a time
            h = whole[2] if whole else evaluate(us[0], 2, "A1", "reward evaluation", reward=impulse.reward)
            if h is None:
                continue
            hits += _scan(columns, "A1", level, us, h, in_bounds, f"reward outside [0, {gamma!r}]")
            if drift is not None and positive.any():
                theta = whole[1] if whole else evaluate(us[0], 1, "tilt", "drift evaluation", **tilt_of)
                if theta is not None:
                    tilt, what = np.abs(theta) * tree.sqrt_dt, "measure tilt |f/sigma|*sqrt(dt) not below 1"
                    hits += _scan(columns, "tilt", level, us, tilt, lambda v: (v < 1) | ~positive, what)
    for _, entries, violation in sorted(hits, key=lambda hit: hit[0]):  # stable: per control, A1 before the tilt
        entries.append(violation)
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
            message = f"cost of impulse {beta!r} is {impulse.costs[beta]!r}, below floor {impulse.cost_floor!r}"
            violations.append(AuditViolation("A2", message))
    if impulse.reward_bound < 0:
        violations.append(AuditViolation("A1", f"reward bound must be non-negative, got {impulse.reward_bound!r}"))

    if not (impulse.cost_floor > 0 and impulse.reward_bound >= 0):
        budget = 0
    elif budget is None:
        budget = impulse_budget(impulse.reward_bound, impulse.cost_floor, tree.horizon)
    states = enumerate_states(impulse.impulses, budget)
    keys = list(zip(states.shifts.tolist(), states.counts.tolist()))

    by_state = [[] for _ in keys]
    for level in range(tree.depth + 1):
        for cols in tree.shift_blocks(level, len(keys), 1 if grid is None else len(grid.controls)):
            try:
                columns = _audit_level(process, impulse, grid, tree, level, keys[cols])
            except EvalError:
                columns = [_audit_level(process, impulse, grid, tree, level, [key])[0] for key in keys[cols]]
            for entries, (_, found) in zip(by_state[cols], columns):
                entries.extend(found)

    return AuditReport(
        violations=tuple(violations) + tuple(v for entries in by_state for v in entries),
        nodes_checked=tree.node_count,
        states_checked=len(keys),
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
    return sha256(canonical.encode("utf-8")).hexdigest()


def _as_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) < 2**1024:  # NaN, inf fail
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
    elif impulse.reward.variables - PATH_VARIABLES:
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
