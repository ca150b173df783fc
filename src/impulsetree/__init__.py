"""Impulse control of path-dependent diffusions on exact binary scenario
trees: iterated reflected backward recursion, optimal strategy extraction,
combined stochastic/impulse control, and exact forward evaluation."""

from .combined import (
    HamiltonianSpec,
    combined_value_iteration,
    driver_tables,
    extract_pair,
)
from .evaluate import (
    PathStates,
    PolicyValue,
    enumerate_optimal,
    evaluate_pair,
    evaluate_strategy_exact,
    girsanov_weights,
    impulse_count_distribution,
    mc_evaluate_strategy,
    walk_strategy_states,
)
from .expr import (
    CoefficientExpr,
    EvalError,
    ExprError,
    eval_expr,
    parse_expr,
)
from .impulse import (
    SolverError,
    StateSpace,
    ValueField,
    ValueIterationResult,
    enumerate_states,
    extract_strategy,
    field_terms,
    impulse_budget,
    iterate_value,
    obstacle,
    solve_y0,
    value_iteration,
)
from .model import (
    AuditReport,
    AuditViolation,
    ConfigError,
    ControlGrid,
    ImpulseModel,
    LimitError,
    LoadedConfig,
    Numerics,
    ProcessModel,
    config_hash,
    load_config,
    validate_model,
)
from .snell import EnvelopeResult, PayoffProcess, snell_envelope, stopping_rule_value
from .strategy import Strategy, StrategyRowError, state_key, strategy_from_rule
from .tree import ScenarioTree, build_tree, cond_expect, reflect_backward, z_repr

__version__ = "0.1.0"
