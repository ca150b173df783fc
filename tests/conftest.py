"""Shared instance builders for the test suite.

Instances are generated from seeds so every test is deterministic; the
builders keep rewards inside [0, gamma], volatilities strictly positive and
measure tilts inside the admissible band by construction, so the model
audit passes structurally.
"""

import numpy as np
import pytest

from impulsetree import build_tree, eval_expr, load_config, validate_model

# The pinned deterministic instance: near-zero volatility, reward
# clamp(x, 0, 1), single impulse of +1 costing 0.3.  One impulse at the
# root is optimal and worth 1*T - 0.3 = 0.7.
PINNED_CONFIG = {
    "process": {"x0": 0.0, "T": 1.0, "sigma": "0.000000001", "drift": None},
    "impulse": {"U": [1.0], "psi": {"1.0": 0.3}, "c": 0.1, "gamma": 1.0, "h": "clamp(x, 0, 1)"},
    "control": None,
    "numerics": {"depth": 2, "tol": 1e-12, "budget": None},
}


def _signed_zero_tie(h, x0):
    return {
        "process": {**PINNED_CONFIG["process"], "x0": x0},
        "impulse": {**PINNED_CONFIG["impulse"], "h": h},
        "control": {"V": [-1.0, 1.0], "f": "0*u"},
        "numerics": {**PINNED_CONFIG["numerics"], "depth": 3},
    }


# Combined pinned instances where f = 0*u makes the tilt -0.0 at u = -1 and
# +0.0 at u = 1.  In the second, where x*u < 1 under both controls, the
# driver candidates are -0.0 and +0.0: the max is one zero and the first
# argmax the other.  (clamp(x*u, 0, 1) never yields -0.0, so the first has
# no such tie.)
SIGNED_ZERO_TIES = {
    "clamp": _signed_zero_tie("clamp(x*u, 0, 1)", 0.0),
    "clamp-times-u": _signed_zero_tie("clamp(x*u - 1, 0, 1)*u", 0.5),
}


# (f, h) of combined configs that pass u-dependent arguments to every DSL
# function, so that evaluating the control grid broadcast is compared with
# one control at a time on exp, min, max, abs and clamp.  |f| <= 0.3 keeps
# the tilt bound under the sigma >= 0.7 of random_combined_config, and
# the clamp keeps h inside [0, 1].
U_FUNCTIONS = {
    "exp-abs": ("0.2*u*exp(-abs(x - u))", "clamp(0.4 + 0.1*exp(u*x) - 0.2*abs(x - u), 0, 1)"),
    "min-max": ("0.3*max(min(u, x), -1)", "clamp(0.3 + 0.2*max(u, xmax) - 0.1*min(u*x, 1), 0, 1)"),
}


def with_u_functions(config, name):
    """The combined ``config`` with U_FUNCTIONS[name] as its f and h."""
    f, h = U_FUNCTIONS[name]
    return {**config, "impulse": {**config["impulse"], "h": h}, "control": {**config["control"], "f": f}}


def random_impulse_config(seed, depth=None, tol=1e-12, budget=None):
    rng = np.random.default_rng(seed)
    if depth is None:
        depth = int(rng.integers(3, 9))
    gamma = 1.0
    c = round(float(rng.uniform(0.15, 0.4)), 4)
    n_u = int(rng.integers(1, 3))
    impulses = []
    while len(impulses) < n_u:
        v = round(float(rng.uniform(0.2, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0), 3)
        if v not in impulses:
            impulses.append(v)
    psi = {repr(v): round(c + float(rng.uniform(0.0, 0.3)), 6) for v in impulses}
    feat = str(rng.choice(["x", "xmax", "xmin", "xavg"]))
    a0 = round(float(rng.uniform(0.0, 0.8)), 4)
    a1 = round(float(rng.uniform(-1.0, 1.0)), 4)
    h = f"clamp({a0} + {a1}*{feat}, 0, {gamma})"
    s0 = round(float(rng.uniform(0.5, 1.0)), 4)
    s1 = round(float(rng.uniform(0.0, 0.3)), 4)
    sigma = f"{s0} + {s1}*clamp(abs(x), 0, 2)"
    drift = repr(round(float(rng.uniform(-0.3, 0.3)), 4)) if rng.random() < 0.5 else None
    x0 = round(float(rng.uniform(-0.5, 0.5)), 4)
    return {
        "process": {"x0": x0, "T": 1.0, "sigma": sigma, "drift": drift},
        "impulse": {"U": impulses, "psi": psi, "c": c, "gamma": gamma, "h": h},
        "control": None,
        "numerics": {"depth": depth, "tol": tol, "budget": budget},
    }


def random_comparison_pair(seed, depth=None):
    """Two configs identical except h2 >= h1 pointwise (same clamp window,
    inner expression shifted up)."""
    rng = np.random.default_rng(seed)
    base = random_impulse_config(seed, depth=depth)
    inner_gap = round(float(rng.uniform(0.05, 0.4)), 4)
    h1 = base["impulse"]["h"]
    inner = h1[len("clamp(") : h1.rfind(", 0, ")]
    h2 = f"clamp({inner} + {inner_gap}, 0, {base['impulse']['gamma']})"
    high = {**base, "impulse": {**base["impulse"], "h": h2}}
    return base, high


def random_combined_config(seed, depth=None, n_controls=None, tol=1e-12):
    rng = np.random.default_rng(seed)
    if depth is None:
        depth = int(rng.integers(3, 6))
    gamma = 1.0
    c = round(float(rng.uniform(0.2, 0.45)), 4)
    beta = round(float(rng.uniform(0.3, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0), 3)
    psi = {repr(beta): round(c + float(rng.uniform(0.0, 0.2)), 6)}
    if n_controls is None:
        n_controls = int(rng.integers(2, 4))
    controls = []
    while len(controls) < n_controls:
        v = round(float(rng.uniform(-1.0, 1.0)), 3)
        if v not in controls:
            controls.append(v)
    feat = str(rng.choice(["x", "xmax", "xavg"]))
    a0 = round(float(rng.uniform(0.1, 0.7)), 4)
    a1 = round(float(rng.uniform(-0.8, 0.8)), 4)
    a2 = round(float(rng.uniform(-0.3, 0.3)), 4)
    h = f"clamp({a0} + {a1}*{feat} + {a2}*u, 0, {gamma})"
    b0 = round(float(rng.uniform(0.1, 0.3)), 4)
    b1 = round(float(rng.uniform(-0.5, 0.5)), 4)
    f = f"{b0}*u*clamp(1 + {b1}*x, 0, 2)"
    s0 = round(float(rng.uniform(0.7, 1.2)), 4)
    s1 = round(float(rng.uniform(0.0, 0.25)), 4)
    sigma = f"{s0} + {s1}*clamp(abs(x), 0, 2)"
    x0 = round(float(rng.uniform(-0.5, 0.5)), 4)
    return {
        "process": {"x0": x0, "T": 1.0, "sigma": sigma, "drift": None},
        "impulse": {"U": [beta], "psi": psi, "c": c, "gamma": gamma, "h": h},
        "control": {"V": controls, "f": f},
        "numerics": {"depth": depth, "tol": tol, "budget": None},
    }


def with_impulse_chains(config, seed):
    """The config with reward clamp(x, 0, 1) (plus 0.1*u under control),
    cheap impulses of 0.3 (and a second size without control) and x0 below
    the reward window, so that optimal strategies apply chains of several
    impulses at several nodes."""
    rng = np.random.default_rng(seed)
    # the second size may round to 0.3: an impulse set holds no duplicates
    impulses = [0.3] if config["control"] else list(dict.fromkeys([0.3, round(float(rng.uniform(0.2, 0.6)), 3)]))
    impulse = {
        "U": impulses,
        "psi": {repr(b): round(0.1 + float(rng.uniform(0.0, 0.05)), 4) for b in impulses},
        "c": 0.1,
        "gamma": 1.0,
        "h": "clamp(x + 0.1*u, 0, 1)" if config["control"] else "clamp(x, 0, 1)",
    }
    x0 = round(float(rng.uniform(-0.5, 0.2)), 3)
    return {**config, "process": {**config["process"], "x0": x0}, "impulse": impulse}


def build_problem(config):
    """Load, build and audit; returns (loaded config, tree)."""
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    report = validate_model(loaded.process, loaded.impulse, loaded.grid, tree, budget=loaded.numerics.budget)
    assert report.passed, report.summary()
    return loaded, tree


def uniform_controls(tree, u):
    """Per-level controls applying the control ``u`` at every node."""
    return tuple(np.full(tree.level_size(k), float(u)) for k in range(tree.depth))


def node_env(tree, level, index, shift=0.0):
    """Scalar environment at one node: the entries of ``tree.env`` there."""
    return {name: v if name == "t" else float(v[index]) for name, v in tree.env(level, shift).items()}


def hamiltonian(t, env, z, u, spec):
    """Driver value z * f(t,w,u)/sigma(t,w) + h(t,w,u) at one scalar
    environment: the pointwise reference for driver_tables."""
    bound = {**env, "t": t, "u": u}
    sigma = eval_expr(spec.sigma, bound)
    drift = eval_expr(spec.grid.controlled_drift, bound)
    reward = eval_expr(spec.reward, bound)
    return z * drift / sigma + reward


def hamiltonian_max(t, env, z, spec):
    """Exhaustive maximum of the driver over the control grid: (best value,
    maximizer), ties to the control with the smallest grid index."""
    best_value = None
    best_u = None
    for u in spec.grid.controls:
        value = hamiltonian(t, env, z, u, spec)
        if best_value is None or value > best_value:
            best_value = value
            best_u = u
    return best_value, best_u


def dump_level_rows(tree, level):
    """Yield (level, index, t, L, xmax, xmin, xavg) rows for one level: the
    row-wise reference for the dump command."""
    if not 0 <= level <= tree.depth:
        raise ValueError(f"level must be in [0, {tree.depth}]")
    t = float(tree.times[level])
    for i in range(tree.level_size(level)):
        yield (
            level,
            i,
            t,
            float(tree.state[level][i]),
            float(tree.running_max[level][i]),
            float(tree.running_min[level][i]),
            float(tree.running_avg[level][i]),
        )


@pytest.fixture
def pinned_problem():
    return build_problem(PINNED_CONFIG)
