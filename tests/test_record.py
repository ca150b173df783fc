"""The record classes against what dataclasses makes of the same fields:
construction, defaults, argument faults, frozenness, equality, hash, repr
and field names; and a cold start that imports no dataclasses and runs no
generated code."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from impulsetree import (
    AuditReport,
    AuditViolation,
    ControlGrid,
    HamiltonianSpec,
    PayoffProcess,
    ScenarioTree,
    StateSpace,
    Strategy,
    ValueIterationResult,
    combined_value_iteration,
    evaluate_strategy_exact,
    extract_strategy,
    load_config,
    parse_expr,
    snell_envelope,
    value_iteration,
    walk_strategy_states,
)
from impulsetree.expr import BinOp, Call, Lit, Neg, Var
from impulsetree.model import ConfigError, ImpulseModel, ProcessModel
from impulsetree.record import FrozenInstanceError, record

from conftest import PINNED_CONFIG, build_problem, random_combined_config

IDENTITY = (StateSpace, Strategy, ScenarioTree)  # eq=False: equal only to themselves
MUTABLE = (ValueIterationResult,)
HIDDEN = {"LoadedConfig": ("raw",)}  # left out of the repr


def _samples():
    """One instance of each of the package's 23 record classes."""
    loaded, tree = build_problem(PINNED_CONFIG)
    result = value_iteration(tree, loaded.impulse)
    strategy = extract_strategy(result.fields, tree, loaded.impulse)
    combined, ctree = build_problem(random_combined_config(951, depth=3))
    spec = HamiltonianSpec(grid=combined.grid, sigma=combined.process.sigma, reward=combined.impulse.reward)
    cresult = combined_value_iteration(ctree, combined.impulse, spec)
    payoff = PayoffProcess.from_arrays([np.arange(2.0**k) for k in range(4)])
    ast = parse_expr("min(x, 1) - -2 * t").ast
    return [
        loaded, loaded.process, loaded.impulse, loaded.numerics, loaded.process.sigma, combined.grid, spec,
        ast, ast.left, ast.left.args[0], ast.right, ast.right.left, ast.right.left.operand,
        tree, result, result.states, result.fields[1], cresult.fields[1], strategy,
        AuditReport(violations=(AuditViolation("A1", "m", level=2),), nodes_checked=3), AuditViolation("A2", "n"),
        payoff, snell_envelope(payoff),
        evaluate_strategy_exact(tree, loaded.impulse, strategy), walk_strategy_states(loaded.impulse, strategy),
    ]


SAMPLES = _samples()


def _twin(cls):
    """The dataclass of ``cls``'s fields, defaults and flags."""
    fields = []
    for name, kind in cls.__annotations__.items():
        default, shown = cls.__dict__.get(name, dataclasses.MISSING), name not in HIDDEN.get(cls.__name__, ())
        fields.append((name, kind, dataclasses.field(default=default, repr=shown)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=cls not in MUTABLE, eq=cls not in IDENTITY)


def _outcome(call):
    """What a call gives: ("ok", its value), or the type of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # the behaviour compared is which exception, if any
        return type(exc)


def test_the_samples_cover_every_record_class():
    names = {type(s).__name__ for s in SAMPLES}
    assert len(names) == 23
    assert names >= {"Lit", "Var", "Neg", "BinOp", "Call", "CoefficientExpr", "ValueField", "PathStates"}


@pytest.mark.parametrize("obj", SAMPLES, ids=[f"{type(s).__name__}-{i}" for i, s in enumerate(SAMPLES)])
def test_a_record_behaves_as_its_dataclass(obj):
    cls = type(obj)
    twin = _twin(cls)
    names = cls.__match_args__
    assert names == twin.__match_args__ == tuple(f.name for f in dataclasses.fields(twin))
    values = [getattr(obj, name) for name in names]
    ref = twin(*values)
    assert repr(obj) == repr(ref)
    same, ref_same = cls(*values), twin(*values)
    by_keyword = cls(**dict(zip(reversed(names), reversed(values))))
    assert all(getattr(r, n) is v for r in (same, by_keyword) for n, v in zip(names, values))
    assert (same == obj) is (ref_same == ref) and (same != obj) is (ref_same != ref)
    assert (obj == obj) is (ref == ref) and (obj == object()) is False
    assert _outcome(lambda: hash(same) == hash(obj)) == _outcome(lambda: hash(ref_same) == hash(ref))
    for record_call, twin_call in [
        (lambda: cls(), lambda: twin()),
        (lambda: cls(*values, None), lambda: twin(*values, None)),
        (lambda: cls(*values, **{names[0]: values[0]}), lambda: twin(*values, **{names[0]: values[0]})),
        (lambda: cls(*values[:-1], unknown=1), lambda: twin(*values[:-1], unknown=1)),
        (lambda: setattr(same, names[0], values[0]), lambda: setattr(ref_same, names[0], values[0])),
        (lambda: setattr(same, "other", 1), lambda: setattr(ref_same, "other", 1)),
        (lambda: delattr(same, names[-1]), lambda: delattr(ref_same, names[-1])),
    ]:
        got, want = _outcome(record_call), _outcome(twin_call)
        if want is dataclasses.FrozenInstanceError:
            want = FrozenInstanceError
        assert got == want if isinstance(want, type) else isinstance(got, tuple)


def test_defaults_come_from_the_class():
    loaded = load_config(PINNED_CONFIG)
    with pytest.raises(TypeError, match=r"LoadedConfig\(\) takes"):  # raw has no default
        type(loaded)(loaded.process, loaded.impulse, None, loaded.numerics)
    assert loaded.config_hash == type(loaded)(*[getattr(loaded, n) for n in loaded.__match_args__]).config_hash
    assert "raw" not in repr(loaded) and repr(loaded).startswith("LoadedConfig(process=ProcessModel(x0=")
    assert AuditViolation("A1", "m") == AuditViolation("A1", "m", None, None, None)
    assert AuditViolation(message="m", rule="A1", control=0.5).control == 0.5


def test_post_init_checks_run_whatever_the_call():
    sigma = parse_expr("1")
    with pytest.raises(ConfigError, match="horizon must be positive"):
        ProcessModel(0.0, horizon=0.0, sigma=sigma)
    with pytest.raises(ConfigError, match="impulse set contains duplicates"):
        ImpulseModel((1.0, 1.0), {1.0: 0.1}, 0.1, 1.0, sigma)
    with pytest.raises(ConfigError, match="control grid must be non-empty"):
        ControlGrid(controls=(), controlled_drift=sigma)
    with pytest.raises(ValueError, match="level 1 must have 2 values"):
        PayoffProcess((np.zeros(1), np.zeros(3)))


def test_expression_nodes_are_equal_only_within_their_class():
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert Var("x") != Lit("x") and Lit(1.0) != Neg(Lit(1.0))
    nan = float("nan")
    assert Lit(nan) == Lit(nan)  # the field tuples hold the same object, as with dataclasses
    assert parse_expr("max(x, 2) + 1") == parse_expr("max(x,2)+1")
    assert {parse_expr("x"): 1}[parse_expr("x")] == 1
    assert repr(BinOp("+", Lit(1.0), Call("abs", (Var("x"),)))) == (
        "BinOp(op='+', left=Lit(value=1.0), right=Call(func='abs', args=(Var(name='x'),)))"
    )


def test_cached_properties_are_cached_on_frozen_records():
    expr = parse_expr("x + xmax * u")
    assert expr.variables is expr.variables == frozenset({"x", "xmax", "u"})
    strategy = next(s for s in SAMPLES if isinstance(s, Strategy))
    assert strategy.actions is strategy.actions
    with pytest.raises(AttributeError):
        expr.variables = frozenset()


def test_identity_records_and_the_mutable_result():
    for obj in SAMPLES:
        if isinstance(obj, IDENTITY):
            assert obj != type(obj)(*[getattr(obj, n) for n in obj.__match_args__])
            assert hash(obj) == object.__hash__(obj)
    result = next(s for s in SAMPLES if isinstance(s, ValueIterationResult))
    with pytest.raises(TypeError):
        hash(result)
    copy = ValueIterationResult(**vars(result))
    copy.stall_index = -1
    assert copy.stall_index == -1 and result.stall_index != -1 and copy != result


def test_record_options():
    @record(hidden=("b",))
    class Pair:
        a: int
        b: tuple = ()

    assert repr(Pair(1)) == "test_record_options.<locals>.Pair(a=1)"
    assert Pair(1) == Pair(1, ()) and Pair(1).b is Pair(1).b
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'a'"):
        Pair(1).a = 2
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'b'"):
        del Pair(1).b
    with pytest.raises(TypeError, match=r"Pair\(\) takes \('a', 'b'\): got 0 by position, \['b'\]"):
        Pair(b=())


def test_fields_come_from_annotations_the_class_serves():
    """A class whose annotations are served, not stored in its __dict__ (as
    under PEP 649 and 749 from Python 3.14): the fields are still found."""

    class Served(type):
        @property
        def __annotations__(cls):
            return {"a": int, "b": int}

    @record
    class Lazy(metaclass=Served):
        b = 2

    assert "__annotations__" not in Lazy.__dict__ and Lazy.__match_args__ == ("a", "b")
    assert Lazy(1) == Lazy(a=1, b=2) != Lazy(1, 3)
    assert repr(Lazy(1)) == "test_fields_come_from_annotations_the_class_serves.<locals>.Lazy(a=1, b=2)"


def test_a_cold_start_imports_no_dataclasses_and_runs_no_generated_code():
    """A fresh interpreter that imports the CLI: dataclasses writes each
    method as source and execs it, so its methods' code has the file name
    "<string>"; none of the package's classes may hold one."""
    child = """
import json, sys
import impulsetree.cli
generated = []
for name, module in list(sys.modules.items()):
    if name.startswith("impulsetree"):
        for cls in [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == name]:
            for attr, member in vars(cls).items():
                for fn in (member, getattr(member, "__func__", None), getattr(member, "fget", None), getattr(member, "func", None)):
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        generated.append(f"{name}.{cls.__name__}.{attr}")
print(json.dumps({"dataclasses": "dataclasses" in sys.modules, "generated": sorted(set(generated))}))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == {"dataclasses": False, "generated": []}
