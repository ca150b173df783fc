"""Byte contract of every CSV the CLI writes, checked against a row-wise
reference built here with csv.writer: header and fields joined by ",",
"\\r\\n" line ends, floats as repr, ints as str, "" for no value."""

import csv
import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from impulsetree import (
    HamiltonianSpec,
    PayoffProcess,
    build_tree,
    combined_value_iteration,
    extract_strategy,
    field_terms,
    load_config,
    snell_envelope,
    value_iteration,
)
from impulsetree import cli, csvio, csvread
from impulsetree.combined import extract_pair
from impulsetree.impulse import StateSpace, ValueField

from conftest import PINNED_CONFIG, dump_level_rows, random_combined_config, random_impulse_config

# The default chunk size, 512 rows (the former default, which splits the
# larger files into several chunks), and one small enough that chunks split
# levels and a single node can exceed it.
CHUNK_SIZES = list(dict.fromkeys([csvio.CHUNK_ROWS, 512, 3]))


def _reference_csv(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else v) for v in row])
    return buf.getvalue().encode("utf-8")


def _values_rows(result, tree, terms=field_terms):
    for fld in result.fields:
        for level, (y, (z, k_inc)) in enumerate(zip(fld.values, terms(result, fld.n, tree))):
            for i in range(y.shape[0]):
                for j, (cum, count) in enumerate(zip(fld.states.shifts.tolist(), fld.states.counts.tolist())):
                    yield fld.n, level, i, cum, count, float(y[i, j]), float(z[i, j]), float(k_inc[i, j])


def _strategy_rows(strategy):
    for level, index, cum, count, action, beta in strategy.rows():
        yield level, index, float(cum), count, action, None if beta is None else float(beta)


def _solve_cli(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.run([command, "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
@pytest.mark.parametrize(
    "config", [PINNED_CONFIG, random_impulse_config(211, depth=4)], ids=["pinned", "random-impulse"]
)
def test_solve_csv_bytes(tmp_path, monkeypatch, chunk_rows, config):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    out = _solve_cli(tmp_path, "solve", config)
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol, budget=loaded.numerics.budget)
    strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol)

    assert (out / "values.csv").read_bytes() == _reference_csv(
        ["n", "level", "index", "state_cum", "state_count", "Y", "Z", "K_inc"], _values_rows(result, tree)
    )
    assert (out / "strategy.csv").read_bytes() == _reference_csv(list(csvread.FORMATS["strategy"]), _strategy_rows(strategy))
    # a continue row ends with an empty beta field
    assert b",continue,\r\n" in (out / "strategy.csv").read_bytes()


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
def test_solve_combined_csv_bytes(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    config = random_combined_config(212, depth=3)
    out = _solve_cli(tmp_path, "solve-combined", config)
    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
    result = combined_value_iteration(tree, loaded.impulse, spec, tol=loaded.numerics.tol)
    strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=loaded.numerics.tol)

    assert (out / "values.csv").read_bytes() == _reference_csv(
        ["n", "level", "index", "state_cum", "state_count", "Y", "Z", "K_inc"], _values_rows(result, tree)
    )
    assert (out / "strategy.csv").read_bytes() == _reference_csv(list(csvread.FORMATS["strategy"]), _strategy_rows(strategy))
    assert (out / "controls.csv").read_bytes() == _reference_csv(
        ["level", "index", "state_cum", "state_count", "u_star"],
        # a node's control belongs to its continue row's (post-chain) state
        (
            (lv, ix, float(cum), ct, float(controls[lv][ix]))
            for lv, ix, cum, ct, action, _ in strategy.rows()
            if action == "continue" and lv < tree.depth
        ),
    )


def _check_envelope_bytes(tmp_path, levels):
    """snell's envelope.csv for the payoff ``levels`` equals the csv.writer
    reference; returns its bytes."""
    depth = len(levels) - 1
    payoff_csv = tmp_path / "payoff.csv"
    with payoff_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(csvread.FORMATS["payoff"]))
        for k in range(depth, -1, -1):  # any row order is accepted
            writer.writerows((k, i, repr(v)) for i, v in enumerate(levels[k].tolist()))
    out = tmp_path / "run"
    assert cli.run(["snell", "--payoff", str(payoff_csv), "--out", str(out)]) == 0

    payoff = PayoffProcess.from_arrays(levels)
    result = snell_envelope(payoff, tol=1e-12)
    rows = (
        (k, i, float(payoff.values[k][i]), float(result.envelope[k][i]),
         int(result.stop_region[k][i]), int(result.first_optimal_stop[k][i]))
        for k in range(depth + 1)
        for i in range(2**k)
    )
    data = (out / "envelope.csv").read_bytes()
    assert data == _reference_csv(["level", "index", "payoff", "envelope", "stop", "first_stop"], rows)
    return data


@pytest.mark.parametrize(
    "levels, root_row",
    [([[-0.0], [0.0, 0.0]], b"0,0,-0.0,0.0,1,0"), ([[0.0], [-0.0, -0.0]], b"0,0,0.0,-0.0,1,0")],
    ids=["negative-payoff", "negative-continuation"],
)
def test_snell_tie_keeps_the_continuations_signed_zero(tmp_path, levels, root_row):
    """Where the payoff and the continuation compare equal as zeros of
    opposite sign, the envelope takes the continuation's sign."""
    levels = [np.array(level) for level in levels]
    continuation = float(0.5 * (levels[1][0] + levels[1][1]))
    root = float(snell_envelope(PayoffProcess.from_arrays(levels)).envelope[0][0])
    assert root == 0.0 and np.signbit(root) == np.signbit(continuation) != np.signbit(levels[0][0])
    assert _check_envelope_bytes(tmp_path, levels).split(b"\r\n")[1] == root_row


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
def test_envelope_csv_bytes_with_negative_zero(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(213)
    depth = 5
    levels = [np.where(rng.random(2**k) < 0.3, -0.0, rng.normal(size=2**k)) for k in range(depth + 1)]
    levels[depth][0] = -0.0
    assert b",-0.0," in _check_envelope_bytes(tmp_path, levels)


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
def test_envelope_csv_bytes_with_repeated_values(tmp_path, monkeypatch, chunk_rows):
    """Few distinct values, each repeated many times, 0.0 beside -0.0."""
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(215)
    pool = np.array([0.0, -0.0, 1.5, -2.25, 0.1, 5e-324])
    levels = [rng.choice(pool, size=2**k) for k in range(6)]
    levels[5][:2] = [-0.0, 0.0]
    data = _check_envelope_bytes(tmp_path, levels)
    assert b"5,0,-0.0," in data and b"5,1,0.0," in data


# Node indices at depth 10 run from one to four digits.
WIDTH_CHUNKS = [csvio.CHUNK_ROWS, 3]


@pytest.mark.parametrize("chunk_rows", WIDTH_CHUNKS)
def test_envelope_csv_bytes_with_indices_of_every_width(tmp_path, monkeypatch, chunk_rows):
    """A depth-10 payoff (2,047 rows): indices 0..1023 take 1 to 4 digits."""
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(216)
    levels = [np.round(rng.normal(size=2**k), 3) for k in range(11)]
    data = _check_envelope_bytes(tmp_path, levels)
    assert b"\r\n10,1023," in data and b"\r\n10,999," in data and b"\r\n10,9," in data


@pytest.mark.parametrize("chunk_rows", WIDTH_CHUNKS)
def test_values_csv_bytes_with_indices_of_every_width(tmp_path, monkeypatch, chunk_rows):
    """values.csv at depth 10, whose node indices take 1 to 4 digits."""
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    config = random_impulse_config(216, depth=10)
    out = _solve_cli(tmp_path, "solve", config)
    loaded = load_config(config)
    tree = build_tree(loaded.process, 10)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol, budget=loaded.numerics.budget)
    data = (out / "values.csv").read_bytes()
    assert data == _reference_csv(
        ["n", "level", "index", "state_cum", "state_count", "Y", "Z", "K_inc"], _values_rows(result, tree)
    )
    assert b"\r\n0,10,1023," in data and b"\r\n0,10,999," in data


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
@pytest.mark.parametrize("level", [0, 3, 4])
def test_dump_bytes(tmp_path, capsysbinary, monkeypatch, chunk_rows, level):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", chunk_rows)
    config = random_impulse_config(214, depth=4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.run(["dump", "--config", str(path), "--level", str(level)]) == 0
    tree = build_tree(load_config(config).process, 4)
    assert capsysbinary.readouterr().out == _reference_csv(
        ["level", "index", "t", "L", "xmax", "xmin", "xavg"], dump_level_rows(tree, level)
    )


MAX = float(np.finfo(np.float64).max)
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e16, MAX, -MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)
INT64 = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, -1, 0]), st.integers(-(2**63), 2**63 - 1))
# Chunks of one row, of three rows (which split a node's states) and the default.
CHUNK_ROWS = st.sampled_from([1, 3, csvio.CHUNK_ROWS])


def _body(header, rows) -> bytes:
    """The csv.writer reference without its header line."""
    return _reference_csv(header, rows).split(b"\r\n", 1)[1]


def _written(chunk_rows, write) -> bytes:
    buf = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "CHUNK_ROWS", chunk_rows)
        write(buf)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), chunk_rows=CHUNK_ROWS)
def test_formatter_matches_csv_writer(data, chunk_rows):
    """Floats, int64 extremes, a column of one distinct value and the
    strategy writer's action pool, whose continue rows end in an empty
    beta field."""
    size = data.draw(st.integers(1, 30))
    floats = data.draw(st.lists(FINITE, min_size=size, max_size=size))
    ints = data.draw(st.lists(INT64, min_size=size, max_size=size))
    single = data.draw(FINITE)
    codes = np.array(data.draw(st.lists(st.integers(-1, 0), min_size=size, max_size=size)))
    actions = [b"continue,", b"impulse,1.5"]
    columns = (np.array(floats), np.array(ints, dtype=np.int64), np.full(size, single), (actions, codes + 1))
    got = _written(chunk_rows, lambda fh: csvio._write_table(fh, csvio._Texts(2), (size, 1), *columns))
    decisions = [("continue", None), ("impulse", 1.5)]
    rows = [(f, i, single, *decisions[c + 1]) for f, i, c in zip(floats, ints, codes.tolist())]
    assert got == _body(["f", "i", "single", "action", "beta"], rows)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), chunk_rows=CHUNK_ROWS)
def test_value_rows_match_csv_writer(data, chunk_rows):
    """values.csv rows of a drawn field, with drawn Z and K_inc in place of
    field_terms': chunks may end inside a node's states, and Y, Z and
    K_inc hold -0.0 beside 0.0 and the extremes."""
    depth, width = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))
    shifts = data.draw(arrays(np.float64, width, elements=FINITE))
    counts = data.draw(arrays(np.int64, width, elements=st.integers(0, 12)))
    states = StateSpace(shifts, counts, np.full((width, 1), -1), budget=12)
    levels = [
        tuple(data.draw(arrays(np.float64, (2**k, width), elements=FINITE)) for k in range(depth + 1))
        for _ in range(3)
    ]
    result = SimpleNamespace(fields=[ValueField(data.draw(st.integers(0, 12)), states, levels[0])])

    def drawn_terms(result, n, tree):
        return zip(levels[1], levels[2])

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "CHUNK_ROWS", chunk_rows)
        mp.setattr(csvio, "field_terms", drawn_terms)
        csvio.write_values_csv(Path(tmp) / "values.csv", result, None)
        got = (Path(tmp) / "values.csv").read_bytes()
    header = ["n", "level", "index", "state_cum", "state_count", "Y", "Z", "K_inc"]
    assert got == _reference_csv(header, _values_rows(result, None, drawn_terms))
