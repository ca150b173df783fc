"""The column readers of the payoff and strategy CSVs against the row loops
they replace: the same result on every valid file, and the same
CsvFormatError text on every corrupted one.

The payoff reference is csvread's own row loop, which the column reader
falls back to.  The strategy reference is a copy, kept here, of the
row-wise reader: each row parsed to a tuple, sorted in Python and walked
one row at a time."""

import csv
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsetree import (
    Strategy, StrategyRowError, build_tree, extract_strategy, load_config, strategy_from_rule, value_iteration
)
from impulsetree.strategy import shift_key
from impulsetree import csvio, csvread
from impulsetree.csvread import CsvFormatError

from conftest import PINNED_CONFIG
from memory_deep import BASELINE

examples = settings(max_examples=100, deadline=None)


def _outcome(read, path, *args):
    """``read``'s result, or the text of the CsvFormatError it raises."""
    try:
        return read(path, *args)
    except CsvFormatError as exc:
        return f"error: {exc}"


def _write(path: Path, lines, newline: str):
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))


def _int_field(value: int, style: str) -> str:
    text = str(value)
    if style == "underscore" and len(text.lstrip("-")) > 1:
        return text[:-1] + "_" + text[-1]
    return {"quoted": f'"{text}"', "spaced": f" {text} "}.get(style, text)


def _float_field(value: float, style: str) -> str:
    text = repr(value)
    if style == "underscore" and text[-1].isdigit() and text[-2].isdigit():
        return text[:-1] + "_" + text[-1]
    return {"quoted": f'"{text}"', "spaced": f"{text}\t"}.get(style, text)


# Each file draws which of these styles its fields may take, besides plain.
file_styles = st.sets(st.sampled_from(["quoted", "spaced", "underscore"])).map(
    lambda chosen: st.sampled_from(["plain"] + sorted(chosen))
)
newlines = st.sampled_from(["\r\n", "\n", "\r"])


# -- payoff ---------------------------------------------------------------

PAYOFF_CORRUPTIONS = [
    "duplicate", "drop", "index-too-large", "index-negative", "level-negative", "level-70", "level-2^64",
    "text", "inf", "nan", "overflow", "huge", "short", "long", "empty-field", "header",
]


@st.composite
def payoff_files(draw, corrupt: bool):
    depth = draw(st.integers(0, 4))
    limit = csvread.PAYOFF_LIMIT
    pool = draw(st.lists(st.floats(-limit, limit), min_size=1, max_size=4)) + [0.0, -0.0, limit, -limit]
    rows = [[k, i, draw(st.sampled_from(pool))] for k in range(depth + 1) for i in range(2**k)]
    rows = draw(st.permutations(rows))
    # corrupted plain files reach the column reader's array checks
    styles = st.just("plain") if corrupt and draw(st.booleans()) else draw(file_styles)
    lines = [
        ",".join([_int_field(k, draw(styles)), _int_field(i, draw(styles)), _float_field(v, draw(styles))])
        for k, i, v in rows
    ]
    header = "level,index,value"
    for _ in range(draw(st.integers(1, 3)) if corrupt else 0):
        kind = draw(st.sampled_from(PAYOFF_CORRUPTIONS))
        at = draw(st.integers(0, len(lines)))
        k, i, _ = draw(st.sampled_from(rows))
        if kind == "drop":
            if lines:
                del lines[min(at, len(lines) - 1)]
            continue
        if kind == "header":
            header = "level,index,payoff"
            continue
        bad = {
            "duplicate": f"{k},{i},1.5",
            "index-too-large": f"{k},{2**k},0.0",
            "index-negative": f"{k},-1,0.0",
            "level-negative": "-1,0,0.0",
            "level-70": "70,0,1.0",
            "level-2^64": f"{2**64},0,1.0",
            "text": f"{k},{i},abc",
            "inf": f"{k},{i},inf",
            "nan": f"{k},{i},nan",
            "overflow": f"{k},{i},1e999",
            "huge": f"{k},{i},{draw(st.sampled_from(['-1e308', '8.98846567431158e+307', '1.7976931348623157e308']))}",
            "short": f"{k},{i}",
            "long": f"{k},{i},0.0,0.0",
            "empty-field": f"{k},,0.0",
        }[kind]
        if draw(st.booleans()) and at < len(lines):
            lines[at] = bad  # the row count stays that of a full tree
        else:
            lines.insert(at, bad)
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    return [header] + lines, draw(newlines)


def _payoff_equal(a, b):
    return len(a.values) == len(b.values) and all(x.tobytes() == y.tobytes() for x, y in zip(a.values, b.values))


@examples
@given(payoff_files(corrupt=False))
def test_payoff_column_reader_equals_the_row_loop_on_valid_files(file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payoff.csv"
        _write(path, lines, newline)
        reference = csvread._read_payoff_rows(path)
        columns = csvread._read_payoff_columns(path)
        result = csvread.read_payoff_csv(path)
    assert _payoff_equal(result, reference)
    if columns is not None:
        assert _payoff_equal(columns, reference)
    if not any(c in "".join(lines[1:]) for c in ' \t"_'):
        assert columns is not None  # plain files take the column reader


@examples
@given(payoff_files(corrupt=True))
def test_payoff_readers_agree_on_corrupted_files(file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payoff.csv"
        _write(path, lines, newline)
        reference = _outcome(csvread._read_payoff_rows, path)
        columns = csvread._read_payoff_columns(path)
        result = _outcome(csvread.read_payoff_csv, path)
    if isinstance(reference, str):
        assert columns is None
        assert result == reference
    else:
        assert _payoff_equal(result, reference)


@examples
@given(st.text(alphabet="0123456789.+-eE", max_size=8), st.booleans())
def test_loadtxt_parses_a_plain_field_as_int_and_float_do(text, integer):
    """On the bytes the payoff column reader takes, np.loadtxt parses a
    level (int64) or value field exactly when int or float does, to the
    same bits."""
    dtype = np.int64 if integer else np.float64
    try:
        expected = np.array((int if integer else float)(text), dtype=dtype).tobytes()
    except (ValueError, OverflowError):
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payoff.csv"
        _write(path, ["level,index,value", f"{text},0,1.0" if integer else f"0,0,{text}"], "\n")
        try:
            table = np.loadtxt(path, dtype=[("l", "i8"), ("i", "i8"), ("v", "f8")], delimiter=",", skiprows=1,
                               comments=None, ndmin=1)
            got = table["l" if integer else "v"][0].tobytes()
        except ValueError:
            got = None
    assert got == expected


# -- strategy -------------------------------------------------------------


def _reference_from_rows(rows, impulses):
    """The row-wise Strategy.from_rows: sort the (rounded) rows in Python and
    walk them one at a time."""
    impulses = tuple(impulses)
    codes = {beta: impulses.index(beta) for beta in impulses}
    rows = [(lv, ix, shift_key(cum), ct, action, beta) for lv, ix, cum, ct, action, beta in rows]
    order = sorted(range(len(rows)), key=lambda p: (rows[p][0], rows[p][1], rows[p][3], rows[p][2]))
    depth = rows[order[-1]][0] if rows else 0
    steps = []
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
    strategy = Strategy(chains=tuple(chains), impulses=impulses)
    for p, expected in zip(order, strategy.rows()):
        if rows[p] != expected:
            raise StrategyRowError(p, f"expected the row {expected}")
    return strategy


def _reference_read_strategy(path, impulses):
    """The row-wise strategy CSV reader."""
    rows, lines = [], []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != csvread.STRATEGY_HEADER:
            raise CsvFormatError(f"strategy CSV must have columns {csvread.STRATEGY_HEADER}, got {got}")
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            if len(rec) != 6:
                raise CsvFormatError(f"strategy CSV line {line}: expected 6 fields, got {len(rec)}")
            level, index, cum, count, action, beta = rec
            try:
                rows.append((int(level), int(index), float(cum), int(count), action, None if beta == "" else float(beta)))
            except ValueError:
                raise CsvFormatError(f"strategy CSV line {line}: non-numeric field") from None
            lines.append(line)
    lines.append(lines[-1] + 1 if lines else 2)
    try:
        return _reference_from_rows(rows, impulses)
    except StrategyRowError as exc:
        raise CsvFormatError(f"strategy CSV line {lines[exc.position]}: {exc}") from None


IMPULSES = (0.5, -0.25)
STRATEGY_CORRUPTIONS = [
    "drop", "duplicate", "unknown-action", "unknown-beta", "no-beta", "continue-beta", "count", "cum", "cum-tiny",
    "cum-nan", "level", "index", "negative-level", "short", "long", "text", "header", "horizon-impulse",
]


def _strategy_field(value, j: int, draw, styles, quote_text: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return f'"{value}"' if quote_text and draw(st.booleans()) else value
    if isinstance(value, int):
        return _int_field(value, draw(styles))
    if j == 2 and value == 0.0 and draw(st.booleans()):
        return "-0.0"  # shift_key folds it into 0.0
    return _float_field(value, draw(styles))


@st.composite
def strategy_files(draw, corrupt: bool):
    tree = build_tree(load_config(PINNED_CONFIG).process, draw(st.integers(1, 3)))
    choices = draw(st.lists(st.sampled_from([None, None, 0.5, -0.25]), min_size=64, max_size=64))

    def rule(level, index, cum, count):
        return choices[(level * 7 + index * 3 + count * 5) % 64] if count < 3 else None

    rows = [list(row) for row in strategy_from_rule(tree, rule, IMPULSES).rows()]
    header = csvread.STRATEGY_HEADER
    for _ in range(draw(st.integers(1, 3)) if corrupt else 0):
        kind = draw(st.sampled_from(STRATEGY_CORRUPTIONS))
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if kind == "drop":
            del rows[at]
        elif kind == "duplicate":
            rows.append(list(row))
        elif kind == "header":
            header = ["level", "index", "cum", "count", "action", "beta"]
        elif kind == "horizon-impulse":
            rows.append([tree.depth, 0, 0.0, 0, "impulse", 0.5])
        elif len(row) != 6 or isinstance(row[2], str):
            continue  # one fault to a row
        elif kind in ("short", "long", "text"):
            rows[at] = {"short": row[:5], "long": row + [""], "text": row[:2] + ["x"] + row[3:]}[kind]
        else:
            field, value = {
                "unknown-action": (4, "jump"),
                "unknown-beta": (5, 0.75),
                "no-beta": (4, "impulse"),
                "continue-beta": (5, 0.5),
                "count": (3, row[3] + 1),
                "cum": (2, row[2] + 1e-9),
                "cum-tiny": (2, row[2] + 1e-14),
                "cum-nan": (2, math.nan),
                "level": (0, row[0] + 1),
                "index": (1, row[1] + 1),
                "negative-level": (0, -1),
            }[kind]
            row[field] = value
            if kind == "no-beta":
                row[5] = None
    # A NaN state_cum tied on (level, index, count) with another row has no
    # defined place in a Python sort, so the readers may name different
    # lines of the two; such a row is left out.
    keys = [tuple(row[:2] + row[3:4]) for row in rows]
    rows = [
        row for row, key in zip(rows, keys)
        if not (isinstance(row[2], float) and math.isnan(row[2]) and keys.count(key) > 1)
    ]
    styles, quote_text = draw(file_styles), draw(st.booleans())
    lines = [
        ",".join(_strategy_field(value, j, draw, styles, quote_text) for j, value in enumerate(row))
        for row in draw(st.permutations(rows))
    ]
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, "")
    return [",".join(header)] + lines, draw(newlines)


@examples
@given(strategy_files(corrupt=False))
def test_strategy_column_reader_equals_the_row_loop_on_valid_files(file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        _write(path, lines, newline)
        reference = _reference_read_strategy(path, IMPULSES)
        columns = csvread._read_strategy_columns(path)
        result = csvread.read_strategy_csv(path, IMPULSES)
    assert result.rows() == reference.rows()
    assert all(np.array_equal(a, b) for a, b in zip(result.chains, reference.chains))
    if not any(c in "".join(lines[1:]) for c in ' \t"_'):
        assert columns is not None  # plain files take the column reader


@examples
@given(strategy_files(corrupt=True))
def test_strategy_readers_agree_on_corrupted_files(file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        _write(path, lines, newline)
        reference = _outcome(_reference_read_strategy, path, IMPULSES)
        result = _outcome(csvread.read_strategy_csv, path, IMPULSES)
    if isinstance(reference, str):
        assert result == reference
    else:
        assert result.rows() == reference.rows()


@pytest.mark.parametrize("lines", [[], [""]], ids=["header", "blank-line"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_strategy_file_with_no_rows_lacks_the_root(tmp_path, lines, newline):
    """A header with no rows names the missing root row, as the row loop does."""
    path = tmp_path / "strategy.csv"
    _write(path, [",".join(csvread.STRATEGY_HEADER)] + lines, newline)
    message = "error: strategy CSV line 2: missing the continue row of node (level 0, index 0)"
    assert _outcome(_reference_read_strategy, path, IMPULSES) == message
    assert _outcome(csvread.read_strategy_csv, path, IMPULSES) == message


STRATEGY_ROW = ["1", "0", "0.5", "1", "continue", ""]


@examples
@given(st.integers(0, 5), st.text(alphabet="0123456789.+-eEcontiumpls", max_size=10))
def test_strategy_column_reader_parses_a_plain_field_as_the_row_parsers_do(column, text):
    """On the bytes the strategy column reader takes, it parses a field of
    any column exactly when that column's row parser does (or the action is
    continue or impulse), to the same value and bits; any other file is
    left to the rows."""
    row = STRATEGY_ROW[:column] + [text] + STRATEGY_ROW[column + 1 :]
    try:
        expected = [parse(field) for parse, field in zip(csvread.STRATEGY_PARSERS, row)]
    except (ValueError, OverflowError):
        expected = None
    if column == 4 and text not in ("continue", "impulse"):
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        _write(path, [",".join(csvread.STRATEGY_HEADER), ",".join(row)], "\n")
        columns = csvread._read_strategy_columns(path)
    got = None if columns is None else [c[0] for c in columns]
    assert (got is None) == (expected is None)
    if got is not None:
        assert got == expected
        assert [np.array(v).tobytes() for v in got[:4]] == [np.array(v).tobytes() for v in expected[:4]]
        assert [type(v) for v in got[4:]] == [type(v) for v in expected[4:]]


def test_strategy_column_reader_leaves_long_betas_and_other_actions_to_the_rows(tmp_path):
    path = tmp_path / "strategy.csv"
    long_beta = "0." + "5" * (csvread.BETA_WIDTH - 2)  # loadtxt would cut it to BETA_WIDTH bytes
    for fields in (["impulse", long_beta], ["continueimpulse", ""], ["", ""]):
        _write(path, [",".join(csvread.STRATEGY_HEADER), ",".join(["0", "0", "0.0", "0", *fields])], "\n")
        assert csvread._read_strategy_columns(path) is None
        assert _outcome(csvread.read_strategy_csv, path, IMPULSES) == _outcome(_reference_read_strategy, path, IMPULSES)


def test_strategy_field_beyond_int64_is_named_by_line(tmp_path):
    path = tmp_path / "strategy.csv"
    _write(path, [",".join(csvread.STRATEGY_HEADER), "0,0,0.0,0,continue,", f"{2**64},0,0.0,0,continue,"], "\n")
    with pytest.raises(CsvFormatError, match=r"^strategy CSV line 3: integer field outside the 64-bit range$"):
        csvread.read_strategy_csv(path, IMPULSES)


@pytest.mark.parametrize("text", ['"0"', "0\x00", "0" * (csv.field_size_limit() + 1)])
def test_strategy_column_reader_leaves_quotes_nul_and_long_fields_to_the_csv_module(tmp_path, text):
    path = tmp_path / "strategy.csv"
    _write(path, [",".join(csvread.STRATEGY_HEADER), f"0,0,{text},0,continue,"], "\n")
    assert csvread._read_strategy_columns(path) is None


def test_from_rows_matches_the_reference_on_api_rows():
    tree = build_tree(load_config(PINNED_CONFIG).process, 3)
    rows = strategy_from_rule(tree, lambda lv, ix, cum, ct: 0.5 if ct < lv else None, IMPULSES).rows()
    assert Strategy.from_rows(rows, IMPULSES).rows() == _reference_from_rows(rows, IMPULSES).rows() == rows
    for p in range(len(rows)):
        broken = rows[:p] + rows[p + 1 :]
        with pytest.raises(StrategyRowError) as got:
            Strategy.from_rows(broken, IMPULSES)
        with pytest.raises(StrategyRowError) as want:
            _reference_from_rows(broken, IMPULSES)
        assert (got.value.position, str(got.value)) == (want.value.position, str(want.value))


def test_the_strategy_reader_peaks_at_a_small_multiple_of_the_file(tmp_path):
    """tracemalloc's peak while a depth-12 Baseline strategy is read stays
    at most 5x the file's size.  Parsing the whole file at once and sorting
    every row took about 11x; parsing a chunk at a time and checking the
    rows in blocks takes about 4x."""
    raw = {**BASELINE, "numerics": {**BASELINE["numerics"], "depth": 12}}
    loaded = load_config(raw)
    tree = build_tree(loaded.process, 12)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
    strategy = extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol)
    path = tmp_path / "strategy.csv"
    csvio.write_strategy_csv(path, strategy)
    del tree, result
    small = tmp_path / "small.csv"  # a first read loads what any read needs
    csvio.write_strategy_csv(small, strategy_from_rule(build_tree(loaded.process, 2), lambda *_: None, IMPULSES))
    csvread.read_strategy_csv(small, IMPULSES)
    tracemalloc.start()
    try:
        read = csvread.read_strategy_csv(path, loaded.impulse.impulses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(read.chains, strategy.chains))
    assert peak <= 5 * path.stat().st_size, f"peak {peak} bytes for a file of {path.stat().st_size}"


def test_the_payoff_reader_peaks_below_the_file_size(tmp_path):
    """tracemalloc's peak while a depth-15 drawdown payoff of the Baseline
    process is read stays at most the file's size.  Parsing the whole file
    at once into one structured table took about 2.2x; parsing a chunk at a
    time into one array sized from the comma count takes about 0.6x (the
    result itself is about 0.35x)."""
    depth = 15
    tree = build_tree(load_config(BASELINE).process, depth)
    lines = ["level,index,value"]
    for k in range(depth + 1):
        payoff = np.maximum(tree.running_max[k] - tree.state[k] - 0.1 * tree.times[k], 0.0)
        lines += [f"{k},{i},{v!r}" for i, v in enumerate(payoff.tolist())]
    path = tmp_path / "payoff.csv"
    _write(path, lines, "\r\n")
    del tree, lines
    small = tmp_path / "small.csv"  # a first read loads what any read needs
    _write(small, ["level,index,value", "0,0,1.0", "1,0,0.5", "1,1,0.0"], "\r\n")
    csvread.read_payoff_csv(small)
    tracemalloc.start()
    try:
        read = csvread.read_payoff_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.depth == depth
    assert peak <= path.stat().st_size, f"peak {peak} bytes for a file of {path.stat().st_size}"
