"""The one-pass readers of the payoff and strategy CSVs against the row
loops they replace: the same result on every valid file, and the same
CsvFormatError text on every corrupted one, with the files cut into
chunks of the default size and of a few bytes.

Both references are copies, kept here, of row-wise readers.  The payoff
reference is the row loop csvread used to fall back to: each row checked
in file order, then each level's rows for a repeat and a missing index.
The strategy reference parses each row to a tuple, sorts the rows in
Python and walks them one row at a time."""

import csv
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsetree import (
    PayoffProcess, Strategy, StrategyRowError, build_tree, extract_strategy, load_config, strategy_from_rule,
    value_iteration
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


def _read_by_chunks(read, path, read_bytes, *args):
    """(_outcome of ``read`` in chunks of ``read_bytes``, whether it handed
    a chunk to the csv module)."""
    handed = []
    rows = csvread._Pass._rows

    def spy(reader, *spy_args):
        handed.append(spy_args)
        return rows(reader, *spy_args)

    with mock.patch.object(csvread, "READ_BYTES", read_bytes), mock.patch.object(csvread._Pass, "_rows", spy):
        return _outcome(read, path, *args), bool(handed)


# Chunk sizes: the readers' own, and a few bytes, so that a file spans
# many chunks and its faults, odd bytes, repeats across chunks and a
# "\r\n" split by a chunk's end land in later chunks.
chunk_sizes = pytest.mark.parametrize("read_bytes", [csvread.READ_BYTES, 7, 64])
# A row fault's message (a row rule's or a parser's); any other fault spans rows.
ROW_FAULTS = (
    "must have columns", "fields, got", "non-numeric field", "64-bit", "non-finite", "outside [", "negative level"
)


def _plain(lines, kinds) -> bool:
    """Whether the lines after the header hold only the bytes np.loadtxt
    reads as the kinds' row parsers do, no blank line and no 19-digit run
    (an integer beyond what loadtxt's int64 holds)."""
    text = ",".join(lines[1:])
    allowed = set(b",".join(kind[2] for kind in kinds))
    return all(lines[1:]) and set(text.encode()) <= allowed and not re.search(r"\d{19}", text)


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


def _csv_records(path: Path, header, what, parsers=None):
    """(line number, fields) of each non-blank CSV row after the header,
    which must equal ``header``.  With ``parsers`` (one per column) each
    row must have one field per parser and is yielded parsed; the first
    row that breaks this raises a CsvFormatError naming its line."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise CsvFormatError(f"{what} CSV must have columns {header}, got {got}")
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            if parsers is not None:
                if len(rec) != len(parsers):
                    raise CsvFormatError(f"{what} CSV line {line}: expected {len(parsers)} fields, got {len(rec)}")
                try:
                    rec = [parse(field) for parse, field in zip(parsers, rec)]
                except ValueError:
                    raise CsvFormatError(f"{what} CSV line {line}: non-numeric field") from None
                except OverflowError:
                    raise CsvFormatError(f"{what} CSV line {line}: integer field outside the 64-bit range") from None
            yield line, rec


PAYOFF_HEADER = ["level", "index", "value"]
PAYOFF_LIMIT = csvread.PAYOFF_LIMIT


def _read_payoff_rows(path: Path) -> PayoffProcess:
    by_level = {}  # level -> (indices, values, line numbers)
    for line, (level, index, value) in _csv_records(path, PAYOFF_HEADER, "payoff", (int, int, float)):
        if not math.isfinite(value):
            raise CsvFormatError(f"payoff CSV line {line}: non-finite value {value!r}")
        if abs(value) > PAYOFF_LIMIT:
            raise CsvFormatError(f"payoff CSV line {line}: value {value!r} outside [-{PAYOFF_LIMIT!r}, {PAYOFF_LIMIT!r}]")
        if level < 0:
            raise CsvFormatError(f"payoff CSV line {line}: negative level {level}")
        if index < 0 or index.bit_length() > level:  # index outside [0, 2^level)
            raise CsvFormatError(f"payoff CSV line {line}: index {index} outside [0, 2^{level})")
        for column, field in zip(by_level.setdefault(level, ([], [], [])), (index, value, line)):
            column.append(field)
    if not by_level:
        raise CsvFormatError("payoff CSV is empty")
    values = []
    # Level k is reached only when levels 0..k-1 are complete, i.e. after
    # 2^k - 1 rows, so 2^k stays within the file's own size.
    for k in range(max(by_level) + 1):
        indices, level_values, lines = by_level.pop(k, ([], [], []))
        idx = np.asarray(indices, dtype=np.int64)
        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        repeats = order[1:][sorted_idx[1:] == sorted_idx[:-1]]  # later rows of a repeated index
        if repeats.size:
            j = int(repeats.min())
            raise CsvFormatError(f"payoff CSV line {lines[j]}: duplicate node (level {k}, index {indices[j]})")
        if idx.size < 2**k:
            gaps = np.flatnonzero(sorted_idx != np.arange(idx.size))
            missing = int(gaps[0]) if gaps.size else idx.size
            raise CsvFormatError(f"payoff CSV missing node (level {k}, index {missing})")
        arr = np.empty(2**k)
        arr[idx] = level_values
        values.append(arr)
    return PayoffProcess.from_arrays(values)


def _payoff_equal(a, b):
    return len(a.values) == len(b.values) and all(x.tobytes() == y.tobytes() for x, y in zip(a.values, b.values))


@chunk_sizes
@examples
@given(file=payoff_files(corrupt=False))
def test_payoff_column_reader_equals_the_row_loop_on_valid_files(read_bytes, file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payoff.csv"
        _write(path, lines, newline)
        reference = _read_payoff_rows(path)
        result, handed = _read_by_chunks(csvread.read_payoff_csv, path, read_bytes)
    assert _payoff_equal(result, reference)
    if _plain(lines, csvread.FORMATS["payoff"].values()):
        assert not handed  # plain files take np.loadtxt


@chunk_sizes
@examples
@given(file=payoff_files(corrupt=True))
def test_payoff_readers_agree_on_corrupted_files(read_bytes, file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payoff.csv"
        _write(path, lines, newline)
        reference = _outcome(_read_payoff_rows, path)
        result, handed = _read_by_chunks(csvread.read_payoff_csv, path, read_bytes)
    if isinstance(reference, str):
        assert result == reference
        if _plain(lines, csvread.FORMATS["payoff"].values()) and not any(f in reference for f in ROW_FAULTS):
            assert not handed  # a fault that spans rows is named from the columns
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
        if got != STRATEGY_COLUMNS:
            raise CsvFormatError(f"strategy CSV must have columns {STRATEGY_COLUMNS}, got {got}")
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


STRATEGY_COLUMNS = list(csvread.FORMATS["strategy"])
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
    header = STRATEGY_COLUMNS
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


@chunk_sizes
@examples
@given(file=strategy_files(corrupt=False))
def test_strategy_column_reader_equals_the_row_loop_on_valid_files(read_bytes, file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        _write(path, lines, newline)
        reference = _reference_read_strategy(path, IMPULSES)
        result, handed = _read_by_chunks(csvread.read_strategy_csv, path, read_bytes, IMPULSES)
    assert result.rows() == reference.rows()
    assert all(np.array_equal(a, b) for a, b in zip(result.chains, reference.chains))
    if _plain(lines, csvread.FORMATS["strategy"].values()):
        assert not handed  # plain files take np.loadtxt


@chunk_sizes
@examples
@given(file=strategy_files(corrupt=True))
def test_strategy_readers_agree_on_corrupted_files(read_bytes, file):
    lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        _write(path, lines, newline)
        reference = _outcome(_reference_read_strategy, path, IMPULSES)
        result, handed = _read_by_chunks(csvread.read_strategy_csv, path, read_bytes, IMPULSES)
    if isinstance(reference, str):
        assert result == reference
        if _plain(lines, csvread.FORMATS["strategy"].values()) and not any(f in reference for f in ROW_FAULTS):
            assert not handed  # a fault that spans rows is named from the columns
    else:
        assert result.rows() == reference.rows()


@pytest.mark.parametrize("lines", [[], [""]], ids=["header", "blank-line"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_strategy_file_with_no_rows_lacks_the_root(tmp_path, lines, newline):
    """A header with no rows names the missing root row, as the row loop does."""
    path = tmp_path / "strategy.csv"
    _write(path, [",".join(STRATEGY_COLUMNS)] + lines, newline)
    message = "error: strategy CSV line 2: missing the continue row of node (level 0, index 0)"
    assert _outcome(_reference_read_strategy, path, IMPULSES) == message
    assert _outcome(csvread.read_strategy_csv, path, IMPULSES) == message


STRATEGY_ROW = ["1", "0", "0.5", "1", "continue", ""]


def _plain_first_row(path: Path):
    """The first row of a strategy CSV as np.loadtxt's path reads it, or
    None if the pass hands its chunk to the csv module."""
    reader = csvread._Pass("strategy")
    with mock.patch.object(csvread._Pass, "_rows", lambda *args: iter([None])), path.open("rb", buffering=0) as raw:
        blocks = list(reader.blocks(raw))
    if blocks == [None]:
        return None
    fields = [None if texts is None else list(texts) for texts in reader.texts]  # each text column's fields by code
    return [c[0].item() if f is None else kind[0](f[c[0]]) for c, f, kind in zip(blocks[0], fields, reader.kinds)]


@examples
@given(st.integers(0, 5), st.text(alphabet="0123456789.+-eEcontiumpls", max_size=10))
def test_strategy_column_reader_parses_a_plain_field_as_the_row_parsers_do(column, text):
    """On the bytes the strategy column reader takes, it parses a field of
    any column exactly when that column's row parser does, to the same
    value and bits; any other file, and a text field as wide as its loadtxt
    dtype, is left to the rows."""
    row = STRATEGY_ROW[:column] + [text] + STRATEGY_ROW[column + 1 :]
    kinds = list(csvread.FORMATS["strategy"].values())
    try:
        expected = [kind[0](field) for kind, field in zip(kinds, row)]
    except (ValueError, OverflowError):
        expected = None
    wide = kinds[column][1][0] == "S" and len(text) >= np.dtype(kinds[column][1]).itemsize
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.csv"
        _write(path, [",".join(STRATEGY_COLUMNS), ",".join(row)], "\n")
        got = _plain_first_row(path)
    assert (got is None) == (expected is None or wide)
    if got is not None:
        assert got == expected
        assert [np.array(v).tobytes() for v in got[:4]] == [np.array(v).tobytes() for v in expected[:4]]
        assert [type(v) for v in got[4:]] == [type(v) for v in expected[4:]]


def test_strategy_column_reader_leaves_long_betas_and_other_actions_to_the_rows(tmp_path):
    """A beta or an action as wide as its loadtxt dtype (which would cut it
    short) is left to the rows; a narrower unknown action is coded, and
    named, from the columns."""
    path = tmp_path / "strategy.csv"
    long_beta = "0." + "5" * (np.dtype(csvread.BETA[1]).itemsize - 2)
    for fields, handed in ((["impulse", long_beta], True), (["continueimpulse", ""], True), (["", ""], False)):
        _write(path, [",".join(STRATEGY_COLUMNS), ",".join(["0", "0", "0.0", "0", *fields])], "\n")
        assert (_plain_first_row(path) is None) == handed
        assert _outcome(csvread.read_strategy_csv, path, IMPULSES) == _outcome(_reference_read_strategy, path, IMPULSES)


def test_strategy_field_beyond_int64_is_named_by_line(tmp_path):
    path = tmp_path / "strategy.csv"
    _write(path, [",".join(STRATEGY_COLUMNS), "0,0,0.0,0,continue,", f"{2**64},0,0.0,0,continue,"], "\n")
    with pytest.raises(CsvFormatError, match=r"^strategy CSV line 3: integer field outside the 64-bit range$"):
        csvread.read_strategy_csv(path, IMPULSES)


@pytest.mark.parametrize("text", ['"0"', "0\x00", "0" * (csv.field_size_limit() + 1)])
def test_strategy_column_reader_leaves_quotes_nul_and_long_fields_to_the_csv_module(tmp_path, text):
    path = tmp_path / "strategy.csv"
    _write(path, [",".join(STRATEGY_COLUMNS), f"0,0,{text},0,continue,"], "\n")
    assert _plain_first_row(path) is None


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
    rows in blocks takes about 3.6x."""
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
    time into one array sized from the comma count, beside each row's node
    kept to name a fault, takes about 0.75x (the result itself is about
    0.35x)."""
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


def test_a_corrupted_plain_file_is_opened_once(tmp_path):
    """A plain strategy file with a repeated row and a plain payoff file
    with a repeated node are each opened once: the fault is named from the
    lines the one pass recorded (the payoff's comma count reads the same
    handle before the pass)."""
    strategy = tmp_path / "strategy.csv"
    tree = build_tree(load_config(PINNED_CONFIG).process, 3)
    csvio.write_strategy_csv(strategy, strategy_from_rule(tree, lambda *_: None, IMPULSES))
    lines = strategy.read_text(encoding="utf-8").splitlines()
    _write(strategy, lines + lines[-1:], "\r\n")
    payoff = tmp_path / "payoff.csv"
    _write(payoff, ["level,index,value", "0,0,1.0", "1,0,0.5", "1,0,0.0"], "\r\n")
    opened, real_open = [], io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    with mock.patch("io.open", counting_open), mock.patch("builtins.open", counting_open):
        strategy_error = _outcome(csvread.read_strategy_csv, strategy, IMPULSES)
        payoff_error = _outcome(csvread.read_payoff_csv, payoff)
    assert strategy_error == _outcome(_reference_read_strategy, strategy, IMPULSES)
    assert strategy_error.startswith(f"error: strategy CSV line {len(lines) + 1}: ")
    assert payoff_error == "error: payoff CSV line 4: duplicate node (level 1, index 0)"
    assert (opened.count(strategy), opened.count(payoff)) == (1, 1)


@chunk_sizes
@pytest.mark.parametrize("at", [3, 200, 900])
def test_a_byte_that_is_not_utf8_fails_as_the_row_loop_does(tmp_path, read_bytes, at):
    """A byte that is not UTF-8, after plain chunks and before or after a
    row that breaks a rule, fails as the row loop reading the file from its
    start does: the same exception with the same text."""
    lines = ["level,index,value"] + [f"0,0,{i}.5" for i in range(1000)]
    lines[500] = "0,0,inf"
    lines[at] = "0,0,\xff"
    path = tmp_path / "payoff.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("latin-1"))

    def failure(read):
        try:
            read(path)
        except (ValueError, csv.Error) as exc:
            return type(exc), str(exc)

    with mock.patch.object(csvread, "READ_BYTES", read_bytes):
        assert failure(csvread.read_payoff_csv) == failure(_read_payoff_rows)


@pytest.mark.parametrize("data", [b"", b"\r\n", b"level,index,value", b"level,index,value\n\n"])
def test_a_file_without_rows_is_named_as_the_row_loops_name_it(tmp_path, data):
    """An empty file, a lone line end and a header without rows fail as the
    row loops fail on them: a header check sees the file even when no chunk
    of lines does."""
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    assert _outcome(csvread.read_payoff_csv, path) == _outcome(_read_payoff_rows, path)
    assert _outcome(csvread.read_strategy_csv, path, IMPULSES) == _outcome(_reference_read_strategy, path, IMPULSES)
