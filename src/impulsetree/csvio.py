"""The CLI's CSV files: column-wise writers and strict readers.

Byte contract of every file written here (that of csv.writer's default
dialect for these fields): fields joined by ",", "\\r\\n" line ends,
floats as repr (the shortest round trip), ints as str and an empty field
for no value.  The writers work column-wise from the arrays: node and
state prefixes are formatted once, repr runs once per distinct value of a
column, and each write holds at most CHUNK_ROWS rows, so no file is built
in memory whole.

The readers parse whole columns and check them as arrays.  A file that
fails a check is read again row by row, which names the first faulty line.
"""

import csv
import math
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from .strategy import Strategy, StrategyRowError
from .snell import PayoffProcess

CHUNK_ROWS = 512
STRATEGY_HEADER = ["level", "index", "state_cum", "state_count", "action", "beta"]
PAYOFF_HEADER = ["level", "index", "value"]
# The largest payoff magnitude read: the mean of two siblings, (a + b) / 2,
# then stays finite.
PAYOFF_LIMIT = float(np.finfo(np.float64).max) / 2


class CsvFormatError(ValueError):
    """An input CSV that breaks its format; the message names the line."""


def _reprs(arr) -> "list[str]":
    """repr of each element of a float64 or int64 array, computed once per
    distinct bit pattern (so -0.0 and 0.0 keep their own reprs)."""
    flat = np.ascontiguousarray(arr).ravel()
    keys, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, keys.view(flat.dtype).tolist())), dtype=object)[inverse].tolist()


def _csv_lines(*columns) -> str:
    """CSV text of the rows ``",".join(fields)``, each column holding one
    (already formatted) field per row; there must be at least one row."""
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def _node_chunks(size: int, rows_per_node: int = 1):
    """Consecutive node ranges covering ``size`` nodes, each with at most
    CHUNK_ROWS rows (at least one node)."""
    step = max(1, CHUNK_ROWS // rows_per_node)
    for i0 in range(0, size, step):
        yield range(i0, min(i0 + step, size))


def _open_csv(path: Path, header):
    fh = path.open("w", newline="", encoding="utf-8")
    fh.write(",".join(header) + "\r\n")
    return fh


def open_values_csv(path: Path):
    """values.csv opened for writing, with its header written."""
    return _open_csv(path, ["n", "level", "index", "state_cum", "state_count", "Y", "Z", "K_inc"])


def write_value_rows(fh, fld):
    """One field's values.csv rows, one per (level, node, state) with Y, Z
    and K_inc, to a file from open_values_csv."""
    states = [f"{cum!r},{n}" for cum, n in zip(fld.states.shifts.tolist(), fld.states.counts.tolist())]
    for level, y in enumerate(fld.values):
        for nodes in _node_chunks(y.shape[0], len(states)):
            rows = slice(nodes.start, nodes.stop)
            prefixes = [node + s for node in [f"{fld.n},{level},{i}," for i in nodes] for s in states]
            fh.write(_csv_lines(prefixes, _reprs(y[rows]), _reprs(fld.z[level][rows]), _reprs(fld.k_inc[level][rows])))


def write_values_csv(path: Path, fields):
    """values.csv of a field sequence, in order of n."""
    with open_values_csv(path) as fh:
        for fld in fields:
            write_value_rows(fh, fld)


def write_strategy_csv(path: Path, strategy: Strategy):
    """Strategy.rows() as CSV, formatted from Strategy.row_arrays()."""
    level, index, cum, count, code = strategy.row_arrays()
    actions = np.array(["continue,"] + [f"impulse,{float(beta)!r}" for beta in strategy.impulses], dtype=object)
    with _open_csv(path, STRATEGY_HEADER) as fh:
        for r0 in range(0, level.size, CHUNK_ROWS):
            rows = slice(r0, r0 + CHUNK_ROWS)
            fh.write(
                _csv_lines(
                    _reprs(level[rows]), _reprs(index[rows]), _reprs(cum[rows]), _reprs(count[rows]),
                    actions[code[rows] + 1].tolist(),
                )
            )


def write_controls_csv(path: Path, controls, states):
    """One row per node below the horizon: its post-chain state, from
    walk_strategy_states, and its control."""
    with _open_csv(path, ["level", "index", "state_cum", "state_count", "u_star"]) as fh:
        for k in range(len(states.cum) - 1):
            for nodes in _node_chunks(states.cum[k].size):
                rows = slice(nodes.start, nodes.stop)
                cums, counts = states.cum[k][rows].tolist(), states.count[k][rows].tolist()
                prefixes = [f"{k},{i},{cum!r},{n}" for i, cum, n in zip(nodes, cums, counts)]
                fh.write(_csv_lines(prefixes, _reprs(controls.levels[k][rows])))


def write_envelope_csv(path: Path, payoff: PayoffProcess, result):
    with _open_csv(path, ["level", "index", "payoff", "envelope", "stop", "first_stop"]) as fh:
        for k in range(payoff.depth + 1):
            columns = [
                _reprs(payoff.values[k]),
                _reprs(result.envelope[k]),
                _reprs(result.stop_region[k].astype(np.int64)),
                _reprs(result.first_optimal_stop[k]),
            ]
            for nodes in _node_chunks(2**k):
                fh.write(_csv_lines([f"{k},{i}" for i in nodes], *(c[nodes.start : nodes.stop] for c in columns)))


def write_dump(fh, tree, level: int):
    """One tree level's (level, index, t, L, xmax, xmin, xavg) rows to an
    open text stream."""
    t = repr(float(tree.times[level]))
    columns = (tree.state[level], tree.running_max[level], tree.running_min[level], tree.running_avg[level])
    fh.write("level,index,t,L,xmax,xmin,xavg\r\n")
    for nodes in _node_chunks(tree.level_size(level)):
        rows = slice(nodes.start, nodes.stop)
        fh.write(_csv_lines([f"{level},{i},{t}" for i in nodes], *(_reprs(c[rows]) for c in columns)))


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


def _int64(field: str) -> int:
    value = int(field)
    if not -(2**63) <= value < 2**63:
        raise OverflowError(field)
    return value


def _beta(field: str) -> "float | None":
    return None if field == "" else float(field)


STRATEGY_PARSERS = (_int64, _int64, float, _int64, str, _beta)


def _parsed(column, parse, dtype) -> np.ndarray:
    """``parse`` of each field as an array of ``dtype``, calling ``parse``
    once per distinct field (np.fromiter raises OverflowError for an int
    outside int64)."""
    values = {field: parse(field) for field in set(column)}
    return np.fromiter(map(values.__getitem__, column), dtype, len(column))


def read_strategy_csv(path: Path, impulses) -> Strategy:
    """The strategy a CSV of Strategy.rows() describes, over ``impulses``;
    a row that breaks a rule of Strategy.from_columns is reported by line.
    A file the column reader cannot take is read row by row, which names
    the first faulty line."""
    columns = _read_strategy_columns(path)
    if columns is None:
        records = [rec for _, rec in _csv_records(path, STRATEGY_HEADER, "strategy", STRATEGY_PARSERS)]
        columns = list(zip(*records)) or [()] * len(STRATEGY_HEADER)
    try:
        return Strategy.from_columns(*columns, impulses)
    except StrategyRowError as exc:
        lines = [line for line, _ in _csv_records(path, STRATEGY_HEADER, "strategy")]
        lines.append(lines[-1] + 1 if lines else 2)  # where a row missing at the end belongs
        raise CsvFormatError(f"strategy CSV line {lines[exc.position]}: {exc}") from None


def _read_strategy_columns(path: Path):
    """The parsed columns of a strategy CSV split on its line ends and
    commas, or None where that could differ from the csv module's reading
    or a row is faulty: bytes that are not UTF-8, a quote (quoting), a NUL
    (an error in Python 3.10's csv), a line longer than the csv field
    limit, another header, a wrong field count, or a field its parser
    rejects."""
    try:
        text = path.read_text(encoding="utf-8")  # "\r\n" and "\r" become "\n", as csv ends rows
    except UnicodeDecodeError:
        return None
    header, *lines = text.split("\n")
    lines = list(filter(None, lines))
    if (
        '"' in text
        or "\0" in text
        or header.split(",") != STRATEGY_HEADER
        or max(map(len, lines), default=0) > csv.field_size_limit()
        or set(map(str.count, lines, repeat(","))) - {len(STRATEGY_HEADER) - 1}
    ):
        return None
    fields = ",".join(lines).split(",")
    level, index, cum, count, action, beta = (fields[j :: len(STRATEGY_HEADER)] for j in range(len(STRATEGY_HEADER)))
    try:
        return (
            _parsed(level, int, np.int64),
            np.fromiter(map(int, index), np.int64, len(index)),  # nearly all distinct
            _parsed(cum, float, float),
            _parsed(count, int, np.int64),
            action,
            list(map(_beta, beta)),
        )
    except (ValueError, OverflowError):
        return None


# np.loadtxt and the csv module with int/float read a file made only of
# these bytes alike; the array reader leaves any other file to the rows.
_PAYOFF_BYTES = b"0123456789,.+-eE\r\n"


def read_payoff_csv(path: Path) -> PayoffProcess:
    """Per-level payoff arrays from a (level, index, value) CSV that lists
    every node of levels 0..depth exactly once, in any order.  A file the
    array reader cannot take is read row by row, which names the first
    faulty line; if it finds none, its result stands."""
    return _read_payoff_columns(path) or _read_payoff_rows(path)


def _read_payoff_columns(path: Path) -> "PayoffProcess | None":
    """The payoff parsed by np.loadtxt and checked as arrays, or None for
    a file that holds other bytes or fails a parse or a check."""
    header = ",".join(PAYOFF_HEADER).encode()
    data = path.read_bytes()
    body = data[len(header) :]
    if (
        not data.startswith(header)
        or not body.startswith((b"\r", b"\n"))
        or not body.strip(b"\r\n")
        or body.translate(None, _PAYOFF_BYTES)
    ):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x reads "1.0" as an int, with a DeprecationWarning
            table = np.loadtxt(
                path, dtype=[("level", "i8"), ("index", "i8"), ("value", "f8")], delimiter=",", skiprows=1,
                comments=None, encoding="utf-8", ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    level, index, value = table["level"], table["index"], table["value"]
    depth = int(level.max())
    # Every node of levels 0..depth once: 2^(depth+1) - 1 rows (and 2^depth
    # fits int64) at distinct breadth-first positions 2^level - 1 + index.
    in_range = np.abs(value) <= PAYOFF_LIMIT  # False for inf and nan too
    if not (in_range.all() and level.min() >= 0 and depth < 63 and level.size == 2 ** (depth + 1) - 1):
        return None
    first = np.int64(1) << level
    if not ((index >= 0) & (index < first)).all():
        return None
    position = first - 1 + index
    seen = np.zeros(level.size, dtype=bool)
    seen[position] = True
    if not seen.all():
        return None
    flat = np.empty(level.size)
    flat[position] = value
    return PayoffProcess.from_arrays(np.split(flat, 2 ** np.arange(1, depth + 1) - 1))


def _read_payoff_rows(path: Path) -> PayoffProcess:
    by_level = {}  # level -> (indices, values, line numbers)
    for line, (level, index, value) in _csv_records(path, PAYOFF_HEADER, "payoff", (int, int, float)):
        if not math.isfinite(value):
            raise CsvFormatError(f"payoff CSV line {line}: non-finite value {value!r}")
        if abs(value) > PAYOFF_LIMIT:
            raise CsvFormatError(
                f"payoff CSV line {line}: value {value!r} outside [-{PAYOFF_LIMIT!r}, {PAYOFF_LIMIT!r}]"
            )
        if level < 0:
            raise CsvFormatError(f"payoff CSV line {line}: negative level {level}")
        if index < 0 or index.bit_length() > level:  # index outside [0, 2^level)
            raise CsvFormatError(f"payoff CSV line {line}: index {index} outside [0, 2^{level})")
        bucket = by_level.setdefault(level, ([], [], []))
        bucket[0].append(index)
        bucket[1].append(value)
        bucket[2].append(line)
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
