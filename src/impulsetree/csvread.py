"""The CLI's CSV readers: strategy.csv (for eval) and payoff CSVs (for
snell), strict about their format.

The readers parse a file of plain bytes (see _PAYOFF_BYTES) with
np.loadtxt a chunk of lines at a time and check its columns as arrays.
The payoff reader counts the file's commas first and fills one array of
that many nodes, so neither reader holds a whole-file table.  Any other
file, or one that fails a check, is read again row by row, which names
the first faulty line.
"""

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from .csvio import STRATEGY_HEADER
from .strategy import CodedColumn, Strategy, StrategyRowError
from .snell import PayoffProcess

PAYOFF_HEADER = ["level", "index", "value"]
# The largest payoff magnitude read, so that two siblings' sum stays finite.
PAYOFF_LIMIT = float(np.finfo(np.float64).max) / 2


class CsvFormatError(ValueError):
    """An input CSV that breaks its format; the message names the line."""


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


# np.loadtxt and the csv module with int/float read a file made only of
# these bytes alike (and the strategy's action fields as they are); the
# array readers leave any other file to the rows.
_PAYOFF_BYTES = b"0123456789,.+-eE\r\n"
_STRATEGY_BYTES = _PAYOFF_BYTES + b"continueimpulse"
# The beta field's width; a beta this long or longer (loadtxt would cut it
# short) is left to the rows.  repr of a float64 takes at most 24 bytes.
BETA_WIDTH = 25
_STRATEGY_DTYPE = [
    ("level", "i8"), ("index", "i8"), ("cum", "f8"), ("count", "i8"), ("action", "S9"), ("beta", f"S{BETA_WIDTH}")
]
# Bytes of a CSV parsed at once (whole lines: a longer line is taken
# whole), so that loadtxt's table (~66 bytes a strategy row) stays small.
READ_BYTES = 2**15


def _plain_chunks(path: Path, header, allowed):
    """The bytes after a CSV's header line in chunks of about READ_BYTES,
    each ending at a line end (the last at the end of the file); or a None,
    which ends them, unless the file starts with ``header`` and a line end
    and holds only ``allowed`` bytes after them."""
    header = ",".join(header).encode()
    with path.open("rb") as fh:
        head = fh.read(len(header) + 1)
        plain = head[:-1] == header and head[-1:] in (b"\r", b"\n")
        rest = []  # the blocks of a line not yet ended
        while plain and not (block := fh.read(READ_BYTES)).translate(None, allowed):
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
            if cut or not block:
                yield b"".join(rest) + block[:cut]
                rest = []
            if not block:
                return
            rest.append(block[cut:])
    yield None


def _loadtxt(lines, dtype):
    """The rows of a list of CSV lines as np.loadtxt parses them, or None if
    it raises or warns (numpy 1.x reads "1.0" as an int with a
    DeprecationWarning, and no rows warn)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, encoding="utf-8", ndmin=1)
    except (ValueError, Warning):
        return None


def _read_strategy_columns(path: Path):
    """The parsed columns of a strategy CSV, a chunk of lines at a time,
    action and beta as CodedColumns; or None where that could differ from
    the csv module's reading or a row is faulty: a byte other than
    _STRATEGY_BYTES (a quote, a NUL, a space, ...), a line longer than the
    csv field limit, another header, a wrong field count, a field its
    parser rejects, an action other than continue and impulse, or a beta
    of BETA_WIDTH bytes or more.  Each distinct beta is parsed once."""
    columns = [[] for _ in STRATEGY_HEADER]  # one piece per chunk
    betas = {}  # beta field -> its code 1, 2, ... (0 is no beta)
    for chunk in _plain_chunks(path, STRATEGY_HEADER, _STRATEGY_BYTES):
        lines = None if chunk is None else chunk.decode("ascii").splitlines()
        if lines is None or max(map(len, lines), default=0) > csv.field_size_limit():
            return None
        if not any(lines):
            continue
        table = _loadtxt(lines, _STRATEGY_DTYPE)
        if table is None:
            return None
        impulse = table["action"] == b"impulse"
        given = np.flatnonzero(table["beta"] != b"")  # few rows: a continue row's beta is empty
        fields, inverse = np.unique(table["beta"][given], return_inverse=True)
        fields = fields.tolist()
        if not (impulse | (table["action"] == b"continue")).all() or max(map(len, fields), default=0) >= BETA_WIDTH:
            return None
        beta = np.zeros(impulse.size, dtype=np.int32)
        beta[given] = np.array([betas.setdefault(b, len(betas) + 1) for b in fields], dtype=np.int32)[inverse]
        pieces = [table[c].copy() for c in ("level", "index", "cum", "count")] + [impulse.view(np.int8), beta]
        for column, piece in zip(columns, pieces):
            column.append(piece)
    try:
        values = [None] + [float(b.decode()) for b in betas]
    except ValueError:
        return None
    if not columns[0]:
        return None
    # Each column is joined, and its pieces dropped, before the next.
    level, index, cum, count, action, beta = (np.concatenate(columns.pop(0)) for _ in STRATEGY_HEADER)
    return level, index, cum, count, CodedColumn(action, ("continue", "impulse")), CodedColumn(beta, values)


def read_payoff_csv(path: Path) -> PayoffProcess:
    """Per-level payoff arrays from a (level, index, value) CSV that lists
    every node of levels 0..depth exactly once, in any order.  A file the
    array reader cannot take is read row by row, which names the first
    faulty line; if it finds none, its result stands."""
    return _read_payoff_columns(path) or _read_payoff_rows(path)


def _read_payoff_columns(path: Path) -> "PayoffProcess | None":
    """The payoff parsed by np.loadtxt a chunk of lines at a time into one
    array sized from the file's comma count and checked as arrays; or None
    for a file that holds other bytes or fails a parse or a check."""
    with path.open("rb") as fh:  # two commas a row, and two in the header
        blocks = iter(lambda: fh.read(READ_BYTES), b"")
        size = int(sum(np.count_nonzero(np.frombuffer(b, np.uint8) == ord(",")) for b in blocks)) // 2 - 1
    # Every node of levels 0..depth once: 2^(depth+1) - 1 rows at distinct
    # breadth-first positions 2^level - 1 + index.
    if size < 1 or size & (size + 1):
        return None
    depth = size.bit_length() - 1
    flat = np.full(size, np.nan)  # nan where no row has landed
    for chunk in _plain_chunks(path, PAYOFF_HEADER, _PAYOFF_BYTES):
        lines = None if chunk is None else chunk.decode("ascii").splitlines()
        if lines is not None and not any(lines):
            continue
        table = None if lines is None else _loadtxt(lines, [("level", "i8"), ("index", "i8"), ("value", "f8")])
        if table is None or table["level"].min() < 0 or table["level"].max() > depth:
            return None
        first = np.int64(1) << table["level"]
        if not ((table["index"] >= 0) & (table["index"] < first)).all():
            return None
        flat[first - 1 + table["index"]] = table["value"]
    # As many rows as nodes: a repeated node leaves another nan, and a nan
    # fails both comparisons (as an infinite value fails one).
    if not (flat.min() >= -PAYOFF_LIMIT and flat.max() <= PAYOFF_LIMIT):
        return None
    return PayoffProcess.from_arrays(np.split(flat, 2 ** np.arange(1, depth + 1) - 1))


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
