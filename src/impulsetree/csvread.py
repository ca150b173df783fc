"""The CLI's CSV formats, and its strict readers of strategy.csv (for eval)
and payoff CSVs (for snell): one pass over a file (_Pass), which records
each row's line, so that every fault names its line without a re-read."""

import csv
import io
import math
import warnings
from bisect import bisect_right
from itertools import islice
from pathlib import Path

import numpy as np

from .strategy import BLOCK_ROWS, CodedColumn, Strategy, StrategyRowError
from .snell import PayoffProcess


# A column kind: (the csv rows' parser of a field, as int does for np.int64; its np.loadtxt dtype; the bytes
# on which the two read a field alike).  An "S" kind is a text column of few distinct fields, held as codes; a
# field as wide as its dtype, which loadtxt would cut short, is left to the csv rows.
_NUMBER = b"0123456789.+-eE"
INT, INT64, FLOAT = (int, "i8", _NUMBER), (np.int64, "i8", _NUMBER), (float, "f8", _NUMBER)
ACTION = (str, "S9", b"continueimpulse")
BETA = (lambda field: None if field == "" else float(field), "S25", _NUMBER)  # a float64's repr: at most 24 bytes
# Each CSV file's columns and their kinds; its header is the column names.
FORMATS = {
    "values": dict(n=INT, level=INT, index=INT, state_cum=FLOAT, state_count=INT, Y=FLOAT, Z=FLOAT, K_inc=FLOAT),
    "strategy": dict(level=INT64, index=INT64, state_cum=FLOAT, state_count=INT64, action=ACTION, beta=BETA),
    "controls": dict(level=INT, index=INT, state_cum=FLOAT, state_count=INT, u_star=FLOAT),
    "envelope": dict(level=INT, index=INT, payoff=FLOAT, envelope=FLOAT, stop=INT, first_stop=INT),
    "dump": dict(level=INT, index=INT, t=FLOAT, L=FLOAT, xmax=FLOAT, xmin=FLOAT, xavg=FLOAT),
    "payoff": dict(level=INT, index=INT, value=FLOAT),
}
READ_BYTES = 2**15  # parsed at once (whole lines), so that loadtxt's table stays small
PAYOFF_LIMIT = float(np.finfo(np.float64).max) / 2  # the largest payoff magnitude: a sum of two stays finite


class CsvFormatError(ValueError):
    """An input CSV that breaks its format; the message names the line."""


class _Pass:
    """One pass over a CSV of FORMATS[name].  ``rule(row, line)`` checks a row the csv module read and returns it
    as blocks hold it; ``fits`` tells whether all of a chunk's loadtxt columns pass that rule."""

    def __init__(self, name, rule=lambda row, line: row, fits=lambda columns: True):
        self.name, self.rule, self.fits, self.kinds = name, rule, fits, list(FORMATS[name].values())
        self.texts = [{} if dtype[0] == "S" else None for _, dtype, _ in self.kinds]  # field -> code
        self.dtype = [(c, dtype) for c, (_, dtype, _) in FORMATS[name].items()]
        self.n, self.at = 0, [(0, 2)]  # rows read; (row, line - row) from each row where that changes

    def line(self, row: int) -> int:
        """The line of row ``row``; for the row count, the line after the last row."""
        return row + self.at[bisect_right(self.at, (row, math.inf)) - 1][1]

    def blocks(self, raw):
        """The rows of the binary file ``raw``, a list of columns (codes into texts[j] for a text column j) at a
        time: chunks of about READ_BYTES of whole lines through _plain, and from the first it refuses on, _rows."""
        head, limit, rest = ",".join(FORMATS[self.name]).encode(), csv.field_size_limit(), b""
        while (chunk := rest + (block := raw.read(READ_BYTES))) or head:  # an empty file has its header checked
            # whole lines; a "\r" that ends a block may be half of a "\r\n"
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1 if block else len(chunk)
            chunk, rest = chunk[:cut], chunk[cut:]
            if block and not cut and len(rest) <= limit:
                continue
            if (columns := self._plain(chunk, head, limit) if cut else None) is None:
                # _plain takes no blank line: row r so far is on line r + 2
                yield from self._rows(raw, raw.tell() - len(rest) - len(chunk), self.n + 2 if not head else 1)
                return
            if columns:
                self.n += columns[0].size
                yield columns
            head = b""

    def _plain(self, chunk, head, limit):
        """The loadtxt columns of a chunk's lines after ``head``; None if another byte than the kinds' and ",\\r\\n"
        follows ``head``, a line is blank or longer than ``limit``, or loadtxt or ``fits`` refuses."""
        body, allowed = chunk[len(head) :], b",\r\n" + b"".join(kind[2] for kind in self.kinds)
        if not chunk.startswith(head) or head and body[:1] not in b"\r\n" or body.translate(None, allowed):
            return None
        lines = body.decode("ascii").splitlines()[bool(head) :]  # the header's own line end
        if len(chunk) > limit and max(map(len, lines)) > limit:
            return None
        if not lines:
            return []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy 1.x reads "1.0" as an int with a DeprecationWarning
                table = np.loadtxt(lines, dtype=self.dtype, delimiter=",", comments=None, encoding="utf-8", ndmin=1)
            columns = [_column(table[c], *kind) for c, kind in zip(table.dtype.names, zip(self.texts, self.kinds))]
        except (ValueError, Warning):
            return None
        return columns if table.size == len(lines) and self.fits(columns) else None  # loadtxt skips blank lines

    def _rows(self, raw, start: int, first: int):
        """blocks' rows from byte ``start`` (line ``first``, 1 the header's) on, as the csv module reads them."""
        raw.seek(start - start % 8192)  # io decodes 8192 bytes at a time, so a non-UTF-8 byte fails as from byte 0
        with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="") as text:
            text.read(start % 8192)
            reader = csv.reader(text)
            if first == 1 and (got := next(reader, None)) != list(FORMATS[self.name]):
                raise CsvFormatError(f"{self.name} CSV must have columns {list(FORMATS[self.name])}, got {got}")
            rows = (self._row(rec, first - 1 + reader.line_num) for rec in reader if rec)
            while block := list(islice(rows, BLOCK_ROWS)):
                yield [np.array(column) for column in zip(*block)]

    def _row(self, rec, line: int):
        what = f"{self.name} CSV line {line}"
        if len(rec) != len(self.kinds):
            raise CsvFormatError(f"{what}: expected {len(self.kinds)} fields, got {len(rec)}")
        try:
            row = [parse(field) for (parse, _, _), field in zip(self.kinds, rec)]
        except (ValueError, OverflowError) as exc:
            fault = "integer field outside the 64-bit range" if isinstance(exc, OverflowError) else "non-numeric field"
            raise CsvFormatError(f"{what}: {fault}") from None
        if line - self.n != self.at[-1][1]:
            self.at.append((self.n, line - self.n))
        self.n += 1
        return self.rule([v if t is None else t.setdefault(f, len(t)) for v, t, f in zip(row, self.texts, rec)], line)


def _column(column, texts, kind):
    """A loadtxt column as blocks hold it; ValueError for a text field too wide or refused by its parser."""
    if texts is None:
        return column.copy()
    other = np.flatnonzero(column != column[0])  # the rows whose field is not the first row's
    fields, inverse = np.unique(column[other], return_inverse=True)
    fields = [field.decode() for field in [column[0], *fields.tolist()]]
    if max(map(len, fields)) >= column.itemsize:
        raise ValueError("a field loadtxt may have cut short")
    list(map(kind[0], fields))  # a field its parser refuses raises
    index = np.zeros(column.size, np.intp)  # each row's place in ``fields``
    index[other] = inverse + 1
    return np.array([texts.setdefault(f, len(texts)) for f in fields], np.min_scalar_type(len(texts)))[index]


def read_strategy_csv(path: Path, impulses) -> Strategy:
    """The strategy a CSV of Strategy.rows() describes, over ``impulses``;
    a row that breaks a rule of Strategy.from_columns is reported by line."""
    reader = _Pass("strategy")
    with path.open("rb", buffering=0) as raw:
        columns = [list(pieces) for pieces in zip(*reader.blocks(raw))] or [[] for _ in reader.kinds]
    # Each column is joined, and its pieces dropped, before the next.
    level, index, cum, count, action, beta = (np.concatenate(columns.pop(0) or [np.zeros(0)]) for _ in reader.kinds)
    action, beta = (CodedColumn(c, map(k[0], t)) for c, k, t in zip((action, beta), reader.kinds[4:], reader.texts[4:]))
    try:
        return Strategy.from_columns(level, index, cum, count, action, beta, impulses)
    except StrategyRowError as exc:
        raise CsvFormatError(f"strategy CSV line {reader.line(exc.position)}: {exc}") from None


def _payoff_row(row, line: int):
    """A payoff row that breaks no row rule, with a level and an index held
    at most 2^62 (a row so deep lies past any tree)."""
    level, index, value = row
    if not math.isfinite(value):
        raise CsvFormatError(f"payoff CSV line {line}: non-finite value {value!r}")
    if abs(value) > PAYOFF_LIMIT:
        raise CsvFormatError(f"payoff CSV line {line}: value {value!r} outside [-{PAYOFF_LIMIT!r}, {PAYOFF_LIMIT!r}]")
    if level < 0:
        raise CsvFormatError(f"payoff CSV line {line}: negative level {level}")
    if index < 0 or index.bit_length() > level:  # index outside [0, 2^level)
        raise CsvFormatError(f"payoff CSV line {line}: index {index} outside [0, 2^{level})")
    return min(level, 2**62), min(index, 2**62), value


def read_payoff_csv(path: Path) -> PayoffProcess:
    """Per-level payoff arrays from a CSV that lists every node of levels 0..depth once, in any order.  A fault
    is named as a row loop names it: the first row to break a row rule, else, level by level from 0, the first
    repeated row, then the lowest missing index."""
    reader = _Pass("payoff", _payoff_row, lambda c: bool(  # _payoff_row's rules on loadtxt's columns
        abs(c[2]).max() <= PAYOFF_LIMIT and c[0].min() >= 0 and not (c[1] >> np.minimum(c[0], 63)).any()))
    with path.open("rb", buffering=0) as raw:
        # two commas a row and two in the header, unless a row breaks a rule
        blocks = iter(lambda: raw.read(READ_BYTES), b"")
        size = max(int(sum(np.count_nonzero(np.frombuffer(b, np.uint8) == ord(",")) for b in blocks)) // 2 - 1, 0)
        raw.seek(0)
        # A row's pos is its node's 2^level - 1 + index; a row too deep for ``size`` nodes gets one the checks skip.
        depth, flat = size.bit_length() - 1, np.full(size + 1, np.nan)  # flat[size] takes too deep rows' values
        pos = np.empty(size, np.min_scalar_type(3 * size))
        for level, index, value in reader.blocks(raw):
            node = (np.int64(1) << np.minimum(level, depth + 1)) - 1 + np.minimum(index, size)
            pos[reader.n - node.size : reader.n] = node
            flat[np.minimum(node, size)] = value
    if not reader.n:
        raise CsvFormatError("payoff CSV is empty")
    # As many rows as nodes of a full tree, and no nan left: each node once.
    if reader.n == size and not size & (size + 1) and not np.isnan(flat[:size].min()):
        return PayoffProcess.from_arrays(np.split(flat[:size], 2 ** np.arange(1, depth + 1) - 1))
    order = np.argsort(pos[: reader.n], kind="stable")
    nodes = pos[order]
    for k in range(depth + 1):  # a fault lies above any row deeper than depth
        lo, hi = np.searchsorted(nodes, [base := 2**k - 1, 2 * base + 1])
        if (repeats := order[lo + 1 : hi][np.diff(nodes[lo:hi]) == 0]).size:  # later rows of a repeated node
            j = int(repeats.min())
            raise CsvFormatError(f"payoff CSV line {reader.line(j)}: duplicate node (level {k}, index {pos[j] - base})")
        if hi - lo < 2**k:
            gaps = np.flatnonzero(nodes[lo:hi] != np.arange(base, base + hi - lo))
            raise CsvFormatError(f"payoff CSV missing node (level {k}, index {gaps[0] if gaps.size else hi - lo})")
