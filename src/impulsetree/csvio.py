"""The CLI's CSV files: column-wise writers and strict readers.

Byte contract of every file written here (that of csv.writer's default
dialect for these fields): fields joined by ",", "\\r\\n" line ends,
floats as repr (the shortest round trip), ints as str and an empty field
for no value.  The writers work column-wise from the arrays: node and
state prefixes are formatted once, only the per-cell floats go through
repr, and each write holds at most CHUNK_ROWS rows, so no file is built in
memory whole.
"""

import csv
import math
from pathlib import Path

import numpy as np

from .strategy import Strategy, StrategyRowError
from .snell import PayoffProcess

CHUNK_ROWS = 512
STRATEGY_HEADER = ["level", "index", "state_cum", "state_count", "action", "beta"]
PAYOFF_HEADER = ["level", "index", "value"]


class CsvFormatError(ValueError):
    """An input CSV that breaks its format; the message names the line."""


def _reprs(arr) -> "list[str]":
    return list(map(repr, arr.ravel().tolist()))


def _csv_lines(prefixes, *columns) -> str:
    """CSV text of the rows ``prefix + ",".join(fields)``: each prefix ends
    with a comma, each column holds one field per row."""
    line = "{}" + ",".join(["{}"] * len(columns)) + "\r\n"
    return "".join(map(line.format, prefixes, *columns))


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


def write_values_csv(path: Path, fields):
    """One row per (iterate, level, node, state) with Y, Z and K_inc."""
    with _open_csv(path, ["n", "level", "index", "state_cum", "state_count", "Y", "Z", "K_inc"]) as fh:
        for fld in fields:
            states = [f"{float(st.cumulative)!r},{st.count}," for st in fld.states]
            for level, y in enumerate(fld.values):
                for nodes in _node_chunks(y.shape[0], len(states)):
                    rows = slice(nodes.start, nodes.stop)
                    prefixes = [node + s for node in [f"{fld.n},{level},{i}," for i in nodes] for s in states]
                    fh.write(
                        _csv_lines(prefixes, _reprs(y[rows]), _reprs(fld.z[level][rows]), _reprs(fld.k_inc[level][rows]))
                    )


def write_strategy_csv(path: Path, strategy: Strategy):
    rows = strategy.rows()
    with _open_csv(path, STRATEGY_HEADER) as fh:
        for r0 in range(0, len(rows), CHUNK_ROWS):
            chunk = rows[r0 : r0 + CHUNK_ROWS]
            prefixes = [f"{level},{index},{float(cum)!r},{count}," for level, index, cum, count, *_ in chunk]
            betas = ["" if r[5] is None else repr(float(r[5])) for r in chunk]
            fh.write(_csv_lines(prefixes, [r[4] for r in chunk], betas))


def write_controls_csv(path: Path, controls, states):
    """One row per node below the horizon: its post-chain state, from
    walk_strategy_states, and its control."""
    with _open_csv(path, ["level", "index", "state_cum", "state_count", "u_star"]) as fh:
        for k in range(len(states.cum) - 1):
            for nodes in _node_chunks(states.cum[k].size):
                rows = slice(nodes.start, nodes.stop)
                cums, counts = states.cum[k][rows].tolist(), states.count[k][rows].tolist()
                prefixes = [f"{k},{i},{cum!r},{n}," for i, cum, n in zip(nodes, cums, counts)]
                fh.write(_csv_lines(prefixes, _reprs(controls.levels[k][rows])))


def write_envelope_csv(path: Path, payoff: PayoffProcess, result):
    with _open_csv(path, ["level", "index", "payoff", "envelope", "stop", "first_stop"]) as fh:
        for k in range(payoff.depth + 1):
            for nodes in _node_chunks(2**k):
                rows = slice(nodes.start, nodes.stop)
                fh.write(
                    _csv_lines(
                        [f"{k},{i}," for i in nodes],
                        _reprs(payoff.values[k][rows]),
                        _reprs(result.envelope[k][rows]),
                        result.stop_region[k][rows].astype(int).tolist(),
                        result.first_optimal_stop[k][rows].tolist(),
                    )
                )


def write_dump(fh, tree, level: int):
    """One tree level's (level, index, t, L, xmax, xmin, xavg) rows to an
    open text stream."""
    t = repr(float(tree.times[level]))
    columns = (tree.state[level], tree.running_max[level], tree.running_min[level], tree.running_avg[level])
    fh.write("level,index,t,L,xmax,xmin,xavg\r\n")
    for nodes in _node_chunks(tree.level_size(level)):
        rows = slice(nodes.start, nodes.stop)
        fh.write(_csv_lines([f"{level},{i},{t}," for i in nodes], *(_reprs(c[rows]) for c in columns)))


def _csv_records(fh, header, what):
    """(line number, fields) of each non-blank CSV row after the header,
    which must equal ``header``; every row must have as many fields."""
    reader = csv.reader(fh)
    got = next(reader, None)
    if got != header:
        raise CsvFormatError(f"{what} CSV must have columns {header}, got {got}")
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(header):
            raise CsvFormatError(f"{what} CSV line {reader.line_num}: expected {len(header)} fields, got {len(rec)}")
        yield reader.line_num, rec


def read_strategy_csv(path: Path, impulses) -> Strategy:
    """The strategy a CSV of Strategy.rows() describes, over ``impulses``;
    a row that breaks a rule of Strategy.from_rows is reported by line."""
    rows, lines = [], []
    with path.open(newline="", encoding="utf-8") as fh:
        for line, (level, index, cum, count, action, beta) in _csv_records(fh, STRATEGY_HEADER, "strategy"):
            try:
                rows.append((int(level), int(index), float(cum), int(count), action, None if beta == "" else float(beta)))
            except ValueError:
                raise CsvFormatError(f"strategy CSV line {line}: non-numeric field") from None
            lines.append(line)
    lines.append(lines[-1] + 1 if lines else 2)  # where a row missing at the end belongs
    try:
        return Strategy.from_rows(rows, impulses)
    except StrategyRowError as exc:
        raise CsvFormatError(f"strategy CSV line {lines[exc.position]}: {exc}") from None


def read_payoff_csv(path: Path) -> PayoffProcess:
    """Per-level payoff arrays from a (level, index, value) CSV that lists
    every node of levels 0..depth exactly once, in any order."""
    by_level = {}  # level -> (indices, values, line numbers)
    with path.open(newline="", encoding="utf-8") as fh:
        for line, (level, index, value) in _csv_records(fh, PAYOFF_HEADER, "payoff"):
            try:
                level, index, value = int(level), int(index), float(value)
            except ValueError:
                raise CsvFormatError(f"payoff CSV line {line}: non-numeric field") from None
            if not math.isfinite(value):
                raise CsvFormatError(f"payoff CSV line {line}: non-finite value {value!r}")
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
