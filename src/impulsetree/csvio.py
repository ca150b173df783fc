"""The CLI's CSV writers: values.csv, strategy.csv, controls.csv,
envelope.csv and dump's rows.

Byte contract of every file written here (that of csv.writer's default
dialect for these fields): fields joined by ",", "\\r\\n" line ends,
floats as repr (the shortest round trip), ints as str and an empty field
for no value.

A file goes out table by table: one tree level, or consecutive small
levels joined, as an (outer, inner) grid of rows in C order (values.csv:
node x state).  A column is one field shared by every row, an array over
the grid or along one of its axes, or codes into a list of texts.  Its
texts are made once per table into a pool, and each row's field is looked
up there: repr of each distinct bit pattern of a float (so -0.0 and 0.0
keep their own) and the digits of an int.  The file keeps the repr of
each float met while it holds no more than one chunk has float fields, so
an iterate that repeats the last one's values is not formatted again; the
digits of ints in [0, CHUNK_ROWS) come from one table per width.  An int
column spanning CHUNK_ROWS values or more gets no pool: it is formatted a
chunk at a time by digit arithmetic.  A column of one value, or one that
is the same on every node (values.csv's states), is filled in once per
table.

A chunk of at most CHUNK_ROWS rows is one byte matrix, each field padded
with NULs to its column's width and followed by its "," or "\\r\\n"; the
NULs are dropped and the rest goes out in one write.  So neither a file
nor a whole-level column of strings is held in memory.
"""

from pathlib import Path

import numpy as np

from .csvread import FORMATS
from .impulse import field_terms
from .strategy import Strategy
from .snell import PayoffProcess

# Rows per write: values.csv's widest chunk matrix takes about 170 kB.
CHUNK_ROWS = 2048
_REPR = "S24"  # repr of a float64 takes at most 24 bytes


class _Texts:
    """The field texts of one file's pools, as void items each followed by
    its column's end.  A float is formatted by repr per bit pattern (so
    -0.0 and 0.0 keep their own).  A cache, sorted by bit pattern, keeps
    the repr of each pattern met while it holds no more than one chunk has
    float fields; it starts with 0.0.  Ints in [0, CHUNK_ROWS) are sliced
    from one table of their digits per width."""

    def __init__(self, float_columns):
        self.limit = CHUNK_ROWS * float_columns
        self.keys, self.reprs = np.zeros(1, dtype=np.int64), np.array([b"0.0"], dtype=_REPR)  # sorted by key
        self.tables = {}

    def floats(self, keys, end):
        """The repr of each of the sorted distinct float64 bit patterns
        ``keys`` (an int64 array)."""
        at = np.searchsorted(self.keys, keys)
        text = self.reprs.take(at, mode="clip")
        new = np.flatnonzero(self.keys.take(at, mode="clip") != keys)
        if new.size:
            text[new] = [repr(x).encode() for x in keys[new].view(np.float64).tolist()]
            if self.keys.size + new.size <= self.limit:  # merge them in, keeping the keys sorted
                into = at[new] + np.arange(new.size)
                rest = np.ones(self.keys.size + new.size, dtype=bool)
                rest[into] = False
                merged_keys, merged_reprs = np.empty(rest.size, dtype=np.int64), np.empty(rest.size, dtype=_REPR)
                merged_keys[into], merged_keys[rest] = keys[new], self.keys
                merged_reprs[into], merged_reprs[rest] = text[new], self.reprs
                self.keys, self.reprs = merged_keys, merged_reprs
        return _items(text, end)

    def ints(self, low, high, sign, digits, end):
        """The decimal text of each of low..high, as _decimal makes it."""
        if not 0 <= low <= high < CHUNK_ROWS:
            return _decimal(np.arange(high - low + 1) + low, sign, digits, end)
        table = self.tables.get((digits, end))
        if table is None:
            table = self.tables[digits, end] = _decimal(np.arange(min(CHUNK_ROWS, 10**digits)), False, digits, end)
        return table[low : high + 1]


def _items(text, end):
    """Each text of a list of bytes or an S array, NUL-padded to the
    longest, then ``end``, as void items."""
    text = np.asarray(text, dtype="S")
    chars = text.view(np.uint8).reshape(text.size, text.itemsize)
    width = int(np.count_nonzero(chars.any(axis=0)))  # the columns the longest text fills
    out = np.empty((text.size, width + len(end)), dtype=np.uint8)
    out[:, :width] = chars[:, :width]
    out[:, width:] = np.frombuffer(end, np.uint8)
    return out.view(f"V{out.shape[1]}")[:, 0]


def _decimal(ints, sign, digits, end):
    """The decimal text of each element of an integer array, followed by
    ``end``, as void items: a "-" column if ``sign``, then ``digits`` digits
    with NULs for leading zeros."""
    mag = ints.astype(np.uint64).ravel()  # -2**63 wraps to 2**63, its magnitude
    out = np.empty((mag.size, sign + digits + len(end)), dtype=np.uint8)
    if sign:
        neg = ints.ravel() < 0
        mag[neg] = -mag[neg]
        out[:, 0] = neg * ord("-")
    shortest = len(str(int(mag.min())))  # below this place no digit is a leading zero
    q = mag
    for place in range(digits):
        rest = q // 10
        digit = q - rest * 10 + ord("0")
        if place >= shortest:
            digit *= q != 0
        out[:, sign + digits - 1 - place] = digit
        q = rest
    out[:, sign + digits :] = np.frombuffer(end, np.uint8)
    return out.view(f"V{out.shape[1]}").reshape(ints.shape)


def _column(texts, values, end):
    """(width, fields, varies) of a table column: its width in bytes, its
    fields (each followed by ``end``) as a function of a chunk's outer and
    inner slices that returns void items broadcastable to the chunk, and
    whether they vary along the outer axis.  ``values`` is bytes (the same
    field on every row), an array broadcastable to the table (a 1-D array
    runs along the outer axis) or a pair (list of bytes, integer array of
    indices into it).  A float, and an int of a column spanning fewer than
    CHUNK_ROWS values, is looked up in a pool of the column's texts; other
    ints are formatted a chunk at a time."""
    if isinstance(values, bytes):
        pool = _items([values], end)
    elif isinstance(values, tuple):
        pool, values = _items(values[0], end), values[1]
        codes = lambda block: block
    elif values.dtype == np.float64:
        values = values.view(np.int64)
        keys = np.sort(values, axis=None)
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        pool, codes = texts.floats(keys, end), lambda block: np.searchsorted(keys, block)
    else:
        low, high = int(values.min()), int(values.max())
        sign, digits = low < 0, len(str(max(high, -low)))
        if high - low >= CHUNK_ROWS:
            return _chunked(values, sign + digits + len(end), lambda block: _decimal(block, sign, digits, end))
        pool, codes = texts.ints(low, high, sign, digits, end), lambda block: block - low
    if pool.size == 1:  # the same field on every row
        return pool.itemsize, lambda o, i: pool, False
    return _chunked(values, pool.itemsize, lambda block: pool.take(codes(block)))


def _chunked(values, width, fields):
    """_column's triple for ``fields`` of a block of ``values``: formatted
    once if the values do not vary along the outer axis."""
    values = values.reshape(len(values), -1)
    inner = (lambda i: i) if values.shape[1] > 1 else (lambda i: slice(None))
    if values.shape[0] == 1:
        fixed = fields(values)
        return width, lambda o, i: fixed[:, inner(i)], False
    return width, lambda o, i: fields(values[o, inner(i)]), True


def _write_table(fh, texts, shape, *columns):
    """The rows of an (outer, inner) table in C order to a binary stream,
    a chunk of at most CHUNK_ROWS rows to a write: whole outer rows, or a
    slice of one where it alone is longer.  Each column is as for _column;
    fields are joined by "," and rows end with "\\r\\n".  One byte matrix
    serves every chunk, and a column that does not vary along the outer
    axis is filled in only when the chunk's inner slice changes.  A chunk's
    rows are written with their NULs dropped."""
    outer, inner = shape
    made = [_column(texts, c, b",") for c in columns[:-1]] + [_column(texts, columns[-1], b"\r\n")]
    nodes, span = max(1, CHUNK_ROWS // inner), min(inner, CHUNK_ROWS)
    width = sum(w for w, _, _ in made)
    buf = bytearray(min(nodes, outer) * span * width)
    mat = np.frombuffer(buf, dtype=np.uint8).reshape(-1, span, width)
    slots, at = [], 0
    for w, _, _ in made:
        slots.append(mat[..., at : at + w].view(f"V{w}")[..., 0])
        at += w
    filled = None
    for o0 in range(0, outer, nodes):
        o = slice(o0, min(o0 + nodes, outer))
        for i0 in range(0, inner, span):
            i = slice(i0, min(i0 + span, inner))
            part = (slice(o.stop - o.start), slice(i.stop - i.start))
            for slot, (_, fields, varies) in zip(slots, made):
                if varies or i0 != filled:
                    slot[part] = fields(o, i)
            filled = i0
            # whole inner rows or one outer row: a prefix of the buffer
            size = (o.stop - o.start) * (i.stop - i.start) * width
            fh.write((buf if size == len(buf) else buf[:size]).translate(None, b"\0"))


def _write_levels(fh, texts, shared, levels):
    """The rows (prefix, index, *shared, *columns) of each (prefix, columns)
    of ``levels`` in turn: a level's columns run along its nodes first, so
    index is 0..nodes-1.  The levels are a binary tree's, each with twice
    the rows of the one before.  Consecutive levels whose rows fit in one
    chunk together are joined into one table, so small levels share its
    set-up.  A table is written before the next level is drawn, so a lazy
    ``levels`` makes one level's columns at a time."""
    group, rows = [], 0
    for level in levels:
        group.append(level)
        rows += level[1][0].size
        if rows + 2 * level[1][0].size > CHUNK_ROWS:  # the next level would not fit
            _write_group(fh, texts, shared, group)
            group, rows = [], 0
    if group:
        _write_group(fh, texts, shared, group)


def _write_group(fh, texts, shared, group):
    """One table of the consecutive levels ``group``, as _write_levels
    lays them out."""
    prefixes, columns = zip(*group)
    nodes = [len(c[0]) for c in columns]
    if len(group) == 1:
        head, columns = (prefixes[0], np.arange(nodes[0])), columns[0]
    else:
        index = np.concatenate([np.arange(n) for n in nodes])
        head = (list(prefixes), np.repeat(np.arange(len(nodes)), nodes)), index
        columns = [np.concatenate(c) for c in zip(*columns)]
    _write_table(fh, texts, (sum(nodes), columns[0].size // sum(nodes)), *head, *shared, *columns)


def _open_csv(path: Path, name: str):
    fh = path.open("wb")
    fh.write((",".join(FORMATS[name]) + "\r\n").encode())
    return fh


def write_values_csv(path: Path, result, tree):
    """values.csv of a value iteration, its fields in order of n: one row
    per (level, node, state) with Y and field_terms' Z and K_inc."""
    texts = _Texts(3)
    with _open_csv(path, "values") as fh:
        for fld in result.fields:
            shifts, counts = fld.states.shifts.tolist(), fld.states.counts.tolist()
            states = ([f"{cum!r},{n}".encode() for cum, n in zip(shifts, counts)], np.arange(len(shifts))[None, :])
            terms = enumerate(zip(fld.values, field_terms(result, fld.n, tree)))
            _write_levels(fh, texts, [states], ((f"{fld.n},{k}".encode(), (y, *zk)) for k, (y, zk) in terms))


def write_strategy_csv(path: Path, strategy: Strategy):
    """Strategy.rows() as CSV, formatted from Strategy.row_arrays()."""
    level, index, cum, count, code = strategy.row_arrays()
    actions = [f"{act},{'' if beta is None else repr(float(beta))}".encode() for act, beta in strategy.actions]
    with _open_csv(path, "strategy") as fh:
        _write_table(fh, _Texts(1), (level.size, 1), level, index, cum, count, (actions, code + 1))


def write_controls_csv(path: Path, controls, states):
    """One row per node below the horizon: its post-chain state, from
    walk_strategy_states, and its control."""
    levels = ((str(k).encode(), (states.cum[k], states.count[k], controls[k])) for k in range(len(states.cum) - 1))
    with _open_csv(path, "controls") as fh:
        _write_levels(fh, _Texts(2), [], levels)


def write_envelope_csv(path: Path, payoff: PayoffProcess, result):
    columns = (payoff.values, result.envelope, result.stop_region, result.first_optimal_stop)
    with _open_csv(path, "envelope") as fh:
        _write_levels(fh, _Texts(2), [], ((str(k).encode(), level) for k, level in enumerate(zip(*columns))))


def write_dump(fh, tree, level: int):
    """One tree level's (level, index, t, L, xmax, xmin, xavg) rows to an
    open binary stream."""
    columns = (tree.state[level], tree.running_max[level], tree.running_min[level], tree.running_avg[level])
    fh.write((",".join(FORMATS["dump"]) + "\r\n").encode())
    _write_levels(fh, _Texts(4), [repr(float(tree.times[level])).encode()], [(str(level).encode(), columns)])
