"""Classical modulation data for sphere, Gaussian, and radius-band coherent-state sources.

Blocks are real arrays of shape (n_blocks, d) holding coherent-state
amplitude coordinates: consecutive coordinates pair up as the real and
imaginary parts of complex amplitudes.  With the quadrature convention
x = a + a*, a coherent state |b> has quadrature means (2 Re b, 2 Im b) and
vacuum quadrature variance 1.  A session sends each coordinate times
QUADRATURE_SCALE as a quadrature mean, so the sent symbols carry modulation
variance V_A = 2 alpha^2 while the stored coordinates have second moment
alpha^2 / 2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import CHUNK_ROWS, DIVISION_DIMS

# Quadrature mean per unit coherent amplitude under x = a + a*.
QUADRATURE_SCALE = 2.0
# block dimensions of m = d/2 >= 1 whole modes: the sphere Z_d and decoy laws hold
SPHERE_DIMS = (2, 4, 8)

# first token of a transcript table's first line; the table kind follows it.
# Float cells are the 16 hex digits of their big-endian IEEE-754 bits
CSV_SCHEMA_V2 = "# cvqkd-csv-v2"
V2_KINDS = ("symbols", "outcomes")
# the integer columns of v2 tables, written in decimal; every other v2 column is hex
V2_INT_COLUMNS = ("block_index", "label", "mode_index", "basis")
# the integers that read_csv_table's decimal cells of 1 to 18 characters hold
V2_INT_RANGE = (-(10**17 - 1), 10**18 - 1)
# rows encoded at a time, so no table's text is held whole: converting whole
# arrays with .tolist() took the peak memory of a saved 1e6-symbol d=8 session
# from 260 MB to 450 MB.  Of 2**11 to 2**15, 2**13 and 2**14 encoded fastest on a
# 2-vCPU Xeon.  Blocks also end where a row index gains a digit: one width each
CSV_BLOCK_ROWS = 2**14

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# byte value -> its two hex digits, laid out in memory in reading order
_HEX_PAIRS = np.frombuffer(b"".join(b"%02x" % i for i in range(256)), dtype=np.uint16)
_HEX_VALUES = np.full(256, -1, dtype=np.int16)
_HEX_VALUES[_HEX_DIGITS] = np.arange(16)
_HEX_VALUES.setflags(write=False)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_COMMA, _NEWLINE, _MINUS, _ZERO = b",\n-0"
# two bytes, read as one native uint16 -> their four hex digits in the bytes' order.
# The digit tables are read-only, as np.frombuffer of bytes makes them
_HEX_QUADS = np.frombuffer(
    _HEX_PAIRS[np.arange(2**16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)].tobytes(), np.uint32)
# 0..99 -> its two decimal digits, and 0..9999 -> its four, zero-padded
_DECIMAL_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_DECIMAL_QUADS = np.frombuffer(
    _DECIMAL_PAIRS[np.arange(10_000)[:, None] // [100, 1] % 100].tobytes(), np.uint32)


def check_integer(name, value):
    """value is an int: a float or bool would not survive an int field of a file."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModulationScheme:
    """Block dimension d in {1, 2, 4, 8} and amplitude alpha with a usable V_A = 2 alpha^2."""

    d: int
    alpha: float

    def __post_init__(self):
        check_integer("d", self.d)
        if self.d not in DIVISION_DIMS:
            raise ValueError(f"d must be one of {DIVISION_DIMS}, got {self.d}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        modulation_variance(self.alpha)

    @property
    def sphere_radius(self) -> float:
        """Key-sphere radius alpha*sqrt(d/2) in amplitude coordinates."""
        return self.alpha * math.sqrt(self.d / 2.0)


def modulation_variance(alpha):
    """V_A = 2 alpha^2 of each alpha > 0; a V_A that is not a finite normal float is an error.

    A zero or subnormal V_A has lost the digits of alpha and an infinite one
    breaks every later formula; the error names the first alpha refused.
    """
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        v_a = np.asarray(2.0 * alpha * alpha)
    bad = np.flatnonzero(~((alpha > 0) & (v_a >= sys.float_info.min) & (v_a <= sys.float_info.max)))
    if bad.size and alpha.flat[bad[0]] <= 0:
        raise ValueError(f"alpha must be positive, got {alpha.flat[bad[0]]}")
    if bad.size:
        raise ValueError(
            f"alpha {alpha.flat[bad[0]]} gives V_A = 2 alpha^2 = {v_a.flat[bad[0]]}, outside "
            f"[{sys.float_info.min}, {sys.float_info.max}]"
        )
    return v_a


@dataclass(frozen=True)
class RadiusBand:
    """Dimensionless radius window [gamma_min, gamma_max] around the key sphere."""

    gamma_min: float
    gamma_max: float

    def __post_init__(self):
        if not 0.0 <= self.gamma_min <= 1.0:
            raise ValueError("gamma_min must lie in [0, 1]")
        if not self.gamma_max >= 1.0:
            raise ValueError("gamma_max must be >= 1")


def sample_sphere_blocks(d, radius, n_blocks, rng):
    """Blocks uniform on the sphere of the given amplitude radius in R^d."""
    if d == 1:
        signs = rng.integers(0, 2, size=(n_blocks, 1)) * 2 - 1
        return radius * signs.astype(float)
    return normalize_sphere_blocks(rng.standard_normal((n_blocks, d)), radius)


def normalize_sphere_blocks(blocks, radius):
    """Scale each row x of blocks to radius * x / |x| in place, CHUNK_ROWS rows at a time."""
    for start in range(0, len(blocks), CHUNK_ROWS):
        rows = blocks[start : start + CHUNK_ROWS]
        r = np.linalg.norm(rows, axis=1, keepdims=True)
        if np.any(r == 0.0):
            raise ValueError("cannot normalize a zero block")
        rows *= radius  # in place, in the order of radius * x / r
        rows /= r
    return blocks


def scale_gaussian_blocks(blocks, scheme):
    """Scale standard normal draws in place to N(0, alpha^2/2) coordinates.

    The result is rng.normal(0, alpha/sqrt(2)) of the same draws bit for
    bit: that computes 0 + scale*z, and adding 0 turns a -0.0 into 0.0.
    """
    blocks *= scheme.alpha / math.sqrt(2.0)
    blocks += 0.0


def label_by_band(blocks, scheme, band):
    """Boolean mask, True where the block is key-usable (radius factor in band).

    The mask has the blocks' leading shape and is filled CHUNK_ROWS blocks
    at a time, so the radii of all blocks are never held at once.
    """
    blocks = np.asarray(blocks, dtype=float)
    keep = np.empty(blocks.shape[:-1], dtype=bool)
    rows, flat = blocks.reshape(-1, blocks.shape[-1]), keep.reshape(-1)
    for start in range(0, len(rows), CHUNK_ROWS):
        r = np.linalg.norm(rows[start : start + CHUNK_ROWS], axis=-1) / scheme.sphere_radius
        flat[start : start + CHUNK_ROWS] = (r >= band.gamma_min) & (r <= band.gamma_max)
    return keep


def write_table(path, kind, names, columns):
    """Write a row index and equal-length columns to path as a cvqkd-csv-v2 table of the given kind.

    names[0] names the row index, which each block of rows makes for itself;
    the other names name the cells of columns in order, each name once.  A
    column is 1-D, or a 2-D float group with one name per column.  Integer
    columns are named in V2_INT_COLUMNS and float columns outside it, as
    read_csv_table reads them.  Rows are encoded CSV_BLOCK_ROWS at a time:
    floats as the 16 lowercase hex digits of their big-endian IEEE-754 bits,
    integers in decimal within V2_INT_RANGE.
    """
    columns = [np.asarray(column) for column in columns]
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns must have equal length")
    widths = [math.prod(column.shape[1:]) for column in columns]
    if len(set(names)) != len(names) or len(names) != 1 + sum(widths):
        raise ValueError(f"names {names} do not name the row index and the "
                         f"{sum(widths)} cell columns one each")
    lo, hi = V2_INT_RANGE
    at = 0
    # the row index is checked as an empty integer column under names[0]
    for column, width in zip([np.arange(0), *columns], [1, *widths]):
        integer = column.dtype.kind in "iu"
        if not integer and column.dtype.kind != "f":
            raise TypeError(f"column {names[at]}: v2 columns hold integers or floats, "
                            f"got dtype {column.dtype}")
        if integer and column.ndim != 1:
            raise ValueError(f"column {names[at]}: an integer column is 1-D, "
                             f"got shape {column.shape}")
        for name in names[at : at + width]:
            if (name in V2_INT_COLUMNS) != integer:
                raise ValueError(f"column {name}: {column.dtype} cells where the reader reads "
                                 f"{'hex floats' if integer else 'decimal integers'}")
        for value in (column.min(), column.max()) if integer and column.size else ():
            if not lo <= value <= hi:
                raise ValueError(f"column {names[at]}: integer {value} outside [{lo}, {hi}]")
        at += width
    edges = np.union1d(np.arange(0, n, CSV_BLOCK_ROWS), _POW10[1:][_POW10[1:] < n])
    with open(path, "wb") as fh:
        fh.write(f"{CSV_SCHEMA_V2} {kind}\n{','.join(names)}\n".encode("ascii"))
        for start, stop in zip(edges, [*edges[1:], n]):
            fh.write(_encode_v2_rows([np.arange(start, stop),
                                      *(column[start:stop] for column in columns)]))


def _hex_cells(values):
    """(n, g, 16) ASCII hex digits of the big-endian IEEE-754 bits of n rows of g floats."""
    raw = np.ascontiguousarray(values, dtype=">f8").reshape(len(values), -1)
    return np.take(_HEX_QUADS, raw.view(np.uint16)).view(np.uint8).reshape(len(raw), -1, 16)


def _decimal_cells(values):
    """(n, 1, w) right-aligned ASCII decimal cells of integers, and the (n, w) mask of bytes in use.

    The mask is None when the least and greatest value have one sign and one width, as then all do.
    """
    values = np.asarray(values, dtype=np.int64)
    q = np.abs(values)
    lo, hi = str(values.min()), str(values.max())
    w = max(len(lo), len(hi))
    uniform = len(lo) == len(hi) and lo.startswith("-") == hi.startswith("-")
    width = np.broadcast_to(w, values.shape) if uniform else (
        np.searchsorted(_POW10[1:], q, side="right") + 1 + (values < 0))
    quads = np.empty((values.size, -(-w // 4)), dtype=np.uint32)
    for j in range(quads.shape[1] - 1, 0, -1):
        high = q // 10_000  # numpy divides by a constant faster than np.divmod does
        quads[:, j] = _DECIMAL_QUADS[q - high * 10_000]
        q = high
    quads[:, 0] = _DECIMAL_QUADS[q]
    cells = quads.view(np.uint8)[:, -w:]
    rows = np.flatnonzero(values < 0)
    cells[rows, w - width[rows]] = _MINUS
    return cells[:, None], None if uniform else np.arange(w) >= (w - width)[:, None]


def _encode_v2_rows(columns):
    """One block of v2 rows as a uint8 array of ASCII bytes.

    Each column's (n, g, w) cells go in with one copy, as the fields of g
    records of a cell and its comma.  Only integer cells of mixed width
    leave bytes out, by a mask over the rows.
    """
    parts = [_decimal_cells(c) if c.dtype.kind in "iu" else (_hex_cells(c), None)
             for c in columns]
    offsets = np.cumsum([0] + [cells.shape[1] * (cells.shape[2] + 1) for cells, _ in parts])
    out = np.full((len(columns[0]), offsets[-1]), _COMMA, dtype=np.uint8)
    out[:, -1] = _NEWLINE
    keep = None
    for (cells, used), start, stop in zip(parts, offsets, offsets[1:]):
        w = cells.shape[2]
        cell = np.dtype({"names": ["cell"], "formats": [f"V{w}"], "itemsize": w + 1})
        out[:, start:stop].view(cell)["cell"] = cells.view(f"V{w}")[..., 0]
        if used is not None:
            keep = np.ones(out.shape, dtype=bool) if keep is None else keep
            keep[:, start : start + w] = used
    return out.reshape(-1) if keep is None else out[keep]


def read_csv_table(path):
    """Read a cvqkd-csv-v2 table back; returns (kind, {column name: array}).

    The exact inverse of write_table for the V2_KINDS: hex cells decode bit
    for bit to float64 and the V2_INT_COLUMNS to int64.  Any other schema
    line, a row with the wrong number of cells and a cell that does not
    decode raise ValueError naming the path and the line.
    """
    with open(path, "rb") as fh:
        schema = fh.readline().decode("ascii", "replace").rstrip("\n")
        names = fh.readline().decode("ascii", "replace").rstrip("\n").split(",")
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    tag, _, kind = schema.rpartition(" ")
    if tag != CSV_SCHEMA_V2 or kind not in V2_KINDS:
        raise ValueError(f"{path}: line 1: expected '{CSV_SCHEMA_V2} <kind>' "
                         f"with kind in {V2_KINDS}, got {schema!r}")
    n_cols = len(names)
    ends = np.flatnonzero((data == _COMMA) | (data == _NEWLINE))
    row_ends = np.flatnonzero(data[ends] == _NEWLINE)
    cells_per_row = np.diff(row_ends, prepend=-1)
    bad = np.flatnonzero(cells_per_row != n_cols)
    if bad.size:
        raise ValueError(f"{path}: line {bad[0] + 3}: {cells_per_row[bad[0]]} cells, "
                         f"expected {n_cols}")
    n_rows = row_ends.size
    if data.size and data[-1] != _NEWLINE:
        raise ValueError(f"{path}: line {n_rows + 3}: row does not end in a newline")
    starts = np.concatenate(([0], ends + 1))[:-1].reshape(n_rows, n_cols)
    ends = ends.reshape(n_rows, n_cols)
    widths = ends - starts

    def require(ok, c, expected):
        if not ok.all():
            r = int(np.argmin(ok))
            cell = data[starts[r, c] : ends[r, c]].tobytes().decode("ascii", "replace")
            raise ValueError(f"{path}: line {r + 3}, column {names[c]}: "
                             f"expected {expected}, got {cell!r}")

    table = {}
    for c, name in enumerate(names):
        if name not in V2_INT_COLUMNS:
            require(widths[:, c] == 16, c, "16 hex digits")
            nibbles = _HEX_VALUES[data[starts[:, c, None] + np.arange(16)]]
            require((nibbles >= 0).all(axis=1), c, "16 lowercase hex digits")
            raw = (nibbles[:, 0::2] << 4 | nibbles[:, 1::2]).astype(np.uint8)
            table[name] = raw.view(">f8").reshape(-1).astype(float)
            continue
        require((widths[:, c] > 0) & (widths[:, c] <= 18), c,
                "a decimal integer of 1 to 18 characters")
        w = int(widths[:, c].max(initial=1))
        neg = (data[starts[:, c]] == _MINUS) & (widths[:, c] > 1)
        at = ends[:, c, None] - w + np.arange(w)
        digit = data[np.maximum(at, 0)].astype(np.int64) - _ZERO
        inside = at >= starts[:, c, None] + neg[:, None]
        require(((digit >= 0) & (digit <= 9) | ~inside).all(axis=1), c, "a decimal integer")
        value = (np.where(inside, digit, 0) * _POW10[w - 1 :: -1]).sum(axis=1)
        table[name] = np.where(neg, -value, value)
    return kind, table


def read_lines(path, parse):
    """Call parse on the text of each line of path left once its # comment is cut.

    A line that is not UTF-8, or a ValueError from parse, is raised as 'path:line: message'.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode().split("#", 1)[0].strip()
                if line:
                    parse(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None


def write_keys(fh, header, pairs):
    """Write the header line, then a 'key value' line per pair, the value as its str()."""
    fh.write(f"{header}\n")
    for key, value in pairs:
        fh.write(f"{key} {value}\n")


def read_key(line, casts, seen):
    """Store a 'key value' line in the dict seen, cast by casts[key]; a key must be known and new."""
    parts = line.split(None, 1)
    if len(parts) != 2:
        raise ValueError(f"expected 'key value', got {line!r}")
    key, value = parts
    if key not in casts:
        raise ValueError(f"unknown key {key!r}")
    if key in seen:
        raise ValueError(f"duplicate key {key!r}")
    try:
        seen[key] = casts[key](value)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None
