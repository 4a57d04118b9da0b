"""Classical modulation data for sphere, Gaussian, and radius-band coherent-state sources.

Blocks are real arrays of shape (n_blocks, d) holding coherent-state
amplitude coordinates: consecutive coordinates pair up as the real and
imaginary parts of complex amplitudes.  With the quadrature convention
x = a + a*, a coherent state |b> has quadrature means (2 Re b, 2 Im b) and
vacuum quadrature variance 1, so the symbols returned by
blocks_to_quadratures carry modulation variance V_A = 2 alpha^2 while the
stored coordinates have second moment alpha^2 / 2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import DIVISION_DIMS

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
# rows encoded at a time, so no table's text is held whole: converting whole
# arrays with .tolist() took the peak memory of a saved 1e6-symbol d=8 session
# from 260 MB to 450 MB
CSV_BLOCK_ROWS = 2**14

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# byte value -> its two hex digits, laid out in memory in reading order
_HEX_PAIRS = np.frombuffer(b"".join(b"%02x" % i for i in range(256)), dtype=np.uint16)
_HEX_VALUES = np.full(256, -1, dtype=np.int16)
_HEX_VALUES[_HEX_DIGITS] = np.arange(16)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_COMMA, _NEWLINE, _MINUS, _ZERO = b",\n-0"


def check_integer(name, value):
    """value is an int: a float or bool would not survive an int field of a file."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModulationScheme:
    """Block dimension d in {1, 2, 4, 8} and coherent amplitude alpha."""

    d: int
    alpha: float

    def __post_init__(self):
        check_integer("d", self.d)
        if self.d not in DIVISION_DIMS:
            raise ValueError(f"d must be one of {DIVISION_DIMS}, got {self.d}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")

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
    x = rng.standard_normal((n_blocks, d))
    r = np.linalg.norm(x, axis=1, keepdims=True)
    x *= radius  # in place, in the order of radius * x / r
    x /= r
    return x


def sample_key_blocks(scheme, n_blocks, rng):
    """Key modulation: uniform directions at the fixed radius alpha*sqrt(d/2).

    For d = 1 the sphere is the two-point set +-alpha/sqrt(2), and consecutive
    blocks pair into the four coherent amplitudes alpha*exp(i(2k+1)pi/4).
    """
    return sample_sphere_blocks(scheme.d, scheme.sphere_radius, n_blocks, rng)


def sample_gaussian_blocks(scheme, n_blocks, rng):
    """Gaussian modulation: i.i.d. N(0, alpha^2/2) coordinates.

    Block radii over alpha sqrt(d/2) then follow chi_d / sqrt(d), the law
    the radius-band flow filters on.
    """
    return rng.normal(0.0, scheme.alpha / math.sqrt(2.0), size=(n_blocks, scheme.d))


def label_by_band(blocks, scheme, band):
    """Boolean mask, True where the block is key-usable (radius factor in band)."""
    blocks = np.asarray(blocks, dtype=float)
    r = np.linalg.norm(blocks, axis=-1) / scheme.sphere_radius
    return (r >= band.gamma_min) & (r <= band.gamma_max)


def blocks_to_quadratures(blocks, d):
    """Per-mode quadrature mean pairs (2 Re b, 2 Im b), shape (n_modes, 2).

    Consecutive coordinates pair into one mode; for d = 1 two consecutive
    blocks form one mode, so the coordinate count must be even.
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    if blocks.shape[1] != d:
        raise ValueError(f"blocks have width {blocks.shape[1]}, expected d={d}")
    if blocks.size % 2:
        raise ValueError(f"need an even coordinate count, got {blocks.size}")
    return QUADRATURE_SCALE * blocks.reshape(-1, 2)


def write_table(path, kind, names, columns):
    """Write equal-length columns to path as a cvqkd-csv-v2 table of the given kind.

    Rows are encoded CSV_BLOCK_ROWS at a time: floats as the 16 lowercase hex
    digits of their big-endian IEEE-754 bits, integers in decimal.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns must have equal length")
    with open(path, "wb") as fh:
        fh.write(f"{CSV_SCHEMA_V2} {kind}\n{','.join(names)}\n".encode("ascii"))
        for start in range(0, n, CSV_BLOCK_ROWS):
            fh.write(_encode_v2_rows([c[start : start + CSV_BLOCK_ROWS] for c in columns]))


def _hex_cells(values):
    """(n, 16) ASCII hex digits of the big-endian IEEE-754 bits of the values."""
    raw = np.ascontiguousarray(values, dtype=">f8").view(np.uint8)
    return np.take(_HEX_PAIRS, raw).view(np.uint8).reshape(-1, 16)


def _decimal_cells(values):
    """Right-aligned ASCII decimal cells of integers, (n, w), and the mask of bytes in use.

    The mask is None when every cell fills the width.
    """
    values = np.asarray(values, dtype=np.int64)
    neg = values < 0
    q = np.abs(values)
    width = np.searchsorted(_POW10[1:], q, side="right") + 1 + neg
    w = int(width.max(initial=1))
    cells = np.empty((values.size, w), dtype=np.uint8)
    for j in range(w - 1, -1, -1):
        q, cells[:, j] = np.divmod(q, 10)
    cells += _ZERO
    rows = np.flatnonzero(neg)
    cells[rows, w - width[rows]] = _MINUS
    if width.min(initial=w) == w:
        return cells, None
    return cells, np.arange(w) >= (w - width)[:, None]


def _encode_v2_rows(columns):
    """One block of v2 rows as a uint8 array of ASCII bytes."""
    parts = []
    for column in columns:
        column = np.asarray(column)
        if column.dtype.kind in "iu":
            parts.append(_decimal_cells(column))
        elif column.dtype.kind == "f":
            parts.append((_hex_cells(column), None))
        else:
            raise TypeError(f"v2 columns hold integers or floats, got dtype {column.dtype}")
    out = np.empty((len(columns[0]), sum(cells.shape[1] + 1 for cells, _ in parts)), np.uint8)
    keep = None
    at = 0
    for cells, used in parts:
        w = cells.shape[1]
        out[:, at : at + w] = cells
        out[:, at + w] = _COMMA
        if used is not None:
            if keep is None:
                keep = np.ones(out.shape, dtype=bool)
            keep[:, at : at + w] = used
        at += w + 1
    out[:, -1] = _NEWLINE
    return out.reshape(-1) if keep is None else out[keep]


def write_blocks_csv(path, blocks, labels):
    """Dump blocks as a v2 symbols table: block_index, coord_0..coord_{d-1}, label."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    n, d = blocks.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("one label per block required")
    names = ["block_index"] + [f"coord_{i}" for i in range(d)] + ["label"]
    write_table(path, "symbols", names, [np.arange(n), *blocks.T, labels])


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
