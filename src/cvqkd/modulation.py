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
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .algebra import DIVISION_DIMS

# Quadrature mean per unit coherent amplitude under x = a + a*.
QUADRATURE_SCALE = 2.0

# first token of every CSV table's first line; the table kind follows it
CSV_SCHEMA = "# cvqkd-csv-v1"
# rows converted to Python objects at a time; converting whole arrays took the peak
# memory of a saved 1e6-symbol d=8 session from 260 MB to 450 MB
CSV_BLOCK_ROWS = 2**14


@dataclass(frozen=True)
class ModulationScheme:
    """Block dimension d in {1, 2, 4, 8} and coherent amplitude alpha."""

    d: int
    alpha: float

    def __post_init__(self):
        if self.d not in DIVISION_DIMS:
            raise ValueError(f"d must be one of {DIVISION_DIMS}, got {self.d}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")

    @property
    def v_a(self) -> float:
        """Modulation variance of the quadrature symbols, V_A = 2 alpha^2."""
        return 2.0 * self.alpha**2

    @property
    def sphere_radius(self) -> float:
        """Key-sphere radius alpha*sqrt(d/2) in amplitude coordinates."""
        return self.alpha * math.sqrt(self.d / 2.0)


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
    return radius * x / r


def sample_key_blocks(scheme, n_blocks, rng):
    """Key modulation: uniform directions at the fixed radius alpha*sqrt(d/2).

    For d = 1 the sphere is the two-point set +-alpha/sqrt(2), and consecutive
    blocks pair into the four coherent amplitudes alpha*exp(i(2k+1)pi/4).
    """
    return sample_sphere_blocks(scheme.d, scheme.sphere_radius, n_blocks, rng)


def sample_gaussian_blocks(scheme, n_blocks, rng):
    """Gaussian modulation: i.i.d. N(0, alpha^2/2) coordinates.

    Normalized block radii then follow chi_pdf, which is what the radius-band
    flow filters on.
    """
    return rng.normal(0.0, scheme.alpha / math.sqrt(2.0), size=(n_blocks, scheme.d))


def chi_pdf(r, d):
    """Density of the normalized radius r = |block| / (alpha sqrt(d/2)).

    f(r, d) = 2 (d/2)^{d/2} r^{d-1} exp(-d r^2/2) / Gamma(d/2), the law of
    chi_d / sqrt(d); it does not depend on alpha.
    """
    if d not in DIVISION_DIMS:
        raise ValueError(f"d must be one of {DIVISION_DIMS}, got {d}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius factor must be nonnegative")
    half = d / 2.0
    coeff = 2.0 * half**half / math.gamma(half)
    out = coeff * r ** (d - 1) * np.exp(-half * r * r)
    return out if out.ndim else float(out)


def band_acceptance_probability(band, d):
    """Probability that a Gaussian block's normalized radius falls in the band."""
    if band.gamma_min == band.gamma_max:
        return 0.0
    p, _ = integrate.quad(
        chi_pdf, band.gamma_min, band.gamma_max, args=(d,), epsabs=1e-10, limit=200
    )
    return float(min(max(p, 0.0), 1.0))


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


def write_csv_header(fh, kind, names):
    """Write the schema line for a table of the given kind and its column names."""
    fh.write(f"{CSV_SCHEMA} {kind}\n{','.join(names)}\n")


def write_csv_rows(fh, columns):
    """Write equal-length columns as comma-separated rows ending in \\n.

    Arrays are converted block by block with .tolist() and every cell is
    written with str(), so a float comes out in its shortest round-trip form.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns must have equal length")
    for start in range(0, n, CSV_BLOCK_ROWS):
        block = [column[start : start + CSV_BLOCK_ROWS] for column in columns]
        block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
        fh.write("".join(",".join(map(str, row)) + "\n" for row in zip(*block)))


def write_blocks_csv(path, blocks, labels=None, kind="blocks"):
    """Dump blocks as CSV: block_index, coord_0..coord_{d-1}, label."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    n, d = blocks.shape
    if labels is None:
        labels = [""] * n
    if len(labels) != n:
        raise ValueError("one label per block required")
    with open(path, "w") as fh:
        write_csv_header(fh, kind, ["block_index"] + [f"coord_{i}" for i in range(d)] + ["label"])
        write_csv_rows(fh, [range(n), *blocks.T, labels])


def read_blocks_csv(path):
    """Read a block dump back; returns (blocks, labels)."""
    with open(path) as fh:
        if not fh.readline().startswith(CSV_SCHEMA):
            raise ValueError(f"{path} is not a block dump (missing schema line)")
        d = len(fh.readline().split(",")) - 2
        rows, labels = [], []
        for line in fh:
            row = line.rstrip("\n").split(",")
            rows.append([float(v) for v in row[1 : 1 + d]])
            labels.append(row[-1])
    return np.array(rows, dtype=float).reshape(-1, d), labels
