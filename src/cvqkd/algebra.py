"""Arithmetic in the real normed division algebras and Householder-product orthogonal maps.

Algebra elements are numpy arrays whose last axis has length d in {1, 2, 4, 8}
(reals, complex numbers, quaternions, octonions); every operation broadcasts
over leading axes.  Products follow the Cayley-Dickson doubling rule
(a, b)(c, d) = (a c - d* b, d a + b c*), which reproduces the Hamilton
quaternion table at d = 4.

mul evaluates that recursion coordinate-major: it transposes each chunk of
CHUNK_ROWS rows to a contiguous (d, rows) array, so every add, multiply and
negation of the recursion runs on a contiguous vector, and writes the chunk's
product back into one (N, d) result.  Each output coordinate is built from
the same products in the same +/- order as the row-major recursion, so the
layout changes no bit of the result.
"""

from __future__ import annotations

import struct

import numpy as np

DIVISION_DIMS = (1, 2, 4, 8)
# rows per step of every chunked pass: a transposed chunk in mul (the fastest
# in a sweep at d = 8), and the passes over a session's whole arrays (columns
# for a reflection, terms for pairwise_sum), which so form no whole-array temporary
CHUNK_ROWS = 2**13


def _check_dim(d):
    if d not in DIVISION_DIMS:
        raise ValueError(f"algebra dimension must be one of {DIVISION_DIMS}, got {d}")


def _as_elements(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    _check_dim(x.shape[-1])
    return x


def mul(a, b):
    """Multiply two algebra elements; broadcasts over leading axes."""
    a = _as_elements(a)
    b = _as_elements(b)
    d = a.shape[-1]
    if d != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {d} vs {b.shape[-1]}"
        )
    if d == 1:
        return a * b
    a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a = a.reshape(-1, d)
    b = b.reshape(-1, d)
    out = np.empty(a.shape)
    for start in range(0, out.shape[0], CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        out[rows] = _mul(np.ascontiguousarray(a[rows].T), np.ascontiguousarray(b[rows].T)).T
    return out.reshape(shape)


def _mul(a, b):
    """The Cayley-Dickson product of coordinate-major (d, rows) arrays."""
    d = a.shape[0]
    if d == 1:
        return a * b
    h = d // 2
    a1, a2 = a[:h], a[h:]
    b1, b2 = b[:h], b[h:]
    lo = _mul(a1, b1) - _mul(conj(b2.T).T, a2)
    hi = _mul(b2, a1) + _mul(a2, conj(b1.T).T)
    return np.concatenate([lo, hi])


def conj(a):
    """Algebra conjugate of an element array: negate every coordinate except the real part."""
    out = -a
    out[..., 0] = a[..., 0]
    return out


def inv(a):
    """Multiplicative inverse conj(a)/|a|^2; zero elements are an error."""
    a = _as_elements(a)
    n2 = np.sum(a * a, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise ZeroDivisionError("cannot invert a zero algebra element")
    out = conj(a)
    out /= n2
    return out


def sample_unit(d, rng, size):
    """Draw size sign vectors, shape (size, d), with coordinates +-1/sqrt(d).

    Coordinates are uniform and independent.  These are the unit alphabet
    elements used by the reverse-reconciliation reduction.
    """
    _check_dim(d)
    signs = rng.integers(0, 2, size=(size, d))
    signs *= 2
    signs -= 1
    return signs / np.sqrt(d)


class OrthogonalTransform:
    """A product of Householder reflections on R^n, stored as unit reflectors.

    apply() reflects about each stored row in order; apply_inverse() uses the
    reverse order.  The dense n x n matrix is never formed, so application
    costs O(k*n) per vector, through dot and CHUNK_ROWS-column steps, and
    holds the result and a chunk; reflect() works in place and holds only
    the chunk.  An empty reflector list is the identity.

    A float64 reflector array is kept as given, not copied, so the caller
    hands it over and must not change it afterwards.
    """

    def __init__(self, reflectors):
        reflectors = np.asarray(reflectors, dtype=float)
        if reflectors.ndim != 2:
            raise ValueError("reflectors must be a (k, n) array")
        # stored as given, so a transform loads back bit for bit
        norms = np.sqrt(dot(reflectors, reflectors))
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # a NaN row fails too
            raise ValueError("reflectors must be unit vectors")
        self.reflectors = reflectors

    @property
    def n(self) -> int:
        return self.reflectors.shape[1]

    @property
    def n_reflections(self) -> int:
        return self.reflectors.shape[0]

    def _reflect(self, out, rows):
        if out.shape[-1] != self.n:
            raise ValueError(f"vector length {out.shape[-1]} != transform size {self.n}")
        for u in rows:
            step = 2.0 * np.expand_dims(dot(out, u), -1)
            for start in range(0, self.n, CHUNK_ROWS):
                cols = slice(start, start + CHUNK_ROWS)
                out[..., cols] -= step * u[cols]
        return out

    def reflect(self, v):
        """Apply the transform to the float64 array v in place, and return v."""
        return self._reflect(v, self.reflectors)

    def apply(self, v):
        return self._reflect(np.asarray(v, dtype=float).copy(), self.reflectors)

    def apply_inverse(self, v):
        return self._reflect(np.asarray(v, dtype=float).copy(), self.reflectors[::-1])

    def write(self, fh):
        """Write the record to a binary file: '<II' (k, n), then the k x n reflectors as '<f8'.

        The reflectors go out from their own buffer, so no copy of them is made.
        """
        fh.write(struct.pack("<II", self.n_reflections, self.n))
        fh.write(np.ascontiguousarray(self.reflectors, dtype="<f8").data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "OrthogonalTransform":
        if len(data) < 8:
            raise ValueError("truncated transform record")
        k, n = struct.unpack_from("<II", data, 0)
        expected = 8 + 8 * k * n
        if len(data) != expected:
            raise ValueError(f"transform record has {len(data)} bytes, expected {expected}")
        rows = np.frombuffer(data, dtype="<f8", offset=8).reshape(k, n)
        return cls(rows)


def _bisector_reflector(x):
    """Unit u such that reflecting e1 about u gives x/|x|; None when x is along +e1.

    u is built in place in x, which the caller must own.
    """
    r = np.sqrt(dot(x, x))
    if r == 0.0:
        raise ValueError("degenerate zero draw for reflector target")
    x[0] -= r
    s = np.sqrt(dot(x, x))
    if s <= 1e-12 * r:
        return None
    x /= s
    return x


def draw_stages(rows, rng):
    """Draw a random orthogonal map's k nested Householder stages into the zero (k, n) rows.

    Stage j sends the first basis vector of the last n-k+1+j coordinates to a
    uniform direction of them, drawn as normals into row j from column k-1-j
    on.  Any k >= 1 maps e1 to a uniform point; k = n samples Haar O(n).
    """
    k = len(rows)
    for j in range(k):
        rng.standard_normal(out=rows[j, k - 1 - j:])


def transform_from_stages(rows) -> OrthogonalTransform:
    """The transform of draw_stages' rows, normalized once, built in place in them and handed over.

    A stage drawn along its axis is the identity: its row is left out and later rows move up.
    """
    k = len(rows)
    kept = 0
    for j in range(k):
        if _bisector_reflector(rows[j, k - 1 - j:]) is not None:
            if kept != j:
                rows[kept] = rows[j]
            kept += 1
    return OrthogonalTransform(rows[:kept])


def pairwise_sum(terms, stop, start=0):
    """np.add.reduce over the last axis of the terms [start, stop), bit for bit, one chunk at a time.

    terms(i, j) builds the [i, j) slice of the term vector; leading axes
    broadcast.  numpy sums a contiguous float64 axis pairwise, splitting n
    elements at n // 2 rounded down to a multiple of 8; following those
    splits down to CHUNK_ROWS elements sums the same terms in the same order,
    which n alone fixes, unlike a BLAS dot's thread split.
    """
    if stop - start <= CHUNK_ROWS:
        return np.add.reduce(terms(start, stop), axis=-1)
    half = start + (stop - start) // 16 * 8  # n // 2 rounded down to a multiple of 8
    return pairwise_sum(terms, half, start) + pairwise_sum(terms, stop, half)


def dot(x, y):
    """np.add.reduce(x * y, axis=-1), bit for bit, holding one chunk of the product."""
    return pairwise_sum(lambda i, j: x[..., i:j] * y[..., i:j], x.shape[-1])
