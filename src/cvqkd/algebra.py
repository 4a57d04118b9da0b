"""Arithmetic in the real normed division algebras and Householder-product orthogonal maps.

Algebra elements are numpy arrays whose last axis has length d in {1, 2, 4, 8}
(reals, complex numbers, quaternions, octonions); every operation broadcasts
over leading axes.  Products follow the Cayley-Dickson doubling rule
(a, b)(c, d) = (a c - d* b, d a + b c*), which reproduces the Hamilton
quaternion table at d = 4.

mul evaluates that recursion coordinate-major: it transposes each chunk of
_CHUNK_ROWS rows to a contiguous (d, rows) array, so every add, multiply and
negation of the recursion runs on a contiguous vector, and writes the chunk's
product back into one (N, d) result.  Each output coordinate is built from
the same products in the same +/- order as the row-major recursion, so the
layout changes no bit of the result.
"""

from __future__ import annotations

import struct

import numpy as np

DIVISION_DIMS = (1, 2, 4, 8)
_CHUNK_ROWS = 2**13  # rows per transposed chunk in mul; the fastest in a sweep at d = 8


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
    for start in range(0, out.shape[0], _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
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
    return conj(a) / n2


def sample_unit(d, rng, size):
    """Draw size sign vectors, shape (size, d), with coordinates +-1/sqrt(d).

    Coordinates are uniform and independent.  These are the unit alphabet
    elements used by the reverse-reconciliation reduction.
    """
    _check_dim(d)
    signs = rng.integers(0, 2, size=(size, d)) * 2 - 1
    return signs / np.sqrt(d)


class OrthogonalTransform:
    """A product of Householder reflections on R^n, stored as unit reflectors.

    apply() reflects about each stored row in order; apply_inverse() uses the
    reverse order.  The dense n x n matrix is never formed, so application
    costs O(k*n) per vector.  An empty reflector list is the identity.
    """

    def __init__(self, reflectors):
        reflectors = np.array(reflectors, dtype=float)
        if reflectors.ndim != 2:
            raise ValueError("reflectors must be a (k, n) array")
        # stored as given, so a transform loads back bit for bit
        norms = np.sqrt(np.einsum("ij,ij->i", reflectors, reflectors))  # no k x n temporary
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # a NaN row fails too
            raise ValueError("reflectors must be unit vectors")
        self.reflectors = reflectors

    @property
    def n(self) -> int:
        return self.reflectors.shape[1]

    @property
    def n_reflections(self) -> int:
        return self.reflectors.shape[0]

    def _apply(self, v, rows):
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(f"vector length {v.shape[-1]} != transform size {self.n}")
        out = v.copy()
        for u in rows:
            proj = out @ u
            out -= 2.0 * np.expand_dims(proj, -1) * u
        return out

    def apply(self, v):
        return self._apply(v, self.reflectors)

    def apply_inverse(self, v):
        return self._apply(v, self.reflectors[::-1])

    def to_bytes(self) -> bytes:
        head = struct.pack("<II", self.n_reflections, self.n)
        return head + np.ascontiguousarray(self.reflectors, dtype="<f8").tobytes(order="C")

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
    r = np.linalg.norm(x)
    if r == 0.0:
        raise ValueError("degenerate zero draw for reflector target")
    x[0] -= r
    s = np.linalg.norm(x)
    if s <= 1e-12 * r:
        return None
    x /= s
    return x


def sample_orthogonal(n, k, rng) -> OrthogonalTransform:
    """Random orthogonal map as a product of k nested Householder stages.

    Stage j acts on the trailing n-k+1+j coordinates and sends that
    subspace's leading basis vector to a uniformly random direction of the
    subspace (reflector built from a normalized standard-normal draw).  Any
    k >= 1 therefore maps e1 to a uniform point of the sphere, and k = n
    samples the Haar measure on O(n).  Stages that draw the target direction
    exactly along the subspace axis reduce to the identity and are skipped.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rows = np.zeros((k, n))
    kept = 0
    for j in range(k):
        m = n - k + 1 + j
        u = _bisector_reflector(rng.standard_normal(m))
        if u is not None:
            rows[kept, n - m:] = u
            kept += 1
    rows = rows[:kept]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return OrthogonalTransform(rows)
