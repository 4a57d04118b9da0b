"""List-of-rows Householder sampler and out-of-place apply, for bit-equality checks.

This is the straightforward form of algebra.draw_stages, transform_from_stages
and OrthogonalTransform.apply: each stage's reflector is built in a fresh copy
of its draw, kept rows are collected in a list and stacked into a new array,
and each reflection makes a new vector.  Every sum is one np.add.reduce over a
whole array, the order that algebra.dot follows a chunk at a time.  The
package builds the reflectors in one preallocated buffer and reflects in
place; both must give the same bits from the same generator state.
"""

import numpy as np


def bisector_reflector(x):
    """Unit u with reflect(e1, u) = x/|x|; None when x is along +e1."""
    r = np.sqrt(np.add.reduce(x * x))
    if r == 0.0:
        raise ValueError("degenerate zero draw for reflector target")
    u = x.copy()
    u[0] -= r
    s = np.sqrt(np.add.reduce(u * u))
    if s <= 1e-12 * r:
        return None
    return u / s


def sample_reflectors(n, k, rng):
    """The (kept, n) unit reflectors of k nested stages drawn from rng."""
    rows = []
    for j in range(k):
        m = n - k + 1 + j
        u = bisector_reflector(rng.standard_normal(m))
        if u is None:
            continue
        row = np.zeros(n)
        row[n - m:] = u
        rows.append(row)
    if not rows:
        return np.zeros((0, n))
    return np.array(rows)


def apply_reflectors(reflectors, v):
    """Reflect v about each row in order, one new array per reflection."""
    out = np.array(v, dtype=float)
    for u in reflectors:
        proj = np.add.reduce(out * u, axis=-1)
        out = out - 2.0 * np.expand_dims(proj, -1) * u
    return out


def dense_matrix(transform):
    """The dense n x n matrix M with M @ x == transform.apply(x)."""
    return transform.apply(np.eye(transform.n)).T
