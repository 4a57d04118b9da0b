"""Row-major Cayley-Dickson product, for bit-equality checks of algebra.mul.

This is the direct form of the doubling rule (a, b)(c, d) = (a c - d* b,
d a + b c*): it slices the halves off the last axis of (..., d) arrays,
recurses on those strided views and concatenates the two halves.
algebra.mul evaluates the same recursion on contiguous coordinate-major
chunks; both build every coordinate from the same products in the same
+/- order, so they must give the same bits.
"""

import numpy as np


def conj(a):
    out = -a
    out[..., 0] = a[..., 0]
    return out


def mul(a, b):
    d = a.shape[-1]
    if d == 1:
        return a * b
    h = d // 2
    a1, a2 = a[..., :h], a[..., h:]
    b1, b2 = b[..., :h], b[..., h:]
    lo = mul(a1, b1) - mul(conj(b2), a2)
    hi = mul(b2, a1) + mul(a2, conj(b1))
    return np.concatenate([lo, hi], axis=-1)
