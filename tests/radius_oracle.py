"""Radius law of Gaussian blocks, for checking the radius-band flow.

A Gaussian block's radius, normalized by the key-sphere radius
alpha sqrt(d/2), is distributed as chi_d / sqrt(d) whatever alpha is.  The
band flow keeps a block when that radius falls in [gamma_min, gamma_max], so
the integral of the density over the band is the expected kept fraction.
"""

import math

import numpy as np
from scipy import integrate

from cvqkd.algebra import DIVISION_DIMS


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
