"""Covariance matrices, Holevo bound, and asymptotic secret key rates.

Everything is expressed in shot-noise units with vacuum quadrature variance 1.
The effective entangled state shared by Alice and Bob before the channel has
the two-mode covariance (a, b, c) = (V_A + 1, V_A + 1, Z_d) where Z_d is the
quadrature correlation of the purified d-dimensional sphere modulation; the
Gaussian-modulation value Z_EPR = sqrt(V_A^2 + 2 V_A) upper-bounds every
finite d.  Security against collective attacks is evaluated by Gaussian
extremality on that covariance matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import channel as _channel
from .modulation import SPHERE_DIMS


def _value(x):
    """A 0-d result as a Python float; an array result as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _positive_variance(v_a):
    # a subnormal V_A has lost its digits, as in modulation_variance
    v = np.asarray(v_a, dtype=float)
    bad = ~(np.isfinite(v) & (v >= sys.float_info.min))
    if bad.any():
        first = float(v[bad][0])
        rule = "a normal float" if 0 < first < sys.float_info.min else "finite and positive"
        raise ValueError(f"modulation variance v_a must be {rule}, got {first}")
    return v


def z_epr(v_a):
    """Gaussian-modulation correlation sqrt(V_A^2 + 2 V_A); V_A = 0 gives 0."""
    v = np.asarray(v_a, dtype=float)
    _positive_variance(v[v != 0])
    return _value(np.sqrt(v * (v + 2.0)))


def _cosh_minus_cos(x):
    # cosh x - cos x for x < 0.5, where direct evaluation loses all digits as
    # x -> 0; both gaps are even/odd subseries of exp, so a few terms reach
    # double precision there
    x2 = x * x
    return x2 * (1.0 + x2 * x2 * (1.0 / 360.0 + x2 * x2 * (1.0 / 1814400.0 + x2 * x2 * (2.0 / math.factorial(14)))))


def _sinh_minus_sin(x):
    # sinh x - sin x for x < 0.5
    x2 = x * x
    return x * x2 * (1.0 / 3.0 + x2 * x2 * (1.0 / 2520.0 + x2 * x2 * (2.0 / math.factorial(11) + x2 * x2 * (2.0 / math.factorial(15)))))


def lambda_coeffs(alpha):
    """Eigenvalues (lambda_0..lambda_3) of the four-state mixture.

    lambda_k = e^{-a^2}/2 * (cosh/sinh +- cos/sin)(a^2); they sum to one and
    are the weights of the photon-number classes n = k mod 4.  The damped
    forms e^{-x} cosh x = (1 + e^{-2x})/2 and e^{-x} sinh x = -expm1(-2x)/2
    keep every alpha finite.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all(a > 0):
        raise ValueError("alpha must be positive")
    x = a * a
    damp = np.exp(-x)
    cosh_d = 0.5 * (1.0 + np.exp(-2.0 * x))
    sinh_d = -0.5 * np.expm1(-2.0 * x)
    cos_d = damp * np.cos(x)
    sin_d = damp * np.sin(x)
    small = x < 0.5
    xs = np.minimum(x, 0.5)
    lam = (
        0.5 * (cosh_d + cos_d),
        0.5 * (sinh_d + sin_d),
        0.5 * np.where(small, damp * _cosh_minus_cos(xs), cosh_d - cos_d),
        0.5 * np.where(small, damp * _sinh_minus_sin(xs), sinh_d - sin_d),
    )
    return tuple(_value(v) for v in lam)


def z1(v_a):
    """Correlation of the purified four-state modulation.

    Z_1 = 2 a^2 sum_k lambda_{k-1}^{3/2} / lambda_k^{1/2} (indices mod 4).
    """
    alpha = np.sqrt(_positive_variance(v_a) / 2.0)
    lam = lambda_coeffs(alpha)
    total = 0.0
    for k in range(4):
        # lambda_3, then lambda_2, underflows below a^2 ~ 1e-103, where its
        # term is far below rounding of the total
        ratio = np.divide(lam[k - 1], lam[k], out=np.zeros(np.shape(lam[k])), where=lam[k] > 0)
        total = total + lam[k - 1] * np.sqrt(ratio)
    return _value(2.0 * alpha * alpha * total)


# Below SERIES_MU, z_sphere sums WINDOW_SIGMAS standard deviations either side
# of the Poisson mean plus WINDOW_EXTRA terms above it (truncated mass below
# 1e-25), about 24 sqrt(mu) terms per point.  CHUNK_NODES caps the terms held
# at once: points are summed a chunk at a time, so 1,000 points with mu from
# SERIES_MU / 2 to just below it (up to 2,441 terms each) peak at 48 MB
# instead of 80 MB, and 3,000 at 50 MB.
WINDOW_SIGMAS = 12.0
WINDOW_EXTRA = 40.0
SERIES_MU = 1e4
CHUNK_NODES = 2**20


def _window_mean(mu, m):
    """E[sqrt(N + m)] for N ~ Poisson(mu), summed over each point's window."""
    sd = np.sqrt(mu)
    first = np.maximum(np.floor(mu - WINDOW_SIGMAS * sd), 0.0)
    count = np.floor(mu + WINDOW_SIGMAS * sd + WINDOW_EXTRA - first) + 1.0
    mean = np.empty_like(mu)
    # a chunk holds at least one point
    rows = max(CHUNK_NODES // int(count.max(initial=1.0)), 1)
    for lo in range(0, mu.size, rows):
        part = slice(lo, lo + rows)
        stop = count[part, None]
        node = np.arange(int(stop.max()), dtype=float)
        k = first[part, None] + node
        log_w = np.where(node < stop, k * np.log(mu[part, None]) - special.gammaln(k + 1.0), -np.inf)
        # the log weights are used once, so exp may overwrite them
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True), out=log_w)
        terms = w * np.sqrt(k + m)
        # cumulative sums add strictly left to right, unlike np.sum
        mean[part] = np.cumsum(terms, axis=1, out=terms)[:, -1] / np.cumsum(w, axis=1, out=w)[:, -1]
    return mean


def z_sphere(d, v_a):
    """Correlation of the purified sphere modulation in dimension d in {2,4,8}.

    With m = d/2 signal modes and total-photon weights f_k = Poisson(mu),
    mu = m V_A / 2, Z_d = 2 sum_k sqrt(f_k f_{k-1}) sqrt(k (k + m - 1)) / m,
    which is (2 sqrt(mu) / m) E[sqrt(N + m)] for N ~ Poisson(mu).  Below
    SERIES_MU the mean is taken over log-space weights (gammaln) normalized
    by their largest value on the window, so nothing underflows, and each
    point sums its own terms strictly left to right, so its value depends
    neither on the rest of the batch nor on CHUNK_NODES.  From SERIES_MU up,
    where those log weights (about mu ln mu) lose digits, it is the Taylor
    expansion of sqrt about x = mu + m with the Poisson central moments,
    through order mu^-3, written in r = mu / x and u = 1 / x so that no term
    overflows.
    """
    if d not in SPHERE_DIMS:
        raise ValueError(f"d must be one of {SPHERE_DIMS}, got {d}")
    v = _positive_variance(v_a)
    m = d // 2
    huge = v > sys.float_info.max / (m / 2.0)
    if huge.any():
        raise ValueError(f"modulation variance v_a={float(v[huge][0])} puts the Poisson mean "
                         f"of d={d} past the largest float")
    mu = (v * (m / 2.0)).reshape(-1)
    x = mu + m
    r, u = mu / x, 1.0 / x
    mean = np.sqrt(x) * (1.0 - r * u / 8.0 + r * u * u / 16.0 - 15.0 * r * r * u * u / 128.0
                         - 5.0 * r * u**3 / 128.0 + 35.0 * r * r * u**3 / 128.0
                         - 315.0 * r**3 * u**3 / 1024.0)
    window = mu < SERIES_MU
    mean[window] = _window_mean(mu[window], m)
    return _value((2.0 * np.sqrt(mu) / m * mean).reshape(v.shape))


def z_correlation(d, v_a):
    """Dispatch Z_d for d in {1, 2, 4, 8, inf}; v_a may be an array."""
    if d == 1:
        return z1(v_a)
    if d in SPHERE_DIMS:
        return z_sphere(d, v_a)
    if math.isinf(d):
        return z_epr(v_a)
    raise ValueError(f"d must be 1, 2, 4, 8 or inf, got {d}")


# a matrix is physical while its smaller symplectic eigenvalue is >= 1 - PHYSICAL_TOL
PHYSICAL_TOL = 1e-9


@dataclass(frozen=True)
class CovarianceMatrix2Mode:
    """Two-mode covariance [[a I, c sigma_z], [c sigma_z, b I]] in shot units.

    a, b and c may be arrays of one shape, one matrix per element.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if np.any(self.a < 1.0 - 1e-12) or np.any(self.b < 1.0 - 1e-12):
            raise ValueError(f"diagonals must sit on the vacuum floor, got a={self.a}, b={self.b}")

    def symplectic_eigenvalues(self):
        """(nu1, nu2) with nu1 >= nu2, from the Delta/D invariants.

        nu2 is D / nu1: the form sqrt((Delta - sqrt(Delta^2 - 4 D^2)) / 2)
        cancels at large V_A.  nu1 < 1 only for an unphysical matrix, whose
        D / max(nu1, 1) then stays below 1 as well.
        """
        a, b, c = self.a, self.b, self.c
        delta = a * a + b * b - 2.0 * c * c
        det = a * b - c * c
        disc = delta * delta - 4.0 * det * det
        root = np.sqrt(np.maximum(disc, 0.0))
        nu1 = np.sqrt(np.maximum((delta + root) / 2.0, 0.0))
        return _value(nu1), _value(det / np.maximum(nu1, 1.0))

    def is_physical(self):
        return self.symplectic_eigenvalues()[1] >= 1.0 - PHYSICAL_TOL


def gamma_key0(d, v_a, z_d=None):
    """Pre-channel covariance (V_A + 1, V_A + 1, Z_d); d = inf is Gaussian.

    z_d is Z_d at v_a when the caller has already evaluated it.
    """
    if z_d is None:
        z_d = z_correlation(d, v_a)
    return CovarianceMatrix2Mode(v_a + 1.0, v_a + 1.0, z_d)


def gamma_after_channel(g0, t_eff, xi):
    """Propagate Bob's mode through transmittance t_eff and excess noise xi."""
    if not np.all((0.0 < t_eff) & (t_eff <= 1.0)):
        raise ValueError(f"effective transmittance must lie in (0, 1], got {t_eff}")
    if np.any(xi < 0.0):
        raise ValueError("excess noise must be nonnegative")
    out = CovarianceMatrix2Mode(
        g0.a,
        1.0 + t_eff * (g0.a - 1.0) + t_eff * xi,
        np.sqrt(t_eff) * g0.c,
    )
    if not np.all(out.is_physical()):
        raise ValueError("channel parameters produced an unphysical covariance matrix")
    return out


def entropy_g(x):
    """G(x) = (x+1) log2(x+1) - x log2 x, the thermal-state entropy kernel."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-9):
        raise ValueError(f"entropy argument must be nonnegative, got {_value(x)}")
    x = np.maximum(x, 0.0)
    return _value((x + 1.0) * np.log2(x + 1.0) - x * np.log2(np.where(x > 0.0, x, 1.0)))


def holevo_bound(gamma, detection, gamma_measured=None):
    """Eve's Holevo information chi(B;E) for a purifying attack, in bits.

    gamma fixes Eve's global state; gamma_measured (defaulting to gamma) is
    the matrix Bob's detector actually measures, which differs from gamma only
    in the trusted-loss model.
    """
    if detection not in _channel.DETECTIONS:
        raise ValueError(f"detection must be one of {_channel.DETECTIONS}")
    nu1, nu2 = gamma.symplectic_eigenvalues()
    if not np.all(nu2 >= 1.0 - PHYSICAL_TOL):
        raise ValueError("covariance matrix is unphysical")
    if gamma_measured is None:
        gamma_measured = gamma
    a, b, c = gamma_measured.a, gamma_measured.b, gamma_measured.c
    if detection == "homodyne":
        nu_cond = np.sqrt(a * (a - c * c / b))
    else:
        nu_cond = a - c * c / (b + 1.0)
    return _value(
        entropy_g((nu1 - 1.0) / 2.0)
        + entropy_g((nu2 - 1.0) / 2.0)
        - entropy_g((nu_cond - 1.0) / 2.0)
    )


def equivalent_excess_noise(d, v_a, z_d=None):
    """(F, delta_xi) with F = (Z_EPR/Z_d)^2 and delta_xi = (F - 1) V_A.

    A sphere modulation of dimension d behaves, for security purposes, like a
    Gaussian modulation over a channel with T -> T/F and xi -> F xi + delta_xi.
    z_d is Z_d at v_a when the caller has already evaluated it; for d = inf
    Z_d is Z_EPR, so F = 1 and delta_xi = 0 exactly.
    """
    v = np.asarray(v_a, dtype=float)
    if z_d is None:
        z_d = z_correlation(d, v)
    ratio = z_epr(v) / z_d
    f_factor = ratio * ratio
    return _value(f_factor), _value((f_factor - 1.0) * v)


def mutual_information(params, v_a):
    """Shannon mutual information of the measured Gaussian channel, bits/symbol.

    params may be a batch (array t, xi, eta); the result broadcasts with v_a.
    """
    bits = np.log2(1.0 + _channel.snr(params, v_a))
    if params.detection == "homodyne":
        bits = 0.5 * bits
    return _value(bits)


_ALLOWED_PAIRINGS = {"homodyne": (1,), "heterodyne": SPHERE_DIMS}


def default_detection(d):
    """The detection a block dimension pairs with: homodyne for d=1, else heterodyne."""
    return "homodyne" if d == 1 else "heterodyne"


def check_pairing(d, detection):
    """Refuse a (d, detection) pair the key-rate bound does not cover."""
    if math.isinf(d):
        return
    if d not in _ALLOWED_PAIRINGS[detection]:
        raise ValueError(
            f"d={d} does not pair with {detection} detection; "
            "homodyne serves d=1, heterodyne d in {2, 4, 8}, either serves d=inf"
        )


@dataclass(frozen=True)
class KeyRateReport:
    """Asymptotic rate K = beta I(A;B) - chi(B;E) and everything behind it.

    For one point every field is a Python float (detection a str).  In a
    batch each field keeps the shape its formula gives: a field whose inputs
    do not vary (a scalar t, say) stays a Python float, and every field
    broadcasts to the batch shape.
    """

    d: float
    v_a: float
    t: float
    xi: float
    eta: float
    beta: float
    detection: str
    t_eff: float
    snr: float
    i_ab: float
    chi_be: float
    k: float
    delta_xi: float
    z_d: float
    z_epr: float
    f_factor: float


def secret_key_rate(d, v_a, params, beta):
    """Key rate in bits per symbol (one symbol = one coherent state).

    v_a may be an array and params a batch (array t, xi, eta); the two
    broadcast against each other like numpy arrays.  Z_d is evaluated once
    per call.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"reconciliation efficiency must lie in (0, 1], got {beta}")
    v = _positive_variance(v_a)
    check_pairing(d, params.detection)
    z_d = z_correlation(d, v)
    g0 = gamma_key0(d, v, z_d=z_d)
    if params.eta_trusted:
        # Eve holds the channel output only; detector loss eta < 1 degrades
        # Bob's mode afterwards with vacuum, improving the conditional term.
        g = gamma_after_channel(g0, params.t, params.xi)
        eta, lossy = params.eta, params.eta < 1.0
        g_measured = CovarianceMatrix2Mode(
            g.a,
            np.where(lossy, eta * g.b + 1.0 - eta, g.b),
            np.where(lossy, np.sqrt(eta) * g.c, g.c),
        )
        chi = holevo_bound(g, params.detection, gamma_measured=g_measured)
    else:
        g = gamma_after_channel(g0, params.t_eff, params.xi)
        chi = holevo_bound(g, params.detection)
    i_ab = mutual_information(params, v)
    f_factor, delta_xi = equivalent_excess_noise(d, v, z_d=z_d)
    fields = dict(
        v_a=v, t=params.t, xi=params.xi, eta=params.eta, t_eff=params.t_eff,
        snr=_channel.snr(params, v), i_ab=i_ab, chi_be=chi, k=beta * i_ab - chi,
        delta_xi=delta_xi, z_d=z_d, z_epr=z_epr(v), f_factor=f_factor,
    )
    return KeyRateReport(d=float(d), beta=float(beta), detection=params.detection,
                         **{name: _value(value) for name, value in fields.items()})


# optimize_va stops once its golden-section bracket on V_A is this narrow
VA_TOL = 1e-3


def optimize_va(d, params, beta, va_range):
    """Golden-section maximization of K over V_A after a 33-point grid scan.

    A scalar params gives one float; a batch (array t, xi, eta) gives an
    array of its broadcast shape: the points are searched in lockstep, each
    taking exactly the steps it would take alone, with one secret_key_rate
    call per step over the points still open.
    """
    lo, hi = va_range
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    batch = np.broadcast_arrays(params.t, params.xi, params.eta)
    shape = batch[0].shape
    t, xi, eta = (np.reshape(field, -1) for field in batch)

    def points(idx):
        return replace(params, t=t[idx], xi=xi[idx], eta=eta[idx])

    every = points(slice(None))
    grid = lo + (hi - lo) * np.arange(33) / 32
    best = np.argmax(secret_key_rate(d, grid[:, None], every, beta).k, axis=0)
    a, b = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, 32)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = secret_key_rate(d, np.stack([x1, x2]), every, beta).k
    while (open_ := b - a > VA_TOL).any():
        # keep [a, x2] where f1 >= f2, else [x1, b]; one new point each
        left = open_ & (f1 >= f2)
        right = open_ & ~left
        b, x2, f2 = np.where(left, x2, b), np.where(left, x1, x2), np.where(left, f1, f2)
        a, x1, f1 = np.where(right, x1, a), np.where(right, x2, x1), np.where(right, f2, f1)
        x_new = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        idx = np.flatnonzero(open_)
        f_new = np.zeros_like(a)
        f_new[idx] = secret_key_rate(d, x_new[idx], points(idx), beta).k
        x1, f1 = np.where(left, x_new, x1), np.where(left, f_new, f1)
        x2, f2 = np.where(right, x_new, x2), np.where(right, f_new, f2)
    v_star = (a + b) / 2.0
    return float(v_star[0]) if shape == () else v_star.reshape(shape)
