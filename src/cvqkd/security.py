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
from dataclasses import dataclass

from . import channel as _channel

SPHERE_DIMS = (2, 4, 8)


def z_epr(v_a):
    """Gaussian-modulation correlation sqrt(V_A^2 + 2 V_A)."""
    if v_a < 0:
        raise ValueError("modulation variance must be nonnegative")
    return math.sqrt(v_a * (v_a + 2.0))


def _cosh_minus_cos(x):
    # direct evaluation loses all digits as x -> 0; both gaps are even/odd
    # subseries of exp, so a few terms reach double precision for x < 0.5
    if x >= 0.5:
        return math.cosh(x) - math.cos(x)
    x2 = x * x
    return x2 * (1.0 + x2 * x2 * (1.0 / 360.0 + x2 * x2 * (1.0 / 1814400.0 + x2 * x2 * (2.0 / math.factorial(14)))))


def _sinh_minus_sin(x):
    if x >= 0.5:
        return math.sinh(x) - math.sin(x)
    x2 = x * x
    return x * x2 * (1.0 / 3.0 + x2 * x2 * (1.0 / 2520.0 + x2 * x2 * (2.0 / math.factorial(11) + x2 * x2 * (2.0 / math.factorial(15)))))


def lambda_coeffs(alpha):
    """Eigenvalues (lambda_0..lambda_3) of the four-state mixture.

    lambda_k = e^{-a^2}/2 * (cosh/sinh +- cos/sin)(a^2); they sum to one and
    are the weights of the photon-number classes n = k mod 4.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = alpha * alpha
    damp = 0.5 * math.exp(-x)
    lam0 = damp * (math.cosh(x) + math.cos(x))
    lam1 = damp * (math.sinh(x) + math.sin(x))
    lam2 = damp * _cosh_minus_cos(x)
    lam3 = damp * _sinh_minus_sin(x)
    return lam0, lam1, lam2, lam3


def z1(v_a):
    """Correlation of the purified four-state modulation.

    Z_1 = 2 a^2 sum_k lambda_{k-1}^{3/2} / lambda_k^{1/2} (indices mod 4).
    """
    if v_a <= 0:
        raise ValueError("modulation variance must be positive")
    alpha = math.sqrt(v_a / 2.0)
    lam = lambda_coeffs(alpha)
    total = sum(lam[k - 1] ** 1.5 / math.sqrt(lam[k]) for k in range(4))
    return 2.0 * alpha * alpha * total


def z_sphere(d, v_a):
    """Correlation of the purified sphere modulation in dimension d in {2,4,8}.

    With m = d/2 signal modes and total-photon weights f_k = Poisson(m a^2),
    Z_d = 2 sum_k sqrt(f_k f_{k-1}) sqrt(k (k + m - 1)) / m.
    """
    if d not in SPHERE_DIMS:
        raise ValueError(f"d must be one of {SPHERE_DIMS}, got {d}")
    if v_a <= 0:
        raise ValueError("modulation variance must be positive")
    m = d // 2
    mu = m * v_a / 2.0
    f_prev = math.exp(-mu)  # f_0
    total = 0.0
    k = 1
    while True:
        f_k = f_prev * mu / k
        total += math.sqrt(f_k * f_prev) * math.sqrt(k * (k + m - 1.0)) / m
        f_prev = f_k
        k += 1
        if k > mu + 10 and f_k < 1e-20:
            break
        if k > 10_000:
            raise RuntimeError("sphere correlation series failed to converge")
    return 2.0 * total


def z8(v_a):
    """Z_8 through its printed series (e^{-4a^2}/2) sum sqrt(k+4)/k! (2a)^{2k+1}.

    Kept separate from z_sphere as an independent implementation; the two must
    agree to full precision.
    """
    if v_a <= 0:
        raise ValueError("modulation variance must be positive")
    alpha = math.sqrt(v_a / 2.0)
    w = 2.0 * alpha
    term = w  # k = 0 value of (2a)^{2k+1}/k!
    total = 0.0
    for k in range(400):
        total += math.sqrt(k + 4.0) * term
        contrib = math.sqrt(k + 4.0) * term
        if k > w * w and contrib < 1e-18 * max(total, 1e-300):
            break
        term *= w * w / (k + 1.0)
    return 0.5 * math.exp(-4.0 * alpha * alpha) * total


def z_correlation(d, v_a):
    """Dispatch Z_d for d in {1, 2, 4, 8, inf}."""
    if d == 1:
        return z1(v_a)
    if d in SPHERE_DIMS:
        return z_sphere(d, v_a)
    if math.isinf(d):
        return z_epr(v_a)
    raise ValueError(f"d must be 1, 2, 4, 8 or inf, got {d}")


@dataclass(frozen=True)
class CovarianceMatrix2Mode:
    """Two-mode covariance [[a I, c sigma_z], [c sigma_z, b I]] in shot units."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a < 1.0 - 1e-12 or self.b < 1.0 - 1e-12:
            raise ValueError(f"diagonals must sit on the vacuum floor, got a={self.a}, b={self.b}")

    def symplectic_eigenvalues(self):
        """(nu1, nu2) with nu1 >= nu2, from the Delta/D invariants."""
        delta = self.a**2 + self.b**2 - 2.0 * self.c**2
        det = self.a * self.b - self.c**2
        disc = delta * delta - 4.0 * det * det
        root = math.sqrt(max(disc, 0.0))
        nu1 = math.sqrt(max((delta + root) / 2.0, 0.0))
        nu2 = math.sqrt(max((delta - root) / 2.0, 0.0))
        return nu1, nu2

    def is_physical(self, tol=1e-9):
        return self.symplectic_eigenvalues()[1] >= 1.0 - tol


def gamma_key0(d, v_a):
    """Pre-channel covariance (V_A + 1, V_A + 1, Z_d); d = inf is Gaussian."""
    if v_a == 0.0 and math.isinf(d):
        return CovarianceMatrix2Mode(1.0, 1.0, 0.0)
    return CovarianceMatrix2Mode(v_a + 1.0, v_a + 1.0, z_correlation(d, v_a))


def gamma_after_channel(g0, t_eff, xi):
    """Propagate Bob's mode through transmittance t_eff and excess noise xi."""
    if not 0.0 < t_eff <= 1.0:
        raise ValueError(f"effective transmittance must lie in (0, 1], got {t_eff}")
    if xi < 0.0:
        raise ValueError("excess noise must be nonnegative")
    out = CovarianceMatrix2Mode(
        g0.a,
        1.0 + t_eff * (g0.a - 1.0) + t_eff * xi,
        math.sqrt(t_eff) * g0.c,
    )
    if not out.is_physical():
        raise ValueError("channel parameters produced an unphysical covariance matrix")
    return out


def entropy_g(x):
    """G(x) = (x+1) log2(x+1) - x log2 x, the thermal-state entropy kernel."""
    if x < 0.0:
        if x < -1e-9:
            raise ValueError(f"entropy argument must be nonnegative, got {x}")
        return 0.0
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def holevo_bound(gamma, detection, gamma_measured=None):
    """Eve's Holevo information chi(B;E) for a purifying attack, in bits.

    gamma fixes Eve's global state; gamma_measured (defaulting to gamma) is
    the matrix Bob's detector actually measures, which differs from gamma only
    in the trusted-loss model.
    """
    if detection not in _channel.DETECTIONS:
        raise ValueError(f"detection must be one of {_channel.DETECTIONS}")
    if not gamma.is_physical():
        raise ValueError("covariance matrix is unphysical")
    if gamma_measured is None:
        gamma_measured = gamma
    nu1, nu2 = gamma.symplectic_eigenvalues()
    a, b, c = gamma_measured.a, gamma_measured.b, gamma_measured.c
    if detection == "homodyne":
        nu_cond = math.sqrt(a * (a - c * c / b))
    else:
        nu_cond = a - c * c / (b + 1.0)
    return (
        entropy_g((nu1 - 1.0) / 2.0)
        + entropy_g((nu2 - 1.0) / 2.0)
        - entropy_g((nu_cond - 1.0) / 2.0)
    )


def equivalent_excess_noise(d, v_a):
    """(F, delta_xi) with F = (Z_EPR/Z_d)^2 and delta_xi = (F - 1) V_A.

    A sphere modulation of dimension d behaves, for security purposes, like a
    Gaussian modulation over a channel with T -> T/F and xi -> F xi + delta_xi.
    """
    if math.isinf(d):
        return 1.0, 0.0
    f_factor = (z_epr(v_a) / z_correlation(d, v_a)) ** 2
    return f_factor, (f_factor - 1.0) * v_a


def mutual_information(params, v_a):
    """Shannon mutual information of the measured Gaussian channel, bits/symbol."""
    s = _channel.snr(params, v_a)
    if params.detection == "homodyne":
        return 0.5 * math.log2(1.0 + s)
    return math.log2(1.0 + s)


_ALLOWED_PAIRINGS = {"homodyne": (1,), "heterodyne": (2, 4, 8)}


def _check_pairing(d, detection):
    if math.isinf(d):
        return
    if d not in _ALLOWED_PAIRINGS[detection]:
        raise ValueError(
            f"d={d} does not pair with {detection} detection; "
            "homodyne serves d=1, heterodyne d in {2, 4, 8}, either serves d=inf"
        )


@dataclass(frozen=True)
class KeyRateReport:
    """Asymptotic rate K = beta I(A;B) - chi(B;E) and everything behind it."""

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
    """Key rate in bits per symbol (one symbol = one coherent state)."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"reconciliation efficiency must lie in (0, 1], got {beta}")
    if not (math.isfinite(v_a) and v_a > 0):
        raise ValueError(f"modulation variance v_a must be finite and positive, got {v_a}")
    _check_pairing(d, params.detection)
    g0 = gamma_key0(d, v_a)
    if params.eta_trusted and params.eta < 1.0:
        # Eve holds the channel output only; detector loss eta degrades Bob's
        # mode afterwards with vacuum, improving the conditional term.
        g_channel = gamma_after_channel(g0, params.t, params.xi)
        g_measured = CovarianceMatrix2Mode(
            g_channel.a,
            params.eta * g_channel.b + 1.0 - params.eta,
            math.sqrt(params.eta) * g_channel.c,
        )
        chi = holevo_bound(g_channel, params.detection, gamma_measured=g_measured)
    else:
        g = gamma_after_channel(g0, params.t_eff, params.xi)
        chi = holevo_bound(g, params.detection)
    i_ab = mutual_information(params, v_a)
    f_factor, delta_xi = equivalent_excess_noise(d, v_a)
    return KeyRateReport(
        d=float(d),
        v_a=v_a,
        t=params.t,
        xi=params.xi,
        eta=params.eta,
        beta=beta,
        detection=params.detection,
        t_eff=params.t_eff,
        snr=_channel.snr(params, v_a),
        i_ab=i_ab,
        chi_be=chi,
        k=beta * i_ab - chi,
        delta_xi=delta_xi,
        z_d=z_correlation(d, v_a),
        z_epr=z_epr(v_a),
        f_factor=f_factor,
    )


def optimize_va(d, params, beta, va_range, tol=1e-3):
    """Golden-section maximization of K over V_A after a coarse grid scan."""
    lo, hi = va_range
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")

    def rate(v):
        return secret_key_rate(d, v, params, beta).k

    grid = [lo + (hi - lo) * i / 32 for i in range(33)]
    values = [rate(v) for v in grid]
    best = max(range(33), key=values.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, 32)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = rate(x1), rate(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = rate(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = rate(x2)
    return (a + b) / 2.0
