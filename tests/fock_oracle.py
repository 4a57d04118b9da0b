"""Dense truncated-Fock-space oracles for the correlation formulas.

These rebuild the modulated ensembles as explicit density matrices, take the
canonical purification M = sqrt(rho), and evaluate the quadrature correlation
<x_A x_B> = Tr[M X M X] with X = a + a*.  A separate Schmidt-form oracle
enumerates occupation tuples by brute force for the multi-mode spheres, and
zd_numeric sums the same matrix elements in closed binomial form.
Everything here is deliberately slow and direct.
"""

import decimal
import math

import numpy as np

# Poisson mass zd_numeric may leave above its truncation
TAIL_BOUND = 1e-12


def coherent_vector(beta, n_max):
    """Fock coefficients e^{-|b|^2/2} b^n / sqrt(n!) up to n_max."""
    n = np.arange(n_max + 1)
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, n_max + 1)))])
    return np.exp(-abs(beta) ** 2 / 2.0) * beta**n / np.exp(0.5 * logfact)


def ensemble_density(betas, weights, n_max):
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for beta, w in zip(betas, weights):
        v = coherent_vector(beta, n_max)
        rho += w * np.outer(v, v.conj())
    assert np.max(np.abs(rho.imag)) < 1e-13, "ensemble density should be real"
    return rho.real


def four_state_density(alpha, n_max):
    betas = [alpha * np.exp(1j * (2 * j + 1) * np.pi / 4) for j in range(4)]
    return ensemble_density(betas, [0.25] * 4, n_max)


def circle_density(alpha, n_max, n_points=32):
    betas = [alpha * np.exp(2j * np.pi * j / n_points) for j in range(n_points)]
    return ensemble_density(betas, [1.0 / n_points] * n_points, n_max)


def x_operator(dim):
    x = np.zeros((dim, dim))
    for n in range(1, dim):
        x[n - 1, n] = x[n, n - 1] = math.sqrt(n)
    return x


def purified_correlation(rho):
    """<x_A x_B> on the canonical purification of rho."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    m = (vecs * np.sqrt(vals)) @ vecs.T
    x = x_operator(rho.shape[0])
    return float(np.trace(m @ x @ m @ x))


def thermal_correlation(v_a, n_max):
    """Purified thermal state with mean photon number V_A / 2."""
    nbar = v_a / 2.0
    q = nbar / (1.0 + nbar)
    probs = (1.0 - q) * q ** np.arange(n_max + 1)
    return purified_correlation(np.diag(probs))


def occupation_tuples(total, modes):
    if modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in occupation_tuples(total - first, modes - 1):
            yield (first,) + rest


def sphere_schmidt_correlation(d, v_a, k_max):
    """Z_d assembled from brute-force occupation-tuple enumeration.

    Uses only the Schmidt structure: total photon number k carries Poisson
    weight with mean (d/2) alpha^2, and the matrix element between adjacent
    k-sectors is the average first-mode occupation over all tuples.
    """
    m = d // 2
    mu = m * v_a / 2.0
    f = [math.exp(-mu)]
    for k in range(1, k_max + 1):
        f.append(f[-1] * mu / k)
    total = 0.0
    n_prev = 1  # one tuple at k = 0
    for k in range(1, k_max + 1):
        occ_sum = 0
        n_k = 0
        for tup in occupation_tuples(k, m):
            n_k += 1
            occ_sum += tup[0]
        total += math.sqrt(f[k] * f[k - 1]) * occ_sum / math.sqrt(n_k * n_prev)
        n_prev = n_k
    return 2.0 * total


def _poisson_tail(mu, n_max):
    # P(N > n_max) via the complementary series, summed from the tail end
    term = math.exp(-mu)
    cdf = 0.0
    for k in range(n_max + 1):
        cdf += term
        term *= mu / (k + 1.0)
    return max(0.0, 1.0 - cdf)


def zd_numeric(d, v_a, n_max=None):
    """Z_d from explicit occupation-tuple combinatorics; slow reference path.

    The matrix element <psi_{k-1}|a1 b1|psi_k> is sum_j j C(k-j+m-2, m-2)
    over the occupation j of the first mode, normalized by the uniform
    superposition sizes N_k = C(k+m-1, m-1).  Supplying an n_max that leaves
    more than 1e-12 of Poisson weight above it is an error.
    """
    if d not in (2, 4, 8):
        raise ValueError(f"d must be one of (2, 4, 8), got {d}")
    if v_a <= 0:
        raise ValueError("modulation variance must be positive")
    m = d // 2
    mu = m * v_a / 2.0
    if n_max is None:
        n_max = 20
        while _poisson_tail(mu, n_max) > TAIL_BOUND:
            n_max *= 2
    elif _poisson_tail(mu, n_max) > TAIL_BOUND:
        raise ValueError(
            f"n_max={n_max} truncates {_poisson_tail(mu, n_max):.3e} of photon-number mass"
        )
    f = [math.exp(-mu)]
    for k in range(1, n_max + 1):
        f.append(f[-1] * mu / k)
    total = 0.0
    for k in range(1, n_max + 1):
        if m == 1:
            occupancy_sum = k  # single mode: the only tuple is (k)
        else:
            occupancy_sum = sum(j * math.comb(k - j + m - 2, m - 2) for j in range(1, k + 1))
        n_k = math.comb(k + m - 1, m - 1)
        n_km1 = math.comb(k + m - 2, m - 1)
        total += math.sqrt(f[k] * f[k - 1]) * occupancy_sum / math.sqrt(n_k * n_km1)
    return 2.0 * total


def z_sphere_series(d, v_a):
    """Z_d for d in {2, 4, 8} by the direct Poisson recurrence.

    f_0 = e^{-mu} and f_k = f_{k-1} mu / k with mu = (d/2) V_A / 2, summed as
    Z_d = 2 sum_k sqrt(f_k f_{k-1}) sqrt(k (k + m - 1)) / m until the terms
    vanish.  e^{-mu} underflows near mu = 745, so this only serves moderate V_A.
    """
    m = d // 2
    mu = m * v_a / 2.0
    if mu > 700.0:
        raise ValueError(f"the recurrence underflows at mu = {mu}")
    f_prev = math.exp(-mu)
    total = 0.0
    k = 1
    while True:
        f_k = f_prev * mu / k
        total += math.sqrt(f_k * f_prev) * math.sqrt(k * (k + m - 1.0)) / m
        f_prev = f_k
        k += 1
        if k > mu + 10 and f_k < 1e-20:
            break
    return 2.0 * total


def z_sphere_decimal(d, v_a, digits=50):
    """Z_d for d in {2, 4, 8} as a Decimal, in `digits`-digit arithmetic.

    With mu = (d/2) V_A / 2 exact, the Poisson weights start at 1 on the mode
    floor(mu) and follow f_{k+1} = f_k mu / (k + 1) upward and f_{k-1} =
    f_k k / mu downward until they drop below 10^-digits, so nothing
    underflows at any mean.  Returns (2 sqrt(mu) / m) E[sqrt(N + m)].
    """
    m = d // 2
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        mu = decimal.Decimal(m) * decimal.Decimal(float(v_a)) / 2
        mode = int(mu)
        cut = decimal.Decimal(10) ** -digits
        num = den = decimal.Decimal(0)
        k, w = mode, decimal.Decimal(1)
        while w > cut:
            num += w * decimal.Decimal(k + m).sqrt()
            den += w
            w = w * mu / (k + 1)
            k += 1
        k, w = mode - 1, mode / mu
        while k >= 0 and w > cut:
            num += w * decimal.Decimal(k + m).sqrt()
            den += w
            w = w * k / mu
            k -= 1
        return 2 * mu.sqrt() / m * num / den


def z8_printed_series(v_a):
    """Z_8 through its printed series (e^{-4a^2}/2) sum sqrt(k+4)/k! (2a)^{2k+1}."""
    alpha = math.sqrt(v_a / 2.0)
    w = 2.0 * alpha
    term = w  # k = 0 value of (2a)^{2k+1}/k!
    total = 0.0
    for k in range(400):
        contrib = math.sqrt(k + 4.0) * term
        total += contrib
        if k > w * w and contrib < 1e-18 * max(total, 1e-300):
            break
        term *= w * w / (k + 1.0)
    return 0.5 * math.exp(-4.0 * alpha * alpha) * total


def z1_direct(v_a):
    """Z_1 = 2 a^2 sum_k lambda_{k-1}^{3/2} / lambda_k^{1/2} with undamped cosh/sinh.

    The gaps cosh - cos and sinh - sin are summed as Taylor series, exact to
    rounding up to a^2 = 10, so this only serves moderate V_A.
    """
    x = v_a / 2.0
    damp = 0.5 * math.exp(-x)
    cosh_minus_cos = sum(x ** (2 * j) / math.factorial(2 * j) for j in range(1, 60, 2)) * 2.0
    sinh_minus_sin = sum(x ** (2 * j + 1) / math.factorial(2 * j + 1) for j in range(1, 60, 2)) * 2.0
    lam = (
        damp * (math.cosh(x) + math.cos(x)),
        damp * (math.sinh(x) + math.sin(x)),
        damp * cosh_minus_cos,
        damp * sinh_minus_sin,
    )
    return 2.0 * x * sum(lam[k - 1] ** 1.5 / math.sqrt(lam[k]) for k in range(4))


def _entropy_g(x):
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def key_rate(d, v_a, params, beta):
    """Scalar K = beta I(A;B) - chi(B;E), from the Z_d series above and math.

    Follows the covariance construction of cvqkd.security term by term, for
    one ChannelParams and one V_A, with the trusted-loss model when
    params.eta_trusted is set.
    """
    if math.isinf(d):
        z = math.sqrt(v_a * (v_a + 2.0))
    elif d == 1:
        z = z1_direct(v_a)
    else:
        z = z_sphere_series(d, v_a)
    t_chan = params.t if params.eta_trusted else params.t_eff
    a = v_a + 1.0
    b = 1.0 + t_chan * v_a + t_chan * params.xi
    c = math.sqrt(t_chan) * z
    delta = a * a + b * b - 2.0 * c * c
    det = a * b - c * c
    root = math.sqrt(max(delta * delta - 4.0 * det * det, 0.0))
    nu1 = math.sqrt((delta + root) / 2.0)
    nu2 = math.sqrt(max((delta - root) / 2.0, 0.0))
    if params.eta_trusted:
        b, c = params.eta * b + 1.0 - params.eta, math.sqrt(params.eta) * c
    if params.detection == "homodyne":
        nu_cond = math.sqrt(a * (a - c * c / b))
    else:
        nu_cond = a - c * c / (b + 1.0)
    chi = _entropy_g((nu1 - 1.0) / 2.0) + _entropy_g((nu2 - 1.0) / 2.0) - _entropy_g((nu_cond - 1.0) / 2.0)
    snr = params.t_eff * v_a / (params.noise_floor + params.t_eff * params.xi)
    i_ab = math.log2(1.0 + snr) * (0.5 if params.detection == "homodyne" else 1.0)
    return beta * i_ab - chi


def golden_section_va(rate, va_range, tol=1e-3):
    """V_A maximizing rate(V_A), one scalar evaluation at a time.

    A 33-point grid over va_range brackets the best grid point by its
    neighbours, and golden section narrows the bracket to tol.
    """
    lo, hi = va_range
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
