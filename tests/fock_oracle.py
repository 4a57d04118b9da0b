"""Dense truncated-Fock-space oracles for the correlation formulas.

These rebuild the modulated ensembles as explicit density matrices, take the
canonical purification M = sqrt(rho), and evaluate the quadrature correlation
<x_A x_B> = Tr[M X M X] with X = a + a*.  A separate Schmidt-form oracle
enumerates occupation tuples by brute force for the multi-mode spheres, and
zd_numeric sums the same matrix elements in closed binomial form.
Everything here is deliberately slow and direct.
"""

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
