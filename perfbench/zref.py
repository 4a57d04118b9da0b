"""Independent reference for the sphere-modulation correlation Z_d.

The benchmark spot-checks rows of the key-rate sweep against this module.
It shares no code with ``cvqkd.security``: every series is summed from
log-space Poisson weights (``lgamma``), so it stays finite where a direct
``exp(-mu)`` would underflow.

- d = 1 (four-state modulation): the class weights lambda_k are the Poisson
  (alpha^2) mass of the photon numbers n = k mod 4, and
  Z_1 = 2 alpha^2 sum_k lambda_{k-1}^{3/2} / lambda_k^{1/2}.
- d in {2, 4, 8} (m = d/2 modes): with f_k = Poisson(m V_A / 2),
  Z_d = (2/m) sum_{k>=1} sqrt(f_k f_{k-1}) sqrt(k (k + m - 1)).
- d = inf: Z_EPR = sqrt(V_A^2 + 2 V_A).
"""

import math


def _log_poisson(k, mu):
    return k * math.log(mu) - mu - math.lgamma(k + 1.0)


def _k_max(mu):
    # the Poisson mass beyond mu + 40 sqrt(mu) + 60 is far below 1e-300
    return int(mu + 40.0 * math.sqrt(mu) + 60.0)


def z_reference(d, v_a):
    if v_a <= 0:
        raise ValueError("modulation variance must be positive")
    if math.isinf(d):
        return math.sqrt(v_a * v_a + 2.0 * v_a)
    if d == 1:
        a2 = v_a / 2.0
        lam = [0.0] * 4
        for n in range(_k_max(a2) + 1):
            lam[n % 4] += math.exp(_log_poisson(n, a2))
        return 2.0 * a2 * sum(lam[k - 1] ** 1.5 / math.sqrt(lam[k]) for k in range(4))
    if d not in (2, 4, 8):
        raise ValueError(f"no reference for d={d}")
    m = d // 2
    mu = m * v_a / 2.0
    total = 0.0
    for k in range(1, _k_max(mu) + 1):
        log_w = 0.5 * (_log_poisson(k, mu) + _log_poisson(k - 1, mu))
        total += math.exp(log_w) * math.sqrt(k * (k + m - 1.0))
    return 2.0 * total / m
