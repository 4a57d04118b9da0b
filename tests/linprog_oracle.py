"""The decoy weight fit through scipy's public linprog, for checking designs.

decoy._fit_weights hands the same LP straight to HiGHS; this is the
linprog(method="highs") form it replaced, kept as the reference its
radii, weights and epsilon must equal bit for bit.
"""

import numpy as np
from scipy import optimize

from cvqkd.decoy import _poisson_table


def fit_weights(means, target, one_minus_p, n_max):
    """Best l1 fit of (1-p) * mixture(means) to target; returns (weights, l1)."""
    q = _poisson_table(means, n_max)
    n_w, n_e = q.shape[1], q.shape[0]
    c = np.concatenate([np.zeros(n_w), np.ones(n_e)])
    block = one_minus_p * q
    a_ub = np.block([[block, -np.eye(n_e)], [-block, -np.eye(n_e)]])
    b_ub = np.concatenate([target, -target])
    a_eq = np.concatenate([np.ones(n_w), np.zeros(n_e)])[None, :]
    res = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs"
    )
    if not res.success:
        raise RuntimeError(f"decoy weight fit failed: {res.message}")
    return res.x[:n_w], float(res.fun)
