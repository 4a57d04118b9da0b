"""Photon-number statistics of the modulations and approximate decoy design.

All three modulations (key sphere, Gaussian, decoy mixtures) are invariant
under orthogonal rotations of the m = d/2 signal modes, so each state is
block-diagonal over total photon number k and fully described by its
photon-number law: Poisson(m alpha^2) for the key sphere (any fixed-radius
sphere of amplitude radius rho gives Poisson(rho^2)), negative binomial for
the Gaussian modulation.  Trace distances between such states reduce to l1
distances between those laws, which is what the decoy optimizer minimizes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .modulation import SPHERE_DIMS, ModulationScheme, check_integer, read_key, read_lines, write_keys

log = logging.getLogger(__name__)

TAIL_BOUND = 1e-12
# a fitted weight at or below this is solver noise: its radius leaves the design
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Total-photon-number weights for k = 0..n_max; the deficit is tail mass."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if np.any(probs < -1e-15):
            raise ValueError("photon-number weights must be nonnegative")
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))

    @property
    def n_max(self):
        return self.probs.size - 1

    @property
    def tail(self):
        return max(0.0, 1.0 - float(np.sum(self.probs)))


def _auto_n_max(tail_of, subject):
    """The first n = 16 * 2^j with tail_of(n) <= TAIL_BOUND; past 2^20, subject is refused."""
    n = 16
    while tail_of(n) > TAIL_BOUND:
        n *= 2
        if n > 1 << 20:
            raise ValueError(f"{subject} is too large: its photon-number law needs more than "
                             f"{1 << 20} terms to leave a tail below {TAIL_BOUND:g}")
    return n


def _poisson_table(means, n_max=None, subject="the largest Poisson mean"):
    """Poisson(mu) weights at k = 0..n_max, one column per mean in means.

    n_max defaults to the _auto_n_max truncation of the widest law, which
    refuses subject when it is too wide.  The formulas are scipy.stats.poisson's
    pmf and sf, bit for bit.
    """
    from scipy.special import gammaln, pdtrc, xlogy

    means = np.asarray(means, dtype=float)
    if n_max is None:
        n_max = _auto_n_max(
            lambda n: float(np.max(pdtrc(n, np.maximum(means, 1e-300)))), subject
        )
    k = np.arange(n_max + 1)[:, None]
    return np.exp(xlogy(k, means) - gammaln(k + 1) - means)


def f_dist(d, alpha, n_max=None):
    """Sphere-modulation photon-number law: Poisson with mean (d/2) alpha^2."""
    _check_decoy_args(d, alpha)
    mean = (d / 2.0) * alpha * alpha
    return PhotonNumberDistribution(_poisson_table([mean], n_max, f"alpha={alpha} at d={d}")[:, 0])


def g_dist(d, alpha, n_max=None):
    """Gaussian-modulation law: negative binomial, same mean as f_dist.

    g(k) = C(m+k-1, k) alpha^{2k} / (1+alpha^2)^{m+k} with m = d/2 modes, computed
    by the private ufuncs behind scipy.stats.nbinom: no public formula gives their bits.
    """
    from scipy.special import _ufuncs

    _check_decoy_args(d, alpha)
    m = d // 2
    p_nb = 1.0 / (1.0 + alpha * alpha)
    if n_max is None:
        n_max = _auto_n_max(lambda n: _ufuncs._nbinom_sf(n, m, p_nb), f"alpha={alpha} at d={d}")
    return PhotonNumberDistribution(_ufuncs._nbinom_pmf(np.arange(n_max + 1), m, p_nb))


def _check_decoy_args(d, alpha):
    check_integer("d", d)
    if d not in SPHERE_DIMS:
        raise ValueError(f"d must be one of {SPHERE_DIMS}, got {d}")
    ModulationScheme(d, alpha)


def _check_count(name, value):
    """value is an int >= 1."""
    check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _check_design_args(d, alpha, p, n_max):
    """A design's (d, alpha) pass _check_decoy_args, p lies in [0, 1), n_max (if given) is >= 1."""
    _check_decoy_args(d, alpha)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"key fraction p must lie in [0, 1), got {p}")
    if n_max is not None:
        _check_count("n_max", n_max)


def povm_scale(d, alpha):
    """(pi_d, k_star): the minimum of g(k)/f(k) and where it is attained.

    The ratio of consecutive ratios is (m + k) / (m (1 + alpha^2)), which
    exceeds 1 for all k > m alpha^2; f's truncation leaves a Poisson tail
    below TAIL_BOUND, far beyond that point, so it brackets the global minimum.
    Both laws are positive at every k, so a zero weight is underflow: such k
    (and any ratio that overflows) are left out of the argmin.
    """
    f = f_dist(d, alpha)
    g = g_dist(d, alpha, f.n_max)
    ratio = np.full(f.probs.shape, np.inf)
    with np.errstate(over="ignore"):
        np.divide(g.probs, f.probs, out=ratio, where=(f.probs > 0) & (g.probs > 0))
    k_star = int(np.argmin(ratio))
    pi_d = float(ratio[k_star])
    paper_k = math.ceil(alpha * alpha * d)
    if paper_k != k_star:
        log.info(
            "POVM ratio argmin k*=%d (ratio %.12g) differs from the ceil(alpha^2 d)=%d "
            "shorthand (ratio %.12g)",
            k_star, pi_d, paper_k, float(ratio[min(paper_k, f.n_max)]),
        )
    return pi_d, k_star


def p_succ(d, alpha):
    """Success probability of the key-state extraction measurement."""
    if d == 1:
        ModulationScheme(d, alpha)
        a2 = alpha * alpha
        return math.factorial(math.floor(1.0 + a2)) / (1.0 + a2) ** math.floor(2.0 + a2)
    return povm_scale(d, alpha)[0]


def mixture_photon_dist(radii, weights, n_max=None):
    """Photon-number law of a weighted mixture of fixed-radius spheres.

    A sphere of amplitude radius rho carries Poisson(rho^2) total photons,
    independent of d.
    """
    radii = np.asarray(radii, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if radii.shape != weights.shape or radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii and weights must be matching nonempty 1-d arrays")
    if np.any(radii < 0) or np.any(weights < 0):
        raise ValueError("radii and weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {weights.sum()}, expected 1")
    table = _poisson_table(radii * radii, n_max)
    # in-order sum of the weighted columns, so the law keeps its bits
    return PhotonNumberDistribution(sum(w * column for w, column in zip(weights, table.T)))


def trace_distance(pd1, pd2):
    """Trace distance of two orthogonally-invariant states from their laws.

    Equals half the l1 distance of the photon-number weights, plus half of
    both truncated tails so the result upper-bounds the untruncated value.
    """
    if pd1.n_max != pd2.n_max:
        raise ValueError(
            f"distributions truncate at different n_max: {pd1.n_max} vs {pd2.n_max}"
        )
    core = 0.5 * float(np.sum(np.abs(pd1.probs - pd2.probs)))
    return core + 0.5 * (pd1.tail + pd2.tail)


def mix_probabilities(p, p_est):
    """Per-symbol label probabilities (key, estimation, decoy)."""
    for name, value in (("p", p), ("p_est", p_est)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return p * (1.0 - p_est), p_est, (1.0 - p) * (1.0 - p_est)


class InfeasibleDecoyError(ValueError):
    """No nonnegative decoy mixture exists; carries the violating photon number."""

    def __init__(self, message, photon_number):
        super().__init__(message)
        self.photon_number = photon_number


# the header keys of a design file and how each value is read
_DESIGN_KEYS = {"d": int, "alpha": float, "p": float, "epsilon": float, "n_max": int}


@dataclass(frozen=True)
class DecoyDesign:
    """Radius mixture certified to hide the key states inside the Gaussian law."""

    d: int
    alpha: float
    p: float
    radii: tuple
    weights: tuple
    epsilon: float
    n_max: int

    def __post_init__(self):
        if len(self.radii) != len(self.weights) or not self.radii:
            raise ValueError("radii and weights must be nonempty and aligned")
        for name in ("alpha", "p", "epsilon", "radii", "weights"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if any(w < 0 for w in self.weights) or any(r < 0 for r in self.radii):
            raise ValueError("radii and weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {sum(self.weights)}, expected 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        _check_design_args(self.d, self.alpha, self.p, self.n_max)

    def save(self, path):
        with open(path, "w") as fh:
            write_keys(fh, "# cvqkd decoy design v1", ((k, getattr(self, k)) for k in _DESIGN_KEYS))
            fh.writelines(f"{r},{w}\n" for r, w in zip(self.radii, self.weights))

    @classmethod
    def load(cls, path):
        """Read a design written by save; each error names the field or path:line."""
        header = {}
        rows = []

        def parse(line):
            parts = line.split(",") if "," in line else line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'key value' or 'radius,weight', got {line!r}")
            if "," in line:
                rows.append((float(parts[0]), float(parts[1])))
            else:
                read_key(line, _DESIGN_KEYS, header)

        read_lines(path, parse)
        missing = sorted(set(_DESIGN_KEYS) - set(header)) + ([] if rows else ["radius,weight"])
        if missing:
            raise ValueError(f"{path}: malformed decoy design (missing {missing})")
        try:
            return cls(radii=tuple(r for r, _ in rows), weights=tuple(w for _, w in rows),
                       **header)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _lp_model(core, block, target):
    """passModel's array-overload arguments for the LP of _fit_weights.

    CSC by weight column: its B entries, its -B entries, its 1 in the sum
    row; then each error column's -1 in its row of either half.  Columns
    start without a trailing nnz, and integrality is a full array of zeros:
    the overload reads num_col entries whatever the array's length, and an
    empty one is refused.  HiGHS copies the model, so the caller frees
    these arrays, and the dense temporaries behind them, before it solves.
    """
    n_e, n_w = block.shape
    columns = np.hstack([block.T, -block.T, np.ones((n_w, 1))])
    nonzero = columns != 0
    errors = np.arange(n_e, dtype=np.int32)
    counts = np.concatenate([nonzero.sum(axis=1), np.full(n_e, 2)])
    index = np.concatenate([np.nonzero(nonzero)[1].astype(np.int32),
                            np.stack([errors, errors + n_e], 1).ravel()])
    value = np.concatenate([columns[nonzero], np.full(2 * n_e, -1.0)])
    n_col = n_w + n_e
    start = np.zeros(n_col, dtype=np.int32)
    np.cumsum(counts[:-1], out=start[1:])
    return (n_col, 2 * n_e + 1, value.size, core.MatrixFormat.kColwise, core.ObjSense.kMinimize,
            0.0, np.concatenate([np.zeros(n_w), np.ones(n_e)]), np.zeros(n_col),
            np.full(n_col, core.kHighsInf), np.append(np.full(2 * n_e, -core.kHighsInf), 1.0),
            np.concatenate([target, -target, [1.0]]), start, index, value,
            np.zeros(n_col, dtype=np.int32))


def _fit_weights(means, target, one_minus_p, n_max):
    """Best l1 fit of (1-p) * mixture(means) to target; returns (weights, l1).

    The LP over weights w and errors e >= 0 is: minimize sum(e) subject to
    [[B, -I]; [-B, -I]] [w; e] <= [target; -target] and sum(w) = 1, with
    B = (1-p) * Q.  It goes to HiGHS's dual simplex as the model, options
    and CSC matrix (exact zeros dropped) that scipy's linprog(method="highs")
    would pass, so every weight keeps linprog's bits, without its per-call
    checks.  scipy.optimize._highspy._core is private: tests/test_decoy.py
    pins the symbols used here and checks designs against linprog.
    """
    from scipy.optimize._highspy import _core

    options = _core.HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = 0
    options.simplex_strategy = 1  # dual simplex
    highs = _core._Highs()
    highs.passOptions(options)
    passed = highs.passModel(*_lp_model(_core, one_minus_p * _poisson_table(means, n_max), target))
    # a model HiGHS refuses (a nan bound, say) would leave run() solving an empty one
    if passed == _core.HighsStatus.kError:
        status = _core.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:
        raise RuntimeError(
            f"decoy weight fit failed: HiGHS model status {highs.modelStatusToString(status)}"
        )
    weights = np.array(highs.getSolution().col_value[:len(means)])
    return weights, float(highs.getInfo().objective_function_value)


def optimize_decoy(d, alpha, p, n_radii_max=12, n_max=None):
    """Design a decoy radius mixture hiding the key fraction p in sigma_G.

    Fits (1-p) * mixture against g - p*f in l1 over a geometric grid of
    Poisson means, then prunes: while more than n_radii_max means carry
    weight, it drops the weightless ones and the lightest half of the excess
    (at least one) and refits the rest.  The grid has min(1000,
    241 * 65537 // (n_max + 1)) points (at least 2), so the first fit's
    Poisson table never holds more entries than 241 means at n_max = 65536.
    The returned epsilon is a sound trace distance certificate including all
    truncation tails.
    """
    _check_design_args(d, alpha, p, n_max)
    _check_count("n_radii_max", n_radii_max)
    pi_d, k_star = povm_scale(d, alpha)
    if p > pi_d + 1e-12:
        raise InfeasibleDecoyError(
            f"p={p} exceeds the POVM scale pi_d={pi_d:.12g}: "
            f"p*f(k) > g(k) at photon number {k_star}",
            photon_number=k_star,
        )
    if n_max is None:
        n_max = max(f_dist(d, alpha).n_max, g_dist(d, alpha).n_max)
    f = f_dist(d, alpha, n_max)
    g = g_dist(d, alpha, n_max)
    target = g.probs - p * f.probs

    n_grid = max(2, min(1000, 241 * 65537 // (n_max + 1)))
    mus = np.geomspace(1e-3, max(float(n_max), 1.0), n_grid)
    weights, _ = _fit_weights(mus, target, 1.0 - p, n_max)
    while (excess := np.count_nonzero(weights > WEIGHT_FLOOR) - n_radii_max) > 0:
        # drop the weightless means and the lightest half of the excess; mus stay ascending
        n_drop = mus.size - n_radii_max - excess + max(1, excess // 2)
        mus = mus[np.sort(np.argsort(weights, kind="stable")[n_drop:])]
        weights, _ = _fit_weights(mus, target, 1.0 - p, n_max)

    keep = weights > WEIGHT_FLOOR
    mus, weights = mus[keep], weights[keep]
    weights /= weights.sum()
    # the labeled ensemble: decoy spheres at weight 1-p plus the key sphere at p
    labeled = mixture_photon_dist(
        np.append(np.sqrt(mus), ModulationScheme(d, alpha).sphere_radius),
        np.append((1.0 - p) * weights, p),
        n_max=n_max,
    )
    return DecoyDesign(
        d=d,
        alpha=alpha,
        p=p,
        radii=tuple(math.sqrt(mu) for mu in mus),
        weights=tuple(float(w) for w in weights),
        epsilon=trace_distance(g, labeled),
        n_max=n_max,
    )
