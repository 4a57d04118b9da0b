"""Photon-number laws, POVM scale probabilities, and decoy-mixture design."""

import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from scipy import special, stats

from cvqkd import decoy
from cvqkd.decoy import (
    DecoyDesign,
    InfeasibleDecoyError,
    PhotonNumberDistribution,
    f_dist,
    g_dist,
    mix_probabilities,
    mixture_photon_dist,
    optimize_decoy,
    p_succ,
    povm_scale,
    trace_distance,
)

import linprog_oracle
from fock_oracle import circle_density


def _mean(dist):
    """Mean photon number of a law's retained weights."""
    return float(np.arange(dist.probs.size) @ dist.probs)


def test_f_dist_matches_direct_poisson_formula():
    d, alpha = 8, 0.7
    mu = (d / 2) * alpha**2
    f = f_dist(d, alpha, n_max=40)
    for k in range(41):
        direct = math.exp(-mu) * mu**k / math.factorial(k)
        assert abs(f.probs[k] - direct) < 1e-15


def test_g_dist_matches_direct_formula():
    alpha = 0.8
    for d in (2, 4, 8):
        m = d // 2
        g = g_dist(d, alpha, n_max=30)
        for k in range(31):
            direct = (
                math.comb(m + k - 1, k) * alpha ** (2 * k) / (1 + alpha**2) ** (m + k)
            )
            assert abs(g.probs[k] - direct) < 1e-14


def test_means_agree_between_laws():
    for d in (2, 4, 8):
        for alpha in (0.3, 1.0):
            mu = (d / 2) * alpha**2
            assert abs(_mean(f_dist(d, alpha)) - mu) < 1e-7
            assert abs(_mean(g_dist(d, alpha)) - mu) < 1e-7


def test_auto_truncation_meets_tail_bound():
    for d in (2, 4, 8):
        for alpha in (0.3, 1.0):
            assert f_dist(d, alpha).tail <= 1e-12
            assert g_dist(d, alpha).tail <= 1e-12


def _stats_n_max(sf):
    """The doubling truncation of decoy._auto_n_max, driven by a scipy.stats tail."""
    n = 16
    while sf(n) > decoy.TAIL_BOUND:
        n *= 2
    return n


@pytest.mark.parametrize("law, alpha", [(f_dist, 600.0), (g_dist, 200.0)],
                         ids=["f_dist", "g_dist"])
def test_laws_refuse_an_alpha_too_wide_to_truncate(law, alpha):
    # past 2^20 photon numbers the truncation search used to raise a RuntimeError
    with pytest.raises(ValueError, match=rf"^alpha={alpha} at d=8 is too large: .* 1048576 "):
        law(8, alpha)


# a log grid plus the benchmark designs' alpha (0.5, 1, 2) jittered by 1%
LAW_ALPHAS = [*np.geomspace(0.05, 5.0, 25),
              *(a * j for a in (0.5, 1.0, 2.0) for j in (0.99, 1.01))]


@pytest.mark.parametrize("d", [2, 4, 8])
def test_laws_equal_scipy_stats_bit_for_bit(d):
    # decoy computes the laws without importing scipy.stats; designs, sessions
    # and criterion 7 rely on every bit staying what scipy.stats gives
    m = d // 2
    for alpha in LAW_ALPHAS:
        mu, p_nb = (d / 2.0) * alpha * alpha, 1.0 / (1.0 + alpha * alpha)
        k_f = np.arange(_stats_n_max(lambda n: stats.poisson.sf(n, mu)) + 1)
        k_g = np.arange(_stats_n_max(lambda n: stats.nbinom.sf(n, m, p_nb)) + 1)
        # the auto truncations, then each law at the other's (povm_scale's case)
        assert np.array_equal(f_dist(d, alpha).probs, stats.poisson.pmf(k_f, mu)), alpha
        assert np.array_equal(g_dist(d, alpha).probs, stats.nbinom.pmf(k_g, m, p_nb)), alpha
        assert np.array_equal(f_dist(d, alpha, k_g[-1]).probs, stats.poisson.pmf(k_g, mu))
        assert np.array_equal(g_dist(d, alpha, k_f[-1]).probs, stats.nbinom.pmf(k_f, m, p_nb))
        tail_at = 16 * 2 ** np.arange(6)
        assert np.array_equal(special.pdtrc(tail_at, mu), stats.poisson.sf(tail_at, mu)), alpha
        assert np.array_equal(special._ufuncs._nbinom_sf(tail_at, m, p_nb),
                              stats.nbinom.sf(tail_at, m, p_nb)), alpha


def test_mixture_law_equals_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(8)
    for size in (1, 3, 9):
        radii = np.append(0.0, rng.uniform(0.05, 4.0, size))
        weights = rng.dirichlet(np.ones(size + 1))
        means = radii * radii
        n_max = _stats_n_max(
            lambda n: float(np.max(stats.poisson.sf(n, np.maximum(means, 1e-300)))))
        columns = stats.poisson.pmf(np.arange(n_max + 1)[:, None], means).T
        want = sum(w * column for w, column in zip(weights, columns))
        mix = mixture_photon_dist(radii, weights)
        assert mix.n_max == n_max and np.array_equal(mix.probs, want), size


def test_explicit_n_max_is_honored():
    f = f_dist(2, 0.5, n_max=5)
    assert f.probs.size == 6
    assert f.n_max == 5


def test_distribution_validation():
    with pytest.raises(ValueError):
        PhotonNumberDistribution(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        PhotonNumberDistribution(np.array([]))
    half = PhotonNumberDistribution(np.array([0.5]))
    assert abs(half.tail - 0.5) < 1e-15


def test_povm_scale_matches_brute_force_scan():
    # Independent oracle: scan the full ratio array at a generous truncation.
    for d in (2, 4, 8):
        for alpha in (0.25, 0.5, 1.0):
            m = d // 2
            k = np.arange(81)
            f_probs = stats.poisson.pmf(k, m * alpha**2)
            ratio = stats.nbinom.pmf(k, m, 1 / (1 + alpha**2)) / f_probs
            ratio[f_probs < 1e-250] = np.inf
            pi_d, k_star = povm_scale(d, alpha)
            assert k_star == int(np.argmin(ratio))
            assert abs(pi_d - ratio.min()) < 1e-12
            assert 0.0 < pi_d <= 1.0


def test_povm_ratio_at_zero_photons():
    for d, alpha in [(2, 0.5), (8, 1.0)]:
        m = d // 2
        f = f_dist(d, alpha)
        g = g_dist(d, alpha, f.n_max)
        at_zero = g.probs[0] / f.probs[0]
        want = math.exp(m * alpha**2) / (1 + alpha**2) ** m
        assert abs(at_zero - want) < 1e-12
        assert povm_scale(d, alpha)[0] <= at_zero


@pytest.mark.parametrize("alpha", [1e-9, 1e-20])
def test_povm_scale_at_tiny_alpha_is_one(alpha):
    # 1/(1+alpha^2) rounds to 1, so g is 0 beyond k = 0 (and f too at 1e-20):
    # those zeros are underflow, not a ratio of 0 or 0/0
    for d in (2, 4, 8):
        assert povm_scale(d, alpha) == (1.0, 0)
    design = optimize_decoy(2, alpha, 0.5)
    assert design.p == 0.5 and math.isfinite(design.epsilon) and design.epsilon < 1e-3


def test_povm_scale_at_large_alpha_warns_nothing():
    # f underflows below k ~ 3000 at (8, 30); the ratio keeps its bits, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pi_d, k_star = povm_scale(8, 30.0)
    f = f_dist(8, 30.0)
    with np.errstate(all="ignore"):
        ratio = g_dist(8, 30.0, f.n_max).probs / f.probs
    assert (pi_d, k_star) == (ratio.min(), int(np.argmin(ratio)))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_povm_scale_keeps_every_finite_positive_quotient(d):
    # leaving zero weights out of the argmin moves no pi_d the plain quotient got right
    for alpha in LAW_ALPHAS:
        f = f_dist(d, alpha)
        with np.errstate(all="ignore"):
            ratio = g_dist(d, alpha, f.n_max).probs / f.probs
        assert 0.0 < ratio.min() < np.inf, alpha
        assert povm_scale(d, alpha) == (ratio.min(), int(np.argmin(ratio))), alpha


def test_p_succ_closed_forms():
    assert p_succ(1, 1.0) == 0.25
    assert abs(p_succ(1, 0.5) - 0.64) < 1e-15
    assert abs(p_succ(1, 0.25) - 256.0 / 289.0) < 1e-15


def test_p_succ_ordering_in_dimension():
    for alpha in (0.25, 0.5, 1.0):
        values = [p_succ(d, alpha) for d in (1, 2, 4, 8)]
        assert all(0.0 < v < 1.0 for v in values)
        assert values == sorted(values)
        assert values[1] < values[2] < values[3]


def test_p_succ_approaches_one_at_small_alpha():
    for d in (1, 2, 4, 8):
        assert p_succ(d, 0.05) > 0.99


def test_p_succ_invalid_inputs():
    with pytest.raises(ValueError):
        p_succ(1, 0.0)
    with pytest.raises(ValueError):
        p_succ(3, 0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("call", [
    f_dist, g_dist, povm_scale, p_succ, lambda d, alpha: p_succ(1, alpha),
    lambda d, alpha: optimize_decoy(d, alpha, 0.5),
], ids=["f_dist", "g_dist", "povm_scale", "p_succ", "p_succ_d1", "optimize_decoy"])
def test_entry_points_reject_bad_alpha(call, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        call(8, alpha)


def test_mixture_single_radius_reduces_to_sphere_law():
    for d in (2, 8):
        alpha = 0.6
        f = f_dist(d, alpha)
        mix = mixture_photon_dist(
            [alpha * math.sqrt(d / 2)], [1.0], n_max=f.n_max
        )
        assert np.allclose(mix.probs, f.probs, atol=1e-14)


def test_mixture_mean_is_weight_average_of_squared_radii():
    mix = mixture_photon_dist([0.5, 1.5], [0.3, 0.7])
    want = 0.3 * 0.25 + 0.7 * 2.25
    assert abs(_mean(mix) - want) < 1e-7
    assert mix.tail <= 1e-12


def test_mixture_validation():
    with pytest.raises(ValueError):
        mixture_photon_dist([0.5, 1.0], [1.0])
    with pytest.raises(ValueError):
        mixture_photon_dist([0.5], [0.7])
    with pytest.raises(ValueError):
        mixture_photon_dist([-0.5], [1.0])


def test_trace_distance_identical_is_tail_only():
    f = f_dist(4, 0.7)
    # the l1 core vanishes, leaving only the certified truncation slack
    assert trace_distance(f, f) <= f.tail + 1e-15
    assert trace_distance(f, f) < 1e-11


def test_trace_distance_disjoint_supports_is_one():
    a = PhotonNumberDistribution(np.array([1.0, 0.0, 0.0]))
    b = PhotonNumberDistribution(np.array([0.0, 0.5, 0.5]))
    assert abs(trace_distance(a, b) - 1.0) < 1e-15


def test_trace_distance_truncation_mismatch_raises():
    with pytest.raises(ValueError):
        trace_distance(f_dist(2, 0.5, n_max=10), f_dist(2, 0.5, n_max=12))


def test_trace_distance_against_dense_matrix_norm():
    # Dense oracle: the circle ensemble and the thermal state are both
    # rotation invariant, so their trace distance is computable from full
    # density matrices via the eigenvalues of the difference.
    alpha, n_max = 0.5, 60
    rho_circle = circle_density(alpha, n_max)
    nbar = alpha**2
    thermal = np.diag([nbar**k / (1 + nbar) ** (k + 1) for k in range(n_max + 1)])
    dense = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_circle - thermal)))
    law = trace_distance(f_dist(2, alpha, n_max), g_dist(2, alpha, n_max))
    assert abs(dense - law) < 1e-12


def test_mix_probabilities():
    key, est, dec = mix_probabilities(0.5, 0.5)
    assert (key, est, dec) == (0.25, 0.5, 0.25)
    key, est, dec = mix_probabilities(0.9, 0.1)
    assert abs(key + est + dec - 1.0) < 1e-15
    assert abs(key - 0.81) < 1e-15
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 1.2$"):
        mix_probabilities(1.2, 0.5)
    with pytest.raises(ValueError, match=r"^p_est must lie in \[0, 1\], got -0.1$"):
        mix_probabilities(0.5, -0.1)


def test_optimize_decoy_certificate_is_sound():
    design = optimize_decoy(2, 0.5, 0.5)
    assert design.epsilon <= 1e-4
    assert len(design.radii) <= 12
    assert all(w > 0 for w in design.weights)
    assert list(design.radii) == sorted(design.radii)
    # Recompute the hiding error from the returned design and check the
    # certificate covers it.
    f = f_dist(2, 0.5, design.n_max)
    g = g_dist(2, 0.5, design.n_max)
    mix = mixture_photon_dist(design.radii, design.weights, design.n_max)
    combined = PhotonNumberDistribution(
        design.p * f.probs + (1 - design.p) * mix.probs
    )
    assert trace_distance(g, combined) <= design.epsilon + 1e-12


def test_optimize_decoy_p_zero_approximates_gaussian_alone():
    design = optimize_decoy(2, 0.5, 0.0)
    assert design.epsilon <= 1e-4
    mix = mixture_photon_dist(design.radii, design.weights, design.n_max)
    g = g_dist(2, 0.5, design.n_max)
    assert trace_distance(g, mix) <= design.epsilon + 1e-12


def test_optimize_decoy_infeasible_reports_photon_number():
    pi_d, k_star = povm_scale(2, 0.5)
    with pytest.raises(InfeasibleDecoyError) as exc_info:
        optimize_decoy(2, 0.5, 0.95)
    assert exc_info.value.photon_number == k_star


def test_optimize_decoy_feasibility_boundary():
    pi_d, _ = povm_scale(2, 0.5)
    design = optimize_decoy(2, 0.5, pi_d - 1e-9)
    assert design.epsilon < 0.1
    with pytest.raises(InfeasibleDecoyError):
        optimize_decoy(2, 0.5, pi_d + 1e-9)


_FIT_WEIGHTS = decoy._fit_weights  # the real fit, whatever a test has patched in since


def _trials(monkeypatch, args, fail_on=lambda means: False):
    """optimize_decoy(*args), and the (means, weights) of every fit it asks for, in order.

    A fit whose means satisfy fail_on is handed a nan target, so it raises
    the RuntimeError that HiGHS's refusal gives.
    """
    fits = []

    def recording(means, target, one_minus_p, n_max):
        bad = fail_on(means)
        weights, l1 = _FIT_WEIGHTS(means, target * np.nan if bad else target, one_minus_p, n_max)
        fits.append((means, weights))
        return weights, l1

    monkeypatch.setattr(decoy, "_fit_weights", recording)
    return optimize_decoy(*args), fits


def _support(weights):
    return int(np.count_nonzero(weights > decoy.WEIGHT_FLOOR))


# (d, alpha, p, n_radii_max) of the output matrix's designs, and the LPs each takes:
# one grid fit, then a refit per prune step
@pytest.mark.parametrize("args, solves", [
    ((2, 0.5, 0.5, 12), 1), ((8, 1.0, 0.5, 12), 1), ((8, 2.0, 0.3, 12), 3),
    ((4, 0.7, 0.2, 12), 1), ((8, 1.0, 0.5, 2), 3),
])
def test_design_solves_one_grid_fit_and_a_refit_per_prune(monkeypatch, args, solves):
    design, fits = _trials(monkeypatch, args)
    assert len(fits) == solves
    assert fits[0][0].size == 1000
    assert _support(fits[-1][1]) == len(design.radii) <= args[3]
    assert all(_support(weights) > args[3] for _, weights in fits[:-1])


@pytest.mark.parametrize("args", [(8, 2.0, 0.3, 1), (8, 1.0, 0.5, 2), (8, 6.0, 0.1, 12)])
def test_prune_drops_the_lightest_weights(monkeypatch, args):
    # each step keeps the heaviest n_radii_max + ceil(excess / 2) means, in order
    design, fits = _trials(monkeypatch, args)
    for (means, weights), (kept, _) in zip(fits, fits[1:]):
        excess = _support(weights) - args[3]
        taken = np.isin(means, kept)
        assert np.array_equal(means[taken], kept)
        assert kept.size == args[3] + excess - max(1, excess // 2)
        assert weights[~taken].max() <= weights[taken].min()
    assert design.radii == tuple(np.sqrt(fits[-1][0][fits[-1][1] > decoy.WEIGHT_FLOOR]))


def test_large_n_max_design_refits_log_excess_times(monkeypatch):
    # n_max = 2048: the grid fit leaves 58 radii too many, which the one-at-a-time
    # prune would take 58 refits to remove; halving takes at most ceil(log2 58) + 1
    design, fits = _trials(monkeypatch, (8, 6.0, 0.1, 12))
    excess = _support(fits[0][1]) - 12
    assert design.n_max == 2048 and excess == 58
    assert len(fits) - 1 <= math.ceil(math.log2(excess)) + 1
    assert len(design.radii) == 12


def test_failing_refit_raises_the_highs_model_status(monkeypatch):
    # the first refit of the prune fails: the error is the fit's own
    message = "^decoy weight fit failed: HiGHS model status Model error$"
    with pytest.raises(RuntimeError, match=message):
        _trials(monkeypatch, (8, 2.0, 0.3, 12), lambda means: means.size < 1000)


BENCHMARK_DESIGNS = [(2, 0.5, 0.5), (8, 1.0, 0.5), (8, 2.0, 0.3)]


def _jittered(i):
    """The benchmark's op i at seed 5: its three designs, alpha jittered by up to 1%."""
    factors = np.random.default_rng([5, i]).uniform(0.99, 1.01, size=3)
    return [(d, float(alpha * factor), p)
            for (d, alpha, p), factor in zip(BENCHMARK_DESIGNS, factors)]


# (d, alpha, p, n_radii_max): the output matrix's designs, three jittered
# benchmark ops, and criterion 7's design just inside the POVM scale
ORACLE_DESIGNS = [
    *((d, alpha, p, 12) for d, alpha, p in [*BENCHMARK_DESIGNS, (4, 0.7, 0.2)]),
    (8, 1.0, 0.5, 2),
    *((d, alpha, p, 12) for i in range(3) for d, alpha, p in _jittered(i)),
    (2, 0.5, povm_scale(2, 0.5)[0] - 1e-9, 12),
]


@pytest.mark.parametrize("d, alpha, p, n_radii_max", ORACLE_DESIGNS)
def test_design_bits_equal_linprog_oracle(monkeypatch, d, alpha, p, n_radii_max):
    # the direct HiGHS fit must give the designs scipy's linprog gives, bit for bit
    design = optimize_decoy(d, alpha, p, n_radii_max=n_radii_max)
    monkeypatch.setattr(decoy, "_fit_weights", linprog_oracle.fit_weights)
    want = optimize_decoy(d, alpha, p, n_radii_max=n_radii_max)
    assert design.radii == want.radii
    assert design.weights == want.weights
    assert design.epsilon == want.epsilon
    assert design.n_max == want.n_max


def _use_cpus(monkeypatch, count):
    """Make the process report `count` usable CPUs, whichever way it asks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.mark.parametrize("d, alpha, p, n_radii_max", ORACLE_DESIGNS)
def test_design_does_not_depend_on_cpu_count(monkeypatch, d, alpha, p, n_radii_max):
    # the fits run one after another on the calling thread: the CPU count the
    # process reports changes neither the design nor the number of threads
    _use_cpus(monkeypatch, 1)
    one = optimize_decoy(d, alpha, p, n_radii_max=n_radii_max)
    _use_cpus(monkeypatch, 2)
    threads = threading.active_count()
    assert optimize_decoy(d, alpha, p, n_radii_max=n_radii_max) == one
    assert threading.active_count() == threads


# the private HiGHS API that decoy._fit_weights uses, and the HighsLp list path
# that test_array_pass_model_equals_the_list_path checks it against; "()" makes
# an instance
HIGHS_SYMBOLS = [
    "_Highs", "HighsLp", "HighsOptions", "kHighsInf", "MatrixFormat.kColwise",
    "ObjSense.kMinimize", "HighsStatus.kError", "HighsModelStatus.kOptimal",
    "HighsModelStatus.kModelError",
    *(f"HighsLp().{name}" for name in (
        "num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
        "row_upper_")),
    *(f"HighsLp().a_matrix_.{name}" for name in (
        "num_col_", "num_row_", "format_", "start_", "index_", "value_")),
    *(f"HighsOptions().{name}" for name in (
        "presolve", "output_flag", "log_to_console", "highs_debug_level",
        "simplex_strategy")),
    *(f"_Highs().{name}" for name in (
        "passOptions", "passModel", "run", "getModelStatus", "modelStatusToString")),
    "_Highs().getSolution().col_value", "_Highs().getInfo().objective_function_value",
]


@pytest.mark.parametrize("symbol", HIGHS_SYMBOLS)
def test_private_highs_surface_is_present(symbol):
    # a scipy release that renames or drops one of these fails here, naming it
    from scipy.optimize._highspy import _core

    owner = _core
    for part in symbol.split("."):
        name = part.removesuffix("()")
        assert hasattr(owner, name), f"scipy.optimize._highspy._core.{symbol}: no {name!r}"
        owner = getattr(owner, name)() if part.endswith("()") else getattr(owner, name)


def test_array_pass_model_takes_the_fits_layout():
    # decoy._fit_weights' call: CSC starts without the trailing nnz, a full
    # all-zero integrality array; minimize x0 + 2 x1 subject to x0 + x1 >= 1
    from scipy.optimize._highspy import _core

    highs = _core._Highs()
    options = _core.HighsOptions()
    options.output_flag = False
    options.log_to_console = False
    highs.passOptions(options)
    status = highs.passModel(
        2, 1, 2, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
        np.array([1.0, 2.0]), np.zeros(2), np.full(2, _core.kHighsInf), np.array([1.0]),
        np.array([_core.kHighsInf]), np.array([0, 1], dtype=np.int32),
        np.array([0, 0], dtype=np.int32), np.array([1.0, 1.0]), np.zeros(2, dtype=np.int32))
    assert status == _core.HighsStatus.kOk
    highs.run()
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
    assert highs.getSolution().col_value == [1.0, 0.0]


def _list_path_fit(means, target, one_minus_p, n_max):
    """_fit_weights' LP passed as HighsLp fields: start with its trailing nnz, lists."""
    from scipy.optimize._highspy import _core

    (n_col, n_row, nnz, matrix_format, _, _, cost, col_lower, col_upper, row_lower,
     row_upper, start, index, value, _) = decoy._lp_model(
        _core, one_minus_p * decoy._poisson_table(means, n_max), target)
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_col
    lp.num_row_ = lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = matrix_format
    lp.a_matrix_.start_ = [*start.tolist(), nnz]
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = value.tolist()
    lp.col_cost_ = cost
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    options = _core.HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = 0
    options.simplex_strategy = 1
    highs = _core._Highs()
    highs.passOptions(options)
    assert highs.passModel(lp) != _core.HighsStatus.kError
    highs.run()
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
    weights = np.array(highs.getSolution().col_value[:len(means)])
    return weights, float(highs.getInfo().objective_function_value)


def test_array_pass_model_equals_the_list_path(monkeypatch):
    # every fit of a three-fit design: the array overload gives the weights and
    # l1 that the same model passed as HighsLp fields gives, bit for bit
    fits = []

    def both(*args):
        got = _FIT_WEIGHTS(*args)
        fits.append((got, _list_path_fit(*args)))
        return got

    monkeypatch.setattr(decoy, "_fit_weights", both)
    optimize_decoy(8, 1.0, 0.5, n_radii_max=2)
    assert len(fits) == 3
    for (weights, l1), (want_weights, want_l1) in fits:
        assert weights.tobytes() == want_weights.tobytes()
        assert l1 == want_l1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_weights_names_the_highs_model_status(bad):
    # HiGHS refuses the model; the fit must not go on to solve an empty one
    message = "^decoy weight fit failed: HiGHS model status Model error$"
    with pytest.raises(RuntimeError, match=message):
        decoy._fit_weights(np.array([1.0]), np.array([bad, 0.0]), 0.5, 1)


def test_highs_options_take_linprogs_values():
    # decoy._fit_weights sets what linprog(method="highs") passes: presolve on,
    # no output, no debug checks, dual simplex
    from scipy.optimize._highspy import _core

    assert int(_core.HighsDebugLevel.kHighsDebugLevelNone) == 0
    assert int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual) == 1
    options = _core.HighsOptions()
    want = {"presolve": "on", "output_flag": False, "log_to_console": False,
            "highs_debug_level": 0, "simplex_strategy": 1}
    for name, value in want.items():
        setattr(options, name, value)
        assert getattr(options, name) == value, name


def test_optimize_decoy_input_validation():
    with pytest.raises(ValueError):
        optimize_decoy(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        optimize_decoy(2, -0.5, 0.1)
    with pytest.raises(ValueError):
        optimize_decoy(2, 0.5, 1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_max": 64.5}, "n_max must be an integer, got 64.5"),
    ({"n_max": math.nan}, "n_max must be an integer, got nan"),
    ({"n_radii_max": 2.5}, "n_radii_max must be an integer, got 2.5"),
], ids=["n_max", "n_max_nan", "n_radii_max"])
def test_optimize_decoy_refuses_fractional_counts(kwargs, message):
    # a float n_max used to give a design that its own file could not hold
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        optimize_decoy(2, 0.5, 0.5, **kwargs)


@pytest.mark.parametrize("d", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("call", [
    f_dist, g_dist, povm_scale, lambda d, alpha: optimize_decoy(d, alpha, 0.5),
], ids=["f_dist", "g_dist", "povm_scale", "optimize_decoy"])
def test_entry_points_refuse_a_non_integer_d(call, d):
    # optimize_decoy(2.0, 0.5, 0.5) used to return a design that saved 'd 2.0',
    # which its own load refused
    with pytest.raises(ValueError, match=f"^d must be an integer, got {d!r}$"):
        call(d, 0.5)


def test_design_refuses_a_non_integer_d():
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.0$"):
        DecoyDesign(2.0, 0.5, 0.5, radii=(1.0,), weights=(1.0,), epsilon=0.0, n_max=8)


def test_design_save_load_roundtrip(tmp_path):
    # numpy scalar inputs used to save as 'alpha np.float64(0.5)', which load refused
    for alpha, p in ((0.5, 0.5), (np.float64(0.5), np.float64(0.5))):
        design = optimize_decoy(2, alpha, p)
        path, again = tmp_path / "design.txt", tmp_path / "again.txt"
        design.save(path)
        loaded = DecoyDesign.load(path)
        assert loaded == design
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("radii, weights", [((-0.5,), (1.0,)), ((0.5, 1.0), (1.5, -0.5))],
                         ids=["radius", "weight"])
def test_design_refuses_a_negative_radius_or_weight(radii, weights):
    with pytest.raises(ValueError, match="^radii and weights must be nonnegative$"):
        DecoyDesign(2, 0.5, 0.5, radii=radii, weights=weights, epsilon=0.0, n_max=8)


def test_design_validation():
    with pytest.raises(ValueError):
        DecoyDesign(2, 0.5, 0.5, radii=(1.0,), weights=(0.9,), epsilon=0.0, n_max=8)
    with pytest.raises(ValueError):
        DecoyDesign(2, 0.5, 0.5, radii=(), weights=(), epsilon=0.0, n_max=8)
    with pytest.raises(ValueError):
        DecoyDesign(2, 0.5, 0.5, radii=(1.0,), weights=(1.0,), epsilon=-1.0, n_max=8)


@pytest.mark.parametrize("good_line, bad_line, message", [
    ("d 2", "d 3", "d must be one of (2, 4, 8), got 3"),
    ("alpha 0.5", "alpha -1.0", "alpha must be finite and positive, got -1.0"),
    ("p 0.5", "p 1.5", "key fraction p must lie in [0, 1), got 1.5"),
    ("n_max 8", "n_max -5", "n_max must be at least 1, got -5"),
], ids=["d", "alpha", "p", "n_max"])
def test_design_load_refuses_out_of_range_fields(tmp_path, good_line, bad_line, message):
    # the same bounds and messages as optimize_decoy
    path = tmp_path / "design.txt"
    good = "d 2\nalpha 0.5\np 0.5\nepsilon 0.0\nn_max 8\n0.3,1.0\n"
    path.write_text(good.replace(good_line, bad_line))
    with pytest.raises(ValueError) as exc_info:
        DecoyDesign.load(path)
    assert str(exc_info.value) == f"{path}: {message}"


def test_design_load_bad_value_names_key(tmp_path):
    path = tmp_path / "design.txt"
    path.write_text("# cvqkd decoy design v1\nd 2\nalpha half\np 0.5\nepsilon 0.0\n"
                    "n_max 8\n0.3,1.0\n")
    with pytest.raises(ValueError) as exc_info:
        DecoyDesign.load(path)
    assert str(exc_info.value) == (
        f"{path}:3: bad value for 'alpha': could not convert string to float: 'half'"
    )


def test_design_load_non_utf8_names_line(tmp_path):
    path = tmp_path / "design.txt"
    path.write_bytes(b"# cvqkd decoy design v1\nd 2\nalpha 0.5\xff\np 0.5\nepsilon 0.0\n"
                     b"n_max 8\n0.3,1.0\n")
    with pytest.raises(ValueError) as exc_info:
        DecoyDesign.load(path)
    assert str(exc_info.value) == (
        f"{path}:3: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"
    )


def test_design_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.txt"
    good = "d 2\nalpha 0.5\np 0.5\nepsilon 0.0\nn_max 8\n0.3,1.0\n"
    cases = [
        ("d 2\nalpha 0.5\n0.3,1.0\n", "missing"),
        (good.replace("0.3,1.0\n", ""), "missing ['radius,weight']"),
        (good.replace("alpha 0.5", "alpha nan"), "alpha must be finite"),
        (good.replace("epsilon 0.0", "epsilon nan"), "epsilon must be finite"),
        (good.replace("0.3,1.0", "0.3,nan"), "weights must be finite"),
        (good + "d 4\n", "broken.txt:7: duplicate key 'd'"),
        (good + "mystery 1\n", "broken.txt:7: unknown key 'mystery'"),
        (good.replace("n_max 8", "n_max"), "broken.txt:5: expected 'key value'"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            DecoyDesign.load(path)
