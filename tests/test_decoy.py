"""Photon-number laws, POVM scale probabilities, and decoy-mixture design."""

import math
import re

import numpy as np
import pytest
from scipy import stats

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
        assert np.array_equal(decoy.pdtrc(tail_at, mu), stats.poisson.sf(tail_at, mu)), alpha
        assert np.array_equal(decoy._ufuncs._nbinom_sf(tail_at, m, p_nb),
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


@pytest.mark.parametrize("args, solves", [((8, 1.0, 0.5), 56), ((2, 0.5, 0.5), 86)])
def test_descent_stops_at_its_fixed_point(monkeypatch, args, solves):
    # 2 fits, then 6 trial factors per radius and pass: (8, 1, 0.5) keeps 9 radii
    # and its first pass accepts nothing; (2, 0.5, 0.5) runs both passes on 7
    from scipy import optimize

    calls = []
    linprog = optimize.linprog

    def counting(*a, **kw):
        calls.append(1)
        return linprog(*a, **kw)

    monkeypatch.setattr(optimize, "linprog", counting)
    optimize_decoy(*args)
    assert len(calls) == solves


def test_optimize_decoy_input_validation():
    with pytest.raises(ValueError):
        optimize_decoy(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        optimize_decoy(2, -0.5, 0.1)
    with pytest.raises(ValueError):
        optimize_decoy(2, 0.5, 1.0)


def test_design_save_load_roundtrip(tmp_path):
    design = optimize_decoy(2, 0.5, 0.5)
    path = tmp_path / "design.txt"
    design.save(path)
    loaded = DecoyDesign.load(path)
    assert loaded == design


def test_design_validation():
    with pytest.raises(ValueError):
        DecoyDesign(2, 0.5, 0.5, radii=(1.0,), weights=(0.9,), epsilon=0.0, n_max=8)
    with pytest.raises(ValueError):
        DecoyDesign(2, 0.5, 0.5, radii=(), weights=(), epsilon=0.0, n_max=8)
    with pytest.raises(ValueError):
        DecoyDesign(2, 0.5, 0.5, radii=(1.0,), weights=(1.0,), epsilon=-1.0, n_max=8)


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
