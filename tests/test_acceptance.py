"""Acceptance gate: one test per criterion, each printed pass/fail at the end."""

import math
import time

import numpy as np
import pytest
from scipy import stats

from cvqkd import reconciliation, security
from cvqkd.channel import ChannelParams, distance_to_T
from cvqkd.decoy import InfeasibleDecoyError, optimize_decoy, p_succ, povm_scale
from cvqkd.modulation import sample_sphere_blocks
from cvqkd.protocol import ProtocolConfig, estimation_std, run_session, save_transcript

from fock_oracle import four_state_density, purified_correlation, sphere_schmidt_correlation
from orthogonal_oracle import dense_matrix
from session_oracle import sample_orthogonal


def test_criterion_01_z_correlation_oracles():
    start = time.perf_counter()
    for v_a in (0.1, 0.3, 0.5, 1.0):
        alpha = math.sqrt(v_a / 2.0)
        dense_z1 = purified_correlation(four_state_density(alpha, 40))
        assert abs(security.z1(v_a) - dense_z1) <= 1e-8
        dense_z8 = sphere_schmidt_correlation(8, v_a, 40)
        assert abs(security.z_sphere(8, v_a) - dense_z8) <= 1e-8
    for v_a in np.linspace(0.03, 3.0, 100):
        low = security.z1(v_a)
        mid = security.z_sphere(8, v_a)
        high = security.z_epr(v_a)
        assert low < mid < high
    assert time.perf_counter() - start < 10.0


def test_criterion_02_small_alpha_limit():
    alpha = 0.01
    z = security.z1(2.0 * alpha * alpha)
    assert abs(z / (2.0 * alpha) - 1.0) <= 1e-3


def test_criterion_03_equivalent_channel_identity():
    start = time.perf_counter()
    for d, detection in ((1, "homodyne"), (8, "heterodyne")):
        for t in np.linspace(0.05, 0.95, 5):
            for v_a in np.linspace(0.2, 2.0, 5):
                for xi in (0.0, 0.01):
                    g_key = security.gamma_after_channel(
                        security.gamma_key0(d, v_a), t, xi
                    )
                    f_factor, delta_xi = security.equivalent_excess_noise(d, v_a)
                    g_equiv = security.gamma_after_channel(
                        security.gamma_key0(math.inf, v_a),
                        t / f_factor,
                        f_factor * xi + delta_xi,
                    )
                    chi_key = security.holevo_bound(g_key, detection)
                    chi_equiv = security.holevo_bound(g_equiv, detection)
                    assert abs(chi_key - chi_equiv) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_04_entanglement_breaking_noise():
    for d, detection in ((1, "homodyne"), (8, "heterodyne")):
        for v_a in (0.2, 0.5, 1.0, 2.0, 3.0):
            for t in (0.05, 0.25, 0.5, 0.75, 1.0):
                for xi in (1.0, 1.5, 2.0):
                    for beta in (0.95, 1.0):
                        params = ChannelParams(t=t, xi=xi, detection=detection)
                        report = security.secret_key_rate(d, v_a, params, beta)
                        assert report.k <= 1e-12, (
                            f"K={report.k} > 0 at d={d}, V_A={v_a}, T={t}, xi={xi}"
                        )


def test_criterion_05_operating_points():
    start = time.perf_counter()
    t50 = distance_to_T(50.0)
    rates = {}
    for d, detection, window in ((1, "homodyne", (0.3, 0.1)),
                                 (8, "heterodyne", (0.7, 0.15))):
        params = ChannelParams(t=t50, xi=0.005, eta=0.6, detection=detection)
        v_star = security.optimize_va(d, params, 0.8, (0.05, 3.0))
        center, radius = window
        assert abs(v_star - center) <= radius, (
            f"optimal V_A for d={d} is {v_star:.4f}, outside {center} +/- {radius}"
        )
        rates[d] = security.secret_key_rate(d, v_star, params, 0.8).k
    ratio = rates[8] / rates[1]
    assert time.perf_counter() - start < 30.0
    assert ratio >= 5.0, (
        f"K(d=8)/K(d=1) at 50 km is {ratio:.3f} "
        f"(K8={rates[8]:.6f}, K1={rates[1]:.6f}); the ratio first reaches 5 "
        "only near 110 km under this detector model"
    )


def test_criterion_06_virtual_channel_normality():
    start = time.perf_counter()
    sigma2 = 0.5
    n_blocks = 10**5
    rng = np.random.default_rng(20260814)
    for d in (1, 2, 4, 8):
        x = sample_sphere_blocks(d, 1.0, n_blocks, rng)
        y = x + math.sqrt(sigma2) * rng.standard_normal(x.shape)
        u, t = reconciliation.bob_reduce(y, rng)
        v = reconciliation.alice_reduce(x, t)
        w = v - u
        for j in range(d):
            p_value = stats.kstest(w[:, j], "norm", args=(0.0, math.sqrt(sigma2))).pvalue
            assert p_value >= 0.01, f"KS p={p_value:.4g} at d={d}, coordinate {j}"
        assert abs(float(np.var(w)) / sigma2 - 1.0) <= 0.02
        bound = 4.0 / math.sqrt(n_blocks)
        for j in range(d):
            for k in range(d):
                corr = np.corrcoef(u[:, j], w[:, k])[0, 1]
                assert abs(corr) < bound
    assert time.perf_counter() - start < 60.0


def test_criterion_07_decoy_optimization():
    start = time.perf_counter()
    design = optimize_decoy(2, 0.5, 0.5)
    assert design.epsilon <= 1e-4
    assert len(design.radii) <= 12
    pi_d, _ = povm_scale(2, 0.5)
    assert optimize_decoy(2, 0.5, pi_d - 1e-9).epsilon < 1.0
    with pytest.raises(InfeasibleDecoyError):
        optimize_decoy(2, 0.5, pi_d + 1e-9)
    assert time.perf_counter() - start < 30.0


def test_criterion_08_povm_probabilities():
    assert p_succ(1, 1.0) == 0.25
    for alpha in (0.25, 0.5, 1.0):
        values = [p_succ(1, alpha)]
        for d in (2, 4, 8):
            # povm_scale certifies the brute-force minimum is bracketed
            pi_d, k_star = povm_scale(d, alpha)
            assert 0.0 < pi_d <= 1.0
            values.append(pi_d)
        assert values == sorted(values)


def test_criterion_09_end_to_end_session(tmp_path):
    start = time.perf_counter()
    design = optimize_decoy(8, 1.0, 0.5)
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=10**6,
        flow="decoy",
        channel=ChannelParams(t=0.5, xi=0.005, detection="heterodyne"),
        p_est=0.5,
        p=0.5,
        decoy=design,
        seed=2026,
        code="rep16",
    )
    first = run_session(config)
    std_t, std_xi = estimation_std(0.5, 0.005, 2.0, first.n_est_samples, "heterodyne")
    assert abs(first.t_hat - 0.5) <= 3 * std_t
    assert abs(first.xi_hat - 0.005) <= 3 * std_xi
    assert float(np.mean(first.reconcile_result.frame_success)) >= 0.99
    expected_bits = first.report.k * first.n_key_modes
    assert abs(first.alice_bits.size - expected_bits) <= 0.1 * expected_bits

    second = run_session(config)
    save_transcript(first, tmp_path / "run1")
    save_transcript(second, tmp_path / "run2")
    for name in ("manifest.txt", "symbols.csv", "outcomes.csv", "transform.bin",
                 "alice_key.txt", "bob_key.txt"):
        assert (tmp_path / "run1" / name).read_bytes() == (
            tmp_path / "run2" / name
        ).read_bytes(), f"rerun differs in {name}"
    assert time.perf_counter() - start < 300.0


def test_criterion_10_symmetrization():
    rng = np.random.default_rng(7)
    transform = sample_orthogonal(16, 16, rng)
    r = dense_matrix(transform)
    assert np.max(np.abs(r.T @ r - np.eye(16))) <= 1e-10

    x = rng.normal(0.0, 1.0, size=4096)
    y = 0.8 * x + 0.3 * rng.standard_normal(4096)
    blocks_x = x.reshape(-1, 16)
    blocks_y = y.reshape(-1, 16)
    x_sym = np.array([transform.apply(row) for row in blocks_x]).reshape(-1)
    y_sym = np.array([transform.apply(row) for row in blocks_y]).reshape(-1)
    assert abs(np.mean(x * x) - np.mean(x_sym * x_sym)) <= 1e-9
    assert abs(np.mean(y * y) - np.mean(y_sym * y_sym)) <= 1e-9
    assert abs(np.mean(x * y) - np.mean(x_sym * y_sym)) <= 1e-9

    # k = n sampling: the image of e1 must be uniform on the sphere, so its
    # first coordinate mapped through (c+1)/2 follows Beta((n-1)/2, (n-1)/2)
    draw_rng = np.random.default_rng(0)
    e1 = np.zeros(16)
    e1[0] = 1.0
    coords = np.array([
        sample_orthogonal(16, 16, draw_rng).apply(e1)[0] for _ in range(2000)
    ])
    p_value = stats.kstest(
        (coords + 1.0) / 2.0, stats.beta(7.5, 7.5).cdf
    ).pvalue
    assert p_value >= 0.01
