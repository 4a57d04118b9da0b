"""Correlation formulas, covariance machinery, Holevo bound, and key rates.

The closed forms are checked against the dense Fock-space oracles in
fock_oracle.py, which were written first and validated on the thermal state
where the answer sqrt(V_A^2 + 2 V_A) is known independently.
"""

import decimal
import hashlib
import math
import re
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fock_oracle as oracle
from conftest import PROPERTY
from cvqkd import security as sec
from cvqkd.channel import ChannelParams, distance_to_T


def test_z_epr_values():
    # the vacuum V_A = 0 is the one value below positive that z_epr admits
    assert sec.z_epr(0.0) == 0.0
    assert abs(sec.z_epr(3.0) - math.sqrt(15.0)) < 1e-15
    assert np.array_equal(sec.z_epr(np.array([0.0, 3.0])), [0.0, math.sqrt(15.0)])
    with pytest.raises(ValueError, match=r"^modulation variance v_a must be finite and positive, got -0\.1$"):
        sec.z_epr(np.array([0.0, -0.1]))


def test_z_epr_small_alpha_expansion():
    alpha = 1e-4
    v_a = 2 * alpha**2
    assert abs(sec.z_epr(v_a) - 2 * alpha) < 4 * alpha**3


def test_purification_oracle_reproduces_epr():
    # Validates the Tr[M X M X] machinery on the one case with a known answer.
    for v_a in (0.1, 0.5, 1.0, 2.0):
        got = oracle.thermal_correlation(v_a, 120)
        assert abs(got - sec.z_epr(v_a)) < 1e-10


def test_lambda_coeffs_sum_to_one():
    for alpha in (0.01, 0.3, 0.7, 1.0, 1.5):
        lam = sec.lambda_coeffs(alpha)
        assert all(v >= 0 for v in lam)
        assert abs(sum(lam) - 1.0) < 1e-14


def test_lambda_coeffs_vacuum_limit():
    lam = sec.lambda_coeffs(1e-3)
    assert lam[0] > 1 - 3e-6
    assert max(lam[1:]) < 2e-6


def test_lambda_coeffs_match_fock_eigenvalues():
    lam = sorted(sec.lambda_coeffs(1.0))
    vals = sorted(np.linalg.eigvalsh(oracle.four_state_density(1.0, 40)))[-4:]
    assert np.max(np.abs(np.array(lam) - np.array(vals))) < 1e-10


def test_series_switch_is_seamless():
    # the small-x series and the direct evaluation must agree at the boundary
    for x in (0.49, 0.5, 0.51):
        assert abs(sec._cosh_minus_cos(x) - (math.cosh(x) - math.cos(x))) < 1e-15
        assert abs(sec._sinh_minus_sin(x) - (math.sinh(x) - math.sin(x))) < 1e-16


def test_z1_against_fock_oracle():
    for v_a in (0.1, 0.3, 0.5, 1.0):
        alpha = math.sqrt(v_a / 2.0)
        got = oracle.purified_correlation(oracle.four_state_density(alpha, 40))
        assert abs(sec.z1(v_a) - got) < 1e-8


def test_z1_small_alpha_limit():
    alpha = 0.01
    assert abs(sec.z1(2 * alpha**2) / (2 * alpha) - 1.0) < 1e-3


def test_z1_below_epr():
    for v_a in np.linspace(0.03, 3.0, 100):
        assert 0.0 < sec.z1(v_a) < sec.z_epr(v_a)


def test_z1_requires_positive_variance():
    with pytest.raises(ValueError):
        sec.z1(0.0)


def test_z2_against_dense_circle_oracle():
    for v_a in (0.1, 0.5, 1.0):
        alpha = math.sqrt(v_a / 2.0)
        got = oracle.purified_correlation(oracle.circle_density(alpha, 40))
        assert abs(sec.z_sphere(2, v_a) - got) < 1e-10


def test_z2_printed_series():
    # Z_2 = 2 e^{-a^2} sum_k a^{2k+1} sqrt(k+1) / k!
    for v_a in (0.2, 0.8, 1.6):
        alpha = math.sqrt(v_a / 2.0)
        total = sum(
            alpha ** (2 * k + 1) * math.sqrt(k + 1.0) / math.factorial(k)
            for k in range(80)
        )
        want = 2.0 * math.exp(-(alpha**2)) * total
        assert abs(sec.z_sphere(2, v_a) - want) < 1e-12


def test_z8_matches_generic_sphere_form():
    for v_a in np.linspace(0.05, 4.0, 40):
        assert abs(oracle.z8_printed_series(v_a) - sec.z_sphere(8, v_a)) < 1e-12


def test_z_sphere_matches_recurrence_oracle():
    for d in (2, 4, 8):
        for v_a in np.geomspace(1e-3, 300.0, 60):
            want = oracle.z_sphere_series(d, v_a)
            assert abs(sec.z_sphere(d, v_a) - want) <= 1e-13 * want


def test_z1_matches_undamped_oracle():
    for v_a in np.geomspace(1e-3, 20.0, 60):
        want = oracle.z1_direct(v_a)
        assert abs(sec.z1(v_a) - want) <= 1e-14 * want


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_z_finite_and_below_epr_at_any_va(d):
    # the regression points once gave 0.0 (d=2, 8), OverflowError (d=1)
    # or a division by zero in the key rate
    v_a = np.concatenate([np.geomspace(1e-6, 1e5, 111), [1000.0, 1500.0, 2000.0, 1e4]])
    z = sec.z_correlation(d, v_a)
    assert np.all(np.isfinite(z)) and np.all(z > 0)
    assert np.all(z < sec.z_epr(v_a))
    for v in v_a[-4:]:
        assert 0.0 < sec.z_correlation(d, float(v)) < sec.z_epr(float(v))
    # far below 1e-6 the four correlations agree to rounding; lambda_3 of
    # the four-state mixture underflows there
    for v in (1e-120, 1e-200, 1e-300):
        assert 0.0 < sec.z_correlation(d, v) <= sec.z_epr(v) * (1.0 + 1e-15)
    # up to where V_A (V_A + 2) in Z_EPR would overflow
    wide = np.geomspace(1e-300, 1e150, 901)
    z = sec.z_correlation(d, wide)
    assert np.all(np.isfinite(z)) and np.all(z > 0)
    assert np.all(z <= sec.z_epr(wide) * (1.0 + 1e-15))
    det = "homodyne" if d == 1 else "heterodyne"
    report = sec.secret_key_rate(d, 1000.0, ChannelParams(t=0.5, xi=0.005, detection=det), 0.9)
    assert all(math.isfinite(getattr(report, f.name)) for f in fields(report) if f.name != "detection")


def _nu2_decimal(a, b, c):
    """nu2 from the Delta/D invariants, in 50-digit arithmetic on the float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, c = (decimal.Decimal(float(x)) for x in (a, b, c))
        delta = a * a + b * b - 2 * c * c
        det = a * b - c * c
        return float(((delta - (delta * delta - 4 * det * det).sqrt()) / 2).sqrt())


@pytest.mark.parametrize("t", [0.01, 0.5])
@pytest.mark.parametrize("d", [1, 8, math.inf])
def test_nu2_matches_decimal_oracle(d, t):
    # the double-precision difference form lost up to 2e-2 of nu2 by V_A = 1e8
    for v_a in (1.0, 1e3, 1e5, 1e8):
        g = sec.gamma_after_channel(sec.gamma_key0(d, v_a), t, 0.01)
        want = _nu2_decimal(g.a, g.b, g.c)
        assert abs(g.symplectic_eigenvalues()[1] - want) <= 1e-7 * want


@pytest.mark.parametrize("d, detection", [(1, "homodyne"), (math.inf, "heterodyne")])
def test_key_rate_finite_at_huge_va(d, detection):
    # these once raised "unphysical covariance matrix" through a cancelling nu2
    params = ChannelParams(t=0.5, xi=0.01, detection=detection)
    report = sec.secret_key_rate(d, np.array([1e9, 1e10, 1e12]), params, 0.95)
    assert np.all(np.isfinite(report.k)) and np.all(np.isfinite(report.chi_be))


def test_z_sphere_chunks_do_not_change_values(monkeypatch):
    v_a = np.geomspace(0.01, 50.0, 40).reshape(5, 8)
    whole = sec.z_sphere(4, v_a)
    monkeypatch.setattr(sec, "CHUNK_NODES", 100)
    assert np.array_equal(sec.z_sphere(4, v_a), whole)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_z_sphere_chunks_keep_tied_mode_weights(monkeypatch, d):
    # integer Poisson means put two equal log weights at the mode; chunks of
    # one point still sum each window whole, and series points need none
    v_a = np.concatenate([np.geomspace(1e-3, 1e6, 30), 2.0 * np.arange(1, 6) / (d // 2)])
    whole = sec.z_sphere(d, v_a)
    for chunk in (7, 64):
        monkeypatch.setattr(sec, "CHUNK_NODES", chunk)
        assert np.array_equal(sec.z_sphere(d, v_a), whole)


def test_z_sphere_mixed_windows_equal_scalar_calls(monkeypatch):
    # d = 8 windows of 41 to about 1,900 terms, either side of CHUNK_NODES
    v_a = np.array([0.5, 3e3, 7.0, 1e3, 1e-3, 2e2])
    want = [sec.z_sphere(8, float(v)) for v in v_a]
    monkeypatch.setattr(sec, "CHUNK_NODES", 100)
    assert np.array_equal(sec.z_sphere(8, v_a), want)


# sha256 of z_sphere(d, v_a).tobytes() in the test below, recorded before
# z_sphere took the large-mean series from SERIES_MU up
WINDOW_BITS = {
    2: "2ecdb2c55ba2f75cdd3885f3aec758195dc59ec76cc7ae6f316dba996756786b",
    4: "30284c0a910dc5b4ffa8059a033a83717f7a0dcf415d5315d00048bb453e6d8e",
    8: "5fd5f51577da21a72217bca9f82259c0ba7159c92546a5ef41f896e0f0bdabe3",
}


@pytest.mark.parametrize("d", [2, 4, 8])
def test_z_sphere_window_reproduces_recorded_bits(d):
    # Poisson means up to 0.99 SERIES_MU, plus the keyrate and output-matrix range
    v_a = np.concatenate([np.geomspace(1e-6, 0.99 * 2e4 / (d // 2), 400), np.linspace(0.05, 18.0, 200)])
    assert hashlib.sha256(sec.z_sphere(d, v_a).tobytes()).hexdigest() == WINDOW_BITS[d]


@pytest.mark.parametrize("d", [2, 4, 8])
def test_z_sphere_matches_decimal_oracle(d):
    m = d // 2
    for mu in (1e4, 1e5, 1e6):
        want = oracle.z_sphere_decimal(d, 2.0 * mu / m)
        assert abs(decimal.Decimal(sec.z_sphere(d, 2.0 * mu / m)) - want) <= decimal.Decimal("4e-16") * want
    # just below SERIES_MU the window's log weights are about mu ln mu = 9.2e4,
    # whose rounding costs it up to 4.7e-15 (21 ulp) at d = 8
    for mu in (sec.SERIES_MU - 0.5, np.nextafter(sec.SERIES_MU, 0.0)):
        want = oracle.z_sphere_decimal(d, 2.0 * mu / m)
        assert abs(decimal.Decimal(sec.z_sphere(d, 2.0 * mu / m)) - want) <= decimal.Decimal("1e-14") * want


@pytest.mark.parametrize("d", [2, 4, 8])
def test_z_sphere_large_va_expansion(d):
    # Z_d - V_A = 1 - 1/(4m) + (3/8 - 7/(64m) - m/4) / mu + O(mu^-2), mu = m V_A / 2;
    # the mu^-1 term is 2,800 spacings of Z_8 at V_A = 1e6 and under one from 1e8
    m = d // 2
    v_a = np.geomspace(1e6, 1e300, 1001)
    z = sec.z_sphere(d, v_a)
    limit = 1.0 - 1.0 / (4 * m) + (3.0 / 8.0 - 7.0 / (64 * m) - m / 4.0) / (m * v_a / 2.0)
    assert np.all(np.abs((z - v_a) - limit) <= 4.0 * np.spacing(z))


def test_z_sphere_huge_va_is_fast():
    # the window once took about 26 s at V_A = 1e14, growing as sqrt(V_A)
    for v_a in (1e14, 1e30, 1e300):
        start = time.perf_counter()
        sec.z_sphere(8, v_a)
        assert time.perf_counter() - start < 1.0


def test_z8_against_schmidt_oracle():
    for v_a in (0.1, 0.3, 0.5, 1.0):
        got = oracle.sphere_schmidt_correlation(8, v_a, 40)
        assert abs(sec.z_sphere(8, v_a) - got) < 1e-10


def test_z8_small_alpha_limit():
    alpha = 0.01
    assert abs(sec.z_sphere(8, 2 * alpha**2) / (2 * alpha) - 1.0) < 1e-3


def test_correlation_ordering_in_dimension():
    for v_a in np.linspace(0.05, 3.0, 60):
        z1 = sec.z1(v_a)
        z2 = sec.z_sphere(2, v_a)
        z4 = sec.z_sphere(4, v_a)
        z8 = sec.z_sphere(8, v_a)
        zinf = sec.z_epr(v_a)
        assert z1 < z2 < z4 < z8 < zinf


def test_zd_numeric_matches_closed_forms():
    for d in (2, 4, 8):
        for v_a in (0.2, 0.7, 1.4):
            assert abs(oracle.zd_numeric(d, v_a) - sec.z_sphere(d, v_a)) < 1e-10


def test_zd_numeric_truncation_flagged():
    with pytest.raises(ValueError):
        oracle.zd_numeric(4, 2.0, n_max=3)
    with pytest.raises(ValueError):
        oracle.zd_numeric(3, 1.0)


def test_gamma_key0():
    g = sec.gamma_key0(8, 0.5)
    assert g.a == g.b == 1.5
    assert abs(g.c - sec.z_sphere(8, 0.5)) < 1e-15
    vac = sec.gamma_key0(math.inf, 0.0)
    assert (vac.a, vac.b, vac.c) == (1.0, 1.0, 0.0)


def test_gamma_key0_physical_sweep():
    for d in (1, 2, 4, 8, math.inf):
        for v_a in np.linspace(0.05, 5.0, 25):
            assert sec.gamma_key0(d, v_a).is_physical()


def test_gamma_after_channel():
    g0 = sec.gamma_key0(math.inf, 0.7)
    same = sec.gamma_after_channel(g0, 1.0, 0.0)
    assert (same.a, same.b, same.c) == (g0.a, g0.b, g0.c)
    g = sec.gamma_after_channel(g0, 0.1, 0.01)
    assert abs(g.b - 1.071) < 1e-15
    assert abs(g.c - math.sqrt(0.1) * g0.c) < 1e-15
    assert g.is_physical()


def test_gamma_after_channel_rejects_bad_params():
    g0 = sec.gamma_key0(math.inf, 0.7)
    with pytest.raises(ValueError):
        sec.gamma_after_channel(g0, 1.2, 0.0)
    with pytest.raises(ValueError):
        sec.gamma_after_channel(g0, 0.5, -0.01)


@pytest.mark.parametrize("v_a", [math.nan, math.inf, 0.0, -1.0, -5e-324])
def test_secret_key_rate_rejects_bad_v_a(v_a):
    params = ChannelParams(t=0.5, xi=0.01)
    want = f"modulation variance v_a must be finite and positive, got {v_a}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        sec.secret_key_rate(8, v_a, params, 0.9)


# every path that takes V_A, each with the one boundary of _positive_variance
_VA_PATHS = {
    "z1": sec.z1,
    "z_epr": sec.z_epr,
    **{f"z_sphere_{d}": (lambda v, d=d: sec.z_sphere(d, v)) for d in (2, 4, 8)},
    **{f"z_correlation_{d}": (lambda v, d=d: sec.z_correlation(d, v))
       for d in (1, 2, 4, 8, math.inf)},
    "secret_key_rate": lambda v: sec.secret_key_rate(8, v, ChannelParams(t=0.5, xi=0.01), 0.9),
}


# 5e-324 is the smallest subnormal: a V_A below sys.float_info.min has lost its digits
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v_a, rule", [
    (math.inf, "finite and positive"), (-math.inf, "finite and positive"),
    (math.nan, "finite and positive"), (5e-324, "a normal float"), (1e-310, "a normal float"),
], ids=["inf", "-inf", "nan", "5e-324", "1e-310"])
@pytest.mark.parametrize("path", sorted(_VA_PATHS))
def test_non_finite_v_a_is_refused_naming_v_a(path, v_a, rule):
    want = f"modulation variance v_a must be {rule}, got {v_a}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        _VA_PATHS[path](v_a)
    # in a batch the error names the first V_A refused
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        _VA_PATHS[path](np.array([1.0, v_a, -1.0]))


@pytest.mark.filterwarnings("error")
def test_smallest_normal_v_a_is_accepted():
    # Z_d and Z_EPR agree to rounding this far down, so Z_d may sit one ulp above
    v_a = sys.float_info.min
    for d in (1, 2, 4, 8, math.inf):
        assert 0.0 < sec.z_correlation(d, v_a) <= math.nextafter(sec.z_epr(v_a), math.inf)


@pytest.mark.filterwarnings("error")
def test_z_sphere_refuses_only_an_overflowing_poisson_mean():
    # mu = 2 V_A at d = 8 fits a float up to V_A of about 8.99e307
    assert abs(sec.z_sphere(8, 5e307) - 5e307) <= math.ulp(5e307)
    assert all(math.isfinite(sec.z_sphere(d, 1.7e308)) for d in (2, 4))
    with pytest.raises(ValueError, match=r"^modulation variance v_a=1e\+308 puts the Poisson "
                       r"mean of d=8 past the largest float$"):
        sec.z_sphere(8, 1e308)


def test_covariance_validation():
    with pytest.raises(ValueError):
        sec.CovarianceMatrix2Mode(0.8, 1.0, 0.0)


def test_entropy_g():
    assert sec.entropy_g(0.0) == 0.0
    assert sec.entropy_g(-1e-12) == 0.0
    with pytest.raises(ValueError):
        sec.entropy_g(-0.1)
    xs = np.linspace(0.0, 6.0, 40)
    gs = [sec.entropy_g(x) for x in xs]
    diffs = np.diff(gs)
    assert np.all(diffs > 0)
    # G'' = -1 / (ln 2 * x (x+1)) < 0: increasing but concave
    assert np.all(np.diff(diffs) < 0)
    # direct formula spot check
    x = 1.7
    assert abs(sec.entropy_g(x) - ((x + 1) * math.log2(x + 1) - x * math.log2(x))) < 1e-15


def test_holevo_pure_state_is_zero():
    for v_a in (0.2, 0.7, 2.0):
        for det in ("homodyne", "heterodyne"):
            g = sec.gamma_key0(math.inf, v_a)
            assert abs(sec.holevo_bound(g, det)) < 1e-9


def test_holevo_uncorrelated_state():
    g = sec.CovarianceMatrix2Mode(1.4, 1.9, 0.0)
    want = sec.entropy_g((1.9 - 1.0) / 2.0)
    assert abs(sec.holevo_bound(g, "homodyne") - want) < 1e-12


def test_holevo_rejects_unphysical():
    bad = sec.CovarianceMatrix2Mode(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        sec.holevo_bound(bad, "homodyne")


def _count_solves(monkeypatch):
    calls = []
    solve = sec.CovarianceMatrix2Mode.symplectic_eigenvalues
    monkeypatch.setattr(sec.CovarianceMatrix2Mode, "symplectic_eigenvalues",
                        lambda self: calls.append(self) or solve(self))
    return calls


@pytest.mark.parametrize("eta_trusted", [False, True])
def test_holevo_bound_solves_its_matrix_once(monkeypatch, eta_trusted):
    g = sec.gamma_after_channel(sec.gamma_key0(8, 0.7), 0.3, 0.01)
    calls = _count_solves(monkeypatch)
    sec.holevo_bound(g, "heterodyne")
    assert calls == [g]
    # one solve checks the channel's output, one serves the Holevo bound
    calls.clear()
    p = ChannelParams(t=0.3, xi=0.01, eta=0.6, eta_trusted=eta_trusted)
    sec.secret_key_rate(8, np.array([0.5, 0.7]), p, 0.9)
    assert len(calls) == 2


@pytest.mark.parametrize("call, message", [
    (lambda: sec.z_sphere(3, 1.0), "d must be one of (2, 4, 8), got 3"),
    (lambda: sec.z_correlation(3, 1.0), "d must be 1, 2, 4, 8 or inf, got 3"),
    (lambda: sec.holevo_bound(sec.gamma_key0(8, 0.7), "direct"),
     "detection must be one of ('homodyne', 'heterodyne')"),
    (lambda: sec.secret_key_rate(8, 0.7, ChannelParams(t=0.5), 0.0),
     "reconciliation efficiency must lie in (0, 1], got 0.0"),
    (lambda: sec.secret_key_rate(8, 0.7, ChannelParams(t=0.5), 1.5),
     "reconciliation efficiency must lie in (0, 1], got 1.5"),
], ids=["z_sphere_d", "z_correlation_d", "holevo_detection", "beta_zero", "beta_above_one"])
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_equivalent_excess_noise():
    f, dxi = sec.equivalent_excess_noise(math.inf, 1.0)
    assert (f, dxi) == (1.0, 0.0)
    for v_a in np.linspace(0.1, 2.0, 20):
        f1, d1 = sec.equivalent_excess_noise(1, v_a)
        f8, d8 = sec.equivalent_excess_noise(8, v_a)
        assert f1 > f8 > 1.0
        assert d1 > d8 > 0.0
    # monotone in V_A over the tested range
    d1s = [sec.equivalent_excess_noise(1, v)[1] for v in np.linspace(0.1, 2.0, 20)]
    d8s = [sec.equivalent_excess_noise(8, v)[1] for v in np.linspace(0.1, 2.0, 20)]
    assert np.all(np.diff(d1s) > 0)
    assert np.all(np.diff(d8s) > 0)


def test_equivalent_excess_noise_vanishes_at_zero():
    assert sec.equivalent_excess_noise(1, 2e-6)[1] < 1e-8


def test_equivalent_channel_identity():
    # chi of the d-dimensional protocol equals chi of a Gaussian modulation
    # over the rescaled channel (T/F, F xi + (F-1) V_A); exact by algebra.
    for d in (1, 8):
        det = "homodyne" if d == 1 else "heterodyne"
        for t in (0.05, 0.3, 0.9):
            for v_a in (0.2, 0.7, 1.5):
                for xi in (0.0, 0.01):
                    f, dxi = sec.equivalent_excess_noise(d, v_a)
                    direct = sec.holevo_bound(
                        sec.gamma_after_channel(sec.gamma_key0(d, v_a), t, xi), det
                    )
                    equiv = sec.holevo_bound(
                        sec.gamma_after_channel(
                            sec.gamma_key0(math.inf, v_a), t / f, f * xi + dxi
                        ),
                        det,
                    )
                    assert abs(direct - equiv) < 1e-9


def test_mutual_information():
    p = ChannelParams(t=1.0, xi=0.0, detection="homodyne")
    assert abs(sec.mutual_information(p, 3.0) - 1.0) < 1e-15
    assert sec.mutual_information(p, 0.0) == 0.0
    het = ChannelParams(t=0.1, xi=0.01, detection="heterodyne")
    want = math.log2(1.0 + 0.07 / 2.001)
    assert abs(sec.mutual_information(het, 0.7) - want) < 1e-15
    hom = replace(het, detection="homodyne")
    assert abs(sec.mutual_information(hom, 3.0) - 0.5 * math.log2(1.0 + 0.3 / 1.001)) < 1e-15


def test_detection_pairing_enforced():
    hom = ChannelParams(t=0.5, detection="homodyne")
    het = ChannelParams(t=0.5, detection="heterodyne")
    with pytest.raises(ValueError):
        sec.secret_key_rate(8, 0.5, hom, 0.9)
    with pytest.raises(ValueError):
        sec.secret_key_rate(1, 0.5, het, 0.9)
    sec.secret_key_rate(math.inf, 0.5, hom, 0.9)
    sec.secret_key_rate(math.inf, 0.5, het, 0.9)


def test_key_rate_report_consistency():
    p = ChannelParams(t=0.2, xi=0.005, eta=0.6, detection="heterodyne")
    r = sec.secret_key_rate(8, 0.7, p, 0.8)
    assert r.k == 0.8 * r.i_ab - r.chi_be
    assert abs(r.f_factor - (r.z_epr / r.z_d) ** 2) < 1e-12
    assert abs(r.delta_xi - (r.f_factor - 1) * 0.7) < 1e-12
    assert r.t_eff == 0.12
    assert r.detection == "heterodyne"


def test_perfect_channel_has_positive_rate():
    p = ChannelParams(t=1.0, xi=0.0, detection="heterodyne")
    for v_a in (0.1, 0.5, 1.0, 3.0):
        assert sec.secret_key_rate(math.inf, v_a, p, 1.0).k > 0


def test_entanglement_breaking_noise_kills_rate():
    for d, det in ((1, "homodyne"), (8, "heterodyne"), (math.inf, "heterodyne")):
        for t in (0.1, 0.5, 1.0):
            for v_a in (0.3, 0.7, 2.0):
                p = ChannelParams(t=t, xi=1.0, detection=det)
                assert sec.secret_key_rate(d, v_a, p, 1.0).k <= 0


def test_rate_monotone_in_noise_and_efficiency():
    p0 = dict(t=0.2, eta=0.6, detection="heterodyne")
    rates = [
        sec.secret_key_rate(8, 0.7, ChannelParams(xi=xi, **p0), 0.9).k
        for xi in (0.0, 0.005, 0.02, 0.05)
    ]
    assert np.all(np.diff(rates) < 0)
    rates = [
        sec.secret_key_rate(8, 0.7, ChannelParams(xi=0.01, **p0), b).k
        for b in (0.6, 0.8, 1.0)
    ]
    assert np.all(np.diff(rates) > 0)


def test_trusted_eta_improves_rate():
    base = dict(t=0.2, xi=0.01, eta=0.6, detection="heterodyne")
    untrusted = sec.secret_key_rate(8, 0.7, ChannelParams(**base), 0.9)
    trusted = sec.secret_key_rate(
        8, 0.7, ChannelParams(eta_trusted=True, **base), 0.9
    )
    assert trusted.k > untrusted.k
    assert trusted.i_ab == untrusted.i_ab  # measured statistics identical
    unity = dict(base, eta=1.0)
    same1 = sec.secret_key_rate(8, 0.7, ChannelParams(**unity), 0.9)
    same2 = sec.secret_key_rate(8, 0.7, ChannelParams(eta_trusted=True, **unity), 0.9)
    assert same1.k == same2.k


def test_optimize_va_finds_interior_maximum():
    p = ChannelParams(t=0.1, xi=0.005, eta=0.6, detection="heterodyne")
    v_star = sec.optimize_va(8, p, 0.8, (0.05, 3.0))
    k_star = sec.secret_key_rate(8, v_star, p, 0.8).k
    for dv in (-0.05, 0.05):
        assert k_star >= sec.secret_key_rate(8, v_star + dv, p, 0.8).k - 1e-9


def test_optimize_va_monotone_case_returns_upper_edge():
    p = ChannelParams(t=1.0, xi=0.0, detection="heterodyne")
    v_star = sec.optimize_va(math.inf, p, 1.0, (0.1, 2.0))
    assert v_star > 2.0 - 5e-3


def test_optimize_va_rejects_empty_range():
    p = ChannelParams(t=0.5, detection="heterodyne")
    with pytest.raises(ValueError):
        sec.optimize_va(8, p, 0.9, (1.0, 1.0))


def _sweep_points(d, xi, eta_trusted, steps=41):
    """A channel batch over 0-100 km, and the same channels one at a time."""
    det = "homodyne" if d == 1 else "heterodyne"
    t = np.array([distance_to_T(km) for km in np.linspace(0.0, 100.0, steps)])
    batch = ChannelParams(t=t, xi=xi, eta=0.6, detection=det, eta_trusted=eta_trusted)
    return batch, [replace(batch, t=float(value)) for value in t]


@pytest.mark.parametrize("eta_trusted", [False, True])
@pytest.mark.parametrize("xi", [0.004, 0.006])
@pytest.mark.parametrize("d", [1, 2, 4, 8, math.inf])
def test_batched_optimize_va_equals_scalar_oracle(d, xi, eta_trusted):
    batch, points = _sweep_points(d, xi, eta_trusted)
    batched = sec.optimize_va(d, batch, 0.8, (0.05, 5.0))
    for p, v_star in zip(points, batched):
        want = oracle.golden_section_va(
            lambda v: sec.secret_key_rate(d, v, p, 0.8).k, (0.05, 5.0)
        )
        assert v_star == want
    assert sec.optimize_va(d, points[7], 0.8, (0.05, 5.0)) == batched[7]


@pytest.mark.parametrize("eta_trusted", [False, True])
@pytest.mark.parametrize("d", [1, 2, 4, 8, math.inf])
def test_batched_key_rate_matches_oracle(d, eta_trusted):
    batch, points = _sweep_points(d, 0.005, eta_trusted)
    v_a = np.linspace(0.05, 5.0, len(points))
    report = sec.secret_key_rate(d, v_a, batch, 0.8)
    want = [oracle.key_rate(d, v, p, 0.8) for v, p in zip(v_a, points)]
    assert np.max(np.abs(report.k - want)) < 1e-12
    # a V_A grid against the same batch broadcasts to (grid, points)
    grid = sec.secret_key_rate(d, v_a[:3, None], batch, 0.8)
    assert grid.k.shape == (3, len(points))
    assert np.array_equal(grid.k[1], sec.secret_key_rate(d, v_a[1], batch, 0.8).k)


def test_scalar_report_fields_are_python_floats():
    p = ChannelParams(t=0.2, xi=0.005, eta=0.6, detection="heterodyne", eta_trusted=True)
    for d in (2, 8, math.inf):
        report = sec.secret_key_rate(d, 0.7, p, 0.8)
        for f in fields(report):
            want = str if f.name == "detection" else float
            assert type(getattr(report, f.name)) is want, f.name
    assert type(sec.optimize_va(8, p, 0.8, (0.05, 3.0))) is float


DIMENSIONS = st.sampled_from([1, 2, 4, 8, math.inf])


def _channel(d, t, xi, eta, eta_trusted):
    det = "homodyne" if d == 1 else "heterodyne"
    return ChannelParams(t=t, xi=xi, eta=eta, detection=det, eta_trusted=eta_trusted)


@PROPERTY
@given(
    d=DIMENSIONS,
    rows=st.lists(
        st.tuples(
            st.floats(1e-3, 50.0), st.floats(1e-3, 1.0), st.floats(0.0, 0.2), st.floats(0.1, 1.0)
        ),
        min_size=1, max_size=12,
    ),
    eta_trusted=st.booleans(),
)
def test_array_call_equals_scalar_calls(d, rows, eta_trusted):
    v_a, t, xi, eta = np.array(rows).T
    batch = sec.secret_key_rate(d, v_a, _channel(d, t, xi, eta, eta_trusted), 0.9)
    z = sec.z_correlation(d, v_a)
    for i, (v, *channel) in enumerate(rows):
        one = sec.secret_key_rate(d, v, _channel(d, *channel, eta_trusted), 0.9)
        for f in fields(one):
            if f.name not in ("d", "beta", "detection"):
                assert getattr(batch, f.name)[i] == getattr(one, f.name), f.name
        assert z[i] == sec.z_correlation(d, float(v))


@PROPERTY
@given(
    d=DIMENSIONS,
    v_a=st.floats(1e-3, 20.0),
    t=st.floats(1e-3, 1.0),
    xis=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)).map(sorted),
    eta=st.floats(0.1, 1.0),
    eta_trusted=st.booleans(),
)
def test_key_rate_non_increasing_in_xi(d, v_a, t, xis, eta, eta_trusted):
    low, high = (
        sec.secret_key_rate(d, v_a, _channel(d, t, xi, eta, eta_trusted), 0.95).k for xi in xis
    )
    assert high <= low + 1e-12


@PROPERTY
@given(v_a=st.floats(1e-3, 1e5))
def test_correlation_ordering_property(v_a):
    # below V_A ~ 1e-4 Z_1 and Z_2 agree to within rounding (they differ at
    # order alpha^7), so the strict chain is checked from 1e-3 up
    z = [sec.z_correlation(d, v_a) for d in (1, 2, 4, 8, math.inf)]
    assert z[0] < z[1] < z[2] < z[3] < z[4]
