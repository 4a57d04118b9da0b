"""Channel transmission and detection statistics tests."""

import math
import re
import sys

import numpy as np
import pytest

import session_oracle
from cvqkd import channel as ch
from cvqkd import modulation as mod
from cvqkd.algebra import CHUNK_ROWS


def gaussian_symbols(v_a, n, rng):
    return rng.normal(0.0, math.sqrt(v_a), size=(n, 2))


def transmit(q, params, rng):
    """(outcomes, basis) of the flows' channel steps on the quadrature pairs q.

    Homodyne draws the bases, then the noise, and picks each mode's measured
    quadrature by the basis, as the Gaussian flow does; heterodyne draws only
    the noise and basis is None.
    """
    basis, signal = None, q
    if params.detection == "homodyne":
        basis = np.empty(len(q), dtype=np.int8)
        ch.draw_basis(basis, rng)
        signal = np.where(basis, q[:, 1], q[:, 0])
    outcomes = rng.standard_normal(signal.shape)
    ch.add_signal(outcomes, signal, params)
    return outcomes, basis


def test_distance_to_transmittance():
    assert ch.distance_to_T(0.0) == 1.0
    assert abs(ch.distance_to_T(50.0) - 0.1) < 1e-15
    assert abs(ch.distance_to_T(100.0) - 0.01) < 1e-16
    assert abs(ch.distance_to_T(10.0) - 10 ** -0.2) < 1e-15
    with pytest.raises(ValueError, match=r"^distance must be nonnegative, got -1\.0$"):
        ch.distance_to_T(-1.0)
    # t stays a normal float to about 15,380 km and is 0.0 beyond about 16,170 km
    assert ch.distance_to_T(15_380.0) >= sys.float_info.min
    for d_km, t in ((15_390.0, r"1\.58\d*e-308"), (1e5, "0.0"), (math.inf, "0.0")):
        with pytest.raises(ValueError, match=f"^distance {d_km} km gives transmittance {t}"):
            ch.distance_to_T(d_km)
    with pytest.raises(ValueError, match="^distance must be nonnegative, got nan$"):
        ch.distance_to_T(math.nan)


def test_params_validation():
    with pytest.raises(ValueError):
        ch.ChannelParams(t=0.0)
    with pytest.raises(ValueError):
        ch.ChannelParams(t=0.5, xi=-0.1)
    with pytest.raises(ValueError):
        ch.ChannelParams(t=0.5, eta=1.5)
    with pytest.raises(ValueError):
        ch.ChannelParams(t=0.5, detection="double")


@pytest.mark.parametrize("field", ["t", "xi", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    kwargs = dict(t=0.5, xi=0.01, eta=0.9)
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        ch.ChannelParams(**kwargs)


@pytest.mark.parametrize("field", ["t", "xi", "eta"])
def test_params_refuse_a_non_number_field(field):
    # a bool is a numbers.Real, but t=True would be recorded as "t True"
    for value in (True, False, "x", np.array([True, False])):
        kwargs = {**dict(t=0.5, xi=0.01, eta=0.9), field: value}
        want = f"{field} must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            ch.ChannelParams(**kwargs)


@pytest.mark.parametrize(
    "field, first, later", [("t", 0.0, 1.5), ("xi", -0.1, math.inf), ("eta", math.nan, 0.0)]
)
def test_batch_params_report_field_and_first_bad_element(field, first, later):
    kwargs = {name: np.full(4, 0.5) for name in ("t", "xi", "eta")}
    kwargs[field][1], kwargs[field][3] = first, later
    with pytest.raises(ValueError, match=rf"\b{field}\b.*, got {first}$"):
        ch.ChannelParams(**kwargs)


def test_effective_transmittance():
    p = ch.ChannelParams(t=0.5, eta=0.6)
    assert abs(p.t_eff - 0.3) < 1e-15
    assert p.noise_floor == 2.0
    assert ch.ChannelParams(t=0.5, detection="homodyne").noise_floor == 1.0


def test_vacuum_variance_homodyne():
    rng = np.random.default_rng(0)
    p = ch.ChannelParams(t=1.0, xi=0.0, detection="homodyne")
    y, basis = transmit(np.zeros((1_000_000, 2)), p, rng)
    assert y.shape == (1_000_000,)
    assert set(np.unique(basis)) == {0, 1}
    assert abs(np.var(y) - 1.0) < 0.01


def test_vacuum_variance_heterodyne():
    rng = np.random.default_rng(1)
    p = ch.ChannelParams(t=1.0, xi=0.0, detection="heterodyne")
    y, basis = transmit(np.zeros((500_000, 2)), p, rng)
    assert y.shape == (500_000, 2)
    assert basis is None
    assert abs(np.var(y) - 2.0) < 0.01


def test_output_variance_matches_covariance_entry():
    rng = np.random.default_rng(2)
    p = ch.ChannelParams(t=0.1, xi=0.01, detection="homodyne")
    q = gaussian_symbols(0.7, 1_000_000, rng)
    y, _ = transmit(q, p, rng)
    assert abs(np.var(y) - 1.071) < 0.01


def test_signal_cross_covariance_for_sphere_modulation():
    # Cov(q, y) = sqrt(T_eff) V_A holds for any modulation with matching
    # second moments, key spheres included.
    rng = np.random.default_rng(3)
    scheme = mod.ModulationScheme(8, 0.6)
    blocks = session_oracle.sample_key_blocks(scheme, 250_000, rng)
    q = mod.QUADRATURE_SCALE * blocks.reshape(-1, 2)
    p = ch.ChannelParams(t=0.25, xi=0.02, detection="heterodyne")
    y, _ = transmit(q, p, rng)
    cov = np.mean(q * y)
    v_a = 2.0 * scheme.alpha**2
    want = math.sqrt(p.t_eff) * v_a
    assert abs(cov - want) < 5 * math.sqrt(v_a * 2.5 / q.size)
    assert abs(np.var(y) - (p.t_eff * v_a + 2 + p.t_eff * p.xi)) < 0.01


def test_snr_values():
    assert ch.snr(ch.ChannelParams(t=1.0, xi=0.0, detection="homodyne"), 3.0) == 3.0
    p = ch.ChannelParams(t=0.1, xi=0.0, detection="homodyne")
    assert abs(ch.snr(p, 0.5) - 0.05) < 1e-15
    hom = ch.ChannelParams(t=0.3, xi=0.0, detection="homodyne")
    het = ch.ChannelParams(t=0.3, xi=0.0, detection="heterodyne")
    assert abs(ch.snr(hom, 1.7) / ch.snr(het, 1.7) - 2.0) < 1e-12
    lossy = ch.ChannelParams(t=0.5, xi=0.04, eta=0.5, detection="homodyne")
    assert abs(ch.snr(lossy, 2.0) - 0.25 * 2.0 / (1 + 0.25 * 0.04)) < 1e-15


def test_forced_basis_choices():
    # homodyne draws the measured quadrature uniformly, before the noise
    p = ch.ChannelParams(t=1.0, xi=0.0, detection="homodyne")
    q = np.column_stack([np.full(8, 50.0), np.full(8, -50.0)])
    y, basis = transmit(q, p, np.random.default_rng(4))
    assert np.array_equal(basis, np.random.default_rng(4).integers(0, 2, size=8))
    assert np.all(np.sign(y) == np.where(basis == 0, 1.0, -1.0))


def test_gaussian_spec_matches_transmit_measure():
    # the noise is Gaussian with variance noise_floor + T_eff*xi, drawn from
    # the same stream right after the homodyne basis
    q = gaussian_symbols(1.5, 1000, np.random.default_rng(4))
    for detection in ("homodyne", "heterodyne"):
        p = ch.ChannelParams(t=0.3, xi=0.02, eta=0.9, detection=detection)
        y, basis = transmit(q, p, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        if detection == "homodyne":
            want_basis = rng.integers(0, 2, size=1000)
            assert basis.dtype == np.int8 and np.array_equal(basis, want_basis)
            signal = math.sqrt(p.t_eff) * q[np.arange(1000), want_basis]
        else:
            assert basis is None
            signal = math.sqrt(p.t_eff) * q
        sigma = math.sqrt(p.noise_floor + p.t_eff * p.xi)
        assert np.array_equal(y, signal + sigma * rng.standard_normal(signal.shape))


@pytest.mark.parametrize("detection", ch.DETECTIONS)
@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5])
def test_transmit_measure_matches_whole_array_oracle(detection, n):
    # adding the signal chunk by chunk, with the homodyne quadrature picked by
    # np.where, keeps every bit of the whole-array signal and the same stream
    q = gaussian_symbols(1.5, n, np.random.default_rng(n))
    p = ch.ChannelParams(t=0.3, xi=0.02, eta=0.9, detection=detection)
    rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    y, basis = transmit(q, p, rng)
    want_y, want_basis = session_oracle.transmit_measure(q, p, oracle_rng)
    assert y.shape == want_y.shape and np.array_equal(y.view(np.uint64), want_y.view(np.uint64))
    if detection == "homodyne":
        assert basis.dtype == np.int8 and np.array_equal(basis, want_basis)
    else:
        assert basis is None and want_basis is None
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5])
def test_chunked_basis_is_one_int64_draw(n):
    # the chunks continue one stream: the bases and the generator state are
    # those of a single int64 draw of the whole length
    rng, single = np.random.default_rng(9), np.random.default_rng(9)
    basis = np.empty(n, dtype=np.int8)
    ch.draw_basis(basis, rng)
    assert np.array_equal(basis, single.integers(0, 2, size=n).astype(np.int8))
    assert rng.bit_generator.state == single.bit_generator.state


def test_zero_noise_is_identity_at_unit_transmittance():
    # with the replayed noise taken out, a lossless channel passes q unchanged
    q = np.random.default_rng(13).standard_normal((100, 2))
    p = ch.ChannelParams(t=1.0, detection="heterodyne")
    y, _ = transmit(q, p, np.random.default_rng(14))
    noise = math.sqrt(p.noise_floor) * np.random.default_rng(14).standard_normal(q.shape)
    assert np.array_equal(y, q + noise)


def test_channel_is_memoryless():
    rng = np.random.default_rng(6)
    p = ch.ChannelParams(t=0.5, xi=0.01)
    y, _ = transmit(np.zeros((200_000, 2)), p, rng)
    flat = y.reshape(-1)
    corr = np.mean(flat[:-1] * flat[1:]) / np.var(flat)
    assert abs(corr) < 4 / math.sqrt(flat.size)


def test_eta_folds_into_transmittance():
    p1 = ch.ChannelParams(t=0.8, xi=0.01, eta=0.5)
    p2 = ch.ChannelParams(t=0.4, xi=0.01, eta=1.0)
    q = gaussian_symbols(1.0, 1000, np.random.default_rng(7))
    y1, _ = transmit(q, p1, np.random.default_rng(8))
    y2, _ = transmit(q, p2, np.random.default_rng(8))
    assert np.array_equal(y1, y2)


def test_trust_flag_does_not_change_statistics():
    q = gaussian_symbols(1.0, 1000, np.random.default_rng(9))
    for trusted in (False, True):
        p = ch.ChannelParams(t=0.5, xi=0.02, eta=0.6, eta_trusted=trusted)
        y, _ = transmit(q, p, np.random.default_rng(10))
        if trusted:
            assert np.array_equal(y, y_ref)
        else:
            y_ref = y


def test_uniform_noise_gives_same_estimates():
    # Second-moment estimation of (T, xi) cannot tell uniform noise from
    # Gaussian noise of the same variance.
    rng = np.random.default_rng(15)
    t, xi, v_a = 0.5, 0.05, 1.0
    half = math.sqrt(3.0 * (1 + t * xi))
    q = gaussian_symbols(v_a, 1_000_000, rng)
    y = math.sqrt(t) * q[:, 0] + rng.uniform(-half, half, size=q.shape[0])
    t_hat = (np.mean(q[:, 0] * y) / v_a) ** 2
    xi_hat = (np.var(y) - 1.0 - t_hat * v_a) / t_hat
    assert abs(t_hat - t) < 0.01
    assert abs(xi_hat - xi) < 0.03
