"""Session flows, channel estimation, and key distillation."""

import hashlib
import logging
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import session_oracle
from radius_oracle import band_acceptance_probability
from cvqkd.channel import ChannelParams
from cvqkd.decoy import DecoyDesign, mix_probabilities, optimize_decoy
from cvqkd.modulation import RadiusBand, read_csv_table
from cvqkd.protocol import (
    MIN_EST_SAMPLES,
    ConfigError,
    ProtocolConfig,
    ProtocolError,
    SessionTranscript,
    distill,
    estimate_channel,
    estimation_std,
    resolve_code,
    run_decoy_flow,
    run_gaussian_postselected,
    run_session,
    save_transcript,
)
from cvqkd.algebra import CHUNK_ROWS, OrthogonalTransform
from cvqkd import algebra, modulation, protocol


@pytest.fixture(scope="module")
def design8():
    return optimize_decoy(8, 1.0, 0.5)


@pytest.fixture(scope="module")
def decoy_transcript(design8):
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=40000,
        flow="decoy",
        channel=ChannelParams(t=1.0, xi=0.0, detection="heterodyne"),
        p_est=0.5,
        p=0.5,
        decoy=design8,
        seed=11,
    )
    return run_session(config)


@pytest.fixture(scope="module")
def gaussian_transcript():
    config = ProtocolConfig(
        d=1,
        alpha=1.0,
        n_symbols=4096,
        flow="gaussian",
        channel=ChannelParams(t=1.0, xi=0.0, detection="homodyne"),
        p_est=0.5,
        band=RadiusBand(0.0, math.inf),
        seed=5,
    )
    return run_session(config)


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(d=3, alpha=1.0, n_symbols=100)
    with pytest.raises(ConfigError):
        ProtocolConfig(d=8, alpha=1.0, n_symbols=100, flow="other")
    with pytest.raises(ConfigError):
        ProtocolConfig(
            d=8, alpha=1.0, n_symbols=100, flow="decoy",
            channel=ChannelParams(t=1.0, detection="homodyne"),
        )
    # p < 1 needs a decoy design
    with pytest.raises(ConfigError):
        ProtocolConfig(d=8, alpha=1.0, n_symbols=100, flow="decoy", p=0.5)
    # heterodyne keeps 2 * n_symbols coordinates; they must split into blocks
    with pytest.raises(ConfigError, match="do not split"):
        ProtocolConfig(
            d=8, alpha=1.0, n_symbols=102, flow="gaussian",
            channel=ChannelParams(t=1.0, detection="heterodyne"),
        )


@pytest.mark.parametrize("d, detection", [(8, "homodyne"), (1, "heterodyne")])
def test_config_rejects_unpaired_detection(d, detection):
    with pytest.raises(ConfigError, match=f"d={d} does not pair with {detection}"):
        ProtocolConfig(
            d=d, alpha=1.0, n_symbols=800, flow="gaussian",
            channel=ChannelParams(t=1.0, detection=detection),
        )


# the last three are finite, but V_A = 2 alpha^2 is 0, subnormal and inf
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 1e-200, 1e-160, 1e200])
def test_config_rejects_non_finite_alpha(alpha):
    with pytest.raises(ConfigError, match="alpha"):
        ProtocolConfig(d=8, alpha=alpha, n_symbols=100)


@pytest.mark.parametrize("field, value", [("p", 2.0), ("p_est", -0.5), ("p", math.nan)])
def test_config_rejects_probability_outside_unit_interval(tmp_path, field, value):
    message = rf"{field} must lie in \[0, 1\], got {value}$"
    with pytest.raises(ConfigError, match="^" + message):
        ProtocolConfig(d=8, alpha=1.0, n_symbols=1000, **{field: value})
    path = tmp_path / "bad.cfg"
    path.write_text(f"flow gaussian\nd 8\nalpha 1.0\nn_symbols 1000\n{field} {value}\n")
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: ") + message):
        ProtocolConfig.from_file(path)


@pytest.mark.parametrize("field, value", [
    ("d", 8.0), ("d", True), ("n_symbols", 4096.0), ("seed", 1.5), ("symmetrization_k", 1.0),
])
def test_config_refuses_a_float_or_bool_integer_field(field, value):
    config = {**dict(d=8, alpha=1.0, n_symbols=4096), field: value}
    want = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        ProtocolConfig(**config)


@pytest.mark.parametrize("field", ["alpha", "p_est", "p", "beta_target", "max_frame_failure"])
def test_config_refuses_a_non_number_field(field):
    # a bool is a numbers.Real, but True would run a session at alpha = 1
    for value in ("x", True, False):
        config = {**dict(d=8, alpha=1.0, n_symbols=1000), field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be a number, got {value!r}$"):
            ProtocolConfig(**config)


_GAUSSIAN_D8 = dict(d=8, alpha=1.0, n_symbols=1000, flow="gaussian")
_DECOY_D8 = dict(d=8, alpha=1.0, n_symbols=1000, flow="decoy")


@pytest.mark.parametrize("call, error, message", [
    (lambda: ProtocolConfig(**{**_DECOY_D8, "n_symbols": 0}), ConfigError,
     "n_symbols must be at least 1"),
    (lambda: ProtocolConfig(**_DECOY_D8, beta_target=0.0), ConfigError,
     "beta_target must lie in (0, 1]"),
    (lambda: ProtocolConfig(**_DECOY_D8, max_frame_failure=1.5), ConfigError,
     "max_frame_failure must lie in [0, 1]"),
    (lambda: ProtocolConfig(d=1, alpha=1.0, n_symbols=1000, flow="decoy"), ConfigError,
     "the decoy flow needs block dimension d >= 2"),
    (lambda: distill(SessionTranscript(config=ProtocolConfig(**_DECOY_D8)),
                     np.random.default_rng(0)), ProtocolError,
     "transcript has no channel estimate"),
    (lambda: run_decoy_flow(ProtocolConfig(**_GAUSSIAN_D8), np.random.default_rng(0)),
     ValueError, "config.flow is 'gaussian', expected 'decoy'"),
    (lambda: run_gaussian_postselected(ProtocolConfig(**_DECOY_D8), np.random.default_rng(0)),
     ValueError, "config.flow is 'decoy', expected 'gaussian'"),
], ids=["n_symbols", "beta_target", "max_frame_failure", "decoy_d1", "distill_unestimated",
        "decoy_flow_guard", "gaussian_flow_guard"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_config_rejects_mismatched_design(design8):
    with pytest.raises(ConfigError):
        ProtocolConfig(
            d=8, alpha=0.7, n_symbols=100, flow="decoy", p=0.5, decoy=design8,
        )


def test_config_from_file(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text(
        "# comment line\n"
        "flow decoy\n"
        "d 8\n"
        "alpha 1.0\n"
        "n_symbols 4000\n"
        "p_est 0.5\n"
        "p 1.0\n"
        "distance_km 50\n"
        "xi 0.005\n"
        "eta 0.6\n"
        "seed 3\n"
    )
    config = ProtocolConfig.from_file(path)
    assert config.d == 8
    assert config.channel.detection == "heterodyne"
    assert abs(config.channel.t - 0.1) < 1e-12
    assert config.channel.eta == 0.6
    assert config.seed == 3
    assert config.band == RadiusBand(0.95, 1.05)
    # keys the file leaves out take the dataclass defaults
    path.write_text("d 8\nalpha 1.0\nn_symbols 4000\n")
    assert ProtocolConfig.from_file(path) == ProtocolConfig(d=8, alpha=1.0, n_symbols=4000)
    # both take the detection d pairs with when the channel is left out
    path.write_text("d 1\nalpha 1.0\nn_symbols 4096\nflow gaussian\n")
    direct = ProtocolConfig(d=1, alpha=1.0, n_symbols=4096, flow="gaussian")
    assert ProtocolConfig.from_file(path) == direct
    assert direct.channel == ChannelParams(t=1.0, detection="homodyne")


def test_config_from_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("flow decoy\nd 8\nwhatever 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3"):
        ProtocolConfig.from_file(bad)
    bad.write_text("d 8\nalpha 1.0\nn_symbols 100\nd 4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        ProtocolConfig.from_file(bad)
    bad.write_text("d 8\nalpha not-a-number\nn_symbols 100\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        ProtocolConfig.from_file(bad)
    bad.write_text("d 8\nalpha 1.0\nn_symbols 100\ntransmittance 0.5\ndistance_km 10\n")
    with pytest.raises(ConfigError, match="not both"):
        ProtocolConfig.from_file(bad)
    bad.write_text("alpha 1.0\nn_symbols 100\n")
    with pytest.raises(ConfigError, match="missing required"):
        ProtocolConfig.from_file(bad)
    # t = 10^(-0.02 d) underflows to 0.0; the error names the distance the file gave
    bad.write_text("d 8\nalpha 1.0\nn_symbols 100\ndistance_km 1e5\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg: distance 100000\.0 km gives transmittance 0\.0"):
        ProtocolConfig.from_file(bad)


def test_config_loads_decoy_file_relative_to_config(tmp_path, design8):
    design8.save(tmp_path / "design.txt")
    path = tmp_path / "session.cfg"
    path.write_text(
        "flow decoy\nd 8\nalpha 1.0\nn_symbols 4000\np 0.5\n"
        "decoy_file design.txt\n"
    )
    config = ProtocolConfig.from_file(path)
    assert config.decoy == design8


def _synthetic_channel_data(t_eff, xi, v_a, n, rng, floor=2.0):
    a = rng.normal(0.0, math.sqrt(v_a / 4.0), size=n)
    sigma = math.sqrt(floor + t_eff * xi)
    y = math.sqrt(t_eff) * 2.0 * a + sigma * rng.standard_normal(n)
    return a, y


def test_estimate_channel_identity():
    rng = np.random.default_rng(7)
    a, y = _synthetic_channel_data(1.0, 0.0, 2.0, 10**6, rng)
    t_hat, xi_hat = estimate_channel(a, y, 2.0, "heterodyne")
    std_t, std_xi = estimation_std(1.0, 0.0, 2.0, 10**6, "heterodyne")
    assert abs(t_hat - 1.0) < 4 * std_t
    assert abs(xi_hat) < 4 * std_xi


def test_estimate_channel_recovers_lossy_noisy_channel():
    rng = np.random.default_rng(12)
    t, xi, v_a = 0.1, 0.01, 0.5
    a, y = _synthetic_channel_data(t, xi, v_a, 10**6, rng)
    t_hat, xi_hat = estimate_channel(a, y, v_a, "heterodyne")
    std_t, std_xi = estimation_std(t, xi, v_a, 10**6, "heterodyne")
    assert abs(t_hat - t) < 3 * std_t
    assert abs(xi_hat - xi) < 3 * std_xi


def test_estimate_channel_insensitive_to_noise_shape():
    # uniform noise with the same second moments gives the same estimates
    rng = np.random.default_rng(3)
    params = ChannelParams(t=0.4, xi=0.05, detection="heterodyne")
    n = 10**6
    a = rng.normal(0.0, math.sqrt(0.5), size=(n, 2))
    half = math.sqrt(3.0 * (params.noise_floor + params.t_eff * params.xi))
    y = math.sqrt(params.t_eff) * 2.0 * a + rng.uniform(-half, half, size=a.shape)
    t_hat, xi_hat = estimate_channel(a, y, 2.0, "heterodyne")
    std_t, std_xi = estimation_std(params.t, params.xi, 2.0, 2 * n, "heterodyne")
    assert abs(t_hat - 0.4) < 3 * std_t
    assert abs(xi_hat - 0.05) < 3 * std_xi


def test_estimate_channel_sample_floor():
    rng = np.random.default_rng(0)
    a, y = _synthetic_channel_data(1.0, 0.0, 2.0, 50, rng)
    with pytest.raises(ProtocolError):
        estimate_channel(a, y, 2.0, "heterodyne")
    with pytest.raises(ValueError):
        estimate_channel(a, y[:10], 2.0, "heterodyne")


def test_estimate_channel_refuses_bad_detection_and_zero_transmittance():
    a = np.random.default_rng(0).standard_normal((200, 2))
    with pytest.raises(ValueError, match="detection must be one of"):
        estimate_channel(a, a, 2.0, "double")
    # a Bob who received nothing is uncorrelated with Alice: T_hat is 0
    with pytest.raises(ProtocolError, match="estimated transmittance is numerically zero"):
        estimate_channel(a, np.zeros_like(a), 2.0, "heterodyne")


@pytest.mark.parametrize("shape", [(2 * CHUNK_ROWS + 5,), (2 * CHUNK_ROWS + 5, 1),
                                   (CHUNK_ROWS + 3, 8), (300, 2), (CHUNK_ROWS + 3, 3)])
def test_estimate_channel_mask_equals_gathered_rows(shape):
    # the products built slice by slice from the indexed rows give the
    # estimate of the gathered rows bit for bit, and so does passing those
    # rows with no indices; at width 3 the pairwise splits, multiples of 8,
    # fall inside a block
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(0.0, 0.5, size=shape)
    y = 2.0 * math.sqrt(0.4) * a + rng.standard_normal(shape)
    est = rng.random(shape[0]) < 0.5
    want = session_oracle.estimate_channel(a[est], y[est], 2.0, "heterodyne")
    assert estimate_channel(a, y, 2.0, "heterodyne", np.flatnonzero(est)) == want
    assert estimate_channel(a[est], y[est], 2.0, "heterodyne") == want
    assert estimate_channel(a, y, 2.0, "heterodyne", np.arange(shape[0])) == \
        session_oracle.estimate_channel(a, y, 2.0, "heterodyne")


def test_estimate_channel_holds_no_estimation_size_buffer():
    # 1e5 indexed blocks of 8 are 8e5 products; summed one pairwise slice at
    # a time they peak at a few chunks, where one buffer of the products
    # alone takes 6.4 MB
    rng = np.random.default_rng(9)
    a = rng.standard_normal((200_000, 8))
    y = 0.5 * a + rng.standard_normal(a.shape)
    est = np.sort(rng.choice(len(a), 100_000, replace=False))
    tracemalloc.start()
    try:
        got = estimate_channel(a, y, 2.0, "heterodyne", est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == session_oracle.estimate_channel(a[est], y[est], 2.0, "heterodyne")
    assert peak < 2**20, f"{peak} B"


def test_estimate_channel_mask_refuses_as_the_gathered_rows_do():
    # 12 blocks of 8 are 96 samples: the indices and the gathered rows are refused
    # with the same text
    rng = np.random.default_rng(4)
    a, y = rng.standard_normal((2, 1000, 8))
    est = np.zeros(1000, dtype=bool)
    est[rng.choice(1000, 12, replace=False)] = True
    texts = []
    for args in ((a, y, 2.0, "heterodyne", np.flatnonzero(est)),
                 (a[est], y[est], 2.0, "heterodyne")):
        with pytest.raises(ProtocolError) as error:
            estimate_channel(*args)
        texts.append(str(error.value))
    assert texts == [f"only 96 estimation samples, need at least {MIN_EST_SAMPLES}"] * 2
    est[np.flatnonzero(~est)[:1]] = True
    assert estimate_channel(a, y, 2.0, "heterodyne", np.flatnonzero(est)) == \
        session_oracle.estimate_channel(a[est], y[est], 2.0, "heterodyne")


@pytest.mark.parametrize("d, detection, n_symbols, k", [
    pytest.param(d, detection, n, k, id=f"{d}-{detection}-{n}" + ("" if k == 1 else f"-k{k}"))
    for d, detection, n, k in [(1, "homodyne", 2 * CHUNK_ROWS + 6, 1), (8, "heterodyne", 40_000, 1),
                               (2, "heterodyne", 9_000, 1), (1, "homodyne", 2 * CHUNK_ROWS + 6, 3),
                               (8, "heterodyne", 40_000, 3)]])
def test_gaussian_flow_matches_whole_array_oracle(d, detection, n_symbols, k):
    # the draws on the worker thread into arrays allocated beforehand, Alice's
    # doubled and halved coordinate, her reflection in place and the chunked
    # steps give the serial whole-array flow's arrays and stream bit for bit
    config = ProtocolConfig(d=d, alpha=0.7, n_symbols=n_symbols, flow="gaussian", p_est=0.3,
                            band=RadiusBand(0.8, 1.2), seed=3, symmetrization_k=k,
                            channel=ChannelParams(t=0.6, xi=0.01, detection=detection))
    rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(21)
    tr = run_gaussian_postselected(config, rng)
    want = session_oracle.gaussian_flow(config, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert np.array_equal(tr.transform.reflectors, want.pop("reflectors"))
    for name, array in want.items():
        got = getattr(tr, name)
        if array is None:
            assert got is None
            continue
        assert got.dtype == array.dtype and got.shape == array.shape, name
        assert np.array_equal(got.view(np.uint8), array.view(np.uint8)), name


@pytest.mark.parametrize("d, p, n_symbols, k", [
    pytest.param(d, p, n, k, id=f"{d}-p{p}-{n}-k{k}")
    for d, p, n in [(8, 0.5, CHUNK_ROWS // 2 - 4), (8, 0.5, CHUNK_ROWS),
                    (8, 0.5, 2 * CHUNK_ROWS + 4), (4, 1.0, CHUNK_ROWS // 2 + 2)]
    for k in (1, 3)])
def test_decoy_flow_matches_whole_array_oracle(d, p, n_symbols, k, design8):
    # the doubled copy reflected in place, the noise drawn into the outcomes
    # and the chunked signal give the arrays and stream of reflecting out of
    # place, doubling, transmit_measure and reflecting back
    config = ProtocolConfig(d=d, alpha=1.0, n_symbols=n_symbols, flow="decoy", p_est=0.3, p=p,
                            decoy=design8 if p < 1.0 else None, symmetrization_k=k,
                            channel=ChannelParams(t=0.6, xi=0.01, detection="heterodyne"))
    rng, oracle_rng = np.random.default_rng(22), np.random.default_rng(22)
    tr = run_decoy_flow(config, rng)
    want = session_oracle.decoy_flow(config, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert np.array_equal(tr.transform.reflectors, want.pop("reflectors"))
    assert tr.basis is None and want.pop("basis") is None
    for name, array in want.items():
        got = getattr(tr, name)
        assert got.dtype == array.dtype and got.shape == array.shape, name
        assert np.array_equal(got.view(np.uint8), array.view(np.uint8)), name


@pytest.mark.parametrize("flow, d, message", [
    ("decoy", 4, "decoy flow with d=4 is non-standard (designed for d=8)"),
    ("gaussian", 2, "gaussian-postselected flow with d=2 is non-standard")])
def test_flows_log_non_standard_d(caplog, flow, d, message):
    config = ProtocolConfig(d=d, alpha=1.0, n_symbols=1000, flow=flow, p=1.0,
                            channel=ChannelParams(t=0.6, xi=0.01, detection="heterodyne"))
    run = run_decoy_flow if flow == "decoy" else run_gaussian_postselected
    with caplog.at_level(logging.INFO, logger="cvqkd.protocol"):
        run(config, np.random.default_rng(3))
    assert [r.getMessage() for r in caplog.records if r.name == "cvqkd.protocol"] == [message]


@pytest.mark.parametrize("n", [0, 1, 1000, 2 * CHUNK_ROWS + 5])
@pytest.mark.parametrize("p, dtype", [
    ((0.25, 0.5, 0.25), np.int8), ((0.35, 0.65, 0.0), np.int8), ((0.0, 0.0, 1.0), np.int8),
    (tuple(np.arange(1, 10) / 45), np.int8), ("design", np.int8),
    (tuple(np.full(200, 0.005)), np.int16),
    *[(mix_probabilities(1.0, p_est), np.int8) for p_est in (0.0, 0.3, 1.0)]],
    ids=["mix", "no-decoy", "all-decoy", "nine", "design", "wide",
         "gaussian-0", "gaussian-0.3", "gaussian-1"])
def test_choose_is_rng_choice(n, p, dtype, design8):
    # both flows draw rng.choice's uniforms on their worker and pick on the
    # caller (the Gaussian flow by the law (1 - p_est, p_est, 0)): the values
    # and generator state of rng.choice, in the smallest signed dtype that
    # holds len(p)
    p = design8.weights if p == "design" else p
    rng, single = np.random.default_rng(n), np.random.default_rng(n)
    uniforms = np.empty(n)
    rng.random(out=uniforms)
    got = protocol._choose(uniforms, p)
    want = single.choice(len(p), size=n, p=p)
    assert got.dtype == dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == single.bit_generator.state


class _ThreadRecordingRng:
    """A generator that notes the thread of every draw it is asked for."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.threads = set()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            self.threads.add(threading.current_thread())
            return method(*args, **kwargs)

        return draw


def _threaded_flow(flow, detection, d, design8):
    """A small config of either flow, with the flow and its whole-array oracle."""
    if flow == "decoy":
        config = ProtocolConfig(d=d, alpha=1.0, n_symbols=4_000, flow="decoy", p_est=0.3,
                                p=0.5, decoy=design8,
                                channel=ChannelParams(t=0.6, xi=0.01, detection=detection))
        return config, run_decoy_flow, session_oracle.decoy_flow
    config = ProtocolConfig(d=d, alpha=0.7, n_symbols=4_000, flow="gaussian", p_est=0.3,
                            channel=ChannelParams(t=0.6, xi=0.01, detection=detection))
    return config, run_gaussian_postselected, session_oracle.gaussian_flow


@pytest.mark.parametrize("flow, detection, d", [
    pytest.param("gaussian", "homodyne", 1, id="homodyne-1"),
    pytest.param("gaussian", "heterodyne", 8, id="heterodyne-8"),
    pytest.param("decoy", "heterodyne", 8, id="decoy-heterodyne-8")])
def test_gaussian_flow_draws_on_one_worker_thread(flow, detection, d, design8):
    # each flow makes every draw on one thread that is not the caller's and has
    # ended when the flow returns; the arrays are the oracle's
    config, run, oracle = _threaded_flow(flow, detection, d, design8)
    rng = _ThreadRecordingRng(5)
    threads = threading.active_count()
    tr = run(config, rng)
    assert threading.active_count() == threads
    assert len(rng.threads) == 1 and threading.current_thread() not in rng.threads
    assert not next(iter(rng.threads)).is_alive()
    want = oracle(config, np.random.default_rng(5))
    assert np.array_equal(tr.bob_blocks, want["bob_blocks"])
    assert np.array_equal(tr.labels, want["labels"])


@pytest.mark.parametrize("flow, module, name", [
    pytest.param("gaussian", algebra, "draw_stages", id="worker"),
    pytest.param("gaussian", modulation, "label_by_band", id="caller"),
    pytest.param("decoy", algebra, "draw_stages", id="decoy-worker"),
    pytest.param("decoy", modulation, "normalize_sphere_blocks", id="decoy-caller")])
def test_gaussian_flow_raises_a_step_error(monkeypatch, flow, module, name, design8):
    # an error in a draw on the worker, or in a step on the caller while the
    # worker draws, leaves either flow as raised, and no worker outlives it
    class StepError(Exception):
        pass

    def fail(*args, **kwargs):
        raise StepError(name)

    monkeypatch.setattr(module, name, fail)
    detection, d = ("homodyne", 1) if flow == "gaussian" else ("heterodyne", 8)
    config, run, _ = _threaded_flow(flow, detection, d, design8)
    threads = threading.active_count()
    with pytest.raises(StepError, match=name):
        run(config, np.random.default_rng(5))
    assert threading.active_count() == threads


def test_decoy_flow_peak_memory_per_symbol(design8):
    # the flow alone at 2e5 symbols, the session_decoy_d8 config: the key,
    # estimation and decoy rows are drawn into one buffer that then holds the
    # doubled signal, beside Alice's blocks, the k = 1 stages and the
    # outcomes, 16 B per symbol each, so it peaks at 66.9 B.  Scattering each
    # range by an int64 index and doubling into a fresh copy peaked at 71.9 B,
    # and keeping the draws' futures to the end holds that buffer too
    n = 200_000
    config = ProtocolConfig(d=8, alpha=1.0, n_symbols=n, flow="decoy", p=0.5, p_est=0.5,
                            decoy=design8,
                            channel=ChannelParams(t=0.5, xi=0.005, detection="heterodyne"))
    tracemalloc.start()
    try:
        run_decoy_flow(config, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 68.0, f"{peak / n:.1f} B per symbol"


def test_transcript_times_each_event_outside_the_manifest(tmp_path, gaussian_transcript):
    # one perf_counter_ns reading per event, in order; the saved files hold none
    events, stamps = gaussian_transcript.events, gaussian_transcript.event_ns
    assert len(stamps) == len(events) and all(type(t) is int for t in stamps)
    assert stamps == sorted(stamps)
    save_transcript(gaussian_transcript, tmp_path)
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "events " + ",".join(events) + "\n" in manifest
    assert not any(str(t) in manifest for t in stamps)


def test_estimation_std_matches_monte_carlo():
    # the delta-method formulas are the oracle used for 3-sigma acceptance
    # windows, so pin them against an empirical ensemble
    rng = np.random.default_rng(42)
    t, xi, v_a, n, trials = 0.5, 0.02, 2.0, 20000, 400
    t_hats = np.empty(trials)
    xi_hats = np.empty(trials)
    for i in range(trials):
        a, y = _synthetic_channel_data(t, xi, v_a, n, rng)
        t_hats[i], xi_hats[i] = estimate_channel(a, y, v_a, "heterodyne")
    std_t, std_xi = estimation_std(t, xi, v_a, n, "heterodyne")
    assert abs(np.std(t_hats) / std_t - 1.0) < 0.15
    assert abs(np.std(xi_hats) / std_xi - 1.0) < 0.15


def test_resolve_code(tmp_path):
    assert resolve_code("identity").n_bits == resolve_code("rep1").n_bits == 1
    code = resolve_code("rep16")
    assert (code.n_bits, code.k_bits) == (16, 1)
    unknown = r": unknown code \(expected 'identity' or 'repN'\)$"
    with pytest.raises(ConfigError, match="^code 'turbo9000'" + unknown):
        resolve_code("turbo9000")
    with pytest.raises(ConfigError, match=r"^code 'rep0': repetition length must be >= 1$"):
        resolve_code("rep0")
    for code_id in ("rep", "identity1", "rep16x", "rep-1"):
        with pytest.raises(ConfigError, match=f"^code '{code_id}': unknown code"):
            resolve_code(code_id)
    # a non-string id is named like any other, also when a config carries it
    with pytest.raises(ConfigError, match="^code 16" + unknown):
        resolve_code(16)
    with pytest.raises(ConfigError, match="^code 16" + unknown):
        ProtocolConfig(d=8, alpha=1.0, n_symbols=1000, code=16)
    # a path is just an unknown id, even to a file holding a parity-check code
    path = tmp_path / "code.txt"
    path.write_text("4 3\n0 0\n0 1\n")
    with pytest.raises(ConfigError, match=f"^code {re.escape(repr(str(path)))}: unknown code"):
        resolve_code(str(path))


def test_decoy_flow_label_counts_multinomial(decoy_transcript):
    labels = decoy_transcript.labels
    n = labels.size
    for code, prob in zip((0, 1, 2), (0.25, 0.5, 0.25)):
        count = int(np.sum(labels == code))
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(count - n * prob) < 4 * sigma


def test_gaussian_flow_label_counts_binomial(gaussian_transcript):
    # each block is an estimation block with probability p_est, as in the decoy
    # flow: the count is binomial, so it lies near n p_est and varies by seed
    labels = gaussian_transcript.labels
    n, prob = labels.size, gaussian_transcript.config.p_est
    sigma = math.sqrt(n * prob * (1 - prob))
    assert abs(int(np.sum(labels == 1)) - n * prob) < 4 * sigma
    config = ProtocolConfig(d=1, alpha=1.0, n_symbols=256, flow="gaussian", p_est=0.3,
                            channel=ChannelParams(t=1.0, detection="homodyne"))
    counts = [run_gaussian_postselected(config, np.random.default_rng(seed)).est_indices.size
              for seed in range(40)]
    assert 0.4 < np.var(counts, ddof=1) / (256 * 0.3 * 0.7) < 2.0


def test_decoy_flow_event_ordering(decoy_transcript):
    idx = decoy_transcript.events.index
    assert idx("labels_committed") < idx("transmitted")
    assert idx("transmitted") < idx("measured")
    assert idx("measured") < idx("labels_revealed")
    assert idx("labels_revealed") < idx("estimated")


def test_decoy_flow_second_moments_indistinguishable(decoy_transcript, design8):
    # all three modulations share per-coordinate variance alpha^2 / 2
    blocks = decoy_transcript.alice_blocks
    labels = decoy_transcript.labels
    alpha = decoy_transcript.config.alpha
    target = alpha**2 / 2
    # the decoy mixture mean can differ from m alpha^2 by its design slack
    mean_slack = abs(
        sum(w * r * r for w, r in zip(design8.weights, design8.radii))
        - (8 / 2) * alpha**2
    ) / 8
    for code in (0, 1, 2):
        coords = blocks[labels == code].reshape(-1)
        second = float(np.mean(coords**2))
        stat = 4 * float(np.std(coords**2)) / math.sqrt(coords.size)
        assert abs(second - target) < stat + mean_slack


def test_decoy_flow_estimation_excludes_decoys(decoy_transcript):
    labels = decoy_transcript.labels
    assert np.all(labels[decoy_transcript.est_indices] == 1)
    assert np.all(labels[decoy_transcript.key_indices] == 0)


def test_symmetrization_preserves_estimation_statistics(decoy_transcript):
    # inner products are invariant under the orthogonal mixing, so the
    # covariance statistics agree computed on either side of R
    tr = decoy_transcript
    x_pre = tr.alice_blocks.reshape(-1)
    y_post = tr.bob_blocks.reshape(-1)
    x_sent = tr.transform.apply(x_pre)
    y_raw = tr.outcomes.reshape(-1)
    assert abs(np.mean(x_pre**2) - np.mean(x_sent**2)) < 1e-9
    assert abs(np.mean(y_raw**2) - np.mean(y_post**2)) < 1e-9
    assert abs(np.mean(x_pre * y_post) - np.mean(x_sent * y_raw)) < 1e-9


def test_decoy_flow_distills_positive_key(decoy_transcript):
    tr = decoy_transcript
    assert tr.report.k > 0
    res = tr.reconcile_result
    frame_bits = res.bob_bits.size // res.n_frames
    pool = int(np.sum(res.frame_success)) * frame_bits
    assert tr.alice_bits.size == min(int(tr.report.k * tr.n_key_modes), pool)
    assert np.array_equal(tr.alice_bits, tr.bob_bits)
    assert tr.n_key_modes == tr.key_indices.size * 4


def test_decoy_flow_without_decoys_runs():
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=8000,
        flow="decoy",
        channel=ChannelParams(t=1.0, xi=0.0, detection="heterodyne"),
        p_est=0.5,
        p=1.0,
        seed=2,
    )
    transcript = run_session(config)
    assert set(np.unique(transcript.labels)) <= {0, 1}
    assert np.array_equal(transcript.alice_bits, transcript.bob_bits)
    assert transcript.reconcile_result.frame_success.all()


def test_gaussian_flow_trivial_band_keeps_everything(gaussian_transcript):
    tr = gaussian_transcript
    assert tr.band_kept_fraction == 1.0
    assert tr.key_indices.size + tr.est_indices.size == tr.labels.size
    assert tr.reconcile_result.frame_success.all()
    assert np.array_equal(tr.alice_bits, tr.bob_bits)


def test_gaussian_flow_homodyne_keeps_matching_coordinates(gaussian_transcript):
    # with T=1, xi=0 the retained pairs have correlation V_A-determined
    # sqrt(T) * V_A / sqrt(V_A (1 + T V_A)); mismatched pairing would give ~0
    tr = gaussian_transcript
    corr = np.corrcoef(tr.alice_blocks.reshape(-1), tr.bob_blocks.reshape(-1))[0, 1]
    assert abs(corr - 2.0 / math.sqrt(6.0)) < 0.03


def test_gaussian_flow_acceptance_fraction():
    band = RadiusBand(0.95, 1.05)
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=40000,
        flow="gaussian",
        channel=ChannelParams(t=1.0, xi=0.0, detection="heterodyne"),
        p_est=0.5,
        band=band,
        seed=9,
    )
    transcript = run_session(config)
    expected = band_acceptance_probability(band, 8)
    n_rest = transcript.labels.size - transcript.est_indices.size
    sigma = math.sqrt(expected * (1 - expected) / n_rest)
    assert abs(transcript.band_kept_fraction - expected) < 3 * sigma


def test_gaussian_flow_event_ordering(gaussian_transcript):
    idx = gaussian_transcript.events.index
    assert idx("modulated") < idx("transmitted") < idx("measured")
    assert idx("measured") < idx("symmetrized") < idx("band_filtered")


def test_gaussian_flow_degenerate_band_gives_zero_key_blocks():
    config = ProtocolConfig(
        d=1,
        alpha=1.0,
        n_symbols=2048,
        flow="gaussian",
        channel=ChannelParams(t=1.0, xi=0.0, detection="homodyne"),
        p_est=0.5,
        band=RadiusBand(1.0, 1.0),
        seed=1,
    )
    with pytest.raises(ProtocolError, match="^0 key blocks"):
        run_session(config)


def test_gaussian_flow_all_estimation_keeps_no_key_block():
    config = ProtocolConfig(
        d=1,
        alpha=1.0,
        n_symbols=2048,
        flow="gaussian",
        channel=ChannelParams(t=1.0, xi=0.0, detection="homodyne"),
        p_est=1.0,
        seed=1,
    )
    transcript = run_gaussian_postselected(config, np.random.default_rng(1))
    assert np.all(transcript.labels == 1)
    assert transcript.band_kept_fraction == 0.0
    assert transcript.key_indices.size == 0


def test_distill_refuses_on_entanglement_breaking_noise(design8):
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=40000,
        flow="decoy",
        channel=ChannelParams(t=0.5, xi=1.0, detection="heterodyne"),
        p_est=0.5,
        p=0.5,
        decoy=design8,
        seed=4,
    )
    transcript = run_session(config)
    assert transcript.report.k <= 0
    assert transcript.alice_bits.size == 0
    assert transcript.bob_bits.size == 0
    assert "key_refused" in transcript.events


def test_distill_frame_failure_threshold(design8):
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=40000,
        flow="decoy",
        channel=ChannelParams(t=0.5, xi=3.0, detection="heterodyne"),
        p_est=0.5,
        p=0.5,
        decoy=design8,
        seed=4,
        max_frame_failure=0.001,
    )
    with pytest.raises(ProtocolError, match="frame failure"):
        run_session(config)


def test_run_session_deterministic(design8):
    config = ProtocolConfig(
        d=8,
        alpha=1.0,
        n_symbols=8000,
        flow="decoy",
        channel=ChannelParams(t=0.8, xi=0.002, detection="heterodyne"),
        p_est=0.5,
        p=0.5,
        decoy=design8,
        seed=77,
    )
    first = run_session(config)
    second = run_session(config)
    assert np.array_equal(first.outcomes, second.outcomes)
    assert first.t_hat == second.t_hat
    assert first.xi_hat == second.xi_hat
    assert np.array_equal(first.alice_bits, second.alice_bits)


@pytest.mark.parametrize("name", ["gaussian_transcript", "decoy_transcript"])
def test_transcript_dtypes(request, name):
    tr = request.getfixturevalue(name)
    assert tr.labels.dtype == np.int8
    if tr.config.channel.detection == "homodyne":
        assert tr.basis.dtype == np.int8 and tr.basis.shape == tr.outcomes.shape
    else:
        assert tr.basis is None
    assert tr.key_indices.dtype == tr.est_indices.dtype == np.int64


# sha256 over one seed-5 session's arrays, both keys and the repr of
# (t_hat, xi_hat, K, band_kept_fraction, n_est_samples, n_key_modes); a flow
# or distillation change that moves any bit or count changes its digest.
# decoy_d8 also pins the (8, 1, 0.5) design of optimize_decoy's grid fit and
# prune: its radii set which decoy spheres the session draws
SESSION_PINS = {
    "decoy_d8": (
        "0bfb6a271482393a8219972090a10ec024d38d81664e79c8c50d412d0f24536b",
        dict(d=8, alpha=1.0, n_symbols=8000, flow="decoy", p=0.5,
             channel=ChannelParams(t=0.8, xi=0.002, detection="heterodyne"))),
    "gaussian_d1_homodyne": (
        "fe998de8bb16bd4341f6e5deb23d2b5b5fd347358b171b7d4bebeaa8d985aa38",
        dict(d=1, alpha=0.5, n_symbols=8192, flow="gaussian", band=RadiusBand(0.5, 1.5),
             channel=ChannelParams(t=0.95, xi=0.002, detection="homodyne"))),
    "gaussian_d8_heterodyne": (
        "b16de1b8d5c2974ed6c69be8bae7f521e7ba4af3eeae37dce5923dce86ceed26",
        dict(d=8, alpha=1.0, n_symbols=40000, flow="gaussian", band=RadiusBand(0.95, 1.05),
             channel=ChannelParams(t=0.8, xi=0.002, detection="heterodyne"))),
}


def _session_digest(tr):
    digest = hashlib.sha256()
    for array in (tr.labels, tr.alice_blocks, tr.bob_blocks, tr.outcomes, tr.basis,
                  tr.key_indices, tr.est_indices, tr.alice_bits, tr.bob_bits):
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((tr.t_hat, tr.xi_hat, tr.report.k, tr.band_kept_fraction,
                        tr.n_est_samples, tr.n_key_modes)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(SESSION_PINS))
def test_session_bits_pinned(case, design8):
    pin, kwargs = SESSION_PINS[case]
    if kwargs["flow"] == "decoy":
        kwargs = dict(kwargs, decoy=design8)
    tr = run_session(ProtocolConfig(p_est=0.5, seed=5, **kwargs))
    assert tr.alice_bits.size > 0
    assert _session_digest(tr) == pin


@pytest.mark.parametrize("case", ["gaussian_d1_homodyne", "gaussian_d8_heterodyne"])
def test_gaussian_flow_ignores_p(case):
    # the Gaussian flow sends no decoys, so it labels by (1 - p_est, p_est, 0)
    # at any p; a law built from p would label blocks as decoys (2)
    pin, kwargs = SESSION_PINS[case]
    assert _session_digest(run_session(ProtocolConfig(p_est=0.5, p=0.5, seed=5, **kwargs))) == pin


# sha256 of each file that save_transcript writes for the gaussian_d1_homodyne
# session: its labels hold -1 beside 0 and 1, so symbols.csv takes the
# encoder's mixed-width path, and its outcomes table carries basis
SAVED_FILE_PINS = {
    "alice_key.txt": "ce8732c426149cb7a8961969feff433254bfba7a02a670d6d8ca384243e7b7ba",
    "bob_key.txt": "ce8732c426149cb7a8961969feff433254bfba7a02a670d6d8ca384243e7b7ba",
    "manifest.txt": "7c89e38dd8c724ca471c286c34892ab80d9e0244489ac08820a7b6845f542900",
    "outcomes.csv": "203d120254d323f7d47f046a0484e32a3599e5c9a2673f647adb72b221ac511b",
    "symbols.csv": "97f0dacef102b6197f8503659e4f3381e9e18085bd02c350c4437e28961cbefb",
    "transform.bin": "bd28fa586cc6051eb59227b6a832609d834d34c0a4808f6677ad9e21faab7278",
}


def test_saved_session_bytes_pinned(tmp_path):
    _, kwargs = SESSION_PINS["gaussian_d1_homodyne"]
    save_transcript(run_session(ProtocolConfig(p_est=0.5, seed=5, **kwargs)), tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == SAVED_FILE_PINS


def test_save_memory_does_not_grow_with_the_session(tmp_path):
    # the save holds its encoder blocks, not a table: a row index held whole
    # cost 8 B per block and 8 B per mode, 4.8 MB more at 4e5 symbols than at 1e5.
    # The least of two saves is taken, as the first save of a process is higher
    _, kwargs = SESSION_PINS["gaussian_d1_homodyne"]
    peaks = []
    for n in (100_000, 400_000):
        transcript = run_session(ProtocolConfig(**dict(kwargs, n_symbols=n), p_est=0.5, seed=5))
        runs = []
        for i in range(2):
            tracemalloc.start()
            try:
                save_transcript(transcript, tmp_path / f"{n}-{i}")
                runs.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(min(runs))
    assert peaks[1] - peaks[0] < 2**20, f"{peaks[0]} B at 1e5 symbols, {peaks[1]} B at 4e5"


# One session per flow, 24,000 coordinates each: from n = 20,000 on, a BLAS
# dot gives different bits on 1 and 2 OpenBLAS threads.  Prints one digest per array
THREAD_COUNT_SESSIONS = """
import hashlib
from cvqkd.channel import ChannelParams
from cvqkd.modulation import RadiusBand
from cvqkd.protocol import ProtocolConfig, run_session
for config in (
    ProtocolConfig(d=8, alpha=1.0, n_symbols=12000, flow="decoy", seed=5,
                   channel=ChannelParams(t=0.8, xi=0.002, detection="heterodyne")),
    ProtocolConfig(d=1, alpha=0.5, n_symbols=24000, flow="gaussian", seed=5,
                   band=RadiusBand(0.5, 1.5),
                   channel=ChannelParams(t=0.95, xi=0.002, detection="homodyne")),
):
    tr = run_session(config)
    assert config.n_coordinates >= 20000 and tr.alice_bits.size > 0
    for array in (tr.alice_blocks, tr.bob_blocks, tr.outcomes, tr.transform.reflectors,
                  tr.alice_bits, tr.bob_bits):
        print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_session_bits_do_not_depend_on_the_blas_thread_count():
    # every sum of the symmetrization runs in numpy's pairwise order, fixed by
    # n alone, so a child at one OpenBLAS thread prints the digests of one at two
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREAD_COUNT_SESSIONS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout.split())
    assert len(printed[0]) == 12 and printed[0] == printed[1]


# Peak traced bytes per symbol of one run_session at 2e5 symbols, the
# transcript included.  The flows drop each intermediate once it is used, and
# the channel's signal, the reflections' update and the band's radii are built
# CHUNK_ROWS rows at a time, the estimate sums its products one pairwise
# slice at a time from the estimation blocks' indices, and reconcile drops
# each reduction array (the key rows it is passed included) after its last
# use: the sessions peak at 39.6 (Gaussian d=1), 75.8 (Gaussian d=8) and
# 93.7 B (decoy, in Alice's reduction; Bob's peaks at 93.2 B).  With one
# estimation-size buffer of the products and a boolean mask they peaked at
# 39.7, 76.7 and 93.7 B.  With the key rows, u, x and v held through
# reconcile the last two peaked at 77.9 and 101.2 B.  With the chunked steps over whole arrays, a copy of the reflectors
# in the transform's constructor and gathered estimation rows they peaked at
# 54.0, 97.3 and 103.3 B.  Flows that also hold the modulated blocks, the
# quadratures and the estimation draw to the end, with int64 labels and
# out-of-place reflections, peak at 112, 144 and 137 B.  At d=1 homodyne one
# more array of 8 B per coordinate held at the peak, such as the labels'
# uniforms kept alive by their future, already breaks the bound.
MEMORY_CASES = {
    "gaussian_d1_homodyne": (41.5, dict(
        d=1, alpha=0.5, flow="gaussian",
        channel=ChannelParams(t=0.5, xi=0.005, detection="homodyne"))),
    "gaussian_d8_heterodyne": (81.5, dict(
        d=8, alpha=1.0, flow="gaussian",
        channel=ChannelParams(t=0.5, xi=0.005, detection="heterodyne"))),
    "decoy_d8": (94.0, dict(
        d=8, alpha=1.0, flow="decoy", p=0.5,
        channel=ChannelParams(t=0.5, xi=0.005, detection="heterodyne"))),
}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_session_peak_memory_per_symbol(case, design8):
    bound, kwargs = MEMORY_CASES[case]
    if kwargs["flow"] == "decoy":
        kwargs = dict(kwargs, decoy=design8)
    n = 200_000
    config = ProtocolConfig(n_symbols=n, p_est=0.5, code="rep16", seed=5, **kwargs)
    tracemalloc.start()
    try:
        transcript = run_session(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert transcript.alice_bits.size > 0
    assert peak / n <= bound, f"{case}: {peak / n:.1f} B per symbol"


def test_manifest_k_bound_is_a_plain_float(tmp_path, gaussian_transcript):
    # numpy 2 would print np.float64(...) through repr(); the second session's config
    # gives alpha, t and beta_target as numpy scalars
    numpy_config = ProtocolConfig(
        d=1, alpha=np.float64(1.0), n_symbols=4096, flow="gaussian",
        beta_target=np.float64(0.95),
        channel=ChannelParams(t=np.float64(0.9), detection="homodyne"), seed=5)
    for i, transcript in enumerate((gaussian_transcript, run_session(numpy_config))):
        k = transcript.report.k
        assert type(k) is float
        save_transcript(transcript, tmp_path / str(i))
        lines = (tmp_path / str(i) / "manifest.txt").read_text().splitlines()
        assert f"k_bound {k!r}" in lines
        assert "np." not in "".join(lines)
    assert {"alpha 1.0", "t 0.9", "beta_target 0.95"} <= set(lines)


@pytest.mark.parametrize("name", ["gaussian_transcript", "decoy_transcript"])
def test_save_transcript_roundtrip(tmp_path, request, name):
    transcript = request.getfixturevalue(name)
    out = tmp_path / "session"
    save_transcript(transcript, out)
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith("# cvqkd session manifest v1")
    assert "t_hat " in manifest
    assert "k_bound " in manifest
    kind, symbols = read_csv_table(out / "symbols.csv")
    assert kind == "symbols"
    blocks = np.column_stack([symbols[f"coord_{i}"] for i in range(transcript.config.d)])
    assert np.array_equal(blocks, transcript.alice_blocks)
    assert np.array_equal(symbols["label"], transcript.labels)
    assert np.array_equal(symbols["block_index"], np.arange(len(transcript.labels)))
    transform = OrthogonalTransform.from_bytes((out / "transform.bin").read_bytes())
    probe = np.arange(transform.n, dtype=float)
    assert np.array_equal(transform.apply(probe), transcript.transform.apply(probe))
    for key, bits in (("alice_key.txt", transcript.alice_bits),
                      ("bob_key.txt", transcript.bob_bits)):
        assert (out / key).read_text() == "".join(str(int(b)) for b in bits) + "\n"
    lines = (out / "outcomes.csv").read_text().splitlines()
    assert lines[0] == "# cvqkd-csv-v2 outcomes"
    kind, table = read_csv_table(out / "outcomes.csv")
    assert kind == "outcomes"
    assert np.array_equal(table["mode_index"], np.arange(len(transcript.outcomes)))
    if transcript.config.channel.detection == "homodyne":
        assert lines[1] == "mode_index,basis,y"
        assert np.array_equal(table["basis"], transcript.basis)
        assert np.array_equal(table["y"], transcript.outcomes)
    else:
        assert lines[1] == "mode_index,y_x,y_p"
        values = np.column_stack([table["y_x"], table["y_p"]])
        assert np.array_equal(values, transcript.outcomes)
    for text in ("manifest.txt", "symbols.csv", "outcomes.csv", "alice_key.txt", "bob_key.txt"):
        assert b"\r" not in (out / text).read_bytes()


def _use_cpus(monkeypatch, count):
    """Make this process see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("name", ["decoy_transcript", "gaussian_transcript"])
def test_save_is_identical_at_one_and_two_cpus(tmp_path, monkeypatch, request, name):
    # a worker writes outcomes.csv while the caller writes symbols.csv, at any
    # CPU count; every file keeps its bytes
    transcript = request.getfixturevalue(name)
    writers = {}
    write_table = modulation.write_table

    def recording(path, kind, names, columns):
        writers[kind] = threading.current_thread()
        write_table(path, kind, names, columns)

    monkeypatch.setattr(modulation, "write_table", recording)
    saved = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        save_transcript(transcript, tmp_path / str(cpus))
        assert writers["symbols"] is threading.current_thread()
        assert writers["outcomes"] is not threading.current_thread()
        saved.append({path.name: path.read_bytes() for path in (tmp_path / str(cpus)).iterdir()})
    assert sorted(saved[0]) == ["alice_key.txt", "bob_key.txt", "manifest.txt",
                                "outcomes.csv", "symbols.csv", "transform.bin"]
    assert saved[0] == saved[1]


@pytest.mark.parametrize("blocked, raised", [
    (["outcomes.csv"], "outcomes.csv"),
    (["symbols.csv"], "symbols.csv"),
    (["symbols.csv", "outcomes.csv"], "symbols.csv"),
    (["transform.bin"], "transform.bin"),
    (["transform.bin", "outcomes.csv"], "transform.bin"),
], ids=["outcomes", "symbols", "both", "transform", "transform-outcomes"])
def test_save_raises_a_table_write_error(tmp_path, gaussian_transcript, blocked, raised):
    # directories in the way of the files: the error surfaces from the call once
    # the other tables are whole, an error of the caller's files (symbols.csv,
    # then transform.bin) wins over the worker's, and no worker thread outlives
    # the call
    save_transcript(gaussian_transcript, tmp_path / "want")
    for name in blocked:
        (tmp_path / "got" / name).mkdir(parents=True)
    threads = threading.active_count()
    with pytest.raises(OSError) as error:
        save_transcript(gaussian_transcript, tmp_path / "got")
    assert threading.active_count() == threads
    assert os.path.basename(error.value.filename) == raised
    for name in {"outcomes.csv", "symbols.csv"} - set(blocked):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


@pytest.mark.parametrize("value, want", [
    ("true", True), ("True", True), ("yes", True), ("1", True),
    ("false", False), ("FALSE", False), ("no", False), ("0", False),
])
def test_config_eta_trusted_values(tmp_path, value, want):
    path = tmp_path / "session.cfg"
    path.write_text(f"d 8\nalpha 1.0\nn_symbols 4000\neta 0.6\neta_trusted {value}\n")
    config = ProtocolConfig.from_file(path)
    assert config.channel.eta_trusted is want and config.channel.eta == 0.6


def test_config_bad_eta_trusted_names_line(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text("d 8\nalpha 1.0\n# trust the detector?\neta_trusted maybe\nn_symbols 4000\n")
    with pytest.raises(ConfigError) as exc_info:
        ProtocolConfig.from_file(path)
    assert str(exc_info.value) == (
        f"{path}:4: bad value for 'eta_trusted': expected true/false, got 'maybe'"
    )


def test_config_refuses_min_est_samples(tmp_path):
    # the estimation floor is the fixed MIN_EST_SAMPLES coordinates, not a setting
    path = tmp_path / "session.cfg"
    path.write_text("d 8\nalpha 1.0\nn_symbols 4000\nmin_est_samples 100\n")
    with pytest.raises(ConfigError) as exc_info:
        ProtocolConfig.from_file(path)
    assert str(exc_info.value) == f"{path}:4: unknown key 'min_est_samples'"


def test_config_reports_first_bad_line(tmp_path):
    # values are cast as they are read, so a bad value before an unknown key is the error
    path = tmp_path / "session.cfg"
    path.write_text("d 8\nalpha one\ncolour blue\nn_symbols 4000\n")
    with pytest.raises(ConfigError) as exc_info:
        ProtocolConfig.from_file(path)
    assert str(exc_info.value) == (
        f"{path}:2: bad value for 'alpha': could not convert string to float: 'one'"
    )


def test_config_line_without_value_names_line(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text("d 8\nalpha 1.0\nn_symbols\n")
    with pytest.raises(ConfigError) as exc_info:
        ProtocolConfig.from_file(path)
    assert str(exc_info.value) == f"{path}:3: expected 'key value', got 'n_symbols'"


@pytest.mark.parametrize("config_args", [
    dict(d=4, alpha=1.0, p=0.5),
    dict(d=8, alpha=1.1, p=0.5),
    dict(d=8, alpha=1.0, p=0.4),
], ids=["d", "alpha", "p"])
def test_config_refuses_mismatched_design(config_args):
    design = DecoyDesign(d=8, alpha=1.0, p=0.5, radii=(0.5,), weights=(1.0,),
                         epsilon=0.1, n_max=16)
    with pytest.raises(ConfigError, match=r"decoy design was optimized for "
                       r"\(d=8, alpha=1\.0, p=0\.5\), config has"):
        ProtocolConfig(n_symbols=4000, flow="decoy", decoy=design, **config_args)


def test_config_symmetrization_k_bound():
    # heterodyne keeps 2 coordinates per symbol, homodyne 1
    homodyne = dict(d=1, flow="gaussian", channel=ChannelParams(t=1.0, detection="homodyne"))
    assert ProtocolConfig(d=8, alpha=1.0, n_symbols=1000, symmetrization_k=2000)
    assert ProtocolConfig(alpha=1.0, n_symbols=1000, symmetrization_k=1000, **homodyne)
    with pytest.raises(ConfigError, match=r"symmetrization_k must lie in \[1, 2000\], the "
                       "retained coordinate count, got 5000"):
        ProtocolConfig(d=8, alpha=1.0, n_symbols=1000, symmetrization_k=5000)
    with pytest.raises(ConfigError, match=r"\[1, 1000\], the retained coordinate count, got 1001"):
        ProtocolConfig(alpha=1.0, n_symbols=1000, symmetrization_k=1001, **homodyne)
    with pytest.raises(ConfigError, match=r"symmetrization_k must lie in \[1, 2000\]"):
        ProtocolConfig(d=8, alpha=1.0, n_symbols=1000, symmetrization_k=0)


def test_config_file_symmetrization_k_bound_names_file(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text("d 8\nalpha 1.0\nn_symbols 1000\nsymmetrization_k 5000\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: symmetrization_k "):
        ProtocolConfig.from_file(path)
