"""Session flows, channel estimation, and key distillation."""

import hashlib
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from radius_oracle import band_acceptance_probability
from cvqkd.channel import ChannelParams
from cvqkd.decoy import DecoyDesign, optimize_decoy
from cvqkd.modulation import RadiusBand, read_csv_table
from cvqkd.protocol import (
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
from cvqkd.algebra import OrthogonalTransform
from cvqkd import modulation, reconciliation


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


def test_resolve_code():
    assert resolve_code("identity").n_bits == resolve_code("rep1").n_bits == 1
    code = resolve_code("rep16")
    assert (code.n_bits, code.k_bits) == (16, 1)
    with pytest.raises(ConfigError, match="'turbo9000'"):
        resolve_code("turbo9000")
    with pytest.raises(ConfigError, match=r"^code 'rep0': repetition length must be >= 1$"):
        resolve_code("rep0")
    for code_id in ("rep", "identity1", "rep16x", "rep-1"):
        with pytest.raises(ConfigError, match=f"^code '{code_id}': unknown code"):
            resolve_code(code_id)


def test_resolve_code_file(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("4 3\n0 0\n0 1\n")
    code = reconciliation.ParityCheckCode.from_file(str(path))
    assert (code.n_bits, code.k_bits) == (4, 3)
    # it parses, but a session cannot decode it yet
    with pytest.raises(ConfigError, match="no decoder"):
        resolve_code(str(path))


def test_decoy_flow_label_counts_multinomial(decoy_transcript):
    labels = decoy_transcript.labels
    n = labels.size
    for code, prob in zip((0, 1, 2), (0.25, 0.5, 0.25)):
        count = int(np.sum(labels == code))
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(count - n * prob) < 4 * sigma


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
# or distillation change that moves any bit or count changes its digest
SESSION_PINS = {
    "decoy_d8": (
        "b46c9e7e4bad734f1140150baa7524ec1cfff6b3aa55e16728d449a494d41e94",
        dict(d=8, alpha=1.0, n_symbols=8000, flow="decoy", p=0.5,
             channel=ChannelParams(t=0.8, xi=0.002, detection="heterodyne"))),
    "gaussian_d1_homodyne": (
        "6085461d4f347d6713b0c9969a46171b352d4decf13d75d8578de32f6f0fd02e",
        dict(d=1, alpha=0.5, n_symbols=8192, flow="gaussian", band=RadiusBand(0.5, 1.5),
             channel=ChannelParams(t=0.95, xi=0.002, detection="homodyne"))),
    "gaussian_d8_heterodyne": (
        "690b61b155956266c3ddf62d02c0f5fd109f7702f77b389e2984372b3e7ad9b6",
        dict(d=8, alpha=1.0, n_symbols=40000, flow="gaussian", band=RadiusBand(0.95, 1.05),
             channel=ChannelParams(t=0.8, xi=0.002, detection="heterodyne"))),
}


@pytest.mark.parametrize("case", sorted(SESSION_PINS))
def test_session_bits_pinned(case, design8):
    pin, kwargs = SESSION_PINS[case]
    if kwargs["flow"] == "decoy":
        kwargs = dict(kwargs, decoy=design8)
    tr = run_session(ProtocolConfig(p_est=0.5, seed=5, **kwargs))
    assert tr.alice_bits.size > 0
    digest = hashlib.sha256()
    for array in (tr.labels, tr.alice_blocks, tr.bob_blocks, tr.outcomes, tr.basis,
                  tr.key_indices, tr.est_indices, tr.alice_bits, tr.bob_bits):
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((tr.t_hat, tr.xi_hat, tr.report.k, tr.band_kept_fraction,
                        tr.n_est_samples, tr.n_key_modes)).encode())
    assert digest.hexdigest() == pin


# Peak traced bytes per symbol of one run_session at 2e5 symbols, the
# transcript included.  The flows drop each intermediate once it is used and
# peak at 57 (Gaussian d=1), 97 (Gaussian d=8) and 103 B (decoy).  Flows that
# hold the modulated blocks, the quadratures and the permutation to the end,
# with int64 labels and out-of-place reflections, peak at 112, 144 and 137 B.
# At d=1 homodyne, holding any one of x, a or the permutation, or int64
# labels or basis, already costs 61-73 B.
MEMORY_CASES = {
    "gaussian_d1_homodyne": (60.0, dict(
        d=1, alpha=0.5, flow="gaussian",
        channel=ChannelParams(t=0.5, xi=0.005, detection="homodyne"))),
    "gaussian_d8_heterodyne": (120.0, dict(
        d=8, alpha=1.0, flow="gaussian",
        channel=ChannelParams(t=0.5, xi=0.005, detection="heterodyne"))),
    "decoy_d8": (120.0, dict(
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
    # numpy 2 would print np.float64(...) through repr()
    k = gaussian_transcript.report.k
    assert type(k) is float
    save_transcript(gaussian_transcript, tmp_path)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert f"k_bound {k!r}" in lines
    assert "np." not in "".join(lines)


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
], ids=["outcomes", "symbols", "both"])
def test_save_raises_a_table_write_error(tmp_path, gaussian_transcript, blocked, raised):
    # directories in the way of the tables: the error surfaces from the call once
    # the other table is whole, a symbols error wins over the worker's, and no
    # worker thread outlives the call
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
