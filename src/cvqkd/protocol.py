"""Full prepare-and-measure session flows with symmetrization and estimation.

Two flows are provided: a Gaussian-modulated run whose key blocks are carved
out afterwards by a norm band (post-selection), and a pre-labeled run that
mixes key spheres, Gaussian estimation blocks, and decoy spheres before
anything is sent.  run_session runs a flow, estimates the channel from its
estimation blocks, then reconciles the key blocks and bounds the key rate.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra, modulation, reconciliation, security
from .channel import COORDS_PER_MODE, DETECTIONS, NOISE_FLOORS, ChannelParams
from .channel import add_signal, distance_to_T, draw_basis
from .decoy import DecoyDesign, mix_probabilities
from .modulation import ModulationScheme, RadiusBand

log = logging.getLogger(__name__)

FLOWS = ("gaussian", "decoy")
DEFAULT_BAND = RadiusBand(0.95, 1.05)
MIN_EST_SAMPLES = 100


class ProtocolError(RuntimeError):
    """A session cannot proceed (too little data, too many frame failures)."""


class ConfigError(ValueError):
    """A protocol configuration file or value is malformed."""


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    alpha: float
    n_symbols: int
    flow: str = "decoy"
    channel: ChannelParams = None
    p_est: float = 0.5
    p: float = 1.0
    band: RadiusBand = DEFAULT_BAND
    decoy: DecoyDesign = None
    symmetrization_k: int = 1
    beta_target: float = 0.95
    code: str = "rep16"
    seed: int = 0
    max_frame_failure: float = 0.05

    def __post_init__(self):
        try:
            for name in ("n_symbols", "symmetrization_k", "seed"):
                modulation.check_integer(name, getattr(self, name))
            for name in ("alpha", "p_est", "p", "beta_target", "max_frame_failure"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ConfigError(f"{name} must be a number, got {value!r}")
            ModulationScheme(self.d, self.alpha)
            if self.channel is None:
                object.__setattr__(self, "channel", _default_channel(self.d))
            if self.n_symbols < 1:
                raise ConfigError("n_symbols must be at least 1")
            if self.flow not in FLOWS:
                raise ConfigError(f"flow must be one of {FLOWS}, got {self.flow!r}")
            mix_probabilities(self.p, self.p_est)
            if not 1 <= self.symmetrization_k <= self.n_coordinates:
                raise ConfigError(
                    f"symmetrization_k must lie in [1, {self.n_coordinates}], the retained "
                    f"coordinate count, got {self.symmetrization_k}"
                )
            if not 0.0 < self.beta_target <= 1.0:
                raise ConfigError("beta_target must lie in (0, 1]")
            if not 0.0 <= self.max_frame_failure <= 1.0:
                raise ConfigError("max_frame_failure must lie in [0, 1]")
            if self.seed < 0:
                raise ConfigError(f"seed must be nonnegative, got {self.seed}")
            security.check_pairing(self.d, self.channel.detection)
            if self.flow == "decoy":
                if self.d < 2:
                    raise ConfigError("the decoy flow needs block dimension d >= 2")
                if self.p < 1.0:
                    if self.decoy is None:
                        raise ConfigError("decoy flow with p < 1 needs a decoy design")
                    if (
                        self.decoy.d != self.d
                        or abs(self.decoy.alpha - self.alpha) > 1e-9
                        or abs(self.decoy.p - self.p) > 1e-9
                    ):
                        raise ConfigError(
                            "decoy design was optimized for "
                            f"(d={self.decoy.d}, alpha={self.decoy.alpha}, p={self.decoy.p}), "
                            f"config has (d={self.d}, alpha={self.alpha}, p={self.p})"
                        )
            if self.n_coordinates % self.d != 0:
                raise ConfigError(
                    f"{self.n_coordinates} retained coordinates do not split into "
                    f"blocks of {self.d}"
                )
            resolve_code(self.code)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def n_coordinates(self):
        """Coordinates entering the block structure (homodyne keeps one per mode)."""
        return COORDS_PER_MODE[self.channel.detection] * self.n_symbols

    @property
    def v_a(self):
        return float(modulation.modulation_variance(self.alpha))

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            modulation.read_lines(path, lambda line: modulation.read_key(line, _CONFIG_CASTS, values))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return _build_config(cls, values, path)


def _default_channel(d, **given):
    """The channel a config leaves out: t = 1, no loss, and the detection d pairs with."""
    return ChannelParams(**{"t": 1.0, "detection": security.default_detection(d), **given})


def _parse_bool(value):
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


_CONFIG_CASTS = {
    "flow": str,
    "d": int,
    "alpha": float,
    "n_symbols": int,
    "p_est": float,
    "p": float,
    "gamma_min": float,
    "gamma_max": float,
    "transmittance": float,
    "distance_km": float,
    "xi": float,
    "eta": float,
    "detection": str,
    "eta_trusted": _parse_bool,
    "symmetrization_k": int,
    "beta_target": float,
    "code": str,
    "seed": int,
    "decoy_file": str,
    "max_frame_failure": float,
}


# config-file keys that set a ChannelParams field, and the field each sets
_CHANNEL_KEYS = {
    "transmittance": "t",
    "xi": "xi",
    "eta": "eta",
    "detection": "detection",
    "eta_trusted": "eta_trusted",
}


def _build_config(cls, values, path):
    """Build from the cast values the file gives; the dataclass defaults fill in the rest."""
    for key in ("d", "alpha", "n_symbols"):
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if "transmittance" in values and "distance_km" in values:
        raise ConfigError(f"{path}: give either transmittance or distance_km, not both")

    decoy_file = values.pop("decoy_file", None)
    if decoy_file is not None:
        if not os.path.isabs(decoy_file):
            decoy_file = os.path.join(os.path.dirname(os.path.abspath(path)), decoy_file)
        try:
            values["decoy"] = DecoyDesign.load(decoy_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: cannot load decoy design: {exc}") from None
    try:
        if "distance_km" in values:
            values["transmittance"] = distance_to_T(values.pop("distance_km"))
        channel = {field: values.pop(key) for key, field in _CHANNEL_KEYS.items()
                   if key in values}
        values["channel"] = _default_channel(values["d"], **channel)
        band = {key: values.pop(key) for key in ("gamma_min", "gamma_max") if key in values}
        if band:
            values["band"] = replace(cls.band, **band)
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class SessionTranscript:
    """Append-only record of one session; reconciliation fields fill in later.

    alice_blocks hold amplitude-unit coordinates; bob_blocks hold the aligned
    quadrature-unit outcomes (already un-mixed where the flow requires it).
    labels (one per block, the one record of block roles) and basis (one per
    homodyne mode) are int8; the block indices and counts are derived from labels.
    event_ns holds the perf_counter_ns() reading taken as each event was
    recorded; it is a timing, so no saved file holds it.
    """

    config: ProtocolConfig
    events: list = field(default_factory=list)
    event_ns: list = field(default_factory=list)
    labels: np.ndarray = None
    alice_blocks: np.ndarray = None
    bob_blocks: np.ndarray = None
    transform: algebra.OrthogonalTransform = None
    outcomes: np.ndarray = None
    basis: np.ndarray = None
    t_hat: float = None
    xi_hat: float = None
    reconcile_result: reconciliation.ReconcileResult = None
    report: security.KeyRateReport = None
    alice_bits: np.ndarray = None
    bob_bits: np.ndarray = None

    def record(self, event):
        self.events.append(event)
        self.event_ns.append(time.perf_counter_ns())

    def _count(self, label):
        return int(np.count_nonzero(self.labels == label))

    @property
    def key_indices(self):
        return np.flatnonzero(self.labels == 0)

    @property
    def est_indices(self):
        return np.flatnonzero(self.labels == 1)

    @property
    def n_est_samples(self):
        return self._count(1) * self.config.d

    @property
    def n_key_modes(self):
        return self._count(0) * self.config.d // COORDS_PER_MODE[self.config.channel.detection]

    @property
    def band_kept_fraction(self):
        if self.config.flow != "gaussian":
            return None
        outside = self.labels.size - self._count(1)
        return self._count(0) / outside if outside else 0.0


def estimate_channel(alice_blocks, bob_blocks, v_a, detection, est=None):
    """(T_hat, xi_hat) from aligned Gaussian-modulated coordinates.

    est holds the ascending indices of the estimation blocks (the leading
    axis); None takes every block.  The picked coordinates give the same
    estimate, bit for bit, as passing the gathered rows: both products are
    built one algebra.pairwise_sum slice at a time, from the rows that slice
    covers, so nothing the size of the estimation is held.

    T_hat = (C_hat / V_A)^2 with C_hat the Alice-quadrature/Bob covariance,
    so detector efficiency is folded in exactly as the measurement sees it.
    xi_hat is input-referenced and may come out slightly negative; it is
    reported raw.
    """
    a = np.atleast_1d(np.asarray(alice_blocks, dtype=float))
    y = np.atleast_1d(np.asarray(bob_blocks, dtype=float))
    if a.shape != y.shape:
        raise ValueError(f"alice ({a.size}) and bob ({y.size}) sample counts differ")
    if detection not in DETECTIONS:
        raise ValueError(f"detection must be one of {DETECTIONS}")
    width = math.prod(a.shape[1:])
    n_samples = (len(a) if est is None else len(est)) * width
    if n_samples < MIN_EST_SAMPLES:
        raise ProtocolError(
            f"only {n_samples} estimation samples, need at least {MIN_EST_SAMPLES}"
        )

    def products(i, j):
        """Coordinates [i, j) of the picked ones, as the rows 2a*y and y*y of one array."""
        lo, hi = i // width, -(-j // width)
        rows = slice(lo, hi) if est is None else est[lo:hi]
        part = slice(i - lo * width, j - lo * width)
        a_part, y_part = a[rows].reshape(-1)[part], y[rows].reshape(-1)[part]
        return np.stack((modulation.QUADRATURE_SCALE * a_part * y_part, y_part * y_part))

    c_hat, v_y = (algebra.pairwise_sum(products, n_samples) / n_samples).tolist()
    t_hat = (c_hat / v_a) ** 2
    if t_hat < 1e-12:
        raise ProtocolError("estimated transmittance is numerically zero")
    xi_hat = (v_y - NOISE_FLOORS[detection] - t_hat * v_a) / t_hat
    return t_hat, xi_hat


def estimation_std(t_hat, xi_hat, v_a, n_samples, detection):
    """Delta-method standard deviations of (T_hat, xi_hat).

    Uses the Gaussian fourth-moment identities Var(xy) = VxVy + C^2,
    Var(y^2) = 2Vy^2, Cov(xy, y^2) = 2C Vy.
    """
    floor = NOISE_FLOORS[detection]
    c = math.sqrt(t_hat) * v_a
    v_y = floor + t_hat * (v_a + xi_hat)
    var_c = (v_a * v_y + c * c) / n_samples
    var_vy = 2.0 * v_y * v_y / n_samples
    cov = 2.0 * c * v_y / n_samples
    dt_dc = 2.0 * c / (v_a * v_a)
    std_t = abs(dt_dc) * math.sqrt(var_c)
    dxi_dvy = 1.0 / t_hat
    dxi_dc = -2.0 * (v_y - floor) / (t_hat * c)
    var_xi = dxi_dvy**2 * var_vy + dxi_dc**2 * var_c + 2.0 * dxi_dvy * dxi_dc * cov
    return std_t, math.sqrt(max(var_xi, 0.0))


def resolve_code(code_id):
    """Map a config code id to a code object: 'identity' or 'repN'.

    Any code a session cannot use is a ConfigError naming the code; any other
    id, a file path included, is an unknown code.
    """
    match = isinstance(code_id, str) and re.fullmatch(r"identity|rep(\d+)", code_id)
    if not match:
        raise ConfigError(f"code {code_id!r}: unknown code (expected 'identity' or 'repN')")
    try:
        return reconciliation.RepetitionCode(int(match.group(1) or 1))
    except ValueError as exc:
        raise ConfigError(f"code {code_id!r}: {exc}") from None


def _choose(uniforms, p):
    """rng.choice(len(p), p=p) from its rng.random draws: each counts p's cdf entries <= it."""
    picks = np.zeros(len(uniforms), dtype=np.min_scalar_type(-len(p)))
    cdf = np.cumsum(p)
    for c in (cdf / cdf[-1])[:-1]:  # the last entry is 1.0, above every draw in [0, 1)
        picks += uniforms >= c
    return picks


def run_decoy_flow(config, rng):
    """Pre-labeled flow: commit labels, modulate, mix, send, measure, reveal.

    One worker thread makes every draw from rng, in the serial stream order:
    labels, key and estimation normals, decoy radius picks and normals,
    reflector stages, detection noise.  Only it touches rng while its pool is
    open, so no byte depends on thread timing or the CPU count.  This thread
    waits for the labels, which give the sizes, then shapes each block range
    once drawn, scatters the ranges into Alice's blocks and reflects the
    doubled signal beside the noise.  The ranges are rows of one buffer, which
    then holds that signal.  This thread allocates every large array and the
    worker only fills it; a future of rng.standard_normal(out=) keeps its
    array, so each is dropped once its result is taken.
    """
    if config.flow != "decoy":
        raise ValueError(f"config.flow is {config.flow!r}, expected 'decoy'")
    d, params = config.d, config.channel
    if d != 8:
        log.info("decoy flow with d=%d is non-standard (designed for d=8)", d)
    n_blocks = config.n_coordinates // d
    transcript = SessionTranscript(config=config)
    scheme = ModulationScheme(d, config.alpha)
    with ThreadPoolExecutor(1) as pool:
        uniforms = np.empty(n_blocks)
        pool.submit(rng.random, out=uniforms).result()
        labels = transcript.labels = _choose(uniforms, mix_probabilities(config.p, config.p_est))
        transcript.record("labels_committed")

        parts = np.empty((n_blocks, d))
        key, est, dec = np.split(parts, np.cumsum([np.count_nonzero(labels == c) for c in (0, 1)]))
        drawn = [pool.submit(rng.standard_normal, out=key),
                 pool.submit(rng.standard_normal, out=est)]
        if len(dec):
            uniforms = np.empty(len(dec))
            drawn += [pool.submit(rng.random, out=uniforms),
                      pool.submit(rng.standard_normal, out=dec)]
        stages = np.zeros((config.symmetrization_k, n_blocks * d))
        drawn.append(pool.submit(algebra.draw_stages, stages, rng))
        # the config pairs d >= 2 with heterodyne detection, which reads both quadratures
        outcomes = np.empty((n_blocks * d // 2, 2))
        drawn.append(pool.submit(rng.standard_normal, out=outcomes))

        drawn.pop(0).result()
        modulation.normalize_sphere_blocks(key, scheme.sphere_radius)
        drawn.pop(0).result()
        modulation.scale_gaussian_blocks(est, scheme)
        if len(dec):
            drawn.pop(0).result()
            drawn.pop(0).result()
            modulation.normalize_sphere_blocks(dec, 1.0)
            dec *= np.asarray(config.decoy.radii)[_choose(uniforms, config.decoy.weights), None]
        del key, est, dec
        # a stable sort by label lists the key, estimation and decoy blocks in order
        blocks = transcript.alice_blocks = np.empty((n_blocks, d))
        blocks[np.argsort(labels, kind="stable")] = parts
        transcript.record("modulated")

        # doubling before the reflections gives the bits of doubling after them:
        # a power-of-two scale scales every rounding exactly, short of subnormals
        sent = np.multiply(modulation.QUADRATURE_SCALE, blocks, out=parts).reshape(-1)
        del parts
        drawn.pop(0).result()
        transform = transcript.transform = algebra.transform_from_stages(stages)
        transform.reflect(sent)
        transcript.record("symmetrized")
        drawn.pop(0).result()
    add_signal(outcomes, sent.reshape(outcomes.shape), params)
    del sent
    transcript.outcomes = outcomes
    transcript.record("transmitted")
    transcript.record("measured")

    # outcome pairs are already in block coordinate order; undo the mixing
    transcript.bob_blocks = transform.apply_inverse(outcomes.reshape(-1)).reshape(n_blocks, d)
    transcript.record("unsymmetrized")
    transcript.record("labels_revealed")
    return transcript


def run_gaussian_postselected(config, rng):
    """Gaussian flow: modulate, send, measure, symmetrize, pick estimation, band-filter.

    One worker thread makes every draw from rng, in the stream order of the
    serial steps: the Gaussian blocks, the homodyne basis, the detection
    noise, the reflectors' stages and the labels' uniforms.  Only it touches
    rng while its pool is open, so no byte depends on thread timing or the
    CPU count.  The draws release the GIL, and this thread computes beside
    them: the blocks' scaling beside the basis, Alice's coordinate beside the
    noise, the signal beside the stages, and Alice's reflection and band mask
    beside the uniforms.  They label a block for estimation with probability
    p_est, by the decoy flow's law at p = 1, since this flow sends no decoys.

    Each draw fills an array this thread allocates, so the worker's malloc
    arena holds no large array.  The stages and the uniforms are allocated
    once the modulated blocks are freed, and Bob's reflection once the
    uniforms are, so the flow holds no more at once than the serial order
    did.  The events keep their order, each recorded once its arrays are
    final, so "symmetrized" follows Bob's reflection.
    """
    if config.flow != "gaussian":
        raise ValueError(f"config.flow is {config.flow!r}, expected 'gaussian'")
    d, params = config.d, config.channel
    if d not in (1, 8):
        log.info("gaussian-postselected flow with d=%d is non-standard", d)
    transcript = SessionTranscript(config=config)
    n = config.n_symbols
    scheme = ModulationScheme(d, config.alpha)
    homodyne = params.detection == "homodyne"
    with ThreadPoolExecutor(1) as pool:
        # both quadratures of every mode are modulated, homodyne or not: the
        # 2n // d blocks, filled in order and viewed as the modes' amplitude
        # pairs. A future of rng.standard_normal(out=) keeps its array, so it
        # is dropped
        x = np.empty((n, 2))
        drawn_x = pool.submit(rng.standard_normal, out=x)
        basis = np.empty(n, dtype=np.int8) if homodyne else None
        drawn_basis = pool.submit(draw_basis, basis, rng) if homodyne else None
        outcomes = np.empty(n if homodyne else (n, 2))
        drawn_noise = pool.submit(rng.standard_normal, out=outcomes)
        drawn_x.result()
        del drawn_x
        modulation.scale_gaussian_blocks(x, scheme)
        transcript.record("modulated")

        # with homodyne, Bob announces bases and Alice keeps only the measured
        # amplitude coordinate
        if homodyne:
            drawn_basis.result()
            a = np.where(basis, x[:, 1], x[:, 0])
        else:
            a = x.reshape(-1)
        del x
        stages = np.zeros((config.symmetrization_k, a.size))
        drawn_stages = pool.submit(algebra.draw_stages, stages, rng)
        n_blocks = a.size // d
        uniforms = np.empty(n_blocks)
        drawn_uniforms = pool.submit(rng.random, out=uniforms)
        # the signal is her coordinate in quadrature units; doubling and
        # halving are exact, because QUADRATURE_SCALE is a power of two
        a *= modulation.QUADRATURE_SCALE
        drawn_noise.result()
        add_signal(outcomes, a.reshape(outcomes.shape), params)
        a /= modulation.QUADRATURE_SCALE
        transcript.outcomes, transcript.basis = outcomes, basis
        transcript.record("transmitted")
        transcript.record("measured")

        drawn_stages.result()
        transform = transcript.transform = algebra.transform_from_stages(stages)
        del stages
        alice_blocks = transform.reflect(a).reshape(n_blocks, d)
        del a
        # a block outside the band is dropped unless it is an estimation block
        keep = modulation.label_by_band(alice_blocks, scheme, config.band)
        drawn_uniforms.result()
    labels = _choose(uniforms, mix_probabilities(1.0, config.p_est))
    del uniforms, drawn_uniforms
    transcript.alice_blocks = alice_blocks
    transcript.bob_blocks = transform.apply(outcomes.reshape(-1)).reshape(n_blocks, d)
    transcript.record("symmetrized")
    transcript.labels = labels
    transcript.record("estimation_coordinates_chosen")

    # in one byte mask: a zero label outside the band (True > False) turns to -1
    drop = labels == 0
    np.greater(drop, keep, out=drop)
    labels -= drop.view(np.int8)
    transcript.record("band_filtered")
    return transcript


def distill(transcript, rng):
    """Reconcile the key blocks, bound the key rate, truncate to the bound.

    Privacy amplification is modeled as plain truncation of the agreed bit
    string to floor(K * n_key_modes) bits; no hashing is performed.  A bound
    K <= 0 refuses to emit any key material: the key is the empty prefix.
    """
    config = transcript.config
    if transcript.t_hat is None:
        raise ProtocolError("transcript has no channel estimate")
    code = resolve_code(config.code)
    d = config.d
    key_idx = transcript.key_indices
    n_bits_avail = key_idx.size * d
    if n_bits_avail < code.n_bits:
        kept = transcript.band_kept_fraction
        detail = "" if kept is None else f" (band kept fraction {kept:.4f})"
        raise ProtocolError(
            f"{key_idx.size} key blocks give {n_bits_avail} bits, fewer than one "
            f"{code.n_bits}-bit frame{detail}"
        )

    # the key rows are passed unnamed, so reconcile can free them as it goes
    result = reconciliation.reconcile(
        reconciliation.normalize_alice_blocks(transcript.alice_blocks[key_idx]),
        reconciliation.normalize_bob_blocks(
            transcript.bob_blocks[key_idx], transcript.t_hat, config.alpha),
        code, rng)
    transcript.reconcile_result = result
    failure = 1.0 - float(np.mean(result.frame_success))
    if failure > config.max_frame_failure:
        raise ProtocolError(
            f"frame failure rate {failure:.4f} exceeds {config.max_frame_failure} "
            f"({result.n_frames} frames at snr_hat {result.snr_hat:.4f})"
        )

    xi_eff = transcript.xi_hat
    if xi_eff < 0.0:
        log.warning(
            "clamping negative excess-noise estimate %.3g to 0 for the key-rate bound",
            xi_eff,
        )
        xi_eff = 0.0
    params_hat = replace(
        config.channel,
        t=min(transcript.t_hat / config.channel.eta, 1.0),
        xi=xi_eff,
    )
    report = security.secret_key_rate(d, config.v_a, params_hat, config.beta_target)
    transcript.report = report
    transcript.record("reconciled")

    # failed frames are detected (hash in a real system) and discarded, so the
    # distillable pool is the corrected bits of the successful frames only
    kept = np.repeat(result.frame_success, code.n_bits)
    alice_pool = result.alice_bits[kept]
    bob_pool = result.bob_bits[kept]
    refused = report.k <= 0.0
    if refused:
        log.warning("key-rate bound %.3g is not positive; emitting no key", report.k)
    n_emit = 0 if refused else min(int(report.k * transcript.n_key_modes), alice_pool.size)
    transcript.alice_bits = alice_pool[:n_emit].copy()
    transcript.bob_bits = bob_pool[:n_emit].copy()
    transcript.record("key_refused" if refused else "key_emitted")


def run_session(config):
    """Run the session in protocol order: flow, channel estimate, distillation.

    The flow and distillation draw from two streams spawned from config.seed,
    so equal configs give byte-identical transcripts.
    """
    rng_flow, rng_distill = map(np.random.default_rng,
                                np.random.SeedSequence(config.seed).spawn(2))
    flow = run_decoy_flow if config.flow == "decoy" else run_gaussian_postselected
    transcript = flow(config, rng_flow)
    transcript.t_hat, transcript.xi_hat = estimate_channel(
        transcript.alice_blocks, transcript.bob_blocks, config.v_a,
        config.channel.detection, transcript.est_indices)
    transcript.record("estimated")
    distill(transcript, rng_distill)
    return transcript


def save_transcript(transcript, dir_path):
    """Write the session to a directory: manifest, CSV parts, transform, keys."""
    os.makedirs(dir_path, exist_ok=True)
    config, channel = transcript.config, transcript.config.channel
    pairs = [("flow", config.flow), ("d", config.d), ("alpha", config.alpha),
             ("n_symbols", config.n_symbols), ("detection", channel.detection),
             ("t", channel.t), ("xi", channel.xi), ("eta", channel.eta), ("code", config.code),
             ("seed", config.seed), ("beta_target", config.beta_target),
             ("t_hat", transcript.t_hat), ("xi_hat", transcript.xi_hat),
             ("n_est_samples", transcript.n_est_samples)]
    if transcript.band_kept_fraction is not None:
        pairs.append(("band_kept_fraction", transcript.band_kept_fraction))
    if transcript.report is not None:
        result = transcript.reconcile_result
        pairs += [("beta_achieved", result.beta_achieved), ("snr_hat", result.snr_hat),
                  ("k_bound", transcript.report.k), ("n_key_modes", transcript.n_key_modes),
                  ("emitted_bits", transcript.alice_bits.size)]
    pairs.append(("events", ",".join(transcript.events)))
    with open(os.path.join(dir_path, "manifest.txt"), "w") as fh:
        modulation.write_keys(fh, "# cvqkd session manifest v1", pairs)

    if channel.detection == "homodyne":
        names, columns = ["basis", "y"], [transcript.basis, transcript.outcomes]
    else:
        names, columns = ["y_x", "y_p"], [transcript.outcomes]
    coords = [f"coord_{i}" for i in range(transcript.alice_blocks.shape[1])]
    # a worker writes the larger table while this thread writes symbols.csv, then
    # transform.bin: the encoder's numpy steps and the file writes release the GIL,
    # and each file has one writer, so no byte depends on thread timing. The pool
    # joins its worker before an error leaves the block, so outcomes.csv is still
    # written whole, and this thread's error is raised in place of the worker's
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(modulation.write_table, os.path.join(dir_path, "outcomes.csv"),
                             "outcomes", ["mode_index", *names], columns)
        modulation.write_table(os.path.join(dir_path, "symbols.csv"), "symbols",
                               ["block_index", *coords, "label"],
                               [transcript.alice_blocks, transcript.labels])
        with open(os.path.join(dir_path, "transform.bin"), "wb") as fh:
            transcript.transform.write(fh)
        worker.result()
    for name, bits in (("alice_key.txt", transcript.alice_bits),
                       ("bob_key.txt", transcript.bob_bits)):
        digits = b"" if bits is None else (bits.astype(np.uint8) + ord("0")).tobytes()
        with open(os.path.join(dir_path, name), "wb") as fh:
            fh.write(digits + b"\n")
