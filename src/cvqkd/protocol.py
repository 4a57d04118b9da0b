"""Full prepare-and-measure session flows with symmetrization and estimation.

Two flows are provided: a Gaussian-modulated run whose key blocks are carved
out afterwards by a norm band (post-selection), and a pre-labeled run that
mixes key spheres, Gaussian estimation blocks, and decoy spheres before
anything is sent.  run_session runs a flow, estimates the channel from its
estimation blocks, then reconciles the key blocks and bounds the key rate.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra, modulation, reconciliation, security
from .channel import COORDS_PER_MODE, DETECTIONS, NOISE_FLOORS, ChannelParams
from .channel import distance_to_T, transmit_measure
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
            ModulationScheme(self.d, self.alpha)
            for name in ("n_symbols", "symmetrization_k", "seed"):
                modulation.check_integer(name, getattr(self, name))
            modulation.modulation_variance(self.alpha)
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
    """

    config: ProtocolConfig
    events: list = field(default_factory=list)
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


def estimate_channel(alice_blocks, bob_blocks, v_a, detection):
    """(T_hat, xi_hat) from aligned Gaussian-modulated coordinates.

    T_hat = (C_hat / V_A)^2 with C_hat the Alice-quadrature/Bob covariance,
    so detector efficiency is folded in exactly as the measurement sees it.
    xi_hat is input-referenced and may come out slightly negative; it is
    reported raw.
    """
    a = np.asarray(alice_blocks, dtype=float).reshape(-1)
    y = np.asarray(bob_blocks, dtype=float).reshape(-1)
    if a.shape != y.shape:
        raise ValueError(f"alice ({a.size}) and bob ({y.size}) sample counts differ")
    if detection not in DETECTIONS:
        raise ValueError(f"detection must be one of {DETECTIONS}")
    if a.size < MIN_EST_SAMPLES:
        raise ProtocolError(
            f"only {a.size} estimation samples, need at least {MIN_EST_SAMPLES}"
        )
    floor = NOISE_FLOORS[detection]
    a_q = modulation.QUADRATURE_SCALE * a
    c_hat = float(np.mean(a_q * y))
    v_y = float(np.mean(y * y))
    t_hat = (c_hat / v_a) ** 2
    if t_hat < 1e-12:
        raise ProtocolError("estimated transmittance is numerically zero")
    xi_hat = (v_y - floor - t_hat * v_a) / t_hat
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
    """Map a config code id to a code object: 'identity', 'repN', or a file path.

    Any code a session cannot use is a ConfigError naming the code.  A code
    file gives a ParityCheckCode without a soft decoder, so it is refused
    until an LDPC decoder exists.
    """
    try:
        match = re.fullmatch(r"identity|rep(\d+)", code_id)
        if match:
            return reconciliation.RepetitionCode(int(match.group(1) or 1))
        if not os.path.exists(code_id):
            raise ValueError(
                f"unknown code {code_id!r} (expected 'identity', 'repN', or a code file path)"
            )
        reconciliation.ParityCheckCode.from_file(code_id)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"code {code_id!r}: {exc}") from None
    raise ConfigError(f"code {code_id!r}: parity-check code files have no decoder yet")


def run_decoy_flow(config, rng):
    """Pre-labeled flow: commit labels, modulate, mix, send, measure, reveal."""
    if config.flow != "decoy":
        raise ValueError(f"config.flow is {config.flow!r}, expected 'decoy'")
    d, params = config.d, config.channel
    if d != 8:
        log.info("decoy flow with d=%d is non-standard (designed for d=8)", d)
    n_blocks = config.n_coordinates // d
    transcript = SessionTranscript(config=config)

    p_key, p_est, p_dec = mix_probabilities(config.p, config.p_est)
    labels = rng.choice(3, size=n_blocks, p=[p_key, p_est, p_dec]).astype(np.int8)
    transcript.labels = labels
    transcript.record("labels_committed")

    scheme = ModulationScheme(d, config.alpha)
    key_idx = np.flatnonzero(labels == 0)
    est_idx = np.flatnonzero(labels == 1)
    dec_idx = np.flatnonzero(labels == 2)
    blocks = np.empty((n_blocks, d))
    blocks[key_idx] = modulation.sample_key_blocks(scheme, key_idx.size, rng)
    blocks[est_idx] = modulation.sample_gaussian_blocks(scheme, est_idx.size, rng)
    if dec_idx.size:
        pick = rng.choice(len(config.decoy.radii), size=dec_idx.size, p=config.decoy.weights)
        radii = np.asarray(config.decoy.radii)[pick]
        directions = modulation.sample_sphere_blocks(d, 1.0, dec_idx.size, rng)
        blocks[dec_idx] = radii[:, None] * directions
    transcript.alice_blocks = blocks
    transcript.record("modulated")

    transform = algebra.sample_orthogonal(n_blocks * d, config.symmetrization_k, rng)
    sent = transform.apply(blocks.reshape(-1)).reshape(n_blocks, d)
    transcript.transform = transform
    transcript.record("symmetrized")

    outcomes, basis = transmit_measure(modulation.blocks_to_quadratures(sent, d), params, rng)
    del sent
    transcript.outcomes, transcript.basis = outcomes, basis
    transcript.record("transmitted")
    transcript.record("measured")

    # outcome pairs are already in block coordinate order; undo the mixing
    y_flat = transform.apply_inverse(outcomes.reshape(-1))
    transcript.bob_blocks = y_flat.reshape(n_blocks, d)
    transcript.record("unsymmetrized")
    transcript.record("labels_revealed")
    return transcript


def run_gaussian_postselected(config, rng):
    """Gaussian flow: send, measure, symmetrize, pick estimation, band-filter."""
    if config.flow != "gaussian":
        raise ValueError(f"config.flow is {config.flow!r}, expected 'gaussian'")
    d, params = config.d, config.channel
    if d not in (1, 8):
        log.info("gaussian-postselected flow with d=%d is non-standard", d)
    transcript = SessionTranscript(config=config)
    n = config.n_symbols
    scheme = ModulationScheme(d, config.alpha)
    # both quadratures of every mode are modulated, homodyne or not
    x = modulation.sample_gaussian_blocks(scheme, 2 * n // d, rng)
    transcript.record("modulated")

    outcomes, basis = transmit_measure(modulation.blocks_to_quadratures(x, d), params, rng)
    transcript.outcomes, transcript.basis = outcomes, basis
    transcript.record("transmitted")
    transcript.record("measured")

    # with homodyne, Bob announces bases and Alice keeps only the measured coordinate
    a = x.reshape(n, 2)[np.arange(n), basis] if params.detection == "homodyne" else x.reshape(-1)
    y = outcomes.reshape(-1)
    del x

    transform = algebra.sample_orthogonal(a.size, config.symmetrization_k, rng)
    x_sym = transform.apply(a)
    del a
    y_sym = transform.apply(y)
    transcript.transform = transform
    transcript.record("symmetrized")

    n_blocks = x_sym.size // d
    transcript.alice_blocks = x_sym.reshape(n_blocks, d)
    transcript.bob_blocks = y_sym.reshape(n_blocks, d)

    n_est = int(round(config.p_est * n_blocks))
    labels = np.zeros(n_blocks, dtype=np.int8)
    labels[rng.permutation(n_blocks)[:n_est]] = 1
    transcript.labels = labels
    transcript.record("estimation_coordinates_chosen")

    outside = labels != 1
    keep = modulation.label_by_band(transcript.alice_blocks[outside], scheme, config.band)
    labels[outside] = np.where(keep, 0, -1)
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

    x = reconciliation.normalize_alice_blocks(transcript.alice_blocks[key_idx])
    y = reconciliation.normalize_bob_blocks(
        transcript.bob_blocks[key_idx], transcript.t_hat, config.alpha
    )
    result = reconciliation.reconcile(x, y, code, rng)
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
    est = transcript.est_indices
    transcript.t_hat, transcript.xi_hat = estimate_channel(
        transcript.alice_blocks[est], transcript.bob_blocks[est], config.v_a,
        config.channel.detection)
    transcript.record("estimated")
    distill(transcript, rng_distill)
    return transcript


def save_transcript(transcript, dir_path):
    """Write the session to a directory: manifest, CSV parts, transform, keys."""
    os.makedirs(dir_path, exist_ok=True)
    config = transcript.config
    with open(os.path.join(dir_path, "manifest.txt"), "w") as fh:
        fh.write("# cvqkd session manifest v1\n")
        fh.write(f"flow {config.flow}\n")
        fh.write(f"d {config.d}\n")
        fh.write(f"alpha {repr(config.alpha)}\n")
        fh.write(f"n_symbols {config.n_symbols}\n")
        fh.write(f"detection {config.channel.detection}\n")
        fh.write(f"t {repr(config.channel.t)}\n")
        fh.write(f"xi {repr(config.channel.xi)}\n")
        fh.write(f"eta {repr(config.channel.eta)}\n")
        fh.write(f"code {config.code}\n")
        fh.write(f"seed {config.seed}\n")
        fh.write(f"beta_target {repr(config.beta_target)}\n")
        fh.write(f"t_hat {repr(transcript.t_hat)}\n")
        fh.write(f"xi_hat {repr(transcript.xi_hat)}\n")
        fh.write(f"n_est_samples {transcript.n_est_samples}\n")
        if transcript.band_kept_fraction is not None:
            fh.write(f"band_kept_fraction {repr(transcript.band_kept_fraction)}\n")
        if transcript.report is not None:
            fh.write(f"beta_achieved {repr(transcript.reconcile_result.beta_achieved)}\n")
            fh.write(f"snr_hat {repr(transcript.reconcile_result.snr_hat)}\n")
            fh.write(f"k_bound {repr(transcript.report.k)}\n")
            fh.write(f"n_key_modes {transcript.n_key_modes}\n")
            fh.write(f"emitted_bits {transcript.alice_bits.size}\n")
        fh.write("events " + ",".join(transcript.events) + "\n")

    outcomes = transcript.outcomes
    if config.channel.detection == "homodyne":
        names, columns = ["basis", "y"], [transcript.basis, outcomes]
    else:
        names, columns = ["y_x", "y_p"], list(outcomes.T)
    write_outcomes = functools.partial(
        modulation.write_table, os.path.join(dir_path, "outcomes.csv"), "outcomes",
        ["mode_index"] + names, [np.arange(len(outcomes))] + columns)
    # a worker writes the larger table while this thread writes the other: the
    # encoder's numpy steps and the file writes release the GIL. Each file has
    # one writer, so no byte depends on thread timing. The pool joins its worker
    # before an error leaves the block: if symbols.csv fails, outcomes.csv is
    # still written whole, and the symbols error is raised in place of any of
    # the worker's
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(write_outcomes)
        modulation.write_blocks_csv(
            os.path.join(dir_path, "symbols.csv"), transcript.alice_blocks, transcript.labels)
        worker.result()
    with open(os.path.join(dir_path, "transform.bin"), "wb") as fh:
        transcript.transform.write(fh)
    for name, bits in (("alice_key.txt", transcript.alice_bits),
                       ("bob_key.txt", transcript.bob_bits)):
        digits = b"" if bits is None else (bits.astype(np.uint8) + ord("0")).tobytes()
        with open(os.path.join(dir_path, name), "wb") as fh:
            fh.write(digits + b"\n")
