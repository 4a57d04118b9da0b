"""Linear channel plus homodyne/heterodyne detection in shot-noise units.

Every outcome follows y = sqrt(T_eff) q + n where q is Alice's quadrature
symbol (variance V_A) and n is additive noise that is uncorrelated with q.
Gaussian detection noise has variance 1 + T_eff*xi for homodyne and
2 + T_eff*xi for heterodyne; the heterodyne outcomes are rescaled by sqrt(2)
so both modes share the sqrt(T_eff) signal gain and only the noise floor
differs.  Excess noise xi is referenced at the channel input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# vacuum noise at the detector in shot-noise units, per detection mode
NOISE_FLOORS = {"homodyne": 1.0, "heterodyne": 2.0}
DETECTIONS = tuple(NOISE_FLOORS)
NOISE_KINDS = ("gaussian", "uniform", "two-point", "none")


@dataclass(frozen=True)
class ChannelParams:
    """Transmittance, input-referenced excess noise, and detector settings."""

    t: float
    xi: float = 0.0
    eta: float = 1.0
    detection: str = "heterodyne"
    eta_trusted: bool = False

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"transmittance t must lie in (0, 1], got {self.t}")
        if not (math.isfinite(self.xi) and self.xi >= 0.0):
            raise ValueError(f"excess noise xi must be finite and nonnegative, got {self.xi}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"detector efficiency eta must lie in (0, 1], got {self.eta}")
        if self.detection not in DETECTIONS:
            raise ValueError(f"detection must be one of {DETECTIONS}, got {self.detection!r}")

    @classmethod
    def stack(cls, points):
        """One ChannelParams whose t, xi and eta are arrays over a batch.

        points is a non-empty sequence of ChannelParams, each validated when
        it was made, that share detection and eta_trusted; one ChannelParams
        is returned as it is.  t_eff, noise_floor and snr broadcast over it.
        """
        if isinstance(points, cls):
            return points
        first = points[0]
        if any((p.detection, p.eta_trusted) != (first.detection, first.eta_trusted)
               for p in points):
            raise ValueError("a channel batch must share detection and eta_trusted")
        batch = object.__new__(cls)
        for name in ("t", "xi", "eta"):
            object.__setattr__(batch, name, np.array([getattr(p, name) for p in points]))
        object.__setattr__(batch, "detection", first.detection)
        object.__setattr__(batch, "eta_trusted", first.eta_trusted)
        return batch

    @property
    def t_eff(self) -> float:
        """Transmittance seen by the detector.

        Measurement statistics always include the detector loss; eta_trusted
        only changes how the security analysis attributes it.
        """
        return self.eta * self.t

    @property
    def noise_floor(self) -> float:
        """Vacuum noise at the detector: 1 shot unit homodyne, 2 heterodyne."""
        return NOISE_FLOORS[self.detection]


def distance_to_T(d_km, loss_db_per_km=0.2):
    """Fiber transmittance 10^(-loss*d/10), default 0.2 dB/km."""
    if d_km < 0:
        raise ValueError("distance must be nonnegative")
    return 10.0 ** (-loss_db_per_km * d_km / 10.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean additive detector noise with a declared total variance.

    The variance counts everything added on top of sqrt(T_eff) q, shot noise
    included; transmit_measure defaults to the gaussian spec of variance
    noise_floor + T_eff*xi.
    """

    kind: str = "gaussian"
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.variance) or self.variance < 0.0:
            raise ValueError(f"noise variance must be finite and nonnegative, got {self.variance}")
        if self.kind == "none" and self.variance != 0.0:
            raise ValueError("'none' noise must declare zero variance")

    def sample(self, shape, rng):
        if self.kind == "none" or self.variance == 0.0:
            return np.zeros(shape)
        s = math.sqrt(self.variance)
        if self.kind == "gaussian":
            return s * rng.standard_normal(shape)
        if self.kind == "uniform":
            half = math.sqrt(3.0) * s
            return rng.uniform(-half, half, size=shape)
        # two-point: +-s with equal probability
        return s * (rng.integers(0, 2, size=shape) * 2 - 1)


def transmit_measure(symbols, params, rng, basis_choices=None, noise=None):
    """Send quadrature symbols through the channel and detect them.

    Returns (outcomes, basis).  Homodyne outcomes have shape (n_modes,) with
    the measured quadrature recorded in basis (0 = x, 1 = p); heterodyne
    outcomes have shape (n_modes, 2) and basis None.  The additive noise is
    drawn from noise, by default the Gaussian spec of variance
    noise_floor + T_eff*xi; second moments depend only on the declared
    variance, so estimates from matched non-Gaussian noise agree with it.
    """
    symbols = np.asarray(symbols, dtype=float)
    if symbols.ndim != 2 or symbols.shape[1] != 2:
        raise ValueError("symbols must be quadrature pairs of shape (n_modes, 2)")
    gain = math.sqrt(params.t_eff)
    if params.detection == "heterodyne":
        if basis_choices is not None:
            raise ValueError("basis choices apply to homodyne detection only")
        signal, basis = gain * symbols, None
    else:
        n = symbols.shape[0]
        if basis_choices is None:
            basis = rng.integers(0, 2, size=n)
        else:
            basis = np.asarray(basis_choices, dtype=int)
            if basis.shape != (n,) or not np.isin(basis, (0, 1)).all():
                raise ValueError("basis choices must be one 0/1 entry per mode")
        signal = gain * symbols[np.arange(n), basis]
    if noise is None:
        noise = NoiseSpec("gaussian", params.noise_floor + params.t_eff * params.xi)
    return signal + noise.sample(signal.shape, rng), basis


def snr(params, v_a):
    """Per-quadrature signal-to-noise ratio at the detector."""
    return params.t_eff * v_a / (params.noise_floor + params.t_eff * params.xi)
