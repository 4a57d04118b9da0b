"""Linear channel plus homodyne/heterodyne detection in shot-noise units.

Every outcome follows y = sqrt(T_eff) q + n where q is Alice's quadrature
symbol (variance V_A) and n is additive noise that is uncorrelated with q.
Gaussian detection noise has variance 1 + T_eff*xi for homodyne and
2 + T_eff*xi for heterodyne; the heterodyne outcomes are rescaled by sqrt(2)
so both modes share the sqrt(T_eff) signal gain and only the noise floor
differs.  Excess noise xi is referenced at the channel input.

Both session flows run the same steps: draw_basis draws the homodyne bases,
the unit noise is drawn into the outcome array, and add_signal adds the
quadratures in place.  A homodyne flow passes the quadrature each mode
measured.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import CHUNK_ROWS

# vacuum noise at the detector in shot-noise units, per detection mode
NOISE_FLOORS = {"homodyne": 1.0, "heterodyne": 2.0}
DETECTIONS = tuple(NOISE_FLOORS)
# measured coordinates per mode: homodyne reads one quadrature, heterodyne both
COORDS_PER_MODE = {"homodyne": 1, "heterodyne": 2}
# standard single-mode fiber attenuation at 1550 nm
FIBER_LOSS_DB_PER_KM = 0.2


@dataclass(frozen=True)
class ChannelParams:
    """Transmittance, input-referenced excess noise, and detector settings.

    t, xi and eta are numbers, not bools, or arrays of numbers that broadcast
    together: one ChannelParams is then a batch of channels sharing detection
    and eta_trusted, and t_eff, noise_floor and snr broadcast over it.  Every
    element is checked.
    """

    t: float
    xi: float = 0.0
    eta: float = 1.0
    detection: str = "heterodyne"
    eta_trusted: bool = False

    def __post_init__(self):
        for name, rule, ok in (
            ("t", "transmittance t must lie in (0, 1]", lambda v: (0.0 < v) & (v <= 1.0)),
            ("xi", "excess noise xi must be finite and nonnegative",
             lambda v: np.isfinite(v) & (v >= 0.0)),
            ("eta", "detector efficiency eta must lie in (0, 1]", lambda v: (0.0 < v) & (v <= 1.0)),
        ):
            value = getattr(self, name)
            values = np.asarray(value)
            if values.dtype.kind not in "iuf":
                raise ValueError(f"{name} must be a number, got {value!r}")
            bad = ~ok(values)
            if bad.any():
                first = float(values[bad][0]) if values.ndim else value
                raise ValueError(f"{rule}, got {first}")
        if self.detection not in DETECTIONS:
            raise ValueError(f"detection must be one of {DETECTIONS}, got {self.detection!r}")

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


def distance_to_T(d_km):
    """Fiber transmittance 10^(-FIBER_LOSS_DB_PER_KM * d / 10) of a distance d >= 0 km.

    The error names a distance whose t is not a normal float: beyond about 15,380 km.
    """
    if not d_km >= 0:
        raise ValueError(f"distance must be nonnegative, got {d_km}")
    t = 10.0 ** (-FIBER_LOSS_DB_PER_KM * d_km / 10.0)
    if t < sys.float_info.min:
        raise ValueError(f"distance {d_km} km gives transmittance {t}, "
                         f"below the least normal float {sys.float_info.min}")
    return t


def draw_basis(basis, rng):
    """Fill the int8 array basis with uniform homodyne bases (0 = x, 1 = p).

    Each chunk of CHUNK_ROWS modes is drawn as int64, since another dtype
    draws another stream; the chunks continue one stream, so the bases are
    those of one int64 draw of the whole length, without its 8 B per mode.
    """
    for start in range(0, len(basis), CHUNK_ROWS):
        chunk = basis[start : start + CHUNK_ROWS]
        chunk[...] = rng.integers(0, 2, size=chunk.size)


def add_signal(outcomes, signal, params):
    """Turn unit-variance noise draws into outcomes, in place.

    Each outcome is scaled to variance noise_floor + T_eff*xi and gains
    sqrt(T_eff) times its quadrature in signal, which has the outcomes'
    shape, CHUNK_ROWS modes at a time.  A homodyne caller passes the
    quadrature each mode measured.
    """
    gain = math.sqrt(params.t_eff)
    sigma = math.sqrt(params.noise_floor + params.t_eff * params.xi)
    for start in range(0, len(outcomes), CHUNK_ROWS):
        out = outcomes[start : start + CHUNK_ROWS]
        out *= sigma
        out += gain * signal[start : start + CHUNK_ROWS]


def snr(params, v_a):
    """Per-quadrature signal-to-noise ratio at the detector."""
    return params.t_eff * v_a / (params.noise_floor + params.t_eff * params.xi)
