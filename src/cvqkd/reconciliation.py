"""Reverse reconciliation by division-algebra reduction to a BI-AWGN channel.

Bob holds y = x + z with x on the unit sphere of R^d (both sides rescale to
get there).  He draws a uniform sign element u in {+-1/sqrt(d)}^d, publishes
t = u * y, and keeps the signs of u as his bits.  Alice computes
v = t * x^{-1} = u + w; multiplicativity of the algebra norm makes w an
isotropic Gaussian independent of u, so decoding u from v is a binary-input
AWGN problem handled with coset coding against Bob's syndrome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .modulation import QUADRATURE_SCALE, ModulationScheme, normalize_sphere_blocks


def bob_reduce(y_blocks, rng):
    """Draw sign elements u and form the public side information t = u * y."""
    y = np.atleast_2d(np.asarray(y_blocks, dtype=float))
    u = algebra.sample_unit(y.shape[1], rng, size=y.shape[0])
    return u, algebra.mul(u, y)


def alice_reduce(x_blocks, t_blocks):
    """Recover v = t * x^{-1}; equals u exactly on a noiseless channel."""
    x = np.atleast_2d(np.asarray(x_blocks, dtype=float))
    t = np.atleast_2d(np.asarray(t_blocks, dtype=float))
    if x.shape != t.shape:
        raise ValueError(f"shape mismatch between x {x.shape} and t {t.shape}")
    return algebra.mul(t, algebra.inv(x))


def normalize_alice_blocks(blocks):
    """A copy of the blocks scaled to unit norm (the sphere radius is publicly known)."""
    return normalize_sphere_blocks(np.array(blocks, dtype=float, ndmin=2), 1.0)


def normalize_bob_blocks(blocks, t_eff_hat, alpha):
    """Rescale Bob's quadrature-unit blocks onto Alice's unit sphere.

    The quadrature sphere radius is 2 alpha sqrt(d/2), and the channel gain is
    sqrt(T_eff); only Bob knows his calibration, so he divides both out.
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    if t_eff_hat <= 0:
        raise ValueError("estimated transmittance must be positive")
    radius = QUADRATURE_SCALE * ModulationScheme(blocks.shape[1], alpha).sphere_radius
    return blocks / (math.sqrt(t_eff_hat) * radius)


_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite.hermgauss(101)


def biawgn_capacity(snr):
    """Capacity in bits/use of the binary-input AWGN channel at the given snr.

    C = 1 - E_z[log2(1 + exp(-2 snr - 2 sqrt(snr) z))], z standard normal,
    evaluated by Gauss-Hermite quadrature.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    z = math.sqrt(2.0) * _HERMITE_NODES
    exponent = -2.0 * snr - 2.0 * math.sqrt(snr) * z
    expected = np.sum(_HERMITE_WEIGHTS * np.logaddexp(0.0, exponent)) / math.sqrt(math.pi)
    return max(0.0, 1.0 - float(expected) / math.log(2.0))


class RepetitionCode:
    """One key bit sent n_bits times; n_bits = 1 is the identity code.

    The syndrome is each bit's parity against the frame's first bit.  The
    code works on batches: bits and LLRs carry the frame on the last axis and
    any leading axes broadcast, so syndrome maps [..., n] to [..., n-1] and
    decode maps ([..., n], [..., n-1]) to [..., n].
    """

    k_bits = 1

    def __init__(self, n_bits):
        if n_bits < 1:
            raise ValueError("repetition length must be >= 1")
        self.n_bits = n_bits

    @property
    def rate(self):
        return 1 / self.n_bits

    def syndrome(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        return bits[..., 1:] ^ bits[..., :1]

    def decode(self, llr, syndrome):
        """Fold the LLRs onto the first bit, decide it (a tie gives 0), apply the parities."""
        parities = np.asarray(syndrome, dtype=np.uint8)
        signs = np.concatenate(
            [np.ones(parities.shape[:-1] + (1,)), 1.0 - 2.0 * parities], axis=-1
        )
        folded = np.sum(np.asarray(llr, dtype=float) * signs, axis=-1, keepdims=True)
        leader = (folded < 0).astype(np.uint8)
        return np.concatenate([leader, leader ^ parities], axis=-1)


@dataclass(frozen=True)
class ReconciliationMessage:
    """Bob's public reconciliation traffic: one t per block, one syndrome per frame."""

    t_blocks: np.ndarray
    syndromes: np.ndarray


@dataclass(frozen=True)
class ReconcileResult:
    bob_bits: np.ndarray
    alice_bits: np.ndarray
    frame_success: np.ndarray
    n_frames: int
    sigma2_hat: float
    snr_hat: float
    code_rate: float
    beta_achieved: float
    message: ReconciliationMessage


def reconcile(x_blocks, y_blocks, code, rng):
    """Run the full reverse-reconciliation pipeline over aligned block arrays.

    Both inputs must already be normalized (x on the unit sphere, y = x + z).
    Trailing bits that do not fill a whole frame are dropped.  The returned
    strings are the per-coordinate sign bits (Bob's true ones and Alice's
    coset decode).  beta_achieved is reported, and save_transcript writes it
    to manifest.txt, but the syndrome leakage is not charged yet: distill
    sizes the key with the configured beta_target, not with beta_achieved.
    """
    x = np.atleast_2d(np.asarray(x_blocks, dtype=float))
    y = np.atleast_2d(np.asarray(y_blocks, dtype=float))
    if x.shape != y.shape:
        raise ValueError(f"x blocks {x.shape} and y blocks {y.shape} differ")
    n_blocks, d = x.shape
    n_frames = (n_blocks * d) // code.n_bits
    if n_frames == 0:
        raise ValueError(
            f"{n_blocks * d} bits cannot fill one frame of {code.n_bits}"
        )

    # each working array is dropped after its last use; the inputs go too,
    # so a caller that passes fresh arrays holds none of them through here
    del x_blocks, y_blocks
    u, t = bob_reduce(y, rng)
    del y
    bits_all = (u.reshape(-1) < 0).astype(np.uint8)
    del u
    v = alice_reduce(x, t)
    del x
    v = v.reshape(-1)
    sigma2_hat = max(float(algebra.dot(v, v)) / v.size - 1.0 / d, 1e-12)
    snr_hat = 1.0 / (d * sigma2_hat)
    llr_all = 2.0 * math.sqrt(d) * v / sigma2_hat
    del v

    used = n_frames * code.n_bits
    frames = bits_all[:used].reshape(n_frames, code.n_bits)
    llr = llr_all[:used].reshape(n_frames, code.n_bits)

    syndromes = code.syndrome(frames)
    decoded = np.asarray(code.decode(llr, syndromes), dtype=np.uint8)
    success = np.all(decoded == frames, axis=1)

    capacity = biawgn_capacity(snr_hat)
    beta = code.rate / capacity if capacity > 0 else math.inf
    return ReconcileResult(
        bob_bits=frames.reshape(-1).copy(),
        alice_bits=decoded.reshape(-1),
        frame_success=success,
        n_frames=n_frames,
        sigma2_hat=sigma2_hat,
        snr_hat=snr_hat,
        code_rate=code.rate,
        beta_achieved=beta,
        message=ReconciliationMessage(t_blocks=t, syndromes=syndromes),
    )
