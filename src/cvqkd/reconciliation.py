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
from .modulation import QUADRATURE_SCALE, ModulationScheme, normalize_sphere_blocks, read_lines


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

    The syndrome is each bit's parity against the frame's first bit.  Like
    every code here it works on batches: bits and LLRs carry the frame on the
    last axis and any leading axes broadcast, so syndrome maps [..., n] to
    [..., n-1] and decode maps ([..., n], [..., n-1]) to [..., n].
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


class ParityCheckCode:
    """Binary code given by an explicit sparse parity-check matrix.

    Decoding needs an externally supplied soft decoder (an LDPC implementation
    is out of scope here); syndrome computation and plumbing work without one.
    The decoder is called as decoder(llr, syndrome, code) on the whole batch.
    """

    def __init__(self, n_bits, k_bits, checks, decoder=None):
        if not 1 <= k_bits <= n_bits:
            raise ValueError("need 1 <= k_bits <= n_bits")
        self.n_bits = n_bits
        self.k_bits = k_bits
        rows = [np.asarray(sorted(c), dtype=np.intp) for c in checks]
        if len(rows) != n_bits - k_bits:
            raise ValueError(f"{len(rows)} checks do not match n-k = {n_bits - k_bits}")
        for row in rows:
            if row.size and (row[0] < 0 or row[-1] >= n_bits):
                raise ValueError("parity check references a bit out of range")
        # CSR layout: the checks' bit lists end to end, and where each nonempty
        # check starts.  reduceat would give an empty segment the next bit, not 0
        sizes = np.array([row.size for row in rows], dtype=np.intp)
        self._check_bits = np.concatenate([np.zeros(0, dtype=np.intp), *rows])
        self._nonempty = sizes > 0
        self._starts = (np.cumsum(sizes) - sizes)[self._nonempty]
        self.decoder = decoder

    @property
    def rate(self):
        return self.k_bits / self.n_bits

    def syndrome(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        out = np.zeros(bits.shape[:-1] + (self.n_bits - self.k_bits,), dtype=np.uint8)
        gathered = bits[..., self._check_bits]
        out[..., self._nonempty] = np.bitwise_xor.reduceat(gathered, self._starts, axis=-1)
        return out

    def decode(self, llr, syndrome):
        if self.decoder is None:
            raise NotImplementedError(
                "no soft decoder attached to this parity-check code"
            )
        return self.decoder(llr, syndrome, self)

    @classmethod
    def from_file(cls, path, decoder=None):
        """Load 'n_bits k_bits' header plus sparse 'check bit [1]' lines.

        Each error in a line names path:line.  A bit listed twice in a check cancels.
        """
        header, rows = [], []  # header: (n_bits, k_bits) once read

        def parse(line):
            parts = line.split()
            if not header:
                if len(parts) != 2:
                    raise ValueError("header must be 'n_bits k_bits'")
                n_bits, k_bits = int(parts[0]), int(parts[1])
                if not 1 <= k_bits <= n_bits:
                    raise ValueError(f"need 1 <= k_bits <= n_bits, got {line!r}")
                header.extend((n_bits, k_bits))
                rows.extend([] for _ in range(n_bits - k_bits))
                return
            if len(parts) not in (2, 3):
                raise ValueError("expected 'check bit [value]'")
            if len(parts) == 3 and parts[2] != "1":
                raise ValueError("only binary entries allowed")
            check, bit = int(parts[0]), int(parts[1])
            if not 0 <= check < len(rows):
                raise ValueError(f"check index {check} outside [0, {len(rows)})")
            if not 0 <= bit < header[0]:
                raise ValueError(f"bit index {bit} outside [0, {header[0]})")
            rows[check].append(bit)

        read_lines(path, parse)
        if not header:
            raise ValueError(f"{path}: missing header line")
        return cls(*header, rows, decoder=decoder)


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
    w_power = float(np.mean(v * v))
    sigma2_hat = max(w_power - 1.0 / d, 1e-12)
    snr_hat = 1.0 / (d * sigma2_hat)
    llr_all = 2.0 * math.sqrt(d) * v.reshape(-1) / sigma2_hat
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
