"""Whole-array forms of the session steps, for bit-equality checks.

These are the straightforward formulas that channel.add_signal,
modulation.label_by_band, protocol.estimate_channel and the two flows
replaced with chunked and in-place passes: every step here forms its
temporaries over the whole array, gathers rows by an int64 index, picks the
homodyne quadrature with an np.arange index and reflects out of place.  The
package must give the same bits from the same generator state.

The three samplers below draw and shape their blocks or stages in one call;
the flows make the same draws on a worker thread and shape them in place.
"""

import math

import numpy as np

import orthogonal_oracle
from cvqkd import algebra, modulation
from cvqkd.channel import NOISE_FLOORS
from cvqkd.decoy import mix_probabilities


def sample_key_blocks(scheme, n_blocks, rng):
    """Key modulation: uniform directions at the fixed radius alpha*sqrt(d/2).

    For d = 1 the sphere is the two-point set +-alpha/sqrt(2), and consecutive
    blocks pair into the four coherent amplitudes alpha*exp(i(2k+1)pi/4).
    """
    return modulation.sample_sphere_blocks(scheme.d, scheme.sphere_radius, n_blocks, rng)


def sample_gaussian_blocks(scheme, n_blocks, rng):
    """Gaussian modulation: i.i.d. N(0, alpha^2/2) coordinates.

    Block radii over alpha sqrt(d/2) then follow chi_d / sqrt(d), the law
    the radius-band flow filters on.
    """
    blocks = rng.standard_normal((n_blocks, scheme.d))
    modulation.scale_gaussian_blocks(blocks, scheme)
    return blocks


def sample_orthogonal(n, k, rng):
    """Random orthogonal map on R^n as a product of k nested Householder stages."""
    rows = np.zeros((k, n))
    algebra.draw_stages(rows, rng)
    return algebra.transform_from_stages(rows)


def transmit_measure(symbols, params, rng):
    """(outcomes, basis) with the signal formed as one whole array."""
    symbols = np.asarray(symbols, dtype=float)
    gain = math.sqrt(params.t_eff)
    if params.detection == "heterodyne":
        signal, basis = gain * symbols, None
    else:
        n = symbols.shape[0]
        basis = rng.integers(0, 2, size=n).astype(np.int8)
        signal = gain * symbols[np.arange(n), basis]
    sigma = math.sqrt(params.noise_floor + params.t_eff * params.xi)
    outcomes = rng.standard_normal(signal.shape)
    outcomes *= sigma
    outcomes += signal
    return outcomes, basis


def label_by_band(blocks, scheme, band):
    """The band mask from the radii of all blocks at once."""
    blocks = np.asarray(blocks, dtype=float)
    r = np.linalg.norm(blocks, axis=-1) / scheme.sphere_radius
    return (r >= band.gamma_min) & (r <= band.gamma_max)


def estimate_channel(alice_rows, bob_rows, v_a, detection):
    """(T_hat, xi_hat) from already gathered estimation rows."""
    a = np.asarray(alice_rows, dtype=float).reshape(-1)
    y = np.asarray(bob_rows, dtype=float).reshape(-1)
    a_q = modulation.QUADRATURE_SCALE * a
    c_hat = float(np.mean(a_q * y))
    v_y = float(np.mean(y * y))
    t_hat = (c_hat / v_a) ** 2
    return t_hat, (v_y - NOISE_FLOORS[detection] - t_hat * v_a) / t_hat


def gaussian_flow(config, rng):
    """The Gaussian flow's arrays, drawn in the order of the package's flow.

    Alice keeps her amplitude coordinate x itself, indexed by the basis, and
    the labels are drawn after both reflections are applied, with the decoy
    flow's rng.choice at p = 1.  Returns a dict of the transcript's arrays.
    """
    d, params, n = config.d, config.channel, config.n_symbols
    scheme = modulation.ModulationScheme(d, config.alpha)
    x = sample_gaussian_blocks(scheme, 2 * n // d, rng)
    outcomes, basis = transmit_measure(modulation.QUADRATURE_SCALE * x.reshape(-1, 2),
                                       params, rng)
    a = x.reshape(n, 2)[np.arange(n), basis] if params.detection == "homodyne" else x.reshape(-1)
    reflectors = orthogonal_oracle.sample_reflectors(a.size, config.symmetrization_k, rng)
    n_blocks = a.size // d
    alice_blocks = orthogonal_oracle.apply_reflectors(reflectors, a).reshape(n_blocks, d)
    bob_blocks = orthogonal_oracle.apply_reflectors(reflectors, outcomes.reshape(-1))
    labels = rng.choice(3, size=n_blocks, p=mix_probabilities(1.0, config.p_est))
    labels = labels.astype(np.int8)
    outside = labels != 1
    keep = label_by_band(alice_blocks[outside], scheme, config.band)
    labels[outside] = np.where(keep, 0, -1)
    return dict(labels=labels, alice_blocks=alice_blocks,
                bob_blocks=bob_blocks.reshape(n_blocks, d), outcomes=outcomes, basis=basis,
                reflectors=reflectors)


def decoy_flow(config, rng):
    """The decoy flow's arrays from its first formula, in the package's draw order.

    Each label's blocks are drawn whole and scattered by a boolean mask, the
    blocks are reflected out of place, then doubled into quadrature
    pairs, sent through transmit_measure, and Bob's outcomes are reflected
    back in reverse order.  Returns a dict of the transcript's arrays.
    """
    d, params = config.d, config.channel
    n_blocks = config.n_coordinates // d
    labels = rng.choice(3, size=n_blocks, p=mix_probabilities(config.p, config.p_est))
    labels = labels.astype(np.int8)
    scheme = modulation.ModulationScheme(d, config.alpha)
    n_key, n_est, n_dec = (np.count_nonzero(labels == code) for code in (0, 1, 2))
    blocks = np.empty((n_blocks, d))
    blocks[labels == 0] = sample_key_blocks(scheme, n_key, rng)
    blocks[labels == 1] = sample_gaussian_blocks(scheme, n_est, rng)
    if n_dec:
        radii = np.asarray(config.decoy.radii)[
            rng.choice(len(config.decoy.radii), size=n_dec, p=config.decoy.weights)]
        blocks[labels == 2] = radii[:, None] * modulation.sample_sphere_blocks(d, 1.0, n_dec, rng)
    reflectors = orthogonal_oracle.sample_reflectors(n_blocks * d, config.symmetrization_k, rng)
    sent = orthogonal_oracle.apply_reflectors(reflectors, blocks.reshape(-1))
    outcomes, basis = transmit_measure(modulation.QUADRATURE_SCALE * sent.reshape(-1, 2),
                                       params, rng)
    bob_blocks = orthogonal_oracle.apply_reflectors(reflectors[::-1], outcomes.reshape(-1))
    return dict(labels=labels, alice_blocks=blocks, bob_blocks=bob_blocks.reshape(n_blocks, d),
                outcomes=outcomes, basis=basis, reflectors=reflectors)
