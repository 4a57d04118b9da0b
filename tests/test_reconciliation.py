"""Reduction-to-BI-AWGN, capacity, and coset-coding tests.

Oracles: Monte Carlo evaluation of the BI-AWGN mutual-information integral,
and the matched-filter error rate Q(sqrt(r * snr)) for a length-r repetition
code, both independent of the implementation under test.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from conftest import PROPERTY
from cvqkd import algebra
from cvqkd import reconciliation as rec
from cvqkd.channel import ChannelParams
from cvqkd.modulation import sample_sphere_blocks
from cvqkd.protocol import ProtocolConfig, resolve_code, run_session


def unit_sphere_blocks(d, n, rng):
    return sample_sphere_blocks(d, 1.0, n, rng)


def noisy_pair(d, snr_use, n, rng):
    """x on the unit sphere and y = x + z at the requested per-use snr."""
    sigma = math.sqrt(1.0 / (d * snr_use))
    x = unit_sphere_blocks(d, n, rng)
    return x, x + sigma * rng.standard_normal(x.shape)


def test_bob_reduce_is_algebra_product():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((200, 8))
    u, t = rec.bob_reduce(y, rng)
    assert np.max(np.abs(t - algebra.mul(u, y))) < 1e-12
    assert np.allclose(np.abs(u), 1 / math.sqrt(8), atol=1e-15)
    assert np.max(np.abs(np.linalg.norm(t, axis=-1) - np.linalg.norm(y, axis=-1))) < 1e-12


def test_bob_reduce_d1_is_sign_flip():
    rng = np.random.default_rng(1)
    y = np.full((100, 1), 0.8)
    u, t = rec.bob_reduce(y, rng)
    assert np.array_equal(t, u * 0.8)


def test_alice_reduce_noiseless_roundtrip():
    rng = np.random.default_rng(2)
    for d in (1, 2, 4, 8):
        x = unit_sphere_blocks(d, 500, rng)
        u, t = rec.bob_reduce(x, rng)
        v = rec.alice_reduce(x, t)
        assert np.max(np.abs(v - u)) < 1e-12


def test_alice_reduce_identity_element():
    v = rec.alice_reduce(np.array([[1.0, 0.0]]), np.array([[0.6, 0.2]]))
    assert np.allclose(v, [[0.6, 0.2]], atol=1e-15)


def test_alice_reduce_rejects_zero_block():
    with pytest.raises(ZeroDivisionError):
        rec.alice_reduce(np.zeros((1, 4)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        rec.alice_reduce(np.ones((2, 4)), np.ones((3, 4)))


def test_normalizers():
    rng = np.random.default_rng(3)
    blocks = rng.standard_normal((50, 4))
    given = blocks.copy()
    x = rec.normalize_alice_blocks(blocks)
    # a new array with the bits of x / |x|; the caller's blocks are left as they were
    assert np.array_equal(blocks, given)
    assert np.array_equal(x, blocks / np.linalg.norm(blocks, axis=1, keepdims=True))
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="cannot normalize a zero block"):
        rec.normalize_alice_blocks(np.zeros((1, 4)))
    # Bob divides out the gain and the quadrature sphere radius
    y = rec.normalize_bob_blocks(np.full((1, 8), 2.0), 0.25, 0.5)
    radius = 2 * 0.5 * math.sqrt(4.0)
    assert np.allclose(y, 2.0 / (0.5 * radius), atol=1e-15)
    with pytest.raises(ValueError):
        rec.normalize_bob_blocks(np.ones((1, 8)), 0.0, 0.5)


@pytest.mark.parametrize("d", [2, 8])
def test_virtual_channel_is_gaussian(d):
    rng = np.random.default_rng(10 + d)
    sigma2 = 0.3
    x, y = noisy_pair(d, 1.0 / (d * sigma2), 20_000, rng)
    u, t = rec.bob_reduce(y, rng)
    w = rec.alice_reduce(x, t) - u
    for col in (0, d - 1):
        res = stats.kstest(w[:, col] / math.sqrt(sigma2), "norm")
        assert res.pvalue > 0.01
    assert abs(np.var(w) / sigma2 - 1.0) < 0.02


def test_noise_independent_of_signs_and_t():
    rng = np.random.default_rng(4)
    d, sigma2, n = 4, 0.5, 30_000
    x, y = noisy_pair(d, 1.0 / (d * sigma2), n, rng)
    u, t = rec.bob_reduce(y, rng)
    w = rec.alice_reduce(x, t) - u
    bound = 4.5 / math.sqrt(n)
    for i in range(d):
        for j in range(d):
            assert abs(np.corrcoef(u[:, i], w[:, j])[0, 1]) < bound
            assert abs(np.corrcoef(u[:, i], t[:, j])[0, 1]) < bound


def test_biawgn_capacity_endpoints():
    assert rec.biawgn_capacity(0.0) == 0.0
    assert rec.biawgn_capacity(100.0) >= 0.999
    with pytest.raises(ValueError):
        rec.biawgn_capacity(-0.1)
    grid = [rec.biawgn_capacity(s) for s in np.linspace(0.0, 5.0, 30)]
    assert np.all(np.diff(grid) > 0)


def test_biawgn_capacity_against_monte_carlo():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(10_000_000)
    mc = 1.0 - np.mean(np.logaddexp(0.0, -2.0 - 2.0 * z)) / math.log(2.0)
    assert abs(rec.biawgn_capacity(1.0) - mc) < 1e-3


def test_identity_code():
    code = rec.RepetitionCode(1)
    assert (code.n_bits, code.k_bits, code.rate) == (1, 1, 1.0)
    bits = np.array([[1], [0], [1], [1]], dtype=np.uint8)
    assert code.syndrome(bits).shape == (4, 0)
    got = code.decode(np.array([[-1.0], [2.0], [-3.0], [0.5]]), np.zeros((4, 0), dtype=np.uint8))
    assert np.array_equal(got, [[1], [0], [1], [0]])


def test_repetition_code_cosets():
    rng = np.random.default_rng(6)
    code = rec.RepetitionCode(5)
    assert code.rate == 0.2
    for _ in range(20):
        word = rng.integers(0, 2, size=5).astype(np.uint8)
        synd = code.syndrome(word)
        assert synd.size == 4
        llr = 10.0 * (1.0 - 2.0 * word)  # exact-codeword likelihoods
        assert np.array_equal(code.decode(llr, synd), word)


def test_repetition_majority_example():
    code = rec.RepetitionCode(3)
    got = code.decode(np.array([2.0, 2.0, -2.0]), np.zeros(2, dtype=np.uint8))
    assert np.array_equal(got, [0, 0, 0])


def test_repetition_code_rates():
    rep = rec.RepetitionCode(16)
    assert (rep.n_bits, rep.k_bits, rep.rate) == (16, 1, 1.0 / 16.0)
    with pytest.raises(ValueError, match="repetition length must be >= 1"):
        rec.RepetitionCode(0)


@pytest.mark.parametrize(
    "code",
    [
        rec.RepetitionCode(1),
        rec.RepetitionCode(16),
    ],
    ids=["rep1", "rep16"],
)
def test_batch_decode_equals_per_frame_decode(code):
    rng = np.random.default_rng(8)
    words = rng.integers(0, 2, size=(50, code.n_bits)).astype(np.uint8)
    llr = rng.standard_normal((50, code.n_bits))
    synd = code.syndrome(words)
    assert synd.shape == (50, code.n_bits - code.k_bits)
    decoded = code.decode(llr, synd)
    assert decoded.shape == words.shape
    for i in range(words.shape[0]):
        assert np.array_equal(code.syndrome(words[i]), synd[i])
        assert np.array_equal(code.decode(llr[i], synd[i]), decoded[i])
    # leading axes broadcast as well
    stacked = code.decode(llr.reshape(5, 10, -1), synd.reshape(5, 10, -1))
    assert np.array_equal(stacked.reshape(50, -1), decoded)


# sha256 of the syndromes and decisions of 600 seeded frames per code id
DECODE_DIGESTS = {
    "identity": "9a35c3b73f287956c6018705d85a45b571fed85477edbb63c0b43f3c15e7af0f",
    "rep3": "5a979357f03ee4962929bb536e587b6a4635edfd6c5e428131578db6694cbbbe",
    "rep16": "d65150a364edd9b0d03fedea27cdc142882ceeba187ceb0852690b06f3958bb2",
}


@pytest.mark.parametrize("code_id", sorted(DECODE_DIGESTS))
def test_repetition_decode_reproduces_recorded_bits(code_id):
    code = resolve_code(code_id)
    rng = np.random.default_rng(17)
    words = rng.integers(0, 2, (600, code.n_bits)).astype(np.uint8)
    signs = 1.0 - 2.0 * (words ^ words[:, :1])  # the sign each LLR is folded with
    llr = 3.0 * rng.standard_normal(words.shape)
    # frames 200-599 fold to exactly zero: signed zeros, and integers that cancel
    cancel = rng.integers(-4, 5, (200, code.n_bits)).astype(float)
    cancel[:, -1] -= cancel.sum(axis=1)
    llr[200:300] = 0.0 * signs[200:300]
    llr[300:400] = -0.0 * signs[300:400]
    llr[400:] = cancel * signs[400:]
    syndrome = code.syndrome(words)
    decoded = code.decode(llr, syndrome)
    assert syndrome.dtype == decoded.dtype == np.uint8
    assert syndrome.shape == (600, code.n_bits - 1) and decoded.shape == words.shape
    # a tie decides 0 for the first bit; the syndrome gives the rest
    assert np.array_equal(decoded[200:], words[200:] ^ words[200:, :1])
    digest = hashlib.sha256(syndrome.tobytes() + decoded.tobytes()).hexdigest()
    assert digest == DECODE_DIGESTS[code_id]


def test_reconcile_noiseless():
    rng = np.random.default_rng(9)
    x = unit_sphere_blocks(8, 64, rng)
    res = rec.reconcile(x, x.copy(), rec.RepetitionCode(16), rng)
    assert res.n_frames == 32
    assert res.frame_success.all()
    assert res.bob_bits.size == 32 * 16
    assert np.array_equal(res.alice_bits, res.bob_bits)
    assert res.sigma2_hat <= 1e-10
    assert res.message.t_blocks.shape == (64, 8)
    assert res.message.syndromes.shape == (32, 15)


def test_reconcile_input_validation():
    rng = np.random.default_rng(10)
    x = unit_sphere_blocks(4, 10, rng)
    with pytest.raises(ValueError):
        rec.reconcile(x, x[:5], rec.RepetitionCode(4), rng)
    with pytest.raises(ValueError):
        rec.reconcile(x[:1], x[:1], rec.RepetitionCode(16), rng)


def test_reconcile_reliable_operating_point():
    # rep-16 at per-use snr 0.7: predicted bit error Q(sqrt(11.2)) ~ 4e-4
    rng = np.random.default_rng(11)
    x, y = noisy_pair(8, 0.7, 1000, rng)
    res = rec.reconcile(x, y, rec.RepetitionCode(16), rng)
    assert res.n_frames == 500
    assert np.mean(res.frame_success) >= 0.99
    assert abs(res.snr_hat - 0.7) < 0.05
    assert res.beta_achieved == res.code_rate / rec.biawgn_capacity(res.snr_hat)


def test_reconcile_error_rate_matches_matched_filter_oracle():
    rng = np.random.default_rng(12)
    snr = 0.15
    x, y = noisy_pair(8, snr, 6000, rng)
    res = rec.reconcile(x, y, rec.RepetitionCode(16), rng)
    p_pred = stats.norm.sf(math.sqrt(16 * snr))
    p_obs = 1.0 - np.mean(res.frame_success)
    assert res.n_frames == 3000
    assert abs(p_obs - p_pred) < 5 * math.sqrt(p_pred * (1 - p_pred) / res.n_frames)


@PROPERTY
@given(code=st.integers(1, 64).map(rec.RepetitionCode), n_frames=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), magnitude=st.floats(1e-3, 1e3))
def test_noiseless_batch_decodes_to_itself(code, n_frames, seed, magnitude):
    words = np.random.default_rng(seed).integers(0, 2, (n_frames, code.n_bits)).astype(np.uint8)
    llr = magnitude * (1.0 - 2.0 * words)
    syndrome = code.syndrome(words)
    assert syndrome.shape == (n_frames, code.n_bits - 1)
    assert np.array_equal(code.decode(llr, syndrome), words)


def test_decoy_session_reduction_reproduces_recorded_bits():
    # No saved transcript file holds the public t blocks, so these digests,
    # recorded from the row-major product, pin the reduction of a whole
    # session: 24,971 key blocks, three full mul chunks and a partial one.
    config = ProtocolConfig(
        d=8, alpha=1.0, n_symbols=200_000, flow="decoy",
        channel=ChannelParams(t=0.5, xi=0.005, detection="heterodyne"), seed=2026,
    )
    result = run_session(config).reconcile_result
    assert result.message.t_blocks.shape == (24_971, 8)
    assert hashlib.sha256(result.message.t_blocks.astype("<f8").tobytes()).hexdigest() == (
        "64a7ed59e640c3394a8e747eae69bac495bdfa22f4d984b40a29c0c32f88664e"
    )
    assert hashlib.sha256(result.alice_bits.tobytes()).hexdigest() == (
        "19a5286db14c98d559c8779adb311107865f2f6f10755a01c6c9c3da7c2c5350"
    )
