"""Division-algebra arithmetic and orthogonal-transform tests.

Oracles used here and written before the implementation:
- the Hamilton quaternion multiplication table (i^2 = j^2 = k^2 = ijk = -1),
- numpy complex arithmetic for d = 2,
- the exact first-coordinate law of a uniform direction on S^{n-1}:
  (t + 1)/2 ~ Beta((n-1)/2, (n-1)/2).
"""

import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import algebra_oracle
import orthogonal_oracle
import session_oracle
from conftest import PROPERTY
from cvqkd import algebra


def basis(d, i):
    e = np.zeros(d)
    e[i] = 1.0
    return e


# Hamilton table for (1, i, j, k): entry (i, j) -> (index, sign) of e_i * e_j.
QUATERNION_TABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def test_real_multiplication():
    assert algebra.mul(np.array([2.0]), np.array([3.0]))[0] == 6.0


def test_a_scalar_is_a_real_element():
    # a 0-d input is one d = 1 element
    assert np.array_equal(algebra.mul(2.0, 3.0), [6.0])
    assert np.array_equal(algebra.mul(2.0, np.array([3.0])), [6.0])
    assert np.array_equal(algebra.inv(4.0), [0.25])


def test_complex_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((100, 2))
    b = rng.standard_normal((100, 2))
    got = algebra.mul(a, b)
    za = a[:, 0] + 1j * a[:, 1]
    zb = b[:, 0] + 1j * b[:, 1]
    zc = za * zb
    assert np.allclose(got[:, 0], zc.real, atol=1e-12)
    assert np.allclose(got[:, 1], zc.imag, atol=1e-12)


def test_quaternion_table():
    for (i, j), (k, sign) in QUATERNION_TABLE.items():
        got = algebra.mul(basis(4, i), basis(4, j))
        assert np.allclose(got, sign * basis(4, k), atol=1e-12), (i, j)


def test_ij_equals_k():
    got = algebra.mul(basis(4, 1), basis(4, 2))
    assert np.allclose(got, basis(4, 3), atol=1e-12)


def test_octonion_identity_element():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    assert np.allclose(algebra.mul(np.eye(8)[0], x), x, atol=1e-12)
    assert np.allclose(algebra.mul(x, np.eye(8)[0]), x, atol=1e-12)


def test_octonion_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        got = algebra.mul(basis(8, i), basis(8, i))
        assert np.allclose(got, -np.eye(8)[0], atol=1e-12)


def test_octonions_are_not_associative():
    violations = 0
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                lhs = algebra.mul(algebra.mul(basis(8, i), basis(8, j)), basis(8, k))
                rhs = algebra.mul(basis(8, i), algebra.mul(basis(8, j), basis(8, k)))
                if not np.allclose(lhs, rhs, atol=1e-9):
                    violations += 1
    assert violations > 0


def test_octonion_alternativity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 8))
    b = rng.standard_normal((200, 8))
    left = algebra.mul(algebra.mul(a, a), b) - algebra.mul(a, algebra.mul(a, b))
    right = algebra.mul(b, algebra.mul(a, a)) - algebra.mul(algebra.mul(b, a), a)
    assert np.max(np.abs(left)) < 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(right)) < 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_norm_multiplicativity(d):
    rng = np.random.default_rng(10 + d)
    a = rng.standard_normal((10_000, d))
    b = rng.standard_normal((10_000, d))
    lhs = np.linalg.norm(algebra.mul(a, b), axis=-1)
    rhs = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_inverse_roundtrip(d):
    rng = np.random.default_rng(20 + d)
    x = rng.standard_normal((500, d))
    prod = algebra.mul(x, algebra.inv(x))
    assert np.allclose(prod, np.eye(d)[0], atol=1e-12)


def test_simple_inverses():
    assert np.allclose(algebra.inv(np.array([0.0, 1.0])), [0.0, -1.0])
    assert np.allclose(algebra.inv(np.array([4.0])), [0.25])


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        algebra.inv(np.zeros(4))


def test_conj_is_antihomomorphism():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((100, 8))
    b = rng.standard_normal((100, 8))
    lhs = algebra.conj(algebra.mul(a, b))
    rhs = algebra.mul(algebra.conj(b), algebra.conj(a))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_octonion_right_division_roundtrip():
    # (u x) x^{-1} = u must hold exactly; this underpins the reconciliation map.
    rng = np.random.default_rng(5)
    u = algebra.sample_unit(8, rng, size=1000)
    x = rng.standard_normal((1000, 8))
    v = algebra.mul(algebra.mul(u, x), algebra.inv(x))
    assert np.max(np.abs(v - u)) < 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        algebra.mul(np.zeros(2), np.zeros(4))


def test_bad_dimension_raises():
    with pytest.raises(ValueError):
        algebra.mul(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_sample_unit_alphabet(d):
    rng = np.random.default_rng(30 + d)
    u = algebra.sample_unit(d, rng, size=2000)
    assert u.shape == (2000, d)
    assert np.allclose(np.abs(u), 1.0 / np.sqrt(d), atol=1e-15)
    assert np.allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-12)


def test_sample_unit_coordinates_are_centered():
    rng = np.random.default_rng(6)
    u = algebra.sample_unit(4, rng, size=100_000)
    sigma = 0.5 / np.sqrt(100_000)
    assert np.max(np.abs(u.mean(axis=0))) < 4 * sigma


def test_householder_reflects_own_axis():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    h = algebra.OrthogonalTransform(u[None, :])
    assert np.allclose(h.apply(u), -u, atol=1e-12)


def test_householder_fixes_orthogonal_complement():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(6)
    v -= (v @ u) * u
    h = algebra.OrthogonalTransform(u[None, :])
    assert np.allclose(h.apply(v), v, atol=1e-12)


def test_householder_is_involutive():
    rng = np.random.default_rng(9)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(6)
    h = algebra.OrthogonalTransform(u[None, :])
    assert np.allclose(h.apply(h.apply(v)), v, atol=1e-10)


def test_householder_rejects_bad_input():
    with pytest.raises(ValueError, match=r"reflectors must be a \(k, n\) array"):
        algebra.OrthogonalTransform(np.ones(3))
    with pytest.raises(ValueError):
        algebra.OrthogonalTransform(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        algebra.OrthogonalTransform(np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        algebra.OrthogonalTransform(np.array([[1.0, 0.0], [np.nan, 0.0]]))


def test_identity_transform_is_empty_product():
    t = algebra.OrthogonalTransform(np.zeros((0, 5)))
    v = np.arange(5.0)
    assert np.array_equal(t.apply(v), v)
    assert np.array_equal(t.apply_inverse(v), v)


@pytest.mark.parametrize("k", [1, 7, 16])
def test_sampled_transform_is_orthogonal(k):
    rng = np.random.default_rng(40 + k)
    t = session_oracle.sample_orthogonal(16, k, rng)
    m = orthogonal_oracle.dense_matrix(t)
    assert np.max(np.abs(m.T @ m - np.eye(16))) < 1e-10


def test_apply_matches_matrix():
    rng = np.random.default_rng(11)
    t = session_oracle.sample_orthogonal(9, 4, rng)
    v = rng.standard_normal(9)
    assert np.allclose(t.apply(v), orthogonal_oracle.dense_matrix(t) @ v, atol=1e-12)


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(12)
    t = session_oracle.sample_orthogonal(12, 12, rng)
    v = rng.standard_normal((50, 12))
    assert np.allclose(t.apply_inverse(t.apply(v)), v, atol=1e-10)


def test_inner_products_preserved():
    rng = np.random.default_rng(13)
    t = session_oracle.sample_orthogonal(10, 5, rng)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    assert abs(t.apply(x) @ t.apply(y) - x @ y) < 1e-9
    assert abs(np.linalg.norm(t.apply(x)) - np.linalg.norm(x)) < 1e-10


def test_stored_reflectors_are_unit():
    rng = np.random.default_rng(14)
    t = session_oracle.sample_orthogonal(8, 8, rng)
    if t.n_reflections:
        assert np.allclose(np.linalg.norm(t.reflectors, axis=1), 1.0, atol=1e-12)


def test_e1_image_is_uniform_for_single_stage():
    # First coordinate t of a uniform direction satisfies (t+1)/2 ~ Beta((n-1)/2, (n-1)/2).
    n = 5
    rng = np.random.default_rng(16)
    e1 = np.zeros(n)
    e1[0] = 1.0
    coords = np.empty(4000)
    for i in range(coords.size):
        t = session_oracle.sample_orthogonal(n, 1, rng)
        coords[i] = t.apply(e1)[0]
    res = stats.kstest((coords + 1) / 2, stats.beta((n - 1) / 2, (n - 1) / 2).cdf)
    assert res.pvalue > 0.01


def test_two_dimensional_full_product_gives_uniform_rotations():
    rng = np.random.default_rng(17)
    angles = []
    dets = []
    for _ in range(4000):
        m = orthogonal_oracle.dense_matrix(session_oracle.sample_orthogonal(2, 2, rng))
        det = np.linalg.det(m)
        dets.append(det)
        if det > 0:
            angles.append(np.arctan2(m[1, 0], m[0, 0]) % (2 * np.pi))
    dets = np.array(dets)
    assert abs(np.mean(dets > 0) - 0.5) < 4 * 0.5 / np.sqrt(dets.size)
    res = stats.kstest(np.array(angles) / (2 * np.pi), "uniform")
    assert res.pvalue > 0.01


def test_application_cost_is_linear_in_k_and_n():
    # O(k*n) application holds the result and one product-sized temporary;
    # forming the dense n x n matrix would peak at 3 * n / 4 = 3,072 batches
    rng = np.random.default_rng(18)
    n, k = 4096, 3
    t = session_oracle.sample_orthogonal(n, k, rng)
    batch = rng.standard_normal((4, n))
    for apply in (t.apply, t.apply_inverse):
        peak = _traced_peak(lambda: apply(batch))
        assert peak <= 3 * batch.nbytes, f"{apply.__name__} peaks at {peak / batch.nbytes:.2f}x"


def test_application_holds_the_result_and_one_chunk():
    # each reflection updates the copy CHUNK_ROWS columns at a time, so over
    # 16 chunks the temporary is a sixteenth of the batch
    rng = np.random.default_rng(19)
    n, k = 16 * algebra.CHUNK_ROWS, 3
    t = session_oracle.sample_orthogonal(n, k, rng)
    batch = rng.standard_normal((4, n))
    for apply in (t.apply, t.apply_inverse):
        peak = _traced_peak(lambda: apply(batch))
        assert peak <= 1.1 * batch.nbytes, f"{apply.__name__} peaks at {peak / batch.nbytes:.2f}x"


def _record(t):
    """The transform record that t.write puts in a file."""
    buffer = io.BytesIO()
    t.write(buffer)
    return buffer.getvalue()


def test_serialization_roundtrip():
    # renormalizing on load would move some reflectors by 1 ulp at n = 1e5
    cases = [(6, 3, 19)] + [(100_000, k, seed) for k in (2, 3) for seed in range(4)]
    for n, k, seed in cases:
        rng = np.random.default_rng(seed)
        t = session_oracle.sample_orthogonal(n, k, rng)
        data = _record(t)
        assert data[:8] == struct.pack("<II", t.n_reflections, n)
        back = algebra.OrthogonalTransform.from_bytes(data)
        assert np.array_equal(back.reflectors, t.reflectors), (n, k, seed)
        v = rng.standard_normal(n)
        assert np.array_equal(back.apply(v), t.apply(v))


@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (5, 1), (9, 4), (16, 16), (64, 7), (64, 64),
                                  (1000, 3), (2 * algebra.CHUNK_ROWS + 3, 1),
                                  (2 * algebra.CHUNK_ROWS + 3, 3)])
def test_sampler_and_apply_match_list_of_rows_oracle_bit_for_bit(n, k):
    # drawing into the reflector array and the in-place reflections, updated
    # CHUNK_ROWS columns at a time, keep every bit of the list-of-rows form;
    # k = n has a one-coordinate first stage, skipped whenever its draw is positive
    skipped = 0
    for seed in range(6):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        t = session_oracle.sample_orthogonal(n, k, rng)
        want = orthogonal_oracle.sample_reflectors(n, k, oracle_rng)
        assert t.reflectors.shape == want.shape and np.array_equal(t.reflectors, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        skipped += k - want.shape[0]
        v = rng.standard_normal((3, n))
        assert np.array_equal(t.apply(v), orthogonal_oracle.apply_reflectors(want, v))
        assert np.array_equal(t.apply_inverse(v[0]),
                              orthogonal_oracle.apply_reflectors(want[::-1], v[0]))
        assert _record(t)[8:] == want.astype("<f8").tobytes()
    if k == n:
        assert skipped > 0


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _special_elements(rng, n, d):
    """Gaussian rows sprinkled with +-0.0, subnormals and +-inf."""
    x = rng.standard_normal((n, d))
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, np.inf, -np.inf])
    mask = rng.random((n, d)) < 0.2
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    return x


CHUNK = algebra.CHUNK_ROWS


@pytest.mark.parametrize("n", [1, 7, 8, 129, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 8,
                               5 * CHUNK + 3, 1_000_003])
def test_chunked_sum_of_squares_matches_the_row_norm(n):
    # sqrt(dot(x, x)), the norm of the reflector build and its unit check, has
    # np.linalg.norm's bits, row by row and over the rows at once
    rows = np.random.default_rng(n).standard_normal((3, n)) * np.array([[1.0], [1e-150], [1e150]])
    want = np.linalg.norm(rows, axis=1)
    _assert_bits_equal(np.sqrt(algebra.dot(rows, rows)), want)
    _assert_bits_equal(np.array([np.sqrt(algebra.dot(row, row)) for row in rows]), want)


@pytest.mark.parametrize("n", [1, 7, 8, 129, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 8,
                               5 * CHUNK + 3, 1_000_003])
def test_dot_matches_add_reduce_of_the_product(n):
    # following numpy's pairwise splits down to one chunk sums the same terms
    # in the same order, for 1-D and (3, n) arguments and a broadcast row
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n)) * np.array([[1.0], [1e-150], [1e150]])
    y = rng.standard_normal((3, n))
    _assert_bits_equal(algebra.dot(x, y), np.add.reduce(x * y, axis=-1))
    _assert_bits_equal(algebra.dot(x, y[0]), np.add.reduce(x * y[0], axis=-1))
    for row, other in zip(x, y):
        _assert_bits_equal(np.array(algebra.dot(row, other)), np.array(np.add.reduce(row * other)))
    # the reducer itself, over terms [start, stop) that a callback builds as a
    # (2, j - i) slice, at an offset that is no multiple of 8
    start = 5
    pad = np.concatenate([rng.standard_normal(start), x[0]])
    terms = np.stack((pad * pad, 2.0 * pad))
    slices = []

    def build(i, j):
        slices.append((i, j))
        return terms[:, i:j]

    _assert_bits_equal(algebra.pairwise_sum(build, start + n, start),
                       np.add.reduce(terms[:, start:], axis=-1))
    assert slices[0][0] == start and slices[-1][1] == start + n
    assert all(j - i <= CHUNK for i, j in slices)


def test_reflect_in_place_matches_apply():
    # reflect() transforms its argument in place, with apply's bits
    rng = np.random.default_rng(20)
    t = session_oracle.sample_orthogonal(2 * CHUNK + 3, 3, rng)
    v = rng.standard_normal((2, t.n))
    want = t.apply(v)
    assert t.reflect(v) is v
    _assert_bits_equal(v, want)
    with pytest.raises(ValueError, match="vector length"):
        t.reflect(np.zeros(t.n + 1))


@pytest.mark.parametrize("d", algebra.DIVISION_DIMS)
def test_inverse_is_the_conjugate_over_the_squared_norm_bit_for_bit(d):
    # the in-place division gives the bits of conj(a) / |a|^2
    a = np.random.default_rng(d).standard_normal((3 * CHUNK + 5, d))
    _assert_bits_equal(algebra.inv(a), algebra.conj(a) / np.sum(a * a, axis=-1, keepdims=True))


@pytest.mark.parametrize("d", algebra.DIVISION_DIMS)
@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_mul_matches_row_major_oracle_bit_for_bit(d, n):
    # the coordinate-major chunks keep every bit of the row-major recursion,
    # including the last partial chunk
    rng = np.random.default_rng(1000 * d + n)
    a, b = rng.standard_normal((2, n, d))
    _assert_bits_equal(algebra.mul(a, b), algebra_oracle.mul(a, b))


@pytest.mark.parametrize("d", algebra.DIVISION_DIMS)
def test_mul_matches_oracle_on_signed_zeros_subnormals_and_infinities(d):
    # inf * 0 and inf - inf make NaNs, whose payload bits must agree as well
    rng = np.random.default_rng(40 + d)
    a, b = _special_elements(rng, 2 * CHUNK + 3, d), _special_elements(rng, 2 * CHUNK + 3, d)
    with np.errstate(invalid="ignore"):
        _assert_bits_equal(algebra.mul(a, b), algebra_oracle.mul(a, b))
        _assert_bits_equal(algebra.mul(b, a), algebra_oracle.mul(b, a))


@pytest.mark.parametrize("d", algebra.DIVISION_DIMS)
def test_mul_matches_oracle_on_elements_broadcasts_and_stacks(d):
    rng = np.random.default_rng(70 + d)
    one, other = rng.standard_normal((2, d))
    batch = rng.standard_normal((CHUNK + 9, d))
    stack_a, stack_b = rng.standard_normal((2, 5, 7, d))
    cases = [
        (one, other),  # two 1-D elements
        (one, batch),  # one element against a batch, in both orders
        (batch, one),
        (stack_a, stack_b),  # a (5, 7, d) stack
        (one, stack_b),
        (stack_a[:, :1], stack_b),  # broadcast along a middle axis
    ]
    for a, b in cases:
        _assert_bits_equal(algebra.mul(a, b), algebra_oracle.mul(a, b))


def _traced_peak(make):
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_build_and_load_peak_memory():
    # a (2, 2e6) transform holds 30.5 MiB. Sampling draws into the reflector
    # array itself and sums each row's squares a chunk at a time, so it holds
    # that array and one chunk; loading keeps a view of the record and copies
    # nothing
    n, k = 2_000_000, 2
    t = session_oracle.sample_orthogonal(n, k, np.random.default_rng(7))
    data = _record(t)
    size = t.reflectors.nbytes
    sample_peak = _traced_peak(
        lambda: session_oracle.sample_orthogonal(n, k, np.random.default_rng(7)))
    load_peak = _traced_peak(lambda: algebra.OrthogonalTransform.from_bytes(data))
    assert sample_peak <= 1.1 * size, f"sample_orthogonal peaks at {sample_peak / size:.2f}x"
    assert load_peak <= size / 100, f"from_bytes peaks at {load_peak / size:.2f}x"


def test_record_is_written_without_a_copy(tmp_path):
    # the reflectors go to the file from their own buffer: writing the 30.5 MiB
    # record of a (2, 2e6) transform allocates next to nothing
    t = session_oracle.sample_orthogonal(2_000_000, 2, np.random.default_rng(7))
    path = tmp_path / "transform.bin"
    with open(path, "wb") as fh:
        peak = _traced_peak(lambda: t.write(fh))
    assert peak <= t.reflectors.nbytes / 100, f"write peaks at {peak} B"
    back = algebra.OrthogonalTransform.from_bytes(path.read_bytes())
    assert np.array_equal(back.reflectors.view(np.uint64), t.reflectors.view(np.uint64))


def test_serialization_rejects_corrupt_data():
    rng = np.random.default_rng(21)
    data = _record(session_oracle.sample_orthogonal(6, 2, rng))
    with pytest.raises(ValueError):
        algebra.OrthogonalTransform.from_bytes(data[:-3])
    with pytest.raises(ValueError):
        algebra.OrthogonalTransform.from_bytes(b"\x01")


# Coordinates are zero or of magnitude 1e-6 to 1e3, so squared norms neither
# underflow nor overflow and rounding stays relative to the operands' norms.
COORD = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


def _elements(count):
    """Strategy: (d, [count elements of dimension d]) for d in {1, 2, 4, 8}."""
    return st.sampled_from(algebra.DIVISION_DIMS).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(arrays(float, d, elements=COORD),
                                                 min_size=count, max_size=count)))


@PROPERTY
@given(_elements(2))
def test_norm_multiplicativity_property(case):
    _, (a, b) = case
    lhs = np.linalg.norm(algebra.mul(a, b), axis=-1)
    rhs = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    assert abs(lhs - rhs) <= 1e-13 * rhs


@PROPERTY
@given(_elements(1))
def test_inverse_property(case):
    d, (a,) = case
    if not np.any(a):
        with pytest.raises(ZeroDivisionError):
            algebra.inv(a)
        return
    a_inv = algebra.inv(a)
    assert np.allclose(algebra.mul(a, a_inv), np.eye(d)[0], rtol=0.0, atol=1e-13)
    assert np.allclose(algebra.mul(a_inv, a), np.eye(d)[0], rtol=0.0, atol=1e-13)


@PROPERTY
@given(_elements(2))
def test_alternativity_property(case):
    # (a a) b = a (a b) and (b a) a = b (a a) hold in every division algebra
    _, (a, b) = case
    scale = 1e-13 * float(np.linalg.norm(a, axis=-1)) ** 2 * float(np.linalg.norm(b, axis=-1))
    aa = algebra.mul(a, a)
    assert np.max(np.abs(algebra.mul(aa, b) - algebra.mul(a, algebra.mul(a, b)))) <= scale
    assert np.max(np.abs(algebra.mul(algebra.mul(b, a), a) - algebra.mul(b, aa))) <= scale
