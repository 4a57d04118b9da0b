"""Modulation sampling, radius statistics, and block conversion tests.

Oracles: the normalized radius of a Gaussian block is chi_d / sqrt(d), so
scipy.stats.chi(df=d, scale=1/sqrt(d)) supplies exact pdf/cdf references, and
band probabilities reduce to regularized incomplete gamma differences
P(d/2, d t^2 / 2).
"""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

import session_oracle
from conftest import PROPERTY
from cvqkd import modulation as mod
from cvqkd.algebra import CHUNK_ROWS
from cvqkd.channel import ChannelParams, add_signal
from cvqkd.protocol import ProtocolConfig
from radius_oracle import band_acceptance_probability, chi_pdf


def sent_quadratures(blocks):
    """The quadrature means a session sends for blocks, read off the channel.

    The flows send each coordinate times QUADRATURE_SCALE, consecutive pairs
    as one mode's (x, p).  add_signal at unit transmittance, over noise draws
    of -0.0 (the additive identity, which keeps signed zeros), returns them.
    """
    sent = mod.QUADRATURE_SCALE * np.asarray(blocks, dtype=float).reshape(-1, 2)
    outcomes = np.full(sent.shape, -0.0)
    add_signal(outcomes, sent, ChannelParams(t=1.0))
    return outcomes


def chi_cdf_oracle(t, d):
    return special.gammainc(d / 2.0, d * t * t / 2.0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        mod.ModulationScheme(3, 0.5)
    with pytest.raises(ValueError):
        mod.ModulationScheme(2, 0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_scheme_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        mod.ModulationScheme(8, alpha)


def test_scheme_derived_quantities():
    s = mod.ModulationScheme(8, 0.5)
    assert ProtocolConfig(d=8, alpha=0.5, n_symbols=4).v_a == 0.5
    assert abs(s.sphere_radius - 1.0) < 1e-15
    assert abs(mod.ModulationScheme(2, 0.7).sphere_radius - 0.7) < 1e-15


def test_band_validation():
    mod.RadiusBand(0.0, math.inf)
    with pytest.raises(ValueError):
        mod.RadiusBand(1.2, 1.3)
    with pytest.raises(ValueError):
        mod.RadiusBand(0.5, 0.9)


def test_key_blocks_d1_are_two_point():
    rng = np.random.default_rng(0)
    s = mod.ModulationScheme(1, 0.5)
    blocks = session_oracle.sample_key_blocks(s, 2000, rng)
    want = s.sphere_radius
    assert abs(want - 0.5 / math.sqrt(2.0)) < 1e-15
    assert set(np.unique(blocks)) == {-want, want}
    # consecutive pairs form the four-state constellation of amplitude alpha,
    # whose quadrature means have norm 2 alpha
    quads = sent_quadratures(blocks)
    assert np.allclose(np.linalg.norm(quads, axis=1), 2 * 0.5, atol=1e-12)
    assert len(np.unique(quads, axis=0)) == 4


def test_key_blocks_lie_on_sphere():
    rng = np.random.default_rng(1)
    s = mod.ModulationScheme(8, 0.5)
    blocks = session_oracle.sample_key_blocks(s, 5000, rng)
    assert np.max(np.abs(np.linalg.norm(blocks, axis=1) - 1.0)) < 1e-9


@pytest.mark.parametrize("d, radius", [(2, 1.0), (8, 1.3 * math.sqrt(2.0)), (8, 1e-150)])
def test_sphere_blocks_scale_in_place_bit_for_bit(d, radius):
    # the in-place scaling keeps every bit of radius * x / r
    blocks = mod.sample_sphere_blocks(d, radius, 5000, np.random.default_rng(d))
    x = np.random.default_rng(d).standard_normal((5000, d))
    want = radius * x / np.linalg.norm(x, axis=1, keepdims=True)
    assert np.array_equal(blocks.view(np.uint64), want.view(np.uint64))


def test_key_blocks_second_moment():
    rng = np.random.default_rng(2)
    s = mod.ModulationScheme(8, 0.5)
    blocks = session_oracle.sample_key_blocks(s, 1_000_000, rng)
    want = s.alpha**2 / 2.0
    assert np.max(np.abs(np.mean(blocks**2, axis=0) / want - 1.0)) < 0.01


def test_key_blocks_isotropic():
    rng = np.random.default_rng(3)
    s = mod.ModulationScheme(4, 1.0)
    blocks = session_oracle.sample_key_blocks(s, 200_000, rng)
    assert np.max(np.abs(blocks.mean(axis=0))) < 4 * s.alpha / math.sqrt(200_000)
    cov = np.cov(blocks.T)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 5 * s.alpha**2 / math.sqrt(200_000)


def test_gaussian_blocks_moments():
    rng = np.random.default_rng(4)
    s = mod.ModulationScheme(4, 0.8)
    blocks = session_oracle.sample_gaussian_blocks(s, 1_000_000, rng)
    want = s.alpha**2 / 2.0
    assert abs(np.var(blocks) / want - 1.0) < 0.01
    assert np.max(np.abs(blocks.mean(axis=0))) < 4 * math.sqrt(want / 1_000_000)


@pytest.mark.parametrize("d, alpha", [(1, 0.5), (8, 1.0), (4, 3.7e-3), (2, 1e150)])
def test_gaussian_blocks_are_one_normal_draw_bit_for_bit(d, alpha):
    # standard normals scaled in place give rng.normal(0, alpha / sqrt(2))
    # of the same stream, in values and in generator state
    s = mod.ModulationScheme(d, alpha)
    rng, single = np.random.default_rng(8), np.random.default_rng(8)
    blocks = session_oracle.sample_gaussian_blocks(s, 100_003, rng)
    want = single.normal(0.0, alpha / math.sqrt(2.0), size=(100_003, d))
    assert np.array_equal(blocks.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == single.bit_generator.state


def test_gaussian_block_scaling_keeps_signed_zeros_as_normal_does():
    # rng.normal computes 0 + scale * z, so a zero draw of either sign is +0.0
    z = np.array([[-0.0, 0.0, -1.5, 2.0**-1074]])
    mod.scale_gaussian_blocks(z, mod.ModulationScheme(4, 0.5))
    scale = 0.5 / math.sqrt(2.0)
    want = np.array([[0.0 + scale * -0.0, 0.0, 0.0 + scale * -1.5, 0.0 + scale * 2.0**-1074]])
    assert np.array_equal(z.view(np.uint64), want.view(np.uint64))
    assert not np.signbit(z[0, 0])


def test_gaussian_radius_follows_chi():
    rng = np.random.default_rng(5)
    s = mod.ModulationScheme(8, 0.6)
    blocks = session_oracle.sample_gaussian_blocks(s, 20_000, rng)
    r = np.linalg.norm(blocks, axis=1) / s.sphere_radius
    res = stats.kstest(r, stats.chi(df=8, scale=1 / math.sqrt(8)).cdf)
    assert res.pvalue > 0.01


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_chi_pdf_matches_scipy(d):
    grid = np.linspace(0.01, 3.0, 50)
    ours = chi_pdf(grid, d)
    ref = stats.chi(df=d, scale=1 / math.sqrt(d)).pdf(grid)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_chi_pdf_normalization_and_mode():
    from scipy import integrate

    total, _ = integrate.quad(chi_pdf, 0, np.inf, args=(8,))
    assert abs(total - 1.0) < 1e-8
    peak = math.sqrt(7.0 / 8.0)
    assert chi_pdf(peak, 8) > chi_pdf(peak - 1e-4, 8)
    assert chi_pdf(peak, 8) > chi_pdf(peak + 1e-4, 8)


def test_chi_pdf_edge_values():
    assert chi_pdf(0.0, 2) == 0.0
    assert chi_pdf(0.0, 8) == 0.0
    assert abs(chi_pdf(0.0, 1) - math.sqrt(2 / math.pi)) < 1e-14
    with pytest.raises(ValueError):
        chi_pdf(-0.1, 2)
    with pytest.raises(ValueError):
        chi_pdf(1.0, 3)


def test_band_probability_trivial_bands():
    assert abs(band_acceptance_probability(mod.RadiusBand(0.0, np.inf), 8) - 1.0) < 1e-9
    assert band_acceptance_probability(mod.RadiusBand(1.0, 1.0), 8) == 0.0


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_band_probability_matches_gamma_cdf(d):
    band = mod.RadiusBand(0.9, 1.1)
    want = chi_cdf_oracle(1.1, d) - chi_cdf_oracle(0.9, d)
    assert abs(band_acceptance_probability(band, d) - want) < 1e-9


def test_band_probability_matches_monte_carlo():
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.chisquare(8, 10_000_000) / 8.0)
    p_hat = np.mean((r >= 0.9) & (r <= 1.1))
    p = band_acceptance_probability(mod.RadiusBand(0.9, 1.1), 8)
    assert abs(p - p_hat) < 3 * math.sqrt(p * (1 - p) / r.size)


def test_label_by_band():
    rng = np.random.default_rng(8)
    s = mod.ModulationScheme(8, 0.5)
    blocks = session_oracle.sample_gaussian_blocks(s, 1000, rng)
    assert mod.label_by_band(blocks, s, mod.RadiusBand(0.0, np.inf)).all()
    on_sphere = np.zeros(8)
    on_sphere[0] = s.sphere_radius
    assert mod.label_by_band(on_sphere, s, mod.RadiusBand(1.0, 1.0)).all()


@pytest.mark.parametrize("d", [1, 8])
@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5])
def test_label_by_band_matches_whole_array_oracle(d, n):
    # the chunked mask equals the one from the radii of all blocks at once,
    # across chunk boundaries, on a (5, 7, d) stack and on one 1-D block
    rng = np.random.default_rng(100 * d + n)
    s = mod.ModulationScheme(d, 0.5)
    band = mod.RadiusBand(0.9, 1.1)
    for blocks in (session_oracle.sample_gaussian_blocks(s, n, rng),
                   rng.normal(0.0, 0.35, (5, 7, d)),
                   session_oracle.sample_gaussian_blocks(s, 1, rng)[0]):
        got = mod.label_by_band(blocks, s, band)
        want = session_oracle.label_by_band(blocks, s, band)
        assert got.dtype == bool and np.shape(got) == np.shape(want) == blocks.shape[:-1]
        assert np.array_equal(got, want)


def test_label_fraction_matches_integral():
    rng = np.random.default_rng(9)
    s = mod.ModulationScheme(8, 0.5)
    band = mod.RadiusBand(0.95, 1.05)
    blocks = session_oracle.sample_gaussian_blocks(s, 1_000_000, rng)
    frac = np.mean(mod.label_by_band(blocks, s, band))
    p = band_acceptance_probability(band, 8)
    assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / 1_000_000)


def test_blocks_to_amplitudes_d2():
    # a d = 2 block is one amplitude b = 0.3 - 0.4i, sent as (2 Re b, 2 Im b)
    quads = sent_quadratures(np.array([[0.3, -0.4]]))
    assert quads.shape == (1, 2)
    assert np.array_equal(quads, [[0.6, -0.8]])


def test_amplitude_roundtrip_exact():
    # amplitude coordinates map to quadratures in order, and scaling by 2 is
    # exact: the Gaussian flow's homodyne Alice keeps her measured quadrature
    # / QUADRATURE_SCALE, which is her coordinate only for a power-of-two scale
    assert math.frexp(mod.QUADRATURE_SCALE)[0] == 0.5
    rng = np.random.default_rng(10)
    for d in (1, 2, 4, 8):
        blocks = rng.standard_normal((6, d))
        quads = sent_quadratures(blocks)
        back = (quads / mod.QUADRATURE_SCALE).reshape(-1, d)
        assert np.array_equal(back, blocks)
    extremes = np.array([5e-324, -2.5e-308, 1e-310, 1e300, -0.0, 0.0])
    back = sent_quadratures(extremes[:, None]).reshape(-1) / mod.QUADRATURE_SCALE
    assert np.array_equal(back.view(np.uint64), extremes.view(np.uint64))


def test_amplitude_norm_bookkeeping():
    rng = np.random.default_rng(11)
    s = mod.ModulationScheme(8, 0.5)
    block = session_oracle.sample_key_blocks(s, 1, rng)
    quads = sent_quadratures(block)
    assert quads.shape == (4, 2)
    # four amplitudes of total |b|^2 = 4 alpha^2, each quadrature mean 2 b
    assert abs(np.sum(quads**2) - 4 * 4 * s.alpha**2) < 1e-12


def test_quadrature_scale():
    rng = np.random.default_rng(12)
    s = mod.ModulationScheme(2, 0.9)
    blocks = session_oracle.sample_gaussian_blocks(s, 500_000, rng)
    quads = sent_quadratures(blocks)
    assert quads.shape == (500_000, 2)
    assert abs(np.var(quads) / (2.0 * s.alpha**2) - 1.0) < 0.01


def test_blocks_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    blocks = rng.standard_normal((5, 4))
    labels = np.array([0, 0, 2, 1, -1])
    path = tmp_path / "blocks.csv"
    mod.write_blocks_csv(path, blocks, labels)
    kind, table = mod.read_csv_table(path)
    got = np.column_stack([table[f"coord_{i}"] for i in range(4)])
    assert kind == "symbols"
    assert np.array_equal(got, blocks)
    assert np.array_equal(table["label"], labels)
    assert np.array_equal(table["block_index"], np.arange(5))
    assert path.read_text().startswith("# cvqkd-csv-v2 symbols\n")


def test_blocks_csv_rejects_unknown_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 1: .*'a,b,c'"):
        mod.read_csv_table(path)


def test_blocks_csv_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError, match="one label per block"):
        mod.write_blocks_csv(tmp_path / "a.csv", np.ones((3, 2)), [0, 1])
    with pytest.raises(TypeError, match="integers or floats"):
        mod.write_blocks_csv(tmp_path / "a.csv", np.ones((3, 2)), ["key", "est", "key"])


def test_write_table_refuses_unequal_columns(tmp_path):
    path = tmp_path / "a.csv"
    with pytest.raises(ValueError, match="columns must have equal length"):
        mod.write_table(path, "outcomes", ["mode_index", "y"], [np.arange(3), np.zeros(2)])
    assert not path.exists()


# 5e-324 is the smallest subnormal, 2.225073858507201e-308 the largest
GOLDEN_SYMBOLS = (
    b"# cvqkd-csv-v2 symbols\n"
    b"block_index,coord_0,coord_1,label\n"
    b"0,3ff0000000000000,8000000000000000,0\n"
    b"1,0000000000000001,7ff0000000000000,-1\n"
    b"2,7ff8000000000000,c004000000000000,2\n"
)
GOLDEN_HOMODYNE = (
    b"# cvqkd-csv-v2 outcomes\n"
    b"mode_index,basis,y\n"
    b"0,0,3fb999999999999a\n"
    b"1,1,fff0000000000000\n"
    b"2,0,000fffffffffffff\n"
)
GOLDEN_HETERODYNE = (
    b"# cvqkd-csv-v2 outcomes\n"
    b"mode_index,y_x,y_p\n"
    b"0,bff0000000000000,0000000000000000\n"
    b"1,7fefffffffffffff,8000000000000001\n"
    b"2,400921fb54442d18,fff8000000000000\n"
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_symbols_golden_bytes(tmp_path):
    blocks = np.array([[1.0, -0.0], [5e-324, math.inf], [math.nan, -2.5]])
    path = tmp_path / "symbols.csv"
    mod.write_blocks_csv(path, blocks, np.array([0, -1, 2]))
    assert path.read_bytes() == GOLDEN_SYMBOLS
    kind, table = mod.read_csv_table(path)
    assert kind == "symbols"
    assert list(table) == ["block_index", "coord_0", "coord_1", "label"]
    got = np.column_stack([table["coord_0"], table["coord_1"]])
    assert np.array_equal(_bits(got), _bits(blocks))
    assert table["label"].tolist() == [0, -1, 2]
    assert table["block_index"].tolist() == [0, 1, 2]


@pytest.mark.parametrize(
    "names, columns, golden",
    [
        (["basis", "y"], [np.array([0, 1, 0]), np.array([0.1, -math.inf, 2.225073858507201e-308])],
         GOLDEN_HOMODYNE),
        (["y_x", "y_p"], [np.array([-1.0, 1.7976931348623157e308, math.pi]),
                          np.array([0.0, -5e-324, -math.nan])],
         GOLDEN_HETERODYNE),
    ],
    ids=["homodyne", "heterodyne"],
)
def test_outcomes_golden_bytes(tmp_path, names, columns, golden):
    path = tmp_path / "outcomes.csv"
    mod.write_table(path, "outcomes", ["mode_index"] + names, [np.arange(3)] + columns)
    assert path.read_bytes() == golden
    kind, table = mod.read_csv_table(path)
    assert kind == "outcomes"
    assert list(table) == ["mode_index"] + names
    assert table["mode_index"].tolist() == [0, 1, 2]
    for name, column in zip(names, columns):
        if column.dtype.kind == "f":
            assert np.array_equal(_bits(table[name]), _bits(column))
        else:
            assert table[name].tolist() == column.tolist()


def test_v2_rows_span_several_blocks(tmp_path, monkeypatch):
    # indices 0..999 change width inside blocks; labels mix signs and widths
    monkeypatch.setattr(mod, "CSV_BLOCK_ROWS", 64)
    rng = np.random.default_rng(14)
    blocks = rng.standard_normal((1000, 8)) * 10.0 ** rng.integers(-300, 300, (1000, 8))
    labels = rng.integers(-1, 3, 1000) * rng.integers(1, 10**6, 1000)
    path = tmp_path / "symbols.csv"
    mod.write_blocks_csv(path, blocks, labels)
    # reference: one cell at a time through struct
    rows = b"".join(
        b",".join([b"%d" % i, *(struct.pack(">d", v).hex().encode() for v in row), b"%d" % label])
        + b"\n"
        for i, (row, label) in enumerate(zip(blocks, labels))
    )
    header = b"# cvqkd-csv-v2 symbols\nblock_index," + b",".join(
        b"coord_%d" % i for i in range(8)) + b",label\n"
    assert path.read_bytes() == header + rows
    _, table = mod.read_csv_table(path)
    got = np.column_stack([table[f"coord_{i}"] for i in range(8)])
    assert np.array_equal(_bits(got), _bits(blocks))
    assert np.array_equal(table["label"], labels)


# float64 bit patterns the hex cells must keep: signed zeros, the subnormal
# ends, the normal ends, infinities, and NaNs quiet and signalling, of either sign
_SPECIAL_BITS = [0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, (1 << 63) | 1, 0x0010000000000000,
                 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
                 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF4000000000123, 0xFFFFFFFFFFFFFFFF]
_INT_DTYPES = {"int8": (-128, 127), "uint8": (0, 255), "int64": mod.V2_INT_RANGE}


@st.composite
def _v2_tables(draw):
    """(block rows, columns) of a v2 table of 1 to 40 rows: a row index from
    near a power of ten, an int8, a uint8 and an int64 column, and 1-D and 2-D
    float groups.  test_empty_v2_table_roundtrip covers 0 rows."""
    n = draw(st.integers(1, 40))
    start = draw(st.sampled_from([0, 1, 7, 95, 9_990, 10**17 - 20, 10**18 - 1 - n]))
    columns = [np.arange(start, start + n)]
    for dtype, (lo, hi) in _INT_DTYPES.items():
        # any width from 1 digit to the dtype's widest, either sign
        values = st.one_of(st.sampled_from([lo, hi, max(lo, -1), 0]),
                           st.builds(lambda v, k: v // 10**k, st.integers(lo, hi), st.integers(0, 18)))
        columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    bits = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1))
    for width in draw(st.lists(st.sampled_from([None, 1, 2, 8]), min_size=1, max_size=3)):
        group = draw(st.lists(bits, min_size=n * (width or 1), max_size=n * (width or 1)))
        group = np.array(group, dtype=np.uint64).view(float)
        columns.append(group if width is None else group.reshape(n, width))
    return draw(st.sampled_from([1, 3, 7, 16])), columns


@PROPERTY
@given(_v2_tables())
def test_write_table_matches_per_cell_reference(tmp_path_factory, table):
    # every cell as struct and b"%d" write it, whichever block it falls in
    block_rows, columns = table
    names = [f"c{i}" for i, c in enumerate(columns) for _ in range(c.size // len(c))]
    path = tmp_path_factory.mktemp("v2") / "table.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mod, "CSV_BLOCK_ROWS", block_rows)
        mod.write_table(path, "outcomes", names, columns)
    cells = [np.asarray(c, dtype=object).reshape(len(c), -1) for c in columns]
    rows = b"".join(
        b",".join(struct.pack(">d", v).hex().encode() if isinstance(v, float) else b"%d" % v
                  for c in cells for v in c[r]) + b"\n"
        for r in range(len(columns[0])))
    assert path.read_bytes() == f"# cvqkd-csv-v2 outcomes\n{','.join(names)}\n".encode() + rows


@pytest.mark.parametrize("column, value", [
    (np.array([-2**63]), -2**63), (np.array([2**63], dtype=np.uint64), 2**63),
    (np.array([7, 10**18, 3]), 10**18)], ids=["int64-min", "uint64-2**63", "19-digits"])
def test_write_table_refuses_integers_the_reader_refuses(tmp_path, column, value):
    # -2**63 overflowed np.abs and 2**63 wrapped to int64, both written as -2;
    # 10**18 wrote a cell of 19 characters, which read_csv_table refuses
    path = tmp_path / "a.csv"
    with pytest.raises(ValueError, match=f"column mode_index: integer {value} outside"):
        mod.write_table(path, "outcomes", ["mode_index", "y"], [column, np.zeros(len(column))])
    assert not path.exists()


def test_empty_v2_table_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    mod.write_blocks_csv(path, np.zeros((0, 2)), np.zeros(0, dtype=int))
    assert path.read_bytes() == b"# cvqkd-csv-v2 symbols\nblock_index,coord_0,coord_1,label\n"
    kind, table = mod.read_csv_table(path)
    assert kind == "symbols"
    assert all(column.size == 0 for column in table.values())


@pytest.mark.parametrize(
    "body, line, detail",
    [
        (b"# cvqkd-csv-v1 symbols\nblock_index,coord_0,label\n0,1.0,0\n",
         "line 1", "'# cvqkd-csv-v1 symbols'"),
        (b"# cvqkd-csv-v2 keyrate\nsweep,value\n", "line 1", "'# cvqkd-csv-v2 keyrate'"),
        (GOLDEN_SYMBOLS + b"3,3ff0000000000000,0\n", "line 6", "3 cells, expected 4"),
        (GOLDEN_SYMBOLS[:-1], "line 5", "does not end in a newline"),
        (GOLDEN_SYMBOLS.replace(b"c004", b"c0g4"), "line 5, column coord_1",
         "lowercase hex digits, got 'c0g4000000000000'"),
        (GOLDEN_SYMBOLS.replace(b"c004", b"C004"), "line 5, column coord_1",
         "lowercase hex digits, got 'C004000000000000'"),
        (GOLDEN_SYMBOLS.replace(b"8000000000000000", b"800000000000000"),
         "line 3, column coord_1", "16 hex digits, got '800000000000000'"),
        (GOLDEN_SYMBOLS.replace(b",-1\n", b",-x\n"), "line 4, column label",
         "a decimal integer, got '-x'"),
        (GOLDEN_SYMBOLS.replace(b",-1\n", b",\n"), "line 4, column label",
         "a decimal integer of 1 to 18 characters, got ''"),
        (GOLDEN_SYMBOLS.replace(b",-1\n", b",1.0\n"), "line 4, column label",
         "a decimal integer, got '1.0'"),
    ],
    ids=["v1", "unknown-kind", "short-row", "unterminated", "not-hex", "uppercase-hex",
         "hex-width", "bad-integer", "empty-integer", "float-label"],
)
def test_reader_rejects_malformed_tables(tmp_path, body, line, detail):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {line}") + ".*" + re.escape(detail)):
        mod.read_csv_table(path)
