import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariation.dyadic import DyadicCube, cell_cube_ids, cube_cell_values
from bivariation.fields import (
    Box,
    Field,
    bmo_dyadic_norm,
    export_csv,
    import_csv,
    lp_norm,
    read_ndf1,
    weak_lp_quasinorm,
    write_ndf1,
)


def line(values, origin=0, mesh=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return Field(Box(1, (origin,), (len(values),), mesh), values)


# ---------------------------------------------------------------------------
# Box / Field construction

def test_box_validation():
    with pytest.raises(ValueError):
        Box(1, (0,), (0,))
    with pytest.raises(ValueError):
        Box(1, (0,), (4,), mesh=0.0)
    with pytest.raises(ValueError):
        Box(2, (0,), (4, 4))


def test_field_rejects_nan_and_shape():
    box = Box(1, (0,), (4,))
    with pytest.raises(ValueError):
        Field(box, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        Field(box, [1.0, 2.0])


def test_values_at_zero_extension():
    f = line([1.0, 2.0, 3.0], origin=5)
    lat = np.array([[4], [5], [7], [8]])
    assert np.array_equal(f.values_at(lat), [0.0, 1.0, 3.0, 0.0])


def test_embed_roundtrip():
    f = line([1.0, 2.0], origin=3)
    g = f.embed(Box(1, (0,), (8,)))
    assert np.array_equal(g.samples, [0, 0, 0, 1, 2, 0, 0, 0])
    with pytest.raises(ValueError):
        f.embed(Box(1, (4,), (8,)))


# ---------------------------------------------------------------------------
# Lp norms

def test_lp_zero_field():
    assert lp_norm(line(np.zeros(8)), 2.0) == 0.0


def test_lp_ones_8_cells():
    assert lp_norm(line(np.ones(8)), 2.0) == pytest.approx(np.sqrt(8.0), rel=1e-15)


def test_lp_2d_mesh_half():
    f = Field(Box(2, (0, 0), (4, 4), 0.5), np.ones(16))
    assert lp_norm(f, 1.0) == pytest.approx(4.0, rel=1e-15)


def test_lp_infinity():
    assert lp_norm(line([1.0, -7.0, 2.0]), np.inf) == 7.0


def test_lp_rejects_bad_exponent():
    with pytest.raises(ValueError):
        lp_norm(line([1.0]), 0.0)
    with pytest.raises(ValueError):
        lp_norm(line([1.0]), -2.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=16),
    st.sampled_from([0.5, 1.0, 2.0, np.inf]),
    st.floats(-5, 5),
)
def test_lp_homogeneity(values, p, c):
    f = line(values)
    scaled = line(c * np.asarray(values))
    assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# weak Lp

def test_weak_zero():
    assert weak_lp_quasinorm(line(np.zeros(4)), 1.0) == 0.0


def test_weak_single_cell():
    assert weak_lp_quasinorm(line([3.0]), 1.0) == 3.0


def test_weak_three_levels():
    assert weak_lp_quasinorm(line([4.0, 2.0, 1.0]), 1.0) == 4.0


def test_weak_rejects_bad_exponent():
    with pytest.raises(ValueError):
        weak_lp_quasinorm(line([1.0]), 0.0)
    with pytest.raises(ValueError):
        weak_lp_quasinorm(line([1.0]), np.inf)


def test_weak_below_strong_chebyshev():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = line(rng.normal(size=rng.integers(1, 40)), mesh=rng.uniform(0.25, 2.0))
        for p in (1.0, 1.5, 2.0, 4.0):
            assert weak_lp_quasinorm(f, p) <= lp_norm(f, p) * (1 + 1e-12)


def test_weak_brute_force_sweep():
    # quasinorm dominates every strict-level value and is attained on the
    # sample levels when the level set uses >=
    rng = np.random.default_rng(1)
    f = line(rng.normal(size=30), mesh=0.5)
    p = 1.5
    val = weak_lp_quasinorm(f, p)
    a = np.abs(f.samples)
    vol = f.box.cell_volume
    lam_grid = np.linspace(1e-9, a.max() * 1.01, 1000)
    strict = max(lam * (np.sum(a > lam) * vol) ** (1 / p) for lam in lam_grid)
    assert strict <= val * (1 + 1e-12)
    attained = max(lam * (np.sum(a >= lam) * vol) ** (1 / p) for lam in a[a > 0])
    assert attained == pytest.approx(val, rel=1e-12)


# ---------------------------------------------------------------------------
# dyadic BMO

def test_bmo_constant():
    assert bmo_dyadic_norm(line(np.full(8, 3.7))) == 0.0


def test_bmo_two_cell_step():
    assert bmo_dyadic_norm(line([1.0, -1.0])) == pytest.approx(1.0, rel=1e-15)


def test_bmo_single_cell_spike():
    f = line([0.0] * 5 + [1.0] + [0.0] * 26)  # one cell inside a 32-cell line
    v = bmo_dyadic_norm(f)
    assert 0 < v <= 1.0
    # in-box oscillation of the nested cubes through the spike decays with size
    from bivariation.dyadic import DyadicCube, cube_cell_values

    prev = None
    for level in range(2, 6):
        cube = DyadicCube(level, (5 >> level,))
        vals = cube_cell_values(f, cube)
        med = np.median(vals)
        osc = np.mean(np.abs(vals - med))
        if prev is not None:
            assert osc <= prev + 1e-15
        prev = osc


def test_bmo_below_twice_sup():
    rng = np.random.default_rng(2)
    for _ in range(25):
        f = line(rng.normal(size=rng.integers(1, 33)), origin=int(rng.integers(-8, 8)))
        assert bmo_dyadic_norm(f) <= 2.0 * lp_norm(f, np.inf) + 1e-12


def bmo_by_size_oracle(f):
    """The BMO scan that grouped each level's cubes by size per call."""
    from bivariation.dyadic import cells_by_cube, level_range

    flat = f.samples.ravel()
    best = 0.0
    for level in range(0, level_range(f.box)[1] + 1):
        order, starts = cells_by_cube(f.box, level)
        values = flat[order]
        sizes = np.diff(starts, append=flat.size)
        for size in np.unique(sizes):
            block = values[starts[sizes == size, None] + np.arange(size)]
            a = np.median(block, axis=1)
            osc = np.mean(np.abs(block - a[:, None]), axis=1)
            best = max(best, float(osc.max()))
    return best


def per_cube_values(f, level):
    """The in-box sample values of every level cube meeting the box, one cube
    at a time through ``cube_slices``, with no sort: an independent walk of
    the cube layout."""
    _, table, _ = cell_cube_ids(f.box, level)
    for coords in table:
        yield cube_cell_values(f, DyadicCube(level, tuple(int(v) for v in coords)))


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=30, deadline=None)
@given(
    origin=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    extent=st.tuples(st.integers(1, 70), st.integers(1, 20)),
    seed=st.integers(0, 2**32 - 1),
)
# levels 1 and 2 share a partition and level 3 still coarsens
@example(origin=(2, 0), extent=(4, 1), seed=0)
# two orthant pieces, each one cube at its top levels
@example(origin=(-37, -5), extent=(50, 11), seed=1)
def test_bmo_matches_per_cube_loop(dim, origin, extent, seed):
    rng = np.random.default_rng(seed)
    box = Box(dim, origin[:dim], (min(extent[0], 20), extent[1]) if dim == 2 else extent[:1])
    f = Field(box, rng.normal(size=box.cell_count) * 10.0 ** rng.integers(-6, 6, size=box.cell_count))
    best = 0.0
    for level in range(14):  # past every level where these boxes' cubes merge
        for values in per_cube_values(f, level):
            best = max(best, float(np.mean(np.abs(values - np.median(values)))))
    assert bmo_dyadic_norm(f) == best
    assert repr(bmo_dyadic_norm(f)) == repr(bmo_by_size_oracle(f))


def test_cube_size_groups_are_read_only_and_lazy():
    from bivariation import dyadic
    from bivariation.martingale import cond_expect

    box = Box(2, (-5, 3), (11, 6))
    f = Field(box, np.arange(66.0))
    dyadic.cells_by_cube_size.cache_clear()
    cond_expect(f, 2)
    assert dyadic.cells_by_cube_size.cache_info().currsize == 0
    groups = dyadic.cells_by_cube_size(box, 2)
    # every cell once, in groups of increasing size
    assert sorted(np.concatenate([g.ravel() for g in groups]).tolist()) == list(range(66))
    assert [g.shape[1] for g in groups] == sorted({g.shape[1] for g in groups})
    for g in groups:
        with pytest.raises(ValueError):
            g[0, 0] = 0


def test_bmo_reaches_the_cube_holding_an_unaligned_box():
    # cells 7 and 8 first share a cube at level 4, [0, 16); cells 3 and 4 at level 3
    for origin in (0, 3, 7):
        assert bmo_dyadic_norm(Field(Box(1, (origin,), (2,)), [1.0, -1.0])) == 1.0


def test_bmo_2d():
    f = Field(Box(2, (0, 0), (2, 2)), [[1.0, 1.0], [-1.0, -1.0]])
    assert bmo_dyadic_norm(f) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# file formats

def test_ndf1_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = Field(Box(2, (-3, 5), (4, 6), 0.25), rng.normal(size=24))
    path = tmp_path / "field.ndf"
    write_ndf1(f, path)
    g = read_ndf1(path)
    assert g.box == f.box
    assert np.array_equal(g.samples, f.samples)


def test_ndf1_bad_magic(tmp_path):
    path = tmp_path / "bad.ndf"
    path.write_bytes(b"XXXX" + b"\0" * 40)
    with pytest.raises(ValueError, match="magic"):
        read_ndf1(path)


def test_ndf1_rejects_a_truncated_header(tmp_path):
    path = tmp_path / "short.ndf"
    path.write_bytes(b"NDF1" + b"\1\0\0\0" + b"\0\0")
    with pytest.raises(ValueError, match="truncated"):
        read_ndf1(path)


def test_ndf1_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.ndf"
    write_ndf1(line([1.0, 2.0, 3.0]), path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="expected 24"):
        read_ndf1(path)


def test_csv_roundtrip(tmp_path):
    f = line([1.5, -2.25, 0.0], origin=-1, mesh=0.5)
    path = tmp_path / "field.csv"
    export_csv(f, path)
    g = import_csv(path, mesh=0.5)
    assert g.box == f.box
    assert np.array_equal(g.samples, f.samples)


def test_csv_rejects_2d(tmp_path):
    f = Field(Box(2, (0, 0), (2, 2)), np.ones(4))
    with pytest.raises(ValueError):
        export_csv(f, tmp_path / "x.csv")
