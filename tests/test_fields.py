import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivariation.fields import (
    Box,
    Field,
    bmo_dyadic_norm,
    export_csv,
    import_csv,
    lp_norm,
    norm_report,
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


@pytest.mark.parametrize("dim", [1, 2])
def test_bmo_matches_per_cube_loop(dim):
    from bivariation.dyadic import iter_cubes

    rng = np.random.default_rng(11 + dim)
    for _ in range(30):
        origin = tuple(int(v) for v in rng.integers(-20, 20, size=dim))
        extent = tuple(int(v) for v in rng.integers(1, 70 if dim == 1 else 20, size=dim))
        box = Box(dim, origin, extent)
        f = Field(box, rng.normal(size=box.cell_count) * 10.0 ** rng.integers(-6, 6, size=box.cell_count))
        j_top = max(int(np.ceil(np.log2(max(extent)))), 0) + 1
        best = 0.0
        for level in range(j_top + 1):
            for _, values in iter_cubes(f, level):
                best = max(best, float(np.mean(np.abs(values - np.median(values)))))
        assert bmo_dyadic_norm(f) == best


def test_bmo_2d():
    f = Field(Box(2, (0, 0), (2, 2)), [[1.0, 1.0], [-1.0, -1.0]])
    assert bmo_dyadic_norm(f) == pytest.approx(1.0, rel=1e-15)


def test_norm_report_kinds():
    f = line([1.0, 2.0])
    assert norm_report(f, 2.0).value == lp_norm(f, 2.0)
    assert norm_report(f, 1.0, "weak").value == weak_lp_quasinorm(f, 1.0)
    assert norm_report(f, np.inf, "bmo_dyadic").value == bmo_dyadic_norm(f)
    with pytest.raises(ValueError):
        norm_report(f, 1.0, "other")


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
