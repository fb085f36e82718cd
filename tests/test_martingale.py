import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivariation.averages import avg_field
from bivariation.bodies import ball, cube
from bivariation.dyadic import (
    DyadicCube,
    cell_cube_ids,
    cells_by_cube,
    cube_cell_values,
    level_range,
)
from bivariation.fields import Box, Field, bmo_dyadic_norm, lp_norm
from bivariation.harness.generators import random_measurable_pair
from bivariation.martingale import (
    MeasurabilityError,
    bilinear_maximal,
    carleson_tent_mass,
    carleson_tent_ratios,
    carleson_weighted_sum,
    cond_expect,
    domination_check,
    mart_diff,
    martingale_product_variation_check,
    measurable_field,
    paraproduct_telescope,
    star_maximal,
    young_convolution_check,
)

BALL = ball(1)


def line(values, origin=0, mesh=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return Field(Box(1, (origin,), (len(values),), mesh), values)


def aligned_random(rng, n=64):
    return line(rng.normal(size=n))


# ---------------------------------------------------------------------------
# conditional expectation

def test_cell_cube_ids_memo_is_shared_and_read_only():
    ids, table, _ = cell_cube_ids(Box(2, (-3, 5), (6, 7)), 1)
    assert cell_cube_ids(Box(2, (-3, 5), (6, 7)), 1)[0] is ids
    with pytest.raises(ValueError):
        ids[0] = 1
    with pytest.raises(ValueError):
        table[0, 0] = 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-70, 70), st.integers(1, 80)), min_size=1, max_size=3))
def test_level_range_stops_one_above_the_final_partition(axes):
    box = Box(len(axes), [o for o, _ in axes], [e for _, e in axes])

    def cubes_per_axis(level):
        return [len({c >> level for c in range(o, o + e)}) for o, e in axes]

    final = min(j for j in range(41) if cubes_per_axis(j) == cubes_per_axis(40))
    assert level_range(box) == (0, final + 1)


# Brute-force oracles: every cell of a lattice cube, zero outside the box.

def _box_cells(box):
    return itertools.product(*[range(o, o + e) for o, e in zip(box.origin, box.extent)])


def _cube_cells(level, coords):
    side = 1 << level
    return itertools.product(*[range(c * side, (c + 1) * side) for c in coords])


def _value(f, y):
    m = tuple(c - o for c, o in zip(y, f.box.origin))
    inside = all(0 <= a < e for a, e in zip(m, f.box.extent))
    return float(f.samples[m]) if inside else 0.0


def oracle_cond_expect(f, j):
    cubes = [tuple(c >> j for c in x) for x in _box_cells(f.box)]
    if len(set(cubes)) == 1:  # one cube covers the box: the box mean
        return np.full(f.box.extent, np.mean(f.samples))
    out = []
    for q in cubes:
        total = 0.0
        for y in _cube_cells(j, q):
            total += _value(f, y)
        out.append(total / 2.0 ** (j * f.box.dim))
    return np.reshape(out, f.box.extent)


def oracle_star_maximal(h, n):
    out = []
    for x in _box_cells(h.box):
        best = 0.0
        for shift in itertools.product((-1, 0, 1), repeat=h.box.dim):
            q = tuple((c >> (n - 1)) + s for c, s in zip(x, shift))
            for y in _cube_cells(n - 1, q):
                best = max(best, abs(_value(h, y)))
        out.append(best)
    return np.reshape(out, h.box.extent)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_cube_ids_number_a_dense_grid_row_major(dim):
    rng = np.random.default_rng(50 + dim)
    for _ in range(20):
        box = Box(dim, rng.integers(-20, 5, size=dim), rng.integers(1, 12, size=dim))
        level = int(rng.integers(0, 4))
        ids, table, ncubes = cell_cube_ids(box, level)
        cells = np.array(list(_box_cells(box)))
        assert np.array_equal(table[ids], cells >> level)
        shape = table[-1] - table[0] + 1
        assert ncubes == len(table) == np.prod(shape)
        grid = np.stack(np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"), axis=-1)
        assert np.array_equal(table - table[0], grid.reshape(-1, dim))
        order, starts = cells_by_cube(box, level)
        bounds = np.append(starts, ids.size)
        for c in range(ncubes):
            assert np.array_equal(order[bounds[c]:bounds[c + 1]], np.flatnonzero(ids == c))


def test_cube_cell_values_clips_to_the_box():
    f = Field(Box(1, (-3,), (8,)), np.arange(8.0))  # lattice -3..4
    assert np.array_equal(cube_cell_values(f, DyadicCube(1, (0,))), [3.0, 4.0])
    assert np.array_equal(cube_cell_values(f, DyadicCube(2, (-1,))), [0.0, 1.0, 2.0])
    assert np.array_equal(cube_cell_values(f, DyadicCube(2, (1,))), [7.0])
    assert cube_cell_values(f, DyadicCube(1, (3,))).size == 0  # right of the box
    assert cube_cell_values(f, DyadicCube(1, (-3,))).size == 0  # left of the box
    g = Field(Box(2, (0, -2), (3, 4)), np.arange(12.0))
    assert np.array_equal(cube_cell_values(g, DyadicCube(1, (1, -1))), [8.0, 9.0])
    assert cube_cell_values(g, DyadicCube(1, (-2, 0))).size == 0


def _oracle_boxes(rng, dim, count):
    for _ in range(count):
        origin = rng.integers(-20, 0, size=dim)
        extent = rng.integers(1, 40 if dim == 1 else 10, size=dim)
        yield Box(dim, origin, extent, float(rng.choice([0.37, 1.0, 2.0])))


@pytest.mark.parametrize("dim", [1, 2])
def test_cond_expect_matches_brute_force_on_negative_origins(dim):
    rng = np.random.default_rng(60 + dim)
    for box in _oracle_boxes(rng, dim, 12):
        f = Field(box, rng.normal(size=box.cell_count))
        for j in range(0, max(box.extent).bit_length() + 2):
            assert cond_expect(f, j).samples.tobytes() == oracle_cond_expect(f, j).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_star_maximal_matches_brute_force_on_negative_origins(dim):
    rng = np.random.default_rng(70 + dim)
    for trial, box in enumerate(_oracle_boxes(rng, dim, 12)):
        n = int(rng.integers(1, 5))
        cube_value = {}
        vals = []
        for x in _box_cells(box):
            q = tuple(c >> (n - 1) for c in x)
            if q not in cube_value:
                sparse = trial % 2 and rng.random() < 0.6
                cube_value[q] = 0.0 if sparse else float(rng.normal())
            vals.append(cube_value[q])
        h = Field(box, vals)
        assert star_maximal(h, n).samples.tobytes() == oracle_star_maximal(h, n).tobytes()


def test_cond_expect_fixes_constants():
    f = line(np.full(8, 2.5))
    for j in range(4):
        assert np.array_equal(cond_expect(f, j).samples, f.samples)


def test_cond_expect_pair_average():
    f = line([1.0, 0.0])
    assert np.array_equal(cond_expect(f, 1).samples, [0.5, 0.5])


def test_cond_expect_preserves_mass():
    rng = np.random.default_rng(0)
    f = aligned_random(rng)
    total = np.sum(f.samples)
    for j in range(8):
        assert np.sum(cond_expect(f, j).samples) == pytest.approx(total, rel=1e-12)


def test_cond_expect_rejects_negative_level():
    with pytest.raises(ValueError):
        cond_expect(line([1.0, 2.0]), -1)


def test_cond_expect_straddling_box_uses_full_cube_volume():
    # box of 3 cells: the level-1 cube (2, 4) holds one in-box cell
    f = line([4.0, 4.0, 4.0])
    e = cond_expect(f, 1)
    assert np.array_equal(e.samples, [4.0, 4.0, 2.0])


def test_composition_collapses_to_coarser():
    rng = np.random.default_rng(1)
    f = aligned_random(rng)
    for j, jp in [(2, 4), (4, 2), (3, 3)]:
        lhs = cond_expect(cond_expect(f, j), jp).samples
        rhs = cond_expect(f, max(j, jp)).samples
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_sup_contraction():
    rng = np.random.default_rng(2)
    f = aligned_random(rng)
    for j in range(8):
        assert np.abs(cond_expect(f, j).samples).max() <= np.abs(f.samples).max() + 1e-15


# ---------------------------------------------------------------------------
# martingale differences

def test_mart_diff_constant_is_zero():
    f = line(np.full(16, 3.0))
    assert np.all(mart_diff(f, 2).samples == 0.0)


def test_mart_diff_pair():
    f = line([1.0, 0.0])
    assert np.array_equal(mart_diff(f, 1).samples, [0.5, -0.5])


def test_mart_diff_level_domain():
    with pytest.raises(ValueError):
        mart_diff(line([1.0, 2.0]), 0)


def test_telescoping_reconstruction():
    rng = np.random.default_rng(3)
    f = aligned_random(rng)
    top = 7
    recon = cond_expect(f, top).samples + sum(mart_diff(f, j).samples for j in range(1, top + 1))
    assert np.abs(recon - f.samples).max() < 1e-12


def test_difference_orthogonality():
    rng = np.random.default_rng(4)
    f = aligned_random(rng)
    for j, jp in [(1, 2), (2, 5), (3, 6)]:
        inner = np.sum(mart_diff(f, j).samples * mart_diff(f, jp).samples) * f.box.cell_volume
        assert abs(inner) < 1e-12 * max(1.0, lp_norm(f, 2.0) ** 2)


def test_square_function_identity():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=64)
    f = line(raw - raw.mean())  # coarsest expectation vanishes
    cover = 6
    total = sum(lp_norm(mart_diff(f, j), 2.0) ** 2 for j in range(1, cover + 1))
    assert total == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-12)
    g = line(raw)  # otherwise the identity is an inequality
    total_g = sum(lp_norm(mart_diff(g, j), 2.0) ** 2 for j in range(1, cover + 1))
    assert total_g <= lp_norm(g, 2.0) ** 2 + 1e-12


# ---------------------------------------------------------------------------
# neighbor-maximal functions

def test_star_constant():
    f = line(np.full(8, -2.0))
    assert np.all(star_maximal(f, 1).samples == 2.0)


def test_star_window_example():
    f = line([0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(star_maximal(f, 1).samples, [1.0, 1.0, 1.0, 0.0])


def test_star_rejects_non_measurable():
    f = line([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(MeasurabilityError) as exc:
        star_maximal(f, 2)  # not constant on pairs
    assert exc.value.level == 1
    assert exc.value.cube_coords == (0,)


def test_star_l2_bound():
    rng = np.random.default_rng(6)
    box = Box(1, (0,), (64,))
    for n in (1, 2, 3):
        h = measurable_field(box, n - 1, rng.normal(size=64 >> (n - 1)))
        st = star_maximal(h, n)
        assert np.sum(st.samples**2) <= 3.0 * np.sum(h.samples**2) + 1e-9


def test_measurable_field_roundtrip():
    box = Box(1, (0,), (8,))
    h = measurable_field(box, 1, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(h.samples, [1, 1, 2, 2, 3, 3, 4, 4])
    # a level-1 star maximal reads the values of level-1 cubes: it accepts h
    # and rejects a field that is not constant on its one cube
    star_maximal(h, 2)
    with pytest.raises(MeasurabilityError) as exc:
        star_maximal(line([1.0, 2.0]), 2)
    assert (exc.value.level, exc.value.cube_coords, exc.value.spread) == (1, (0,), 1.0)


def test_bilinear_maximal_ones():
    f = line(np.ones(8))
    assert np.all(bilinear_maximal(f, f, 1).samples == 1.0)


def test_bilinear_maximal_dominates_product():
    rng = np.random.default_rng(7)
    box = Box(1, (0,), (32,))
    for n in (1, 2, 3):
        h1 = measurable_field(box, n - 1, rng.normal(size=32 >> (n - 1)))
        h2 = measurable_field(box, n - 1, rng.normal(size=32 >> (n - 1)))
        bb = bilinear_maximal(h1, h2, n)
        assert np.all(bb.samples >= np.abs(h1.samples * h2.samples) - 1e-15)
        assert np.all(star_maximal(h1, n).samples >= np.abs(h1.samples) - 1e-15)


def four_star_calls(h1, h2, n):
    """bilinear_maximal composed of four star maximals on cell fields."""
    a = Field(h1.box, star_maximal(h1, n).samples * np.abs(h2.samples))
    b = Field(h1.box, np.abs(h1.samples) * star_maximal(h2, n).samples)
    return np.maximum(star_maximal(a, n).samples, star_maximal(b, n).samples)


@pytest.mark.parametrize("dim", [1, 2])
def test_bilinear_maximal_matches_four_star_calls(dim):
    rng = np.random.default_rng(40 + dim)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        origin = rng.integers(-9, 6, size=dim)
        extent = rng.integers(1, 20 if dim == 1 else 9, size=dim)
        box = Box(dim, origin, extent, float(rng.choice([0.37, 1.0, 2.0])))
        h1, h2 = random_measurable_pair(box, n - 1, rng, sparse=bool(trial % 2))
        got = bilinear_maximal(h1, h2, n).samples
        assert got.tobytes() == four_star_calls(h1, h2, n).tobytes()


def test_bilinear_maximal_rejects_non_measurable():
    good = line([1.0, 1.0, 2.0, 2.0])
    bad2 = line([0.0, 1.0, 0.0, 0.0])
    bad1 = line([3.0, 3.0, 0.0, 1.0])
    with pytest.raises(MeasurabilityError) as exc:
        bilinear_maximal(good, bad2, 2)
    assert exc.value.cube_coords == (0,)
    with pytest.raises(MeasurabilityError) as exc:
        bilinear_maximal(bad1, bad2, 2)
    assert exc.value.cube_coords == (1,)  # h1 is checked first


def test_bilinear_maximal_adjacent_cells():
    # pointwise product vanishes identically yet the maximal pair does not:
    # the squared-integral comparison against |h1 h2|^2 degenerates here
    h1 = line([0.0, 1.0, 0.0, 0.0])
    h2 = line([1.0, 0.0, 0.0, 0.0])
    bb = bilinear_maximal(h1, h2, 1)
    assert np.all(h1.samples * h2.samples == 0.0)
    assert bb.samples.max() == 1.0


def test_bilinear_maximal_ratio_finite_on_dense_pairs():
    rng = np.random.default_rng(8)
    box = Box(1, (0,), (32,))
    for n in (1, 2, 3):
        for _ in range(50):
            h1 = measurable_field(box, n - 1, rng.normal(size=32 >> (n - 1)))
            h2 = measurable_field(box, n - 1, rng.normal(size=32 >> (n - 1)))
            bb = bilinear_maximal(h1, h2, n)
            num = np.sum(bb.samples**2)
            den = np.sum((h1.samples * h2.samples) ** 2)
            assert den > 0 and np.isfinite(num / den)


# ---------------------------------------------------------------------------
# domination

def test_domination_constants_attain_equality():
    box = Box(1, (0,), (32,))
    h1 = Field(box, np.full(32, 2.0))
    h2 = Field(box, np.full(32, -3.0))
    rep = domination_check(BALL, h1, h2, 3, 1)
    assert rep.holds
    assert rep.max_average == pytest.approx(6.0, rel=1e-12)


def test_domination_rejects_k_ge_n():
    box = Box(1, (0,), (8,))
    f = Field(box, np.ones(8))
    with pytest.raises(ValueError):
        domination_check(BALL, f, f, 2, 2)


def test_domination_exact_in_guaranteed_band():
    # k <= n-2 keeps the dilate's diameter within one atom side
    rng = np.random.default_rng(9)
    box = Box(1, (0,), (64,))
    for trial in range(150):
        sub = np.random.default_rng((10, trial))
        n = int(sub.integers(2, 6))
        k = int(sub.integers(0, n - 1))
        size = 64 >> (n - 1)
        h1 = measurable_field(box, n - 1, sub.normal(size=size) * (sub.random(size) < 0.6))
        h2 = measurable_field(box, n - 1, sub.normal(size=size) * (sub.random(size) < 0.6))
        body = [BALL, cube(1)][trial % 2]
        assert domination_check(body, h1, h2, n, k).holds


def test_domination_carries_the_bilinear_maximal_bound():
    for trial, box in enumerate([Box(1, (-5,), (64,), 0.5), Box(2, (3, -2), (8, 16), 2.0)]):
        rng = np.random.default_rng((11, trial))
        for n in (1, 2, 3):
            h1, h2 = random_measurable_pair(box, n - 1, rng, sparse=bool(n % 2))
            bound = domination_check(cube(box.dim), h1, h2, n, n - 1).bound
            assert bound.samples.tobytes() == bilinear_maximal(h1, h2, n).samples.tobytes()


def test_domination_boundary_level_admits_violations():
    # at k = n-1 the dilate can couple atoms two steps apart, which the
    # neighbor-maximal pair cannot see; sparse opposed atoms exhibit it
    box = Box(1, (0,), (16,))
    vals1 = np.zeros(4)
    vals1[0] = 1.0
    vals2 = np.zeros(4)
    vals2[2] = 1.0
    h1 = measurable_field(box, 2, vals1)
    h2 = measurable_field(box, 2, vals2)
    rep = domination_check(BALL, h1, h2, 3, 2)
    assert not rep.holds
    assert rep.max_excess > 0.01


# ---------------------------------------------------------------------------
# paraproduct telescoping

def test_paraproduct_zero_inputs():
    box = Box(1, (0,), (32,))
    z = Field(box, np.zeros(32))
    rep = paraproduct_telescope(z, z, BALL, 2, 1, 5)
    assert rep.residual_max == 0.0 and rep.holds


def test_paraproduct_single_level_window():
    rng = np.random.default_rng(11)
    f1, f2 = aligned_random(rng, 32), aligned_random(rng, 32)
    rep = paraproduct_telescope(f1, f2, BALL, 2, 3, 3)
    assert rep.holds


def test_paraproduct_full_range_random():
    rng = np.random.default_rng(12)
    for trial in range(10):
        f1, f2 = aligned_random(rng), aligned_random(rng)
        k = int(rng.integers(0, 7))
        rep = paraproduct_telescope(f1, f2, BALL, k, 1, 7)
        assert rep.residual_max < 1e-10
        assert rep.holds


def test_paraproduct_coarse_boundary_stabilizes():
    # projections act as the global mean once one cube covers the box, so the
    # coarse boundary term settles to a fixed residual instead of growing
    rng = np.random.default_rng(13)
    f1, f2 = aligned_random(rng), aligned_random(rng)
    r7 = paraproduct_telescope(f1, f2, BALL, 3, 1, 7)
    r9 = paraproduct_telescope(f1, f2, BALL, 3, 1, 9)
    assert r9.coarse_boundary_max == pytest.approx(r7.coarse_boundary_max, rel=1e-12)
    assert r7.holds and r9.holds


def test_paraproduct_rejects_bad_window():
    box = Box(1, (0,), (8,))
    f = Field(box, np.ones(8))
    with pytest.raises(ValueError):
        paraproduct_telescope(f, f, BALL, 1, 4, 2)
    with pytest.raises(ValueError):
        paraproduct_telescope(f, f, BALL, 1, 0, 2)


# ---------------------------------------------------------------------------
# Carleson quantities

def test_tent_mass_constant_field():
    b = line(np.full(16, 4.0))
    for n in range(3):
        assert carleson_tent_mass(b, DyadicCube(2, (0,)), n) == 0.0


def test_tent_mass_haar_step_by_hand():
    b = line([1.0, -1.0, 0.0, 0.0])
    # only the level-1 difference is nonzero; over the pair cube it sums to 2
    assert carleson_tent_mass(b, DyadicCube(1, (0,)), 0) == pytest.approx(2.0)
    assert carleson_tent_mass(b, DyadicCube(2, (0,)), 0) == pytest.approx(2.0)
    assert carleson_tent_mass(b, DyadicCube(1, (1,)), 0) == 0.0
    assert carleson_tent_mass(b, DyadicCube(1, (-3,)), 0) == 0.0  # left of the box


def test_tent_ratio_nonincreasing_in_shift():
    rng = np.random.default_rng(14)
    for _ in range(10):
        b = line(np.repeat(rng.uniform(-1, 1, size=16), 4))
        ratios = carleson_tent_ratios(b, 4)
        assert all(r2 <= r1 * (1 + 1e-9) for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[0] > 0


def test_tent_ratio_constant_field():
    assert carleson_tent_ratios(line(np.full(16, 2.0)), 3) == (0.0,) * 4


def test_tent_ratios_reject_negative_n_max():
    with pytest.raises(ValueError):
        carleson_tent_ratios(line([1.0, -1.0]), -1)


def _tent_ratio_per_shift(b, n):
    """Reference: the ratio of one shift on its own, with its own BMO norm and
    a running per-cube total over the difference levels."""
    bmo = bmo_dyadic_norm(b)
    if bmo == 0.0:
        return 0.0
    box = b.box
    _, top = level_range(box)
    best = 0.0
    diffs = {}
    for j in range(1, top + 1):
        ids, _, ncubes = cell_cube_ids(box, j)
        mu = np.zeros(ncubes)
        for k in range(n, j + 1):
            lev = k + 1 - n
            if lev not in diffs:
                d = mart_diff(b, lev).samples.ravel()
                diffs[lev] = d * d
            mu += np.bincount(ids, weights=diffs[lev], minlength=ncubes)
        mu *= box.cell_volume
        vol_q = (float(1 << j) * box.mesh) ** box.dim
        best = max(best, float(mu.max()) / (vol_q * bmo * bmo))
    return best


def _tent_field(dim, origin, extent, mesh, kind, seed):
    box = Box(dim, origin, extent, mesh)
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return Field(box, np.full(box.cell_count, rng.normal()))
    if kind == "steps":
        # constant on aligned pairs of lattice cells, cut at the box edges
        lat = np.meshgrid(*box.lattice_axes(), indexing="ij")
        key = sum(((g >> 1) % 5) * 5**i for i, g in enumerate(lat))
        return Field(box, rng.uniform(-1, 1, size=5**dim)[key])
    return Field(box, rng.normal(size=box.cell_count))


tent_cases = st.one_of(
    st.tuples(st.just(1), st.tuples(st.integers(-40, 20)), st.tuples(st.integers(1, 48))),
    st.tuples(st.just(2), st.tuples(st.integers(-12, 6), st.integers(-12, 6)),
              st.tuples(st.integers(1, 10), st.integers(1, 10))),
)


@settings(max_examples=60, deadline=None)
@given(
    tent_cases,
    st.sampled_from([1.0, 0.37, 2.0]),
    st.sampled_from(["normal", "steps", "constant"]),
    st.integers(0, 10),  # the top level is at most 7 here
    st.integers(0, 2**32 - 1),
)
def test_tent_ratios_match_per_shift_loop(case, mesh, kind, n_max, seed):
    dim, origin, extent = case
    b = _tent_field(dim, origin, extent, mesh, kind, seed)
    ratios = carleson_tent_ratios(b, n_max)
    assert len(ratios) == n_max + 1
    assert all(type(r) is float for r in ratios)
    for n, r in enumerate(ratios):
        assert r == _tent_ratio_per_shift(b, n)
    if kind == "constant":
        assert ratios == (0.0,) * (n_max + 1)


@pytest.mark.parametrize("dim, origin, extent, mesh", [
    (1, (-13,), (27,), 0.37),
    (1, (5,), (19,), 2.0),
    (2, (-5, 3), (7, 6), 0.37),
    (2, (0, -4), (8, 5), 1.0),
])
def test_tent_ratios_are_the_sup_of_tent_masses(dim, origin, extent, mesh):
    b = _tent_field(dim, origin, extent, mesh, "normal", 23)
    bmo = bmo_dyadic_norm(b)
    _, top = level_range(b.box)
    ratios = carleson_tent_ratios(b, top + 1)
    for n, r in enumerate(ratios):
        sup = 0.0
        for j in range(1, top + 1):
            vol_q = (float(1 << j) * mesh) ** dim
            for coords in cell_cube_ids(b.box, j)[1]:
                cube = DyadicCube(j, tuple(int(c) for c in coords))
                sup = max(sup, carleson_tent_mass(b, cube, n) / (vol_q * bmo * bmo))
        assert r == pytest.approx(sup, rel=1e-12, abs=0.0)


def test_weighted_sum_degenerate_inputs():
    rng = np.random.default_rng(15)
    f = line(rng.normal(size=16))
    const_b = line(np.full(16, 1.5))
    assert carleson_weighted_sum(f, const_b, 1.5, 1.0, 0) == 0.0
    zero_f = line(np.zeros(16))
    b = line(np.repeat(rng.uniform(-1, 1, 4), 4))
    assert carleson_weighted_sum(zero_f, b, 1.5, 1.0, 0) == 0.0


def test_weighted_sum_rejects_bad_l():
    f = line(np.ones(8))
    with pytest.raises(ValueError):
        carleson_weighted_sum(f, f, 2.5, 1.0, 0)
    with pytest.raises(ValueError):
        carleson_weighted_sum(f, f, 1.0, 1.0, 0)


def test_weighted_sum_bounded_ratio():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(5):
        f = line(rng.normal(size=32))
        b = line(np.repeat(rng.uniform(-1, 1, 8), 4))
        denom = lp_norm(f, 2.0) ** 2 * bmo_dyadic_norm(b) ** 2
        for n in (0, 2, 4):
            val = carleson_weighted_sum(f, b, 1.5, 1.0, n)
            assert np.isfinite(val) and val >= 0
            worst = max(worst, val / denom)
    assert worst < 100.0


# ---------------------------------------------------------------------------
# sequence-level checks

def test_product_variation_zero_factor():
    rng = np.random.default_rng(17)
    f1 = aligned_random(rng, 32)
    zero = line(np.zeros(32))
    rep = martingale_product_variation_check(f1, zero, 3.0)
    assert rep.ratio == 0.0


def test_product_variation_constant_factor():
    rng = np.random.default_rng(18)
    f2 = aligned_random(rng, 32)
    c = line(np.full(32, 2.0))
    rep = martingale_product_variation_check(c, f2, 3.0)
    assert np.isfinite(rep.ratio) and rep.ratio > 0


def test_product_variation_random_bounded():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        rep = martingale_product_variation_check(
            aligned_random(rng, 32), aligned_random(rng, 32), 3.0
        )
        worst = max(worst, rep.ratio)
    assert worst < 20.0


def test_young_identity_convolution():
    rep = young_convolution_check([1.0, 2.0, 0.5], [1.0])
    assert rep.holds and rep.lhs == pytest.approx(rep.rhs, rel=1e-15)


def test_young_simple_case():
    rep = young_convolution_check([1.0, 1.0], [1.0, 1.0])
    assert rep.lhs == pytest.approx(np.sqrt(6.0), rel=1e-14)
    assert rep.rhs == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
    assert rep.holds


def test_young_random():
    rng = np.random.default_rng(20)
    for _ in range(200):
        a = rng.uniform(0, 1, size=rng.integers(1, 20))
        s = rng.uniform(0, 1, size=rng.integers(1, 10))
        assert young_convolution_check(a, s).holds


def test_young_rejects_negative():
    with pytest.raises(ValueError):
        young_convolution_check([-1.0], [1.0])
