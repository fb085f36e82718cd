import numpy as np
import pytest

from bivariation.averages import avg_field
from bivariation.bodies import ball, cube
from bivariation.dyadic import DyadicCube, cell_cube_ids
from bivariation.fields import Box, Field, lp_norm
from bivariation.martingale import (
    MeasurabilityError,
    bilinear_maximal,
    carleson_tent_mass,
    carleson_tent_ratio,
    carleson_weighted_sum,
    cond_expect,
    domination_check,
    is_measurable,
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
    assert is_measurable(h, 1)
    assert not is_measurable(line([1.0, 2.0]), 1)


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


def test_tent_ratio_nonincreasing_in_shift():
    rng = np.random.default_rng(14)
    for _ in range(10):
        b = line(np.repeat(rng.uniform(-1, 1, size=16), 4))
        ratios = [carleson_tent_ratio(b, n) for n in range(5)]
        assert all(r2 <= r1 * (1 + 1e-9) for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[0] > 0


def test_tent_ratio_constant_field():
    assert carleson_tent_ratio(line(np.full(16, 2.0)), 0) == 0.0


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
    from bivariation.fields import bmo_dyadic_norm

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
