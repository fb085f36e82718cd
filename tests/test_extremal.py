import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariation.bodies import ball
from bivariation.extremal import (
    HullError,
    _block_nodes,
    _even_ball_volume,
    _outside_fraction,
    _probe_points,
    _strip_volume,
    counterexample_average,
    counterexample_variation,
    default_rotation_mesh,
    ergodic_avg_profile,
    ergodic_bilinear_avg,
    find_growth_ratio,
    interp_weights,
    make_instance,
    sample_torus,
)


# ---------------------------------------------------------------------------
# growth-ratio search

def closed_form_outside_fraction(a):
    # area fraction of the radius-a disk outside the vertical strip |y1| <= 1
    return 1.0 - (2.0 * (np.sqrt(a * a - 1.0) + a * a * np.arcsin(1.0 / a))) / (np.pi * a * a)


def test_quadrature_matches_segment_area_formula():
    for a in (2.0, 4.0, 6.34, 9.0):
        assert _outside_fraction(a, None, 1) == pytest.approx(
            closed_form_outside_fraction(a), abs=1e-6
        )


def test_small_ratio_rejected():
    assert _outside_fraction(1.05, None, 1) < 0.8


def test_outside_fraction_monotone():
    vals = [_outside_fraction(a, None, 1) for a in np.arange(1.2, 12.0, 0.4)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_find_growth_ratio_d1():
    alpha, eps0 = find_growth_ratio(1)
    assert (alpha, eps0) == (6.34, 0.634)
    assert closed_form_outside_fraction(alpha) > 0.8
    assert closed_form_outside_fraction(alpha - 0.01) <= 0.8  # smallest on the lattice
    assert eps0 > 0


def test_find_growth_ratio_d2():
    alpha, eps0 = find_growth_ratio(2)
    assert (alpha, eps0) == (3.08, 0.308)
    assert _outside_fraction(alpha, None, 2) > 0.8
    assert eps0 > 0


def quadrature_strip_volume(alpha, x, d):
    # the slice quadratures the closed forms replaced: composite Simpson on
    # 4001 nodes (d = 1), a 401^2 midpoint grid over the unit disk (d = 2)
    x = np.zeros(d) if x is None else np.asarray(x, dtype=np.float64).reshape(d)
    if d == 1:
        u = np.linspace(-1.0, 1.0, 4001)
        chord = 2.0 * np.sqrt(np.maximum(alpha**2 - (u - x[0]) ** 2, 0.0))
        w = np.full(4001, 2.0)
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        return float(np.sum(w * chord) * (u[1] - u[0]) / 3.0)
    g = (np.arange(401) + 0.5) / 401 * 2.0 - 1.0
    u1, u2 = np.meshgrid(g, g, indexing="ij")
    inside = u1**2 + u2**2 <= 1.0
    disk_area = np.pi * np.maximum(alpha**2 - (u1 - x[0]) ** 2 - (u2 - x[1]) ** 2, 0.0)
    return float(np.sum(disk_area[inside]) * (2.0 / 401) ** 2)


@pytest.mark.parametrize("d, tol", [(1, 1e-6), (2, 1e-4)])
def test_closed_form_volumes_match_the_quadratures(d, tol):
    for alpha in (1.01, 1.5, 2.0, 3.08, 6.34, 9.0):
        probes = [p for eps in (alpha / 10, alpha / 20) for p in _probe_points(eps, d)]
        for x in [None] + [p for p in probes if alpha >= 1.0 + np.linalg.norm(p)]:
            quad = 1.0 - quadrature_strip_volume(alpha, x, d) / _even_ball_volume(alpha, 2 * d)
            assert _outside_fraction(alpha, x, d) == pytest.approx(quad, abs=tol)


@pytest.mark.parametrize("edge, x", [(1.0, None), (1.5, [-0.5]), (1.625, [0.375, -0.5])])
def test_closed_form_volume_needs_the_whole_strip(edge, x):
    # below alpha = 1 + |x| some y1 of the unit ball sees only part of its y2-ball
    d = 1 if x is None else len(x)
    with pytest.raises(ValueError, match="alpha >= 1 \\+ \\|x\\|"):
        _strip_volume(edge - 1e-3, x, d)
    assert _strip_volume(edge, x, d) > 0.0


def test_find_growth_ratio_is_memoized():
    find_growth_ratio.cache_clear()
    first = find_growth_ratio(1)
    assert find_growth_ratio(1) is first
    assert find_growth_ratio.cache_info().hits == 1


def test_growth_ratio_rejects_other_dims():
    with pytest.raises(ValueError):
        find_growth_ratio(3)


# ---------------------------------------------------------------------------
# the alternating construction

def test_instance_membership_structure():
    inst = make_instance(1, 2, growth_ratio=6.34, eps0=0.6)
    a = inst.growth_ratio
    pts = np.array([[1.0], [a * 0.99], [a * 1.5], [a**2 * 1.01], [a**3 * 0.99], [a**3 * 1.2]])
    # annuli are (1, a], (a^2, a^3], (a^4, a^5]
    assert list(inst.in_annuli(pts)) == [False, True, False, True, True, False]
    assert inst.in_ball(np.array([[a**6]]))
    assert not inst.in_ball(np.array([[a**6 * 1.01]]))


def test_alternation_small_n():
    inst = make_instance(1, 1)
    probes = np.linspace(-inst.eps0, inst.eps0, 5)
    for i in range(1, 2 * inst.n + 2):
        for x in probes:
            v = counterexample_average(inst, i, [x])
            if i % 2 == 1:
                assert v > 0.75 + 0.02
            else:
                assert v < 0.25 - 0.02


def test_average_scale_window():
    inst = make_instance(1, 1)
    with pytest.raises(ValueError):
        counterexample_average(inst, 0, [0.0])
    with pytest.raises(ValueError):
        counterexample_average(inst, 2 * inst.n + 3, [0.0])


def test_variation_lower_bound_and_growth():
    values = []
    for n in (1, 2, 3):
        inst = make_instance(1, n)
        rep = counterexample_variation(inst, 3.0)
        assert rep.value >= rep.derived_bound
        values.append(rep.value)
    assert values[0] < values[1] < values[2]


def test_degenerate_instance():
    inst = make_instance(1, 0)
    rep = counterexample_variation(inst, 3.0)
    assert rep.value == 0.0 and rep.derived_bound == 0.0


# ---------------------------------------------------------------------------
# the block count against the node scan


@functools.lru_cache(maxsize=4)
def oracle_nodes(dim, refine):
    g = (np.arange(refine) + 0.5) / refine * 2.0 - 1.0
    grids = np.meshgrid(*([g] * dim), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=-1)
    return pts[np.einsum("ij,ij->i", pts, pts) <= 1.0]


def oracle_counterexample_average(inst, i, x, refine=None, max_refine=None):
    """The node-scan quadrature: the mean of the indicator pair over every node."""
    if not (1 <= i <= 2 * inst.n + 2):
        raise ValueError("scale index outside the construction window")
    if refine is None:
        refine = 192 if inst.d == 1 else 24
    if max_refine is None:
        max_refine = 1536 if inst.d == 1 else 96
    t = inst.growth_ratio ** i
    x = np.asarray(x, dtype=np.float64).reshape(inst.d)
    prev = None
    r = refine
    while True:
        z = oracle_nodes(2 * inst.d, r)
        y1 = x[None, :] + t * z[:, : inst.d]
        y2 = x[None, :] + t * z[:, inst.d :]
        val = float(np.mean(inst.in_annuli(y1) & inst.in_ball(y2)))
        if prev is not None and abs(val - prev) < 5e-3:
            return val
        if r >= max_refine:
            return val
        prev = val
        r *= 2


def assert_block_nodes_rebuild_the_ball_nodes(d, r):
    # the exact block count against the float node scan: the ball's nodes are
    # the pairs (z[a], z[b]) with b < reach[a], and they are the scan's nodes
    z, s, reach, total = _block_nodes(d, r)
    paired = s[:, None] + s[None, :] <= r * r
    assert np.array_equal(paired, np.arange(len(z)) < reach[:, None])
    a, b = np.nonzero(paired)
    nodes = np.concatenate([z[a], z[b]], axis=1)
    scan = oracle_nodes.__wrapped__(2 * d, r)
    assert total == len(nodes) == len(scan)
    assert np.array_equal(nodes[np.lexsort(nodes.T)], scan[np.lexsort(scan.T)])


# the name is that of the d = 1 test it replaced: the d = 1 nodes form a disk
@pytest.mark.parametrize("refine", [*range(1, 200), 384, 768, 1536])
def test_disk_rows_rebuild_the_disk_nodes(refine):
    assert_block_nodes_rebuild_the_ball_nodes(1, refine)


# r = 2 mod 4 is left out: some nodes lie on the sphere there, and the float
# scan rounds them either way (next test)
@pytest.mark.parametrize("refine", [r for r in range(1, 41) if r % 4 != 2])
def test_block_nodes_rebuild_the_d2_ball_nodes(refine):
    assert_block_nodes_rebuild_the_ball_nodes(2, refine)


def test_block_nodes_keep_the_sphere_nodes():
    # sum (2i + 1 - r)^2 over four coordinates is 4 mod 8 for even r, so nodes
    # lie on the sphere of R^4 exactly when r = 2 mod 4; the float scan drops
    # some of them (504 of 512 nodes kept at r = 6), the integer test none
    r = 6
    ks = range(1 - r, r, 2)
    sums = [sum(k * k for k in node) for node in itertools.product(ks, repeat=4)]
    assert sums.count(r * r) > 0
    assert _block_nodes(2, r)[3] == sum(v <= r * r for v in sums) == 512


def test_row_count_matches_node_scan_at_every_scale():
    a, eps0 = find_growth_ratio(1)
    for n in range(9):
        inst = make_instance(1, n, a, eps0)
        for i in range(1, 2 * n + 3):
            for x in (0.0, -eps0, 0.3 * eps0, -7.5):
                got = counterexample_average(inst, i, [x], refine=24, max_refine=96)
                assert got == oracle_counterexample_average(inst, i, [x], 24, 96)


@st.composite
def d1_cases(draw):
    a, eps0 = find_growth_ratio(1)
    n = draw(st.integers(0, 8))
    i = draw(st.integers(1, 2 * n + 2))
    probes = list(np.linspace(-eps0, eps0, 9))
    x = draw(st.one_of(
        st.sampled_from(probes),
        st.floats(-2.0, 0.0),
        st.floats(-1e4, 1e4),
    ))
    refine = draw(st.one_of(st.none(), st.integers(1, 160)))
    max_refine = draw(st.integers(1, 400)) if refine is not None else None
    return n, i, x, refine, max_refine


@settings(max_examples=60, deadline=None)
@given(d1_cases())
@example((3, 2, 0.0, None, None))  # the shipped mesh sequence, 192 up to 1536
@example((8, 17, -0.634, None, None))
@example((8, 18, 0.634 * 0.75, None, None))
@example((1, 3, 40.0, None, None))  # x far outside the eps0-ball
@example((2, 5, -0.2, 5, 12))  # odd refine; max_refine stops the loop at 20
@example((0, 1, 0.1, 33, 33))  # a single level
def test_row_count_matches_node_scan(case):
    n, i, x, refine, max_refine = case
    inst = make_instance(1, n, *find_growth_ratio(1))
    got = counterexample_average(inst, i, [x], refine, max_refine)
    assert got == oracle_counterexample_average(inst, i, [x], refine, max_refine)


def test_d2_average_scans_the_nodes():
    inst = make_instance(2, 1, growth_ratio=3.08, eps0=0.308)
    for i in (1, 2, 4):
        # x far out puts nodes outside the ball, so both tests matter
        for x in ([0.0, 0.0], [0.308, 0.0], [-0.2, 0.1], [30.0, -20.0]):
            got = counterexample_average(inst, i, x, refine=6, max_refine=12)
            assert got == oracle_counterexample_average(inst, i, x, 6, 12)
            assert 0.0 <= got <= 1.0


def test_d2_default_mesh_sequence_stays_small():
    # the d = 2 sequence 24 -> 48 -> 96 counts from r^2 block nodes, not r^4 nodes
    inst = make_instance(2, 1, growth_ratio=3.08, eps0=0.308)
    _block_nodes.cache_clear()
    tracemalloc.start()
    try:
        for i in (1, 2):
            for x in ([0.0, 0.0], [0.308, 0.0], [-0.2, 0.1]):
                assert 0.0 <= counterexample_average(inst, i, x) <= 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _block_nodes.cache_info().misses == 3  # all three meshes were built
    assert peak < 50e6


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("refine", [0, -4])
def test_average_rejects_refine_below_one(d, refine):
    inst = make_instance(d, 1, *((6.34, 0.634) if d == 1 else (3.08, 0.308)))
    with pytest.raises(ValueError, match="refine must be at least 1"):
        counterexample_average(inst, 1, np.zeros(d), refine=refine, max_refine=8)


# ---------------------------------------------------------------------------
# interpolation geometry

def test_interp_midpoint_example():
    pt = interp_weights(2.0, 2.0, 10.0)
    assert pt.weights == pytest.approx((0.5, 0.5, 0.0, 0.0, 0.0))
    assert pt.q_out_recip == pytest.approx(1.0)


def test_interp_vertex_case():
    pt = interp_weights(1.0, 1.0, 10.0)
    assert pt.weights[2] == 1.0
    assert pt.q_out_recip == 2.0


def test_interp_outside_names_facet():
    with pytest.raises(HullError, match="1/p1 <= 1"):
        interp_weights(1 / 1.2, 2.0, 10.0)
    with pytest.raises(HullError, match="1/s"):
        interp_weights(100.0, 100.0, 10.0)


def test_interp_rejects_nonpositive_exponents():
    for p1, p2 in ((0.0, 2.0), (2.0, 0.0), (-2.0, 2.0), (np.nan, 2.0)):
        with pytest.raises(ValueError, match="positive"):
            interp_weights(p1, p2, 10.0)


def test_interp_random_interior():
    rng = np.random.default_rng(0)
    s = 10.0
    for _ in range(200):
        x, y = rng.uniform(0.02, 0.98, size=2)
        if x + y <= 1.0 / s:
            continue
        pt = interp_weights(1.0 / x, 1.0 / y, s)
        rx, ry = pt.reconstruction(s)
        assert abs(rx - x) < 1e-12 and abs(ry - y) < 1e-12
        assert all(0.0 <= w <= 1.0 for w in pt.weights)
        assert sum(pt.weights) == pytest.approx(1.0, abs=1e-12)


def test_interp_rejects_small_s():
    with pytest.raises(ValueError):
        interp_weights(2.0, 2.0, 1.5)


# ---------------------------------------------------------------------------
# torus rotations

def test_rotation_constants():
    f1 = np.full(32, 2.0)
    f2 = np.full(32, -0.5)
    v = ergodic_bilinear_avg([0.3], f1, f2, ball(1), 2.0, [0.1])
    assert v == pytest.approx(-1.0, rel=1e-12)


def test_rotation_zero_vector_is_pointwise_product():
    rng = np.random.default_rng(1)
    f1 = rng.normal(size=16)
    f2 = rng.normal(size=16)
    omega = 5 / 16
    v = ergodic_bilinear_avg([0.0], f1, f2, ball(1), 2.0, [omega])
    assert v == pytest.approx(f1[5] * f2[5], rel=1e-12)


def test_rotation_mesh_must_divide_one():
    f = np.ones(8)
    with pytest.raises(ValueError):
        ergodic_bilinear_avg([0.5], f, f, ball(1), 1.0, [0.0], quad_mesh=0.3)


@pytest.mark.parametrize("quad_mesh", [0.0, -0.5, np.nan, np.inf])
def test_rotation_average_rejects_bad_quad_mesh(quad_mesh):
    # inf read as a zero scale ("t must be positive"); nan failed in round()
    f = np.ones(8)
    with pytest.raises(ValueError, match="quadrature mesh must divide 1"):
        ergodic_bilinear_avg([0.5], f, f, ball(1), 1.0, [0.0], quad_mesh=quad_mesh)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_rotation_averages_reject_nonpositive_t(t):
    f = np.ones(8)
    with pytest.raises(ValueError, match="t must be positive"):
        ergodic_bilinear_avg([0.3], f, f, ball(1), t, [0.1])
    with pytest.raises(ValueError, match="t must be positive"):
        ergodic_avg_profile([0.3], f, f, ball(1), t)


@pytest.mark.parametrize("quad_mesh", [0.0, -0.5, np.nan, np.inf])
def test_profile_rejects_bad_quad_mesh(quad_mesh):
    f = np.ones(8)
    with pytest.raises(ValueError, match="quadrature mesh must be positive and finite"):
        ergodic_avg_profile([0.3], f, f, ball(1), 2.0, quad_mesh=quad_mesh)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_profile_rejects_non_finite_beta(beta):
    # rint(nan) cast to int64 is INT64_MIN, 0 modulo m: the beta = 0 profile f1 * f2
    f = np.arange(8.0)
    with pytest.raises(ValueError, match="beta must be finite"):
        ergodic_avg_profile([beta], f, f, ball(1), 2.0)


@pytest.mark.parametrize("t, message", [(np.inf, "t must be finite"), (np.nan, "t must be positive")])
def test_profile_rejects_non_finite_t(t, message):
    f = np.ones(8)
    with pytest.raises(ValueError, match=message):
        ergodic_avg_profile([0.3], f, f, ball(1), t)


def test_profile_rejects_an_empty_torus():
    f = np.ones(0)
    with pytest.raises(ValueError, match="torus sample arrays must not be empty"):
        ergodic_avg_profile([0.3], f, f, ball(1), 2.0)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_rotation_average_rejects_non_finite_beta(beta):
    # rint(nan) cast to int64 is INT64_MIN, 0 modulo m: beta = nan answered f[0]**2
    f = np.arange(1.0, 9.0)
    with pytest.raises(ValueError, match="beta must be finite"):
        ergodic_bilinear_avg([beta], f, f, ball(1), 2.0, [0.5])


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_rotation_average_rejects_non_finite_omega(omega):
    f = np.arange(1.0, 9.0)
    with pytest.raises(ValueError, match="omega must be finite"):
        ergodic_bilinear_avg([0.3], f, f, ball(1), 2.0, [omega])


@pytest.mark.parametrize("shape", [(0,), (0, 0)])
def test_rotation_average_rejects_an_empty_torus(shape):
    # the default mesh 1/m divided by zero
    f = np.zeros(shape)
    with pytest.raises(ValueError, match="torus sample arrays must not be empty"):
        ergodic_bilinear_avg([0.3] * len(shape), f, f, ball(len(shape)), 2.0, [0.1] * len(shape))


@pytest.mark.parametrize("d_body, shape", [(2, (8,)), (1, (8, 8)), (2, (8, 8))])
def test_profile_rejects_other_than_d1(d_body, shape):
    f = np.ones(shape)
    with pytest.raises(ValueError, match="body dimension does not match the torus"):
        ergodic_avg_profile([0.3], f, f, ball(d_body), 2.0)


def test_profile_matches_pointwise():
    rng = np.random.default_rng(2)
    m = 16
    f1 = rng.normal(size=m)
    f2 = rng.normal(size=m)
    beta = np.sqrt(2.0)
    t = 2.0
    h = default_rotation_mesh(t)
    prof = ergodic_avg_profile([beta], f1, f2, ball(1), t, quad_mesh=h)
    for j in (0, 3, 11):
        v = ergodic_bilinear_avg([beta], f1, f2, ball(1), t, [j / m], quad_mesh=h)
        assert prof[j] == pytest.approx(v, rel=1e-12)


def test_equidistribution_trend():
    # averaged over several mean-zero trig pairs, the rotation averages shrink
    # as the scale grows (single pairs can sit at the equidistribution floor)
    m = 64
    beta = [np.sqrt(2.0)]
    rng = np.random.default_rng(3)
    t_means = {t: [] for t in (2.0, 8.0, 32.0)}
    for _ in range(6):
        k1, k2 = rng.integers(1, 5, size=2)
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        f1 = sample_torus(lambda x: np.cos(2 * np.pi * k1 * x + ph1), m, 1)
        f2 = sample_torus(lambda x: np.sin(2 * np.pi * k2 * x + ph2), m, 1)
        for t in t_means:
            t_means[t].append(
                float(np.mean(np.abs(ergodic_avg_profile(beta, f1, f2, ball(1), t))))
            )
    means = {t: np.mean(v) for t, v in t_means.items()}
    assert means[32.0] < means[2.0]


def test_sample_torus_2d_shape():
    f = sample_torus(lambda x, y: np.cos(2 * np.pi * (x + y)), 8, 2)
    assert f.shape == (8, 8)
