import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariation import bodies
from bivariation.bodies import (
    Ball,
    CubeBody,
    CustomBody,
    GammaBody,
    PolytopeBody,
    ball,
    body_from_descriptor,
    boundary_cube_count,
    cube,
    enumerate_lattice,
    gamma_body,
    normalize,
    polytope_body,
    shell,
    slice_tables,
    spot_check,
    symmetric_difference_volume,
)


# ---------------------------------------------------------------------------
# normalization

def test_ball_is_its_own_normalization():
    b = ball(1, radius=5.0)
    assert b.r_in == 1.0 and b.r_out == 1.0


def test_kind_and_r_out_belong_to_the_class():
    shapes = (ball(1), cube(1), gamma_body(1, [[1.0, 0.4], [-0.2, 0.8]]),
               polytope_body(1, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
               normalize(1, lambda y: np.linalg.norm(y, axis=1) <= 1.0, 1.0, 1.0))
    assert [b.kind for b in shapes] == ["ball", "cube", "gamma_parallelepiped", "custom", "custom"]
    assert all(b.r_out == 1.0 for b in shapes)
    for b in shapes:
        for field, value in (("kind", "ball"), ("r_out", 2.0)):
            with pytest.raises(TypeError):
                type(b)(d=1, r_in=0.5, **{field: value})


def test_cube_inradius_d1():
    assert cube(1).r_in == pytest.approx(1 / np.sqrt(2), rel=1e-15)


def test_cube_inradius_d2():
    assert cube(2).r_in == pytest.approx(0.5, rel=1e-15)


def test_gamma_identity_matches_cube():
    g = gamma_body(1, np.eye(2))
    assert g.r_in == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert g.raw_scale == pytest.approx(np.sqrt(2), rel=1e-12)


def test_gamma_rejects_singular():
    with pytest.raises(ValueError):
        gamma_body(1, [[1.0, 1.0], [1.0, 1.0]])


def test_normalize_custom_ball():
    b = normalize(1, lambda y: np.linalg.norm(y, axis=1) <= 5.0, 5.0, 5.0)
    assert b.r_in == pytest.approx(1.0)
    assert b.contains_point((0.99, 0.0), 1.0)
    assert not b.contains_point((1.01, 0.0), 1.0)


def test_normalize_rejects_bad_certificates():
    with pytest.raises(ValueError):
        normalize(1, lambda y: np.linalg.norm(y, axis=1) <= 1.0, -1.0, 1.0)
    # claimed inner radius larger than the actual body
    with pytest.raises(ValueError, match="inner-radius"):
        normalize(1, lambda y: np.linalg.norm(y, axis=1) <= 1.0, 2.0, 2.5)
    # claimed outer radius smaller than the actual body
    with pytest.raises(ValueError, match="outer-radius"):
        normalize(1, lambda y: np.linalg.norm(y, axis=1) <= 1.0, 0.25, 0.5)


def test_spot_check_catches_asymmetry():
    shifted = CustomBody(
        d=1, r_in=0.2,
        predicate=lambda y: np.linalg.norm(y - 0.3, axis=1) <= 0.9,
    )
    with pytest.raises(ValueError):
        spot_check(shifted)


# ---------------------------------------------------------------------------
# lattice enumeration

def test_enumerate_ball_examples():
    b = ball(1)
    assert enumerate_lattice(b, 0.5).as_set() == {(0, 0)}
    assert enumerate_lattice(b, 1.0).as_set() == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_enumerate_ball_d2():
    pts = enumerate_lattice(ball(2), 1.0)
    assert pts.count == 9
    assert (0, 0, 0, 0) in pts.as_set()


def test_enumerate_rejects_bad_t():
    with pytest.raises(ValueError):
        enumerate_lattice(ball(1), 0.0)


@pytest.mark.parametrize("t", [float("inf"), float("nan"), -float("inf")])
def test_enumerate_rejects_non_finite_t(t):
    # an infinite scan box used to surface as OverflowError from int(ceil(t))
    with pytest.raises(ValueError, match="t must be"):
        enumerate_lattice(ball(1), t)


@pytest.mark.parametrize("t, message", [
    (0.0, "t must be positive"), (-1.0, "t must be positive"), (float("nan"), "t must be positive"),
    (float("inf"), "t must be finite"),
])
def test_slice_tables_reject_the_scales_enumerate_rejects(t, message):
    # t = 0 gave a one-row table, t = inf an OverflowError, and t = -1 and
    # t = nan numpy's own errors
    for body in (ball(1), cube(1), SLICE_BODIES[-1]):
        with pytest.raises(ValueError, match=message):
            enumerate_lattice(body, t)
        with pytest.raises(ValueError, match=message):
            slice_tables([(body, 1.0), (body, t)])


def full_box_scan(body, t):
    # the scan the slabs replaced: the whole box at once, then a lexicographic sort
    R = int(np.ceil(t * body.r_out))
    axes = [np.arange(-R, R + 1, dtype=np.int64)] * body.ambient
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, body.ambient)
    pts = grid[body.contains_dilated(grid.astype(np.float64), t)]
    return pts[np.lexsort(pts.T[::-1])]


# every kind at each d; for d >= 2 also gamma bodies with a zero
# coefficient, whose constraint without a2 shuts prefix rows
SCAN_BODIES = {
    1: [
        ball(1),
        cube(1),
        gamma_body(1, [[1.0, 0.4], [-0.3, 0.9]]),
        polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
        normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
    ],
    2: [
        ball(2),
        cube(2),
        gamma_body(2, [[1.0, 0.3], [-0.2, 0.9]]),
        polytope_body(2, np.vstack([np.eye(4), -np.eye(4), [[0.5, 0.5, 0.5, 0.5]],
                                    [[-0.5, -0.5, -0.5, -0.5]]])),
        normalize(2, lambda y: np.abs(y).sum(axis=1) <= 5.0, 2.5, 5.0),
        gamma_body(2, [[1.0, 0.0], [0.0, 1.0]]),
        gamma_body(2, [[0.0, 1.0], [1.0, 0.0]]),
        gamma_body(2, [[1.0, 0.5], [-0.5, 1.0]]),
    ],
    3: [
        ball(3),
        cube(3),
        gamma_body(3, [[1.0, 0.3], [-0.2, 0.9]]),
        polytope_body(3, np.vstack([np.eye(6), -np.eye(6), [[0.4] * 6], [[-0.4] * 6]])),
        normalize(3, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(6), 5.0),
        gamma_body(3, [[0.0, 1.0], [1.0, 0.0]]),
    ],
}


def scan_scales(body):
    """Fixed and, for d >= 2, drawn scales, the boundary scales 1, 2, 4 and
    8 sqrt(2), and the scales at which t r_in is an integer; at d = 3 only
    those whose box a full scan can hold."""
    if body.d == 1:
        return [0.7, 3.0, 12.5, 40.0]
    top = 12.0 if body.d == 2 else 3.0
    drawn = np.random.default_rng(body.d).uniform(0.5, top, size=3).tolist()
    fixed = [0.7, 3.0, 5.5, 9.0] if body.d == 2 else [0.7]
    edges = [1.0, 2.0, 4.0, 8 * np.sqrt(2)] + [k / body.r_in for k in (1, 2, 3)]
    return [*fixed, *drawn, *(t for t in edges if t * body.r_out <= top)]


@pytest.mark.parametrize("pass_rows", [7, bodies._SLAB_ROWS])
@pytest.mark.parametrize("d, which", [(d, i) for d in (1, 2, 3) for i in range(len(SCAN_BODIES[d]))])
def test_slab_scan_matches_full_box(monkeypatch, d, which, pass_rows):
    # the pass size of each path: box rows per slab of the d = 1 scan, prefix
    # rows per table pass for d >= 2.  7 splits every box into many slabs or
    # passes, a partial last one included; 65536 holds each box here in one
    # (test_enumeration_peak_stays_near_its_points splits at the default)
    monkeypatch.setattr(bodies, "_SLAB_ROWS" if d == 1 else "_TABLE_ROWS", pass_rows)
    body = SCAN_BODIES[d][which]
    for t in scan_scales(body):
        got = enumerate_lattice(body, t).points
        want = full_box_scan(body, t)
        assert got.dtype == np.int64 and got.shape == want.shape, t
        assert got.tobytes() == want.tobytes(), t


def concatenating_scan(body, t):
    # the slab scan that kept each slab's points and concatenated the pieces
    R = int(np.ceil(t * body.r_out))
    side = np.arange(-R, R + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[side] * (body.ambient - 1), indexing="ij"), axis=-1)
    rest = rest.reshape(-1, body.ambient - 1)
    per_slab = max(1, bodies._SLAB_ROWS // len(rest))
    kept = []
    for start in range(0, side.size, per_slab):
        first = side[start : start + per_slab]
        slab = np.hstack([np.repeat(first, len(rest))[:, None], np.tile(rest, (first.size, 1))])
        kept.append(slab[body.contains_dilated(slab.astype(np.float64), t)])
    return np.concatenate(kept)


def test_enumeration_peak_stays_near_its_points():
    # the kept pieces and their concatenation were alive together: 2.2x
    body = ball(2)
    tracemalloc.start()
    try:
        pts = enumerate_lattice(body, 16.0).points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pts.nbytes
    want = concatenating_scan(body, 16.0)
    assert pts.dtype == want.dtype and np.array_equal(pts, want)


def test_count_monotone_in_t():
    b = gamma_body(1, [[1.0, 0.3], [-0.2, 0.8]])
    counts = [enumerate_lattice(b, t).count for t in np.linspace(0.5, 12.0, 24)]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


def test_inclusion_sandwich():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(g)) < 0.3:
            continue
        body = gamma_body(1, g)
        for t in (1.0, 2.5, 6.0):
            inner = enumerate_lattice(ball(1), body.r_in * t).count
            mid = enumerate_lattice(body, t).count
            outer = enumerate_lattice(ball(1), t).count
            assert inner <= mid <= outer


def test_shell_examples():
    b = ball(1)
    assert shell(b, 1.0, 1.2).count == 0
    assert shell(b, 1.0, np.sqrt(2.0)).as_set() == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    with pytest.raises(ValueError):
        shell(b, 2.0, 1.0)


def test_shell_telescopes():
    body = cube(1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1 = rng.uniform(0.5, 4.0)
        t2 = t1 + rng.uniform(0.2, 3.0)
        s1 = enumerate_lattice(body, t1).as_set()
        sh = shell(body, t1, t2).as_set()
        s2 = enumerate_lattice(body, t2).as_set()
        assert s1 | sh == s2 and not (s1 & sh)


# ---------------------------------------------------------------------------
# symmetric difference

def test_symdiff_zero_offset():
    est = symmetric_difference_volume(ball(1), 1.0, (0.0, 0.0))
    assert est.value == 0.0


def test_symdiff_matches_lens_area():
    # analytic oracle: two unit disks at center distance delta
    delta = 0.4
    lens = 2 * np.arccos(delta / 2) - (delta / 2) * np.sqrt(4 - delta**2)
    expect = 2 * (np.pi - lens)
    est = symmetric_difference_volume(ball(1), 1.0, (delta, 0.0), n_samples=400_000, seed=9)
    assert est.value == pytest.approx(expect, abs=5 * est.stderr)


def test_symdiff_disjoint_translates():
    est = symmetric_difference_volume(ball(1), 1.0, (3.0, 0.0), n_samples=200_000, seed=2)
    assert est.value == pytest.approx(2 * np.pi, abs=5 * est.stderr)


def test_symdiff_linear_in_small_offsets():
    vols = []
    for eps in (0.1, 0.2, 0.4):
        est = symmetric_difference_volume(ball(1), 2.0, (eps, 0.0), n_samples=200_000, seed=3)
        vols.append(est.value)
    assert vols[0] < vols[1] < vols[2]
    assert vols[2] == pytest.approx(4 * vols[0], rel=0.15)


# ---------------------------------------------------------------------------
# boundary cubes and slices

def test_boundary_cube_count_scaling():
    # circle of radius 2^k meets O(2^(k-n)) side-2^n squares
    b = ball(1)
    ratios = []
    for k, n in [(3, 1), (4, 1), (4, 2), (5, 2), (5, 1)]:
        c = boundary_cube_count(b, k, n)
        ratios.append(c / 2.0 ** (k - n))
    assert all(1.0 <= r <= 32.0 for r in ratios)
    assert max(ratios) <= 2.5 * min(ratios)


def test_boundary_cube_count_rejects_n_ge_k():
    with pytest.raises(ValueError):
        boundary_cube_count(ball(1), 2, 2)


SLICE_MAKERS = [
    lambda: ball(1),
    lambda: cube(1),
    lambda: gamma_body(1, [[1.0, 0.4], [-0.3, 0.9]]),
    lambda: polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
    lambda: normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
    lambda: normalize(1, lambda y: (y[:, 0] / 5) ** 2 + (y[:, 1] / 3) ** 2 <= 1.0, 3.0, 5.0),
]
# every kind above, plus a slanted gamma body whose tables skip rows
SLICE_BODIES = [maker() for maker in SLICE_MAKERS] + [gamma_body(1, [[1, 3.1], [0.02, 0.01]])]
# scales a rounding step either side of lattice radii of the ball and the cube
NEAR_RADII = [np.nextafter(r, r + s) for r in (3.0, np.sqrt(5.0), 5.0, 3.0 * np.sqrt(2.0))
              for s in (-1, 1)]


def assert_table_matches_enumeration(body, t, table):
    pts = enumerate_lattice(body, t)
    by_k = {}
    for k, m in pts.points:
        by_k.setdefault(int(k), []).append(int(m))
    ks, lo, hi = table
    # one row per k with points, none for the other k, in increasing k
    assert ks.tolist() == sorted(by_k)
    for k, a, b in zip(ks.tolist(), lo.tolist(), hi.tolist()):
        assert (a, b) == (min(by_k[k]), max(by_k[k]))
        assert len(by_k[k]) == b - a + 1  # contiguous


@pytest.mark.parametrize("maker", SLICE_MAKERS)
def test_slice_interval_matches_enumeration(maker):
    body = maker()
    rng = np.random.default_rng(6)
    # random scales, integers, and scales a rounding step either side of lattice radii
    for t in [*rng.uniform(0.5, 9.0, size=20), 1.0, 2.0, 7.0, *NEAR_RADII[:6]]:
        assert_table_matches_enumeration(body, t, slice_tables([(body, t)])[0])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, len(SLICE_BODIES) - 1),
    st.lists(st.one_of(st.floats(0.3, 12.0), st.sampled_from(NEAR_RADII)), max_size=8),
)
@example(len(SLICE_BODIES) - 1, [7.3, 30.0, 0.5])  # rows with gaps, scales out of order
def test_slice_tables_match_one_scale_tables(which, ts):
    body = SLICE_BODIES[which]
    tables = slice_tables([(body, t) for t in ts])
    assert len(tables) == len(ts)
    # passes of at most 5 stacked rows split every list, down to one scale a pass
    with mock.patch.object(bodies, "_TABLE_ROWS", 5):
        split = slice_tables([(body, t) for t in ts])
    for table, other in zip(tables, split):
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(table, other))
    for t, table in zip(ts, tables):
        one = slice_tables([(body, t)])[0]
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(table, one))
        assert_table_matches_enumeration(body, t, table)


# every kind stacks with another of its kind: two cubes of other inner radii,
# two balls and four gamma bodies; the last gamma body and the square have
# constraints with a2 = 0
STACK_BODIES = SLICE_BODIES + [
    gamma_body(1, [[0.7, -1.2], [1.1, 0.4]]),
    gamma_body(1, [[1.0, 0.0], [0.0, 1.0]]),
    CubeBody(d=1, r_in=0.4),
    Ball(d=1, r_in=0.5),
    polytope_body(1, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
    gamma_body(1, [[0.0, 1.0], [1.0, 0.0]]),  # the a2 = 0 row second
    body_from_descriptor("custom:0.5,0;-0.5,0;0,1;0,-1", 1),
]


def oracle_contains_dilated(body, points, t):
    """The per-body cube and gamma membership tests the per-row tests replaced."""
    p = np.asarray(points, dtype=np.float64)
    if type(body) is CubeBody:
        return np.max(np.abs(p), axis=1) <= body.r_in * t
    if type(body) is GammaBody:
        y1, y2 = p[:, : body.d], p[:, body.d :]
        ok = np.ones(len(p), dtype=bool)
        for w1, w2 in body.rows:
            v = w1 * y1 + w2 * y2
            ok &= np.einsum("ij,ij->i", v, v) < t * t
        return ok
    return body.contains_dilated(p, t)


def oracle_slice_tables(body, ts):
    """The one-body build the stacked passes replaced, with the per-body
    membership tests."""
    if body.d != 1:
        raise ValueError("slice_table requires d = 1")
    if len(ts) == 0:
        return []
    Ks = [int(np.ceil(t * body.r_out)) for t in ts]
    sizes = [2 * K + 1 for K in Ks]
    if len(ts) > 1 and sum(sizes) > bodies._TABLE_ROWS:
        half = len(ts) // 2
        return oracle_slice_tables(body, ts[:half]) + oracle_slice_tables(body, ts[half:])
    ks = np.concatenate([np.arange(-K, K + 1, dtype=np.int64) for K in Ks])
    kf = ks.astype(np.float64)
    t = np.repeat(np.asarray(ts, dtype=np.float64), sizes)
    if isinstance(body, (Ball, CubeBody)):
        if isinstance(body, Ball):
            r2 = t * t - kf * kf
            M = np.where(r2 >= 0, np.floor(np.sqrt(np.abs(r2))), -1.0)
        else:
            h = body.r_in * t
            M = np.where(np.abs(kf) <= h, np.floor(h), -1.0)
        lo, hi = -M.astype(np.int64), M.astype(np.int64)
    else:
        lo_f, hi_f = -t, t
        linear = bodies._linear_rows(body)
        for a1, a2 in linear[0] if linear is not None else ():
            if a2 != 0.0:
                b1, b2 = (-t - a1 * kf) / a2, (t - a1 * kf) / a2
                lo_f = np.maximum(lo_f, np.minimum(b1, b2))
                hi_f = np.minimum(hi_f, np.maximum(b1, b2))
        lo = np.floor(lo_f).astype(np.int64) - 1
        hi = np.ceil(hi_f).astype(np.int64) + 1

    def inside(rows, m):
        pts = np.empty((len(rows), 2))
        pts[:, 0] = kf[rows]
        pts[:, 1] = m
        return oracle_contains_dilated(body, pts, t[rows])

    def step_while(rows, m, delta, test):
        active = np.ones(len(rows), dtype=bool)
        while active.any():
            active[active] = test(rows[active], m[active])
            m[active] += delta
        return m

    rows = np.arange(len(ks))
    lo = step_while(rows, lo, 1, lambda r, m: (m <= hi[r]) & ~inside(r, m))
    hi = step_while(rows, hi, -1, lambda r, m: (m >= lo[r]) & ~inside(r, m))
    rows = np.flatnonzero(lo <= hi)
    lo = step_while(rows, lo[rows], -1, lambda r, m: inside(r, m - 1))
    hi = step_while(rows, hi[rows], 1, lambda r, m: inside(r, m + 1))
    ends = np.searchsorted(rows, np.cumsum(sizes)).tolist()
    ks = ks[rows]
    return [(ks[a:b], lo[a:b], hi[a:b]) for a, b in zip([0, *ends], ends)]


def oracle_table_pass(keys, sizes):
    """The stepping pass the one-test pass replaced: rows k = -K..K of each
    key of one stack, ``sizes[i] = 2K + 1``, every row stepped from its padded
    candidate, four membership calls or more."""
    body = keys[0][0]
    ks = np.concatenate([np.arange(-(s // 2), s // 2 + 1, dtype=np.int64) for s in sizes])
    kf = ks.astype(np.float64)
    t = np.repeat(np.array([t for _, t in keys]), sizes)  # each row's scale
    # the parameters of each row's body: given once when the pass has one
    # body, else one per row
    one = all(b == body for b, _ in keys)
    # the linear kinds' constraints (a1, a2): |a1 k + a2 m| < t for a gamma
    # body, a1 k + a2 m <= t for a half-space list
    if isinstance(body, GammaBody):
        lines = body.rows if one else [
            tuple(np.repeat(a, sizes) for a in zip(*line))
            for line in zip(*(b.rows for b, _ in keys))
        ]
    else:
        lines = body.halfspaces if isinstance(body, PolytopeBody) else ()
    if isinstance(body, (Ball, CubeBody)):
        # symmetric candidates [-M, M]; M = -1 marks a row the body misses
        if isinstance(body, Ball):
            r2 = t * t - kf * kf
            M = np.where(r2 >= 0, np.floor(np.sqrt(np.abs(r2))), -1.0)
        else:
            r_in = body.r_in if one else np.repeat([b.r_in for b, _ in keys], sizes)
            h = r_in * t
            M = np.where(np.abs(kf) <= h, np.floor(h), -1.0)
        lo, hi = -M.astype(np.int64), M.astype(np.int64)
    else:
        lo_f, hi_f = -t, t
        for a1, a2 in lines:
            # a row whose a2 is 0 takes no bound from the constraint
            with np.errstate(divide="ignore", invalid="ignore"):
                b1, b2 = (-t - a1 * kf) / a2, (t - a1 * kf) / a2
            slanted = np.not_equal(a2, 0.0)
            lo_f = np.where(slanted, np.maximum(lo_f, np.minimum(b1, b2)), lo_f)
            hi_f = np.where(slanted, np.minimum(hi_f, np.maximum(b1, b2)), hi_f)
        lo = np.floor(lo_f).astype(np.int64) - 1
        hi = np.ceil(hi_f).astype(np.int64) + 1

    if one or isinstance(body, Ball):  # the ball test reads no parameter
        def member(pts, rows):
            return body.contains_dilated(pts, t[rows])
    elif isinstance(body, CubeBody):
        def member(pts, rows):
            return bodies._cube_contains(pts, r_in[rows], t[rows])
    else:  # gamma bodies with as many coefficient rows
        def member(pts, rows):
            return bodies._gamma_contains(
                pts, [(a1[rows, None], a2[rows, None]) for a1, a2 in lines], t[rows])

    def inside(rows, m):
        pts = np.empty((len(rows), 2))  # np.stack here took about 14% of a build
        pts[:, 0] = kf[rows]
        pts[:, 1] = m
        return member(pts, rows)

    def step_while(rows, m, delta, test):
        # m[i] += delta while test holds at m[i], for every row at once
        active = np.ones(len(rows), dtype=bool)
        while active.any():
            active[active] = test(rows[active], m[active])
            m[active] += delta
        return m

    # shrink the candidate onto its outermost members, then grow to the full run
    rows = np.arange(len(ks))
    lo = step_while(rows, lo, 1, lambda r, m: (m <= hi[r]) & ~inside(r, m))
    hi = step_while(rows, hi, -1, lambda r, m: (m >= lo[r]) & ~inside(r, m))
    rows = np.flatnonzero(lo <= hi)
    lo = step_while(rows, lo[rows], -1, lambda r, m: inside(r, m - 1))
    hi = step_while(rows, hi[rows], 1, lambda r, m: inside(r, m + 1))
    # the kept rows of each key, still in stacking order
    ends = np.searchsorted(rows, np.cumsum(sizes)).tolist()
    ks = ks[rows]
    return [(ks[a:b], lo[a:b], hi[a:b]) for a, b in zip([0, *ends], ends)]


def same_table(a, b) -> bool:
    return all(u.dtype == v.dtype and u.tobytes() == v.tobytes() for u, v in zip(a, b))


def oracle_stacked_tables(keys):
    """Each key's table from the stepping pass over its stack's keys."""
    stacks = {}
    for i, (body, _) in enumerate(keys):
        stacks.setdefault(bodies._stack_of(body), []).append(i)
    tables = [None] * len(keys)
    for at in stacks.values():
        group = [keys[i] for i in at]
        sizes = [2 * int(np.ceil(t * body.r_out)) + 1 for body, t in group]
        for i, table in zip(at, oracle_table_pass(group, sizes)):
            tables[i] = table
    return tables


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, len(STACK_BODIES) - 1),
              st.one_of(st.floats(0.3, 12.0), st.sampled_from(NEAR_RADII))),
    min_size=1, max_size=14,
))
@example([(i, t) for i in range(len(STACK_BODIES)) for t in (0.3, 0.7, 1.0, 7.3)])  # tip rows
# scales on a row's boundary, where a closed-form candidate misses a member
# or holds a cell that is not one, so the one test leaves rows to step
@example([(0, 5.0990195135927845), (0, 9.055385138137416), (2, 16.212354732805306),
          (2, 15.63334206377654), (3, 21.989896669960853), (3, 20.615528128088304)])
@example([(6, 30.0), (2, 0.5), (6, 7.3), (7, 3.0), (2, 9.5), (8, 2.0), (6, 0.5)])  # gamma rows with gaps
# rows that a constraint with a2 = 0 shuts, the boundary scale 8 sqrt(2) among them
@example([(i, t) for i in (8, 11, 12, 13) for t in (0.7, 5.3, 33.0, 100.1, 8 * np.sqrt(2))])
def test_one_test_pass_matches_the_stepping_pass(picks):
    keys = [(STACK_BODIES[i], float(t)) for i, t in picks]
    want = oracle_stacked_tables(keys)
    with mock.patch.object(bodies, "_TABLE_ROWS", 5):
        split = slice_tables(keys)
    for key, table, other, expected in zip(keys, slice_tables(keys), split, want):
        assert same_table(table, expected) and same_table(other, expected)
        assert same_table(slice_tables([key])[0], expected)


def count_membership_calls(body, build):
    """The calls ``build()`` makes to ``body``'s membership test."""
    test = type(body).contains_dilated
    with mock.patch.object(type(body), "contains_dilated", autospec=True, side_effect=test) as spy:
        build()
    return spy.call_count


@pytest.mark.parametrize("body", [
    ball(1),
    cube(1),
    CubeBody(d=1, r_in=0.4),
    gamma_body(1, [[1.0, 0.4], [-0.3, 0.9]]),
    gamma_body(1, [[1, 3.1], [0.02, 0.01]]),  # slanted: rows with gaps
    gamma_body(1, np.linalg.inv([[0.8, -0.6], [0.5, 0.7]])),
    polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
], ids=lambda b: type(b).__name__)
@pytest.mark.parametrize("t", [0.3, 0.7, 2.5, 7.3, 12.0, 31.6])
def test_one_key_build_makes_at_most_two_membership_calls(body, t):
    # the stepping makes four calls or more, so the counter sees the calls
    size = 2 * int(np.ceil(t)) + 1
    assert count_membership_calls(body, lambda: oracle_table_pass([(body, t)], [size])) >= 4
    assert count_membership_calls(body, lambda: slice_tables([(body, t)])) <= 2


# bodies with a constraint whose a2 is 0, in both row orders, and an
# axis-aligned custom polytope
SHUT_BODIES = [STACK_BODIES[i] for i in (8, 12, 11, 13)]


@pytest.mark.parametrize("body", SHUT_BODIES, ids=["gamma", "gamma-swapped", "square", "custom"])
@pytest.mark.parametrize("t, calls", [(0.7, 1), (5.3, 1), (33.0, 1), (100.1, 1), (8 * np.sqrt(2), 9)])
def test_constraints_without_a2_shut_their_rows(body, t, calls):
    # the rows that such a constraint excludes are empty before the one
    # membership test; stepped, the gamma bodies made 8 / 14 / 54 / 148
    # calls at the first four scales and 26 at the boundary scale 8 sqrt(2)
    size = 2 * int(np.ceil(t * body.r_out)) + 1
    assert same_table(slice_tables([(body, t)])[0], oracle_table_pass([(body, t)], [size])[0])
    assert count_membership_calls(body, lambda: slice_tables([(body, t)])) <= calls


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, len(STACK_BODIES) - 1),
              st.one_of(st.floats(0.3, 12.0), st.sampled_from(NEAR_RADII))),
    max_size=14,
))
@example([(i, 7.3) for i in range(len(STACK_BODIES))])  # one key of every body
# constraints with a2 = 0 whose line a1 k = t holds the slice k = 3, where
# the bound the constraint does not give would be 0 / 0
@example([(11, 3.0 * STACK_BODIES[11].halfspaces[0][0]), (8, 3.0 * STACK_BODIES[8].rows[0][0]),
          (2, 3.0)])
@example([(6, 30.0), (2, 0.5), (6, 7.3), (7, 3.0), (2, 9.5), (8, 2.0), (6, 0.5)])  # gamma rows with gaps
def test_stacked_passes_match_one_key_tables(picks):
    keys = [(STACK_BODIES[i], t) for i, t in picks]
    tables = slice_tables(keys)
    assert len(tables) == len(keys)
    # passes of at most 5 stacked rows split every list across body boundaries
    with mock.patch.object(bodies, "_TABLE_ROWS", 5):
        split = slice_tables(keys)
    for (body, t), table, other in zip(keys, tables, split):
        want = oracle_slice_tables(body, [t])[0]
        assert same_table(table, want) and same_table(other, want)
        assert same_table(slice_tables([(body, t)])[0], want)


@pytest.mark.parametrize("body", [
    cube(1),
    CubeBody(d=1, r_in=0.4),
    cube(2),
    gamma_body(1, [[1.0, 0.4], [-0.3, 0.9]]),
    gamma_body(1, [[1.0, 0.0], [0.0, 1.0]]),
    gamma_body(2, [[1.0, 0.3], [-0.2, 0.9]]),
    GammaBody(d=1, r_in=1.0),  # no coefficient rows: every point is inside
], ids=lambda b: f"{type(b).__name__}-d{b.d}")
def test_cube_and_gamma_membership_match_the_per_body_tests(body):
    rng = np.random.default_rng(4)
    pts = rng.integers(-4, 5, size=(400, body.ambient)).astype(np.float64)
    ts = rng.choice([0.5, 1.0, np.sqrt(2.0), 2.0, 3.0, np.sqrt(8.0), *NEAR_RADII], size=len(pts))
    for t in (ts, 3.0, NEAR_RADII[1]):
        got = body.contains_dilated(pts, t)
        assert got.dtype == bool
        assert np.array_equal(got, oracle_contains_dilated(body, pts, t))


def test_slice_tables_require_d1():
    with pytest.raises(ValueError, match="requires d = 1"):
        slice_tables([(ball(1), 1.0), (ball(2), 1.0)])


@pytest.mark.parametrize("body", [
    ball(1),
    ball(2),
    cube(2),
    gamma_body(2, [[1.0, 0.3], [-0.2, 0.9]]),
    polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
    polytope_body(2, np.vstack([np.eye(4), -np.eye(4)])),
    normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
    normalize(2, lambda y: np.abs(y).sum(axis=1) <= 5.0, 2.5, 5.0),
], ids=lambda b: f"{type(b).__name__}-d{b.d}")
def test_contains_dilated_takes_one_scale_per_point(body):
    rng = np.random.default_rng(9)
    # integer points and scales at lattice radii, so many points sit on the boundary
    pts = rng.integers(-4, 5, size=(400, body.ambient)).astype(np.float64)
    ts = rng.choice([0.5, 1.0, np.sqrt(2.0), 2.0, 3.0, np.sqrt(8.0), *NEAR_RADII], size=len(pts))
    expected = [bool(body.contains_dilated(p[None, :], t)[0]) for p, t in zip(pts, ts)]
    assert body.contains_dilated(pts, ts).tolist() == expected


# ---------------------------------------------------------------------------
# descriptors

def test_descriptor_parsing():
    assert body_from_descriptor("ball", 1).kind == "ball"
    assert body_from_descriptor("cube", 2).kind == "cube"
    g = body_from_descriptor("gamma:1,0,0,1", 1)
    assert g.kind == "gamma_parallelepiped"
    # the unit square via half-spaces
    p = body_from_descriptor("custom:1,0;-1,0;0,1;0,-1", 1)
    assert p.r_in == pytest.approx(1 / np.sqrt(2), rel=1e-9)
    with pytest.raises(ValueError):
        body_from_descriptor("pentagon", 1)
    with pytest.raises(ValueError):
        body_from_descriptor("gamma:1,2,3", 1)


def test_polytope_requires_bounded():
    with pytest.raises(ValueError):
        polytope_body(1, [[1.0, 0.0]])
