import numpy as np
import pytest

from bivariation.bodies import (
    CustomBody,
    ball,
    body_from_descriptor,
    boundary_cube_count,
    cube,
    enumerate_lattice,
    gamma_body,
    normalize,
    polytope_body,
    shell,
    slice_interval,
    spot_check,
    symmetric_difference_volume,
)


# ---------------------------------------------------------------------------
# normalization

def test_ball_is_its_own_normalization():
    b = ball(1, radius=5.0)
    assert b.r_in == 1.0 and b.r_out == 1.0


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
        d=1, r_in=0.2, kind="custom",
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


@pytest.mark.parametrize("maker", [
    lambda: ball(1),
    lambda: cube(1),
    lambda: gamma_body(1, [[1.0, 0.4], [-0.3, 0.9]]),
    lambda: polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
    lambda: normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
    lambda: normalize(1, lambda y: (y[:, 0] / 5) ** 2 + (y[:, 1] / 3) ** 2 <= 1.0, 3.0, 5.0),
])
def test_slice_interval_matches_enumeration(maker):
    body = maker()
    rng = np.random.default_rng(6)
    # random scales, integers, and scales a rounding step either side of lattice radii
    near = [np.nextafter(r, r + s) for r in (3.0, np.sqrt(5.0), 5.0) for s in (-1, 1)]
    for t in [*rng.uniform(0.5, 9.0, size=20), 1.0, 2.0, 7.0, *near]:
        pts = enumerate_lattice(body, t)
        by_k = {}
        for k, m in pts.points:
            by_k.setdefault(int(k), []).append(int(m))
        K = int(np.ceil(t)) + 1
        for k in range(-K, K + 1):
            iv = slice_interval(body, t, k)
            if k in by_k:
                assert iv == (min(by_k[k]), max(by_k[k]))
                assert len(by_k[k]) == iv[1] - iv[0] + 1  # contiguous
            else:
                assert iv is None


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
