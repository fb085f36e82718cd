"""Convex bodies in R^(2d): normalized dilates, lattice enumeration, shells.

Every body is normalized so that it is sandwiched between the balls of radius
``r_in`` (the certified inner radius, in (0, 1]) and ``r_out = 1``.  Dilates
``G_t`` scale the body by ``t``.  Membership at the exact boundary follows the
defining predicate (closed for balls, cubes and half-space lists; strict for
the parallelepiped kind), which only matters for lattice counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConvexBody",
    "Ball",
    "CubeBody",
    "GammaBody",
    "PolytopeBody",
    "CustomBody",
    "LatticePointSet",
    "VolumeEstimate",
    "ball",
    "cube",
    "gamma_body",
    "polytope_body",
    "normalize",
    "enumerate_lattice",
    "shell",
    "symmetric_difference_volume",
    "boundary_cube_count",
    "slice_interval",
    "slice_table",
    "body_from_descriptor",
    "spot_check",
]


@dataclass(frozen=True)
class ConvexBody:
    """Base: dimension parameter d (ambient space is R^(2d)) and certified radii."""

    d: int
    r_in: float
    r_out: float = 1.0
    kind: str = "custom"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (0 < self.r_in <= self.r_out):
            raise ValueError("need 0 < r_in <= r_out")

    @property
    def ambient(self) -> int:
        return 2 * self.d

    def contains_dilated(self, points: np.ndarray, t: float) -> np.ndarray:
        """Membership of points (n, 2d) in G_t."""
        raise NotImplementedError

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.contains_dilated(points, 1.0)

    def contains_point(self, point, t: float) -> bool:
        return bool(self.contains_dilated(np.asarray(point, dtype=np.float64)[None, :], t)[0])


@dataclass(frozen=True)
class Ball(ConvexBody):
    """Closed unit ball of R^(2d); its own normalization (tau = 1)."""

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.einsum("ij,ij->i", p, p) <= t * t


@dataclass(frozen=True)
class CubeBody(ConvexBody):
    """Closed cube normalized to circumradius 1: half-side tau = 1/sqrt(2d)."""

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.max(np.abs(p), axis=1) <= self.r_in * t


@dataclass(frozen=True)
class GammaBody(ConvexBody):
    """{(y1, y2): |w_i1 y1 + w_i2 y2| < t, i = 1, 2} with y_i in R^d (strict).

    ``raw_scale`` is the factor the un-normalized body was divided by, so its
    dilate at t equals the normalized body's dilate at ``raw_scale * t``.
    """

    rows: tuple[tuple[float, float], ...] = ()
    raw_scale: float = 1.0

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        y1, y2 = p[:, : self.d], p[:, self.d :]
        ok = np.ones(len(p), dtype=bool)
        for w1, w2 in self.rows:
            v = w1 * y1 + w2 * y2
            ok &= np.einsum("ij,ij->i", v, v) < t * t
        return ok


@dataclass(frozen=True)
class PolytopeBody(ConvexBody):
    """Half-space list A y <= t (closed), rows of A normalized to circumradius 1."""

    halfspaces: np.ndarray = None

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.all(p @ self.halfspaces.T <= t, axis=1)


@dataclass(frozen=True)
class CustomBody(ConvexBody):
    """Opaque membership predicate with caller-certified radii, spot-checked."""

    predicate: Callable[[np.ndarray], np.ndarray] = None

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.asarray(self.predicate(p / t), dtype=bool)


# ---------------------------------------------------------------------------
# Constructors (all self-normalizing)

def ball(d: int, radius: float = 1.0) -> Ball:
    """Euclidean ball of any radius normalizes to the unit ball."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return Ball(d=d, r_in=1.0, kind="ball")


def cube(d: int, half_side: float = 1.0) -> CubeBody:
    if not half_side > 0:
        raise ValueError("half_side must be positive")
    return CubeBody(d=d, r_in=1.0 / np.sqrt(2 * d), kind="cube")


def gamma_body(d: int, gamma: np.ndarray) -> GammaBody:
    """Parallelepiped-type body from a nonsingular 2x2 block-coefficient matrix."""
    g = np.asarray(gamma, dtype=np.float64).reshape(2, 2)
    if abs(np.linalg.det(g)) < 1e-14:
        raise ValueError("gamma matrix must be nonsingular")
    lam = np.linalg.inv(g)
    c1 = lam[0, 0] ** 2 + lam[1, 0] ** 2
    c2 = lam[0, 1] ** 2 + lam[1, 1] ** 2
    c12 = lam[0, 0] * lam[0, 1] + lam[1, 0] * lam[1, 1]
    r_out_raw = float(np.sqrt(c1 + c2 + 2.0 * abs(c12)))
    r_in_raw = float(min(1.0 / np.hypot(*row) for row in g))
    rows = tuple((float(r_out_raw * g[i, 0]), float(r_out_raw * g[i, 1])) for i in range(2))
    return GammaBody(
        d=d,
        r_in=r_in_raw / r_out_raw,
        kind="gamma_parallelepiped",
        rows=rows,
        raw_scale=r_out_raw,
    )


def polytope_body(d: int, halfspaces: np.ndarray) -> PolytopeBody:
    """Body {A y <= 1} from row list A; must be bounded and origin-symmetric."""
    A = np.atleast_2d(np.asarray(halfspaces, dtype=np.float64))
    if A.shape[1] != 2 * d:
        raise ValueError(f"halfspace rows must have length {2*d}")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero halfspace row")
    r_in_raw = float(1.0 / norms.max())
    r_out_raw = _polytope_circumradius(A)
    body = PolytopeBody(
        d=d,
        r_in=r_in_raw / r_out_raw,
        kind="custom",
        halfspaces=np.ascontiguousarray(A * r_out_raw),
    )
    spot_check(body)
    return body


def _polytope_circumradius(A: np.ndarray) -> float:
    # vertices of {A y <= 1} are intersections of full-rank row subsets
    m, n = A.shape
    if m < n:
        raise ValueError("polytope is unbounded (fewer halfspaces than dimensions)")
    best = 0.0
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        try:
            v = np.linalg.solve(sub, np.ones(n))
        except np.linalg.LinAlgError:
            continue
        if np.all(A @ v <= 1.0 + 1e-9):
            best = max(best, float(np.linalg.norm(v)))
    if best == 0.0:
        raise ValueError("could not certify a bounded polytope")
    return best


def normalize(d: int, membership: Callable, r_in: float, r_out: float) -> CustomBody:
    """Wrap a raw predicate with certified raw radii (a, b) into a normalized body.

    Rescales by 1/b so the result has r_out = 1 and r_in = a/b = tau; the
    certificates are spot-checked at construction.
    """
    if not r_in > 0:
        raise ValueError("inner radius certificate must be positive")
    if r_in > r_out:
        raise ValueError("need r_in <= r_out")

    def scaled(points):
        return membership(np.asarray(points, dtype=np.float64) * r_out)

    body = CustomBody(d=d, r_in=r_in / r_out, kind="custom", predicate=scaled)
    spot_check(body)
    return body


def spot_check(body: ConvexBody, n_dirs: int = 10_000, n_pairs: int = 10_000, seed: int = 7):
    """Sampled certificate check: inclusion sandwich, symmetry, midpoint convexity.

    Convexity cannot be proven for an opaque predicate; this samples random
    directions/midpoints and raises on any counterexample.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n_dirs, body.ambient))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # the 1e-9 cushions keep the check boundary-convention agnostic
    if not np.all(body.contains((1.0 - 1e-9) * body.r_in * u)):
        raise ValueError("inner-radius certificate failed on sampled directions")
    if np.any(body.contains((1.0 + 1e-9) * body.r_out * u)):
        raise ValueError("outer-radius certificate failed on sampled directions")
    pts = rng.uniform(-1.0, 1.0, size=(4 * n_pairs, body.ambient))
    pts = pts[body.contains(pts)]
    if len(pts) >= 2:
        half = len(pts) // 2
        a, b = pts[:half], pts[half : 2 * half]
        if not np.all(body.contains(0.5 * (a + b))):
            raise ValueError("midpoint convexity spot-check failed")
        if not np.all(body.contains(-pts)):
            raise ValueError("origin symmetry spot-check failed")
    return True


# ---------------------------------------------------------------------------
# Lattice enumeration

@dataclass(frozen=True)
class LatticePointSet:
    """Integer points of a dilate G_t, sorted lexicographically."""

    t: float
    points: np.ndarray  # (count, 2d) int64

    def __post_init__(self):
        object.__setattr__(
            self, "points", np.ascontiguousarray(np.asarray(self.points, dtype=np.int64))
        )

    @property
    def count(self) -> int:
        return len(self.points)

    def as_set(self) -> set[tuple[int, ...]]:
        return {tuple(int(v) for v in p) for p in self.points}


def _lex_sort(points: np.ndarray) -> np.ndarray:
    if len(points) == 0:
        return points
    order = np.lexsort(points.T[::-1])
    return points[order]


def enumerate_lattice(body: ConvexBody, t: float) -> LatticePointSet:
    """Exact integer points of G_t via a bounding-box scan of [-ceil(t), ceil(t)]^(2d)."""
    if not t > 0:
        raise ValueError("t must be positive")
    R = int(np.ceil(t * body.r_out))
    axes = [np.arange(-R, R + 1, dtype=np.int64)] * body.ambient
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, body.ambient)
    keep = body.contains_dilated(grid.astype(np.float64), t)
    return LatticePointSet(t, _lex_sort(grid[keep]))


def shell(body: ConvexBody, t1: float, t2: float) -> LatticePointSet:
    """Points of G_t2 that are not in G_t1 (0 < t1 < t2)."""
    if not (0 < t1 < t2):
        raise ValueError("need 0 < t1 < t2")
    outer = enumerate_lattice(body, t2)
    if outer.count == 0:
        return LatticePointSet(t2, outer.points)
    inner = body.contains_dilated(outer.points.astype(np.float64), t1)
    return LatticePointSet(t2, outer.points[~inner])


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float


def symmetric_difference_volume(
    body: ConvexBody, t: float, v, n_samples: int = 200_000, seed: int = 0
) -> VolumeEstimate:
    """Monte-Carlo |G_t  symdiff  (v + G_t)| with its standard error."""
    if not t > 0:
        raise ValueError("t must be positive")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (body.ambient,):
        raise ValueError(f"offset must have length {body.ambient}")
    if np.all(v == 0.0):
        return VolumeEstimate(0.0, 0.0)
    lo = np.minimum(-t, v - t)
    hi = np.maximum(t, v + t)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, body.ambient))
    in_a = body.contains_dilated(pts, t)
    in_b = body.contains_dilated(pts - v, t)
    hitfrac = np.mean(in_a ^ in_b)
    vol_box = float(np.prod(hi - lo))
    err = vol_box * float(np.sqrt(max(hitfrac * (1 - hitfrac), 1e-12) / n_samples))
    return VolumeEstimate(vol_box * float(hitfrac), err)


# ---------------------------------------------------------------------------
# Boundary geometry

def boundary_cube_count(body: ConvexBody, k: int, n: int) -> int:
    """Number of side-2^n dyadic cubes in R^(2d) meeting the boundary of G_(2^k).

    Classification is exact for balls and interval-arithmetic conservative for
    the linear kinds (cubes that cannot be certified inside or outside count
    as boundary cubes).
    """
    if n >= k:
        raise ValueError("need n < k")
    t = float(2**k)
    side = 2**n
    R = int(np.ceil(t)) + side
    coords = np.arange(-R // side - 1, R // side + 1, dtype=np.int64)
    grids = np.meshgrid(*([coords] * body.ambient), indexing="ij")
    corners = np.stack([g.ravel() for g in grids], axis=-1) * side
    lo = corners.astype(np.float64)
    hi = lo + side
    if isinstance(body, Ball):
        # exact: nearest/farthest box point from the origin
        nearest = np.clip(0.0, lo, hi)
        dmin = np.linalg.norm(nearest, axis=1)
        corner_far = np.where(np.abs(lo) > np.abs(hi), lo, hi)
        dmax = np.linalg.norm(corner_far, axis=1)
        return int(np.sum((dmin <= t) & (dmax >= t)))
    if isinstance(body, CubeBody):
        h = body.r_in * t
        inside = np.all((lo >= -h) & (hi <= h), axis=1)
        outside = np.any((hi < -h) | (lo > h), axis=1)
        return int(np.sum(~inside & ~outside))
    rows = _linear_rows(body)
    if rows is not None:
        A, strict = rows
        inside = np.ones(len(lo), dtype=bool)
        outside = np.zeros(len(lo), dtype=bool)
        for a in A:
            vmin = lo @ np.maximum(a, 0.0) + hi @ np.minimum(a, 0.0)
            vmax = hi @ np.maximum(a, 0.0) + lo @ np.minimum(a, 0.0)
            if strict:
                absmin = np.where((vmin <= 0) & (vmax >= 0), 0.0, np.minimum(np.abs(vmin), np.abs(vmax)))
                absmax = np.maximum(np.abs(vmin), np.abs(vmax))
                inside &= absmax < t
                outside |= absmin >= t
            else:
                inside &= vmax <= t
                outside |= vmin > t
        return int(np.sum(~inside & ~outside))
    # opaque predicate: corner+center sampling, mixed classification
    centers = (lo + hi) / 2.0
    inc = body.contains_dilated(centers, t)
    corner_in = np.zeros(len(lo), dtype=bool)
    corner_all = np.ones(len(lo), dtype=bool)
    for mask in itertools.product((0, 1), repeat=body.ambient):
        pts = np.where(np.asarray(mask, bool), hi, lo)
        c = body.contains_dilated(pts, t)
        corner_in |= c
        corner_all &= c
    some = corner_in | inc
    allin = corner_all & inc
    return int(np.sum(some & ~allin))


def _linear_rows(body: ConvexBody):
    if isinstance(body, GammaBody) and body.d == 1:
        return np.array(body.rows, dtype=np.float64), True
    if isinstance(body, PolytopeBody):
        return body.halfspaces, False
    return None


# ---------------------------------------------------------------------------
# One-dimensional slices (d = 1 only): {m : (k, m) in G_t} is an integer interval

def slice_table(body: ConvexBody, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonempty slice of G_t for d = 1 at once, as int64 arrays (ks, lo, hi).

    Row i is the integer interval [lo[i], hi[i]] of the k = ks[i] slice, with
    ks increasing.  Candidate bounds come from per-kind closed forms and are
    corrected by unit steps against the body's own membership test, all rows
    stepping together, so slice sums agree exactly with pointwise enumeration.
    """
    if body.d != 1:
        raise ValueError("slice_table requires d = 1")
    K = int(np.ceil(t * body.r_out))
    ks = np.arange(-K, K + 1, dtype=np.int64)
    kf = ks.astype(np.float64)
    if isinstance(body, (Ball, CubeBody)):
        # symmetric candidates [-M, M]; M = -1 marks a row the body misses
        if isinstance(body, Ball):
            r2 = t * t - kf * kf
            M = np.where(r2 >= 0, np.floor(np.sqrt(np.abs(r2))), -1.0)
        else:
            h = body.r_in * t
            M = np.where(np.abs(kf) <= h, np.floor(h), -1.0)
        lo, hi = -M.astype(np.int64), M.astype(np.int64)
    else:
        lo_f = np.full(len(ks), -t)
        hi_f = np.full(len(ks), t)
        linear = _linear_rows(body)
        for a1, a2 in linear[0] if linear is not None else ():
            if a2 != 0.0:
                b1, b2 = (-t - a1 * kf) / a2, (t - a1 * kf) / a2
                lo_f = np.maximum(lo_f, np.minimum(b1, b2))
                hi_f = np.minimum(hi_f, np.maximum(b1, b2))
        lo = np.floor(lo_f).astype(np.int64) - 1
        hi = np.ceil(hi_f).astype(np.int64) + 1

    def inside(rows, m):
        return body.contains_dilated(np.stack([kf[rows], m.astype(np.float64)], axis=1), t)

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
    return ks[rows], lo, hi


def slice_interval(body: ConvexBody, t: float, k: int) -> tuple[int, int] | None:
    """Integer m-interval of the k-th slice of G_t for d = 1, or None if empty;
    one row of :func:`slice_table`."""
    ks, lo, hi = slice_table(body, t)
    i = int(np.searchsorted(ks, k))
    if i < len(ks) and ks[i] == k:
        return int(lo[i]), int(hi[i])
    return None


# ---------------------------------------------------------------------------
# Config descriptors

def body_from_descriptor(desc: str, d: int) -> ConvexBody:
    """Parse a config body descriptor.

    Formats: ``ball``; ``cube``; ``gamma:a,b,c,d`` (row-major 2x2);
    ``custom:a11,a12,...;a21,...`` (half-space rows of A y <= 1).
    """
    desc = desc.strip()
    if desc == "ball":
        return ball(d)
    if desc == "cube":
        return cube(d)
    if desc.startswith("gamma:"):
        vals = [float(v) for v in desc[len("gamma:") :].split(",")]
        if len(vals) != 4:
            raise ValueError("gamma descriptor needs 4 row-major entries")
        return gamma_body(d, np.array(vals).reshape(2, 2))
    if desc.startswith("custom:"):
        rows = [
            [float(v) for v in row.split(",")]
            for row in desc[len("custom:") :].split(";")
            if row.strip()
        ]
        return polytope_body(d, np.array(rows))
    raise ValueError(f"unknown body descriptor {desc!r}")
