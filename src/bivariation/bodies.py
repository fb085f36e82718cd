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
from typing import Callable, ClassVar

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
    "slice_tables",
    "body_from_descriptor",
    "spot_check",
]

SPOT_CHECK_DIRS = 10_000  # sampled directions for the radius certificates
SPOT_CHECK_PAIRS = 10_000  # sampled midpoint pairs for convexity and symmetry
SPOT_CHECK_SEED = 7


@dataclass(frozen=True)
class ConvexBody:
    """Base: dimension parameter d (ambient space is R^(2d)) and certified radii.

    A body is a value: equal bodies are equal in class and in every field, and
    hash alike.  ``kind`` and ``r_out`` belong to the class, not the instance.
    """

    d: int
    r_in: float
    r_out: ClassVar[float] = 1.0
    kind: ClassVar[str] = "custom"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (0 < self.r_in <= self.r_out):
            raise ValueError("need 0 < r_in <= r_out")

    @property
    def ambient(self) -> int:
        return 2 * self.d

    def contains_dilated(self, points: np.ndarray, t) -> np.ndarray:
        """Membership of points (n, 2d) in G_t; ``t`` is one scale, or an (n,)
        array with one scale per point."""
        raise NotImplementedError

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.contains_dilated(points, 1.0)

    def contains_point(self, point, t: float) -> bool:
        return bool(self.contains_dilated(np.asarray(point, dtype=np.float64)[None, :], t)[0])


@dataclass(frozen=True)
class Ball(ConvexBody):
    """Closed unit ball of R^(2d); its own normalization (tau = 1)."""

    kind = "ball"

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.einsum("ij,ij->i", p, p) <= t * t


@dataclass(frozen=True)
class CubeBody(ConvexBody):
    """Closed cube normalized to circumradius 1: half-side tau = 1/sqrt(2d)."""

    kind = "cube"

    def contains_dilated(self, points, t):
        return _cube_contains(points, self.r_in, t)


@dataclass(frozen=True)
class GammaBody(ConvexBody):
    """{(y1, y2): |w_i1 y1 + w_i2 y2| < t, i = 1, 2} with y_i in R^d (strict).

    ``raw_scale`` is the factor the un-normalized body was divided by, so its
    dilate at t equals the normalized body's dilate at ``raw_scale * t``.
    """

    kind = "gamma_parallelepiped"
    rows: tuple[tuple[float, float], ...] = ()
    raw_scale: float = 1.0

    def contains_dilated(self, points, t):
        return _gamma_contains(points, self.rows, t)


@dataclass(frozen=True)
class PolytopeBody(ConvexBody):
    """Half-space list A y <= t (closed), rows of A normalized to circumradius 1."""

    halfspaces: tuple[tuple[float, ...], ...] = ()  # rows of A

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.all(p @ np.array(self.halfspaces).T <= np.reshape(t, (-1, 1)), axis=1)


@dataclass(frozen=True)
class CustomBody(ConvexBody):
    """Opaque membership predicate with caller-certified radii, spot-checked."""

    predicate: Callable[[np.ndarray], np.ndarray] = None

    def contains_dilated(self, points, t):
        p = np.asarray(points, dtype=np.float64)
        return np.asarray(self.predicate(p / np.reshape(t, (-1, 1))), dtype=bool)


# The cube and gamma membership tests, with the body's parameters given once
# for every point or once per point: the stacked slice-table passes test each
# row against its own body (docs/notes.md, note 9)

def _cube_contains(points, r_in, t) -> np.ndarray:
    """Membership of points (n, 2d) in the closed cube dilate of inner radius
    ``r_in`` at ``t``; each is one value, or an (n,) array."""
    p = np.asarray(points, dtype=np.float64)
    return np.max(np.abs(p), axis=1) <= r_in * t


def _gamma_contains(points, rows, t) -> np.ndarray:
    """Membership of points (n, 2d) in the strict gamma dilate at ``t`` whose
    coefficient rows are ``rows``, pairs (w1, w2): each w and t is one value,
    or one per point (w as an (n, 1) array, t as an (n,) array)."""
    p = np.asarray(points, dtype=np.float64)
    d = p.shape[1] // 2
    y1, y2 = p[:, :d], p[:, d:]
    ok = np.ones(len(p), dtype=bool)
    for w1, w2 in rows:
        v = w1 * y1 + w2 * y2
        ok &= np.einsum("ij,ij->i", v, v) < t * t
    return ok


# ---------------------------------------------------------------------------
# Constructors (all self-normalizing)

def ball(d: int, radius: float = 1.0) -> Ball:
    """Euclidean ball of any radius normalizes to the unit ball."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return Ball(d=d, r_in=1.0)


def cube(d: int, half_side: float = 1.0) -> CubeBody:
    if not half_side > 0:
        raise ValueError("half_side must be positive")
    return CubeBody(d=d, r_in=1.0 / np.sqrt(2 * d))


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
    return GammaBody(d=d, r_in=r_in_raw / r_out_raw, rows=rows, raw_scale=r_out_raw)


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
    rows = tuple(map(tuple, (A * r_out_raw).tolist()))
    body = PolytopeBody(d=d, r_in=r_in_raw / r_out_raw, halfspaces=rows)
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

    body = CustomBody(d=d, r_in=r_in / r_out, predicate=scaled)
    spot_check(body)
    return body


def spot_check(body: ConvexBody):
    """Sampled certificate check: inclusion sandwich, symmetry, midpoint convexity.

    Convexity cannot be proven for an opaque predicate; this samples random
    directions/midpoints and raises on any counterexample.
    """
    rng = np.random.default_rng(SPOT_CHECK_SEED)
    u = rng.normal(size=(SPOT_CHECK_DIRS, body.ambient))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # the 1e-9 cushions keep the check boundary-convention agnostic
    if not np.all(body.contains((1.0 - 1e-9) * body.r_in * u)):
        raise ValueError("inner-radius certificate failed on sampled directions")
    if np.any(body.contains((1.0 + 1e-9) * body.r_out * u)):
        raise ValueError("outer-radius certificate failed on sampled directions")
    pts = rng.uniform(-1.0, 1.0, size=(4 * SPOT_CHECK_PAIRS, body.ambient))
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


_SLAB_ROWS = 1 << 16  # box rows tested at once; bounds the scan's scratch memory


def enumerate_lattice(body: ConvexBody, t: float) -> LatticePointSet:
    """Exact integer points of G_t by a scan of the box [-ceil(t), ceil(t)]^(2d).

    The box is scanned in row-major order, in slabs of consecutive first
    coordinates of about ``_SLAB_ROWS`` rows each, so the points come out
    sorted lexicographically.  The membership pass keeps one boolean mask per
    slab; the points are then written slab by slab into one array of their
    final size, so the scratch memory is about one slab plus one byte per
    box point.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    R = int(np.ceil(t * body.r_out))
    side = np.arange(-R, R + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[side] * (body.ambient - 1), indexing="ij"), axis=-1)
    rest = rest.reshape(-1, body.ambient - 1)
    per_slab = max(1, _SLAB_ROWS // len(rest))
    firsts = [side[start : start + per_slab] for start in range(0, side.size, per_slab)]
    masks = []
    for first in firsts:
        # slab row (a, b) is (first[a], *rest[b]), as floats for the test
        slab = np.empty((first.size, len(rest), body.ambient))
        slab[:, :, 0] = first[:, None]
        slab[:, :, 1:] = rest
        inside = body.contains_dilated(slab.reshape(-1, body.ambient), t)
        masks.append(inside.reshape(first.size, len(rest)))
    points = np.empty((sum(map(np.count_nonzero, masks)), body.ambient), dtype=np.int64)
    at = 0
    for first, mask in zip(firsts, masks):
        a, b = np.nonzero(mask)
        points[at : at + a.size, 0] = first[a]
        points[at : at + a.size, 1:] = rest[b]
        at += a.size
    return LatticePointSet(t, points)


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
    """Monte-Carlo |G_t  symdiff  (v + G_t)| with its standard error.

    It checks the convex-body estimate |G_t symdiff (v + G_t)| <= C |v| t^(2d-1)
    (the boundary of G_t has area O(t^(2d-1))): the regularity in x of the
    average A_t^G that the paper's comparisons of nearby averages rest on.
    """
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

    It checks the convex-body estimate that this count is O(2^((k-n)(2d-1))):
    the cubes that lie inside or outside G_(2^k) are averaged exactly, so
    only these cubes separate A_(2^k) on level-n measurable inputs from the
    dyadic maximal bound of the paper's domination argument.

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
        return np.array(body.halfspaces), False
    return None


# ---------------------------------------------------------------------------
# One-dimensional slices (d = 1 only): {m : (k, m) in G_t} is an integer interval

_TABLE_ROWS = 1 << 12  # stacked rows of one slice-table pass; bounds its scratch memory


def slice_tables(keys) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The d = 1 slice table of G_t for every ``(body, t)`` in ``keys``, as
    int64 arrays (ks, lo, hi), one table per key.

    Row i of a table is the integer interval [lo[i], hi[i]] of the k = ks[i]
    slice, one row per nonempty slice, with ks increasing.  Candidate bounds
    come from per-kind closed forms and are corrected by unit steps against
    the body's own membership test, so slice sums agree exactly with
    pointwise enumeration.  The rows of many keys are stacked, each carrying
    its own scale and its own body's parameters, and step together: all ball
    keys share their passes, all cube keys, and all gamma keys with as many
    coefficient rows; any other body has passes of its own.  A pass stacks
    at most ``_TABLE_ROWS`` rows, or one key.  Each row goes through the
    arithmetic and membership tests of a one-key build, so each table is its
    one-key table exactly (docs/notes.md, note 9).  A scale that is not
    positive and finite raises ValueError.
    """
    keys = [(body, float(t)) for body, t in keys]
    if any(body.d != 1 for body, _ in keys):
        raise ValueError("slice_tables requires d = 1")
    for _, t in keys:  # as enumerate_lattice checks its scale
        if not t > 0:
            raise ValueError("t must be positive")
        if not np.isfinite(t):
            raise ValueError("t must be finite")
    stacks = {}  # the positions of the keys of each stack, in key order
    for i, (body, _) in enumerate(keys):
        stacks.setdefault(_stack_of(body), []).append(i)
    tables = [None] * len(keys)
    for at in stacks.values():
        for i, table in zip(at, _stacked_tables([keys[i] for i in at])):
            tables[i] = table
    return tables


def _stack_of(body: ConvexBody):
    """Bodies with one value here share stacked passes: the ball test reads
    no parameter, and the cube and gamma tests read theirs per row."""
    kind = type(body)
    if kind is GammaBody:
        return kind, len(body.rows)
    return kind if kind in (Ball, CubeBody) else body


def _stacked_tables(keys):
    """The tables of keys of one stack, in passes of at most ``_TABLE_ROWS``
    rows, or one key."""
    sizes = [2 * int(np.ceil(t * body.r_out)) + 1 for body, t in keys]
    if len(keys) > 1 and sum(sizes) > _TABLE_ROWS:
        # no row reads another, so the tables do not depend on the split
        half = len(keys) // 2
        return _stacked_tables(keys[:half]) + _stacked_tables(keys[half:])
    return _table_pass(keys, sizes)


def _table_pass(keys, sizes):
    """One stacked pass: rows k = -K..K of each key, ``sizes[i] = 2K + 1``."""
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
    # each row's candidate [lo, hi], and [lo0, hi0], where its stepping starts
    if isinstance(body, (Ball, CubeBody)):
        # symmetric candidates [-M, M]; M = -1 marks a row the body misses
        if isinstance(body, Ball):
            r2 = t * t - kf * kf
            M = np.where(r2 >= 0, np.floor(np.sqrt(np.abs(r2))), -1.0)
        else:
            r_in = body.r_in if one else np.repeat([b.r_in for b, _ in keys], sizes)
            h = r_in * t
            M = np.where(np.abs(kf) <= h, np.floor(h), -1.0)
        lo = lo0 = -M.astype(np.int64)
        hi = hi0 = M.astype(np.int64)
    else:
        lo_f, hi_f = -t, t
        for a1, a2 in lines:
            # a row whose a2 is 0 takes no bound from the constraint
            with np.errstate(divide="ignore", invalid="ignore"):
                b1, b2 = (-t - a1 * kf) / a2, (t - a1 * kf) / a2
            slanted = np.not_equal(a2, 0.0)
            lo_f = np.where(slanted, np.maximum(lo_f, np.minimum(b1, b2)), lo_f)
            hi_f = np.where(slanted, np.minimum(hi_f, np.maximum(b1, b2)), hi_f)
            if not slanted.all():  # it holds at every m of such a row, or at none
                v = a1 * kf  # as the membership test computes it
                shut = ~slanted & (v * v >= t * t if isinstance(body, GammaBody) else v > t)
                hi_f = np.where(shut, -t - 1.0, hi_f)  # empty, and no start cell is a member
        lo0 = np.floor(lo_f).astype(np.int64) - 1
        hi0 = np.ceil(hi_f).astype(np.int64) + 1
        lo = np.ceil(lo_f).astype(np.int64)
        hi = np.floor(hi_f).astype(np.int64)

    if one or isinstance(body, Ball):  # the ball test reads no parameter
        def member(pts, rows):
            return body.contains_dilated(pts, t[rows])
    elif isinstance(body, CubeBody):
        def member(pts, rows):
            return _cube_contains(pts, r_in[rows], t[rows])
    else:  # gamma bodies with as many coefficient rows
        def member(pts, rows):
            return _gamma_contains(pts, [(a1[rows, None], a2[rows, None]) for a1, a2 in lines],
                                   t[rows])

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

    # one membership test settles most rows (docs/notes.md, notes 4 and 9).
    # A ball or cube row starts at its candidate [-M, M], and its test is
    # even in m: the row is its candidate when M is a member and M + 1 is
    # not.  A gamma or half-space row's members are one interval: the row is
    # its candidate when both ends are members and their outer neighbours are
    # not, and it is empty when its candidate is and none of its start cells
    # (at most four) is a member.  Cells are (cells, rows), so each operation
    # loops over the rows
    rows = np.arange(len(ks))
    if type(body) in (Ball, CubeBody, GammaBody, PolytopeBody):
        full = lo <= hi
        if type(body) in (Ball, CubeBody):
            m, want, care = np.stack((hi, hi + 1)), full & np.array([[True], [False]]), full
        else:
            m = np.where(full, np.stack((lo - 1, lo, hi, hi + 1)), lo0 + np.arange(4)[:, None])
            want, care = full & np.array([[False], [True], [True], [False]]), full | (m <= hi0)
        got = inside(np.tile(rows, len(m)), m.ravel()).reshape(m.shape)
        rows = np.flatnonzero(((got != want) & care).any(axis=0))
    # the other rows: shrink the start onto its outermost members, then grow
    # to the full run
    lo[rows], hi[rows] = lo0[rows], hi0[rows]
    lo[rows] = step_while(rows, lo[rows], 1, lambda r, m: (m <= hi[r]) & ~inside(r, m))
    hi[rows] = step_while(rows, hi[rows], -1, lambda r, m: (m >= lo[r]) & ~inside(r, m))
    rows = rows[lo[rows] <= hi[rows]]
    lo[rows] = step_while(rows, lo[rows], -1, lambda r, m: inside(r, m - 1))
    hi[rows] = step_while(rows, hi[rows], 1, lambda r, m: inside(r, m + 1))
    rows = np.flatnonzero(lo <= hi)
    lo, hi = lo[rows], hi[rows]
    # the kept rows of each key, still in stacking order
    ends = np.searchsorted(rows, np.cumsum(sizes)).tolist()
    ks = ks[rows]
    return [(ks[a:b], lo[a:b], hi[a:b]) for a, b in zip([0, *ends], ends)]


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
