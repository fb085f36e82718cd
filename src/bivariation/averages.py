"""Bilinear averaging operators: grid quadrature, lattice counting, and the
linear-change-of-variables family.

All averages are self-normalizing: the value at x is the plain mean of
``f1 f2`` over the nodes that land in the dilated body, so constants average
to their product without any volume formula entering.  Evaluation points are
lattice points; fields are extended by zero.

Conventions: ``continuum_quadrature`` averages ``f1(x + y1) f2(x + y2)`` over
quadrature nodes ``y = h p`` with ``p`` an integer point of ``G_(t/h)``;
``lattice_counting`` averages ``f1(x - k) f2(x - m)`` over integer points
``(k, m)`` of ``G_t`` (for the symmetric bodies used here the sign convention
is immaterial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bodies import ConvexBody, GammaBody, enumerate_lattice, gamma_body, slice_table
from .fields import Field

__all__ = [
    "DegenerateScale",
    "AvgRequest",
    "TimeGrid",
    "avg_at",
    "avg_sweep",
    "avg_field",
    "dtt_avg",
    "dtt_avg_field",
    "dtt_avg_via_body",
    "fast_slice_avg",
]

MODES = ("continuum_quadrature", "lattice_counting")

_CHUNK_CELLS = 16_384  # slice terms per chunk of the d = 1 kernel; bounds its scratch memory


class DegenerateScale(Exception):
    """No quadrature/lattice node fell inside the dilated body at this scale."""


@dataclass(frozen=True)
class AvgRequest:
    body: ConvexBody
    t: float
    f1: Field
    f2: Field
    mode: str = "continuum_quadrature"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.t > 0:
            raise ValueError("t must be positive")
        if self.f1.box != self.f2.box:
            raise ValueError("f1 and f2 must share one box")
        if self.body.d != self.f1.box.dim:
            raise ValueError("body dimension does not match the fields")

    @property
    def scaled_t(self) -> float:
        """Dilation parameter in lattice units."""
        if self.mode == "lattice_counting":
            return self.t
        return self.t / self.f1.box.mesh

    @property
    def sign(self) -> int:
        return -1 if self.mode == "lattice_counting" else 1


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive scales with the exact powers of two marked."""

    times: tuple[float, ...]
    dyadic_anchors: tuple[int, ...] = dc_field(init=False)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if any(not t > 0 for t in ts):
            raise ValueError("times must be positive")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", ts)
        anchors = tuple(i for i, t in enumerate(ts) if math.frexp(t)[0] == 0.5)
        object.__setattr__(self, "dyadic_anchors", anchors)

    def __len__(self):
        return len(self.times)

    @staticmethod
    def block_of(t: float) -> int:
        """k with t in (2^k, 2^(k+1)]; exact on floats."""
        m, e = math.frexp(t)
        return e - 2 if m == 0.5 else e - 1

    @classmethod
    def dyadic_spanning(cls, k_min: int, k_max: int, per_block: int = 0, rng=None) -> "TimeGrid":
        """All anchors 2^k, k_min..k_max, plus ``per_block`` random times per block.

        Keeping every block's right-endpoint anchor in the grid is what makes
        the long/short split dominate the full variation; grids missing those
        anchors do not satisfy that bound.
        """
        ts = [float(2.0**k) for k in range(k_min, k_max + 1)]
        if per_block and rng is not None:
            for k in range(k_min, k_max):
                lo, hi = 2.0**k, 2.0 ** (k + 1)
                ts.extend(float(u) for u in rng.uniform(lo, hi, size=per_block) if lo < u < hi)
        return cls(tuple(sorted(set(ts))))


# ---------------------------------------------------------------------------
# Reference evaluation (lexicographic point sums)

_POINT_CACHE: dict[tuple, np.ndarray] = {}


def _body_key(body: ConvexBody):
    extra: tuple = ()
    if isinstance(body, GammaBody):
        extra = body.rows
    elif hasattr(body, "halfspaces") and body.halfspaces is not None:
        extra = (body.halfspaces.tobytes(),)
    elif hasattr(body, "predicate"):
        extra = (body.predicate,)
    return (body.kind, body.d, body.r_in, extra)


def _points(body: ConvexBody, T: float) -> np.ndarray:
    key = (_body_key(body), float(T))
    pts = _POINT_CACHE.get(key)
    if pts is None:
        pts = enumerate_lattice(body, T).points
        if len(_POINT_CACHE) > 256:
            _POINT_CACHE.clear()
        _POINT_CACHE[key] = pts
    return pts


def avg_at(req: AvgRequest, x) -> float:
    """Average at one lattice point x, summed in lexicographic point order."""
    d = req.body.d
    pts = _points(req.body, req.scaled_t)
    if len(pts) == 0:
        raise DegenerateScale(f"no nodes in the body dilate at t={req.t}")
    x = np.asarray(x, dtype=np.int64).reshape(d)
    vals1 = req.f1.values_at(x[None, :] + req.sign * pts[:, :d])
    vals2 = req.f2.values_at(x[None, :] + req.sign * pts[:, d:])
    return float(np.sum(vals1 * vals2) / len(pts))


def avg_sweep(body: ConvexBody, grid: TimeGrid, f1: Field, f2: Field, x,
              mode: str = "continuum_quadrature") -> np.ndarray:
    """Averages at one point across all grid scales.

    Nodes are enumerated once at the largest scale and tagged with the first
    scale at which they appear; each scale then sums exactly the lexicographic
    prefix that ``avg_at`` would use, so the result is bit-identical to
    independent per-scale evaluation.
    """
    if len(grid) == 0:
        return np.empty(0)
    reqs = [AvgRequest(body, t, f1, f2, mode) for t in grid.times]
    d = body.d
    pts = _points(body, reqs[-1].scaled_t)
    entry = np.full(len(pts), len(grid), dtype=np.int64)
    for i in range(len(grid) - 1, -1, -1):
        entry[body.contains_dilated(pts.astype(np.float64), reqs[i].scaled_t)] = i
    x = np.asarray(x, dtype=np.int64).reshape(d)
    vals1 = f1.values_at(x[None, :] + reqs[0].sign * pts[:, :d])
    vals2 = f2.values_at(x[None, :] + reqs[0].sign * pts[:, d:])
    prods = vals1 * vals2
    out = np.empty(len(grid))
    for i in range(len(grid)):
        sel = prods[entry <= i]
        if sel.size == 0:
            raise DegenerateScale(f"no nodes at t={grid.times[i]}")
        out[i] = np.sum(sel) / sel.size
    return out


# ---------------------------------------------------------------------------
# Whole-grid evaluation (the workhorse used by the martingale/square modules)

def avg_field(body: ConvexBody, t: float, f1: Field, f2: Field,
              mode: str = "continuum_quadrature") -> Field:
    """Average at every cell of the shared box; fast sliced path for d = 1."""
    req = AvgRequest(body, t, f1, f2, mode)
    if body.d == 1:
        vals, _ = _sliced_values(req, f1.box.lattice_axes()[0])
        return Field(f1.box, vals)
    d = body.d
    pts = _points(body, req.scaled_t)
    if len(pts) == 0:
        raise DegenerateScale(f"no nodes in the body dilate at t={t}")
    axes = f1.box.lattice_axes()
    grids = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([g.ravel() for g in grids], axis=-1)
    acc = np.zeros(len(xs))
    for start in range(0, len(pts), 1024):
        chunk = pts[start : start + 1024]
        v1 = f1.values_at(xs[:, None, :] + req.sign * chunk[None, :, :d])
        v2 = f2.values_at(xs[:, None, :] + req.sign * chunk[None, :, d:])
        acc += np.sum(v1 * v2, axis=1)
    return Field(f1.box, acc / len(pts))


def _sliced_values(req: AvgRequest, xs: np.ndarray) -> tuple[np.ndarray, int]:
    """d = 1 kernel: sum over slices k of f1(x +- k) * (prefix window of f2).

    The slice terms are built a chunk of rows at a time and added into a
    running total in increasing k, starting from +0.0, so every cell gets
    the same floating-point sum as a plain loop over k.
    """
    body, f1, f2 = req.body, req.f1, req.f2
    sgn = req.sign
    o1, n1 = f1.box.origin[0], f1.box.extent[0]
    o2, n2 = f2.box.origin[0], f2.box.extent[0]
    prefix = np.concatenate([[0.0], np.cumsum(f2.samples)])
    xs = np.asarray(xs, dtype=np.int64)
    ks, mlo, mhi = slice_table(body, req.scaled_t)
    count = int(np.sum(mhi - mlo + 1))
    if count == 0:
        raise DegenerateScale(f"no nodes in the body dilate at t={req.t}")
    step = max(1, _CHUNK_CELLS // xs.size)
    # row 0 carries the running total; rows 1.. take one chunk of slice terms
    buf = np.zeros((min(step, len(ks)) + 1, xs.size))
    for start in range(0, len(ks), step):
        k, lo, hi = (v[start : start + step, None] for v in (ks, mlo, mhi))
        rows = len(k)
        idx1 = xs + sgn * k - o1
        w1 = np.where((idx1 >= 0) & (idx1 < n1), f1.samples[np.clip(idx1, 0, n1 - 1)], 0.0)
        # window of f2 in lattice coordinates
        if sgn > 0:
            a, b = xs + lo, xs + hi
        else:
            a, b = xs - hi, xs - lo
        s = prefix[np.clip(b - o2 + 1, 0, n2)] - prefix[np.clip(a - o2, 0, n2)]
        np.multiply(w1, s, out=buf[1 : rows + 1])
        if xs.size == 1:
            # a single column would be reduced pairwise; accumulate stays in order
            buf[0] = np.add.accumulate(buf[: rows + 1], axis=0)[rows]
        else:
            # along the slow axis the reduction adds row after row
            buf[0] = np.add.reduce(buf[: rows + 1], axis=0)
    return buf[0] / count, count


def fast_slice_avg(req: AvgRequest, x) -> float:
    """Sliced prefix-sum evaluation at one point, O(t) instead of O(t^2).

    Requires d = 1 and lattice mode.  Algebraically identical to ``avg_at``;
    on integer-valued fields the floating arithmetic is exact and the two
    agree bit for bit.
    """
    if req.body.d != 1:
        raise ValueError("fast_slice_avg requires d = 1")
    if req.mode != "lattice_counting":
        raise ValueError("fast_slice_avg requires lattice_counting mode")
    vals, _ = _sliced_values(req, np.asarray([int(np.asarray(x).reshape(()))], dtype=np.int64))
    return float(vals[0])


# ---------------------------------------------------------------------------
# Linear-change-of-variables averages

def dtt_avg(lam: np.ndarray, t: float, f1: Field, f2: Field, x) -> float:
    """Average of f1(x + L11 u1 + L12 u2) f2(x + L21 u1 + L22 u2) over
    |u1| < t, |u2| < t, by grid quadrature at the fields' mesh."""
    L = np.asarray(lam, dtype=np.float64).reshape(2, 2)
    if abs(np.linalg.det(L)) < 1e-14:
        raise ValueError("matrix must be nonsingular")
    if not t > 0:
        raise ValueError("t must be positive")
    if f1.box != f2.box:
        raise ValueError("f1 and f2 must share one box")
    d = f1.box.dim
    h = f1.box.mesh
    T = t / h
    R = int(np.ceil(T))
    axes = [np.arange(-R, R + 1, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    inside = np.einsum("ij,ij->i", grid.astype(np.float64), grid.astype(np.float64)) < T * T
    J = grid[inside].astype(np.float64)
    if len(J) == 0:
        raise DegenerateScale(f"no quadrature nodes at t={t}")
    x = np.asarray(x, dtype=np.int64).reshape(d)
    u1 = J[:, None, :]
    u2 = J[None, :, :]
    y1 = np.rint(L[0, 0] * u1 + L[0, 1] * u2).astype(np.int64) + x
    y2 = np.rint(L[1, 0] * u1 + L[1, 1] * u2).astype(np.int64) + x
    vals = f1.values_at(y1.reshape(-1, d)) * f2.values_at(y2.reshape(-1, d))
    return float(np.sum(vals) / (len(J) ** 2))


def dtt_avg_field(lam: np.ndarray, t: float, f1: Field, f2: Field) -> Field:
    """The u-cube quadrature average at every cell (vectorized d = 1 path)."""
    L = np.asarray(lam, dtype=np.float64).reshape(2, 2)
    if abs(np.linalg.det(L)) < 1e-14:
        raise ValueError("matrix must be nonsingular")
    if not t > 0:
        raise ValueError("t must be positive")
    if f1.box != f2.box:
        raise ValueError("f1 and f2 must share one box")
    if f1.box.dim != 1:
        vals = [
            dtt_avg(L, t, f1, f2, x)
            for x in np.stack(
                np.meshgrid(*f1.box.lattice_axes(), indexing="ij"), axis=-1
            ).reshape(-1, f1.box.dim)
        ]
        return Field(f1.box, np.asarray(vals))
    h = f1.box.mesh
    T = t / h
    R = int(np.ceil(T))
    j = np.arange(-R, R + 1, dtype=np.int64)
    j = j[np.abs(j) < T]
    if j.size == 0:
        raise DegenerateScale(f"no quadrature nodes at t={t}")
    o, n = f1.box.origin[0], f1.box.extent[0]
    xs = np.arange(o, o + n, dtype=np.int64)
    acc = np.zeros(n)
    for u1 in j:
        y1 = np.rint(L[0, 0] * u1 + L[0, 1] * j).astype(np.int64)
        y2 = np.rint(L[1, 0] * u1 + L[1, 1] * j).astype(np.int64)
        i1 = xs[:, None] + y1[None, :] - o
        i2 = xs[:, None] + y2[None, :] - o
        v1 = np.where((i1 >= 0) & (i1 < n), f1.samples[np.clip(i1, 0, n - 1)], 0.0)
        v2 = np.where((i2 >= 0) & (i2 < n), f2.samples[np.clip(i2, 0, n - 1)], 0.0)
        acc += np.sum(v1 * v2, axis=1)
    return Field(f1.box, acc / (j.size**2))


def dtt_avg_via_body(lam: np.ndarray, t: float, f1: Field, f2: Field, x) -> float:
    """Same average through the equivalent convex-body route with the inverse matrix."""
    L = np.asarray(lam, dtype=np.float64).reshape(2, 2)
    body = gamma_body(f1.box.dim, np.linalg.inv(L))
    # the normalized body's dilate at (raw_scale * t) is the raw body's dilate at t
    return avg_at(AvgRequest(body, t * body.raw_scale, f1, f2, "continuum_quadrature"), x)
