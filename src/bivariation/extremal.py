"""Unboundedness construction for indicator inputs, the restricted-weak-type
interpolation geometry, and the torus-rotation transference demo.

The construction pairs a lacunary union of annuli with a large ball; averages
over the ball dilates alternate between nearly full and nearly empty as the
scale walks the powers of the growth ratio, so the scale-family variation at
the origin grows without bound in the number of annuli.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .averages import _node_average
from .bodies import ConvexBody, enumerate_lattice
from .variation import vq_exact

__all__ = [
    "CounterexampleInstance",
    "find_growth_ratio",
    "make_instance",
    "counterexample_average",
    "counterexample_variation",
    "VariationBoundReport",
    "InterpPoint",
    "interp_weights",
    "HullError",
    "ergodic_bilinear_avg",
    "ergodic_avg_profile",
    "default_rotation_mesh",
    "sample_torus",
]

VOLUME_FRACTION_CENTER = 4.0 / 5.0
VOLUME_FRACTION_PROBE = 3.0 / 4.0
UPPER_THRESHOLD = 3.0 / 4.0
LOWER_THRESHOLD = 1.0 / 4.0
GROWTH_STEP = 0.01  # ratio increment of the growth-ratio search
GROWTH_CAP = 1000.0  # the search gives up above this ratio
ROTATION_MESH_SCALE = 32  # quadrature nodes per unit of t along each axis


# ---------------------------------------------------------------------------
# Geometry of the ball-minus-strip volume condition

def _even_ball_volume(r: float, dim: int) -> float:
    # dim is even here (2d); V_{2k}(r) = pi^k r^(2k) / k!
    k = dim // 2
    return (np.pi**k) * r**dim / math.factorial(k)


def _strip_volume(alpha: float, x, d: int) -> float:
    """Volume of {|y - (x,x)| <= alpha, |y1| <= 1} in R^(2d), in closed form.

    Each y1 of the unit ball sees the whole y2-ball of radius
    sqrt(alpha^2 - |y1 - x|^2) when alpha >= 1 + |x| (docs/notes.md, note 5).
    """
    x = np.zeros(d) if x is None else np.asarray(x, dtype=np.float64).reshape(d)
    if d not in (1, 2):
        raise ValueError("growth-ratio search supports d in {1, 2}")
    if not alpha >= 1.0 + math.hypot(*x):
        raise ValueError(f"the closed-form volume needs alpha >= 1 + |x|, got alpha={alpha}")
    if d == 1:
        def F(v):  # antiderivative of the chord 2 sqrt(alpha^2 - v^2)
            return v * math.sqrt(alpha**2 - v**2) + alpha**2 * math.asin(v / alpha)
        return F(1.0 - x[0]) - F(-1.0 - x[0])
    return np.pi**2 * (alpha**2 - 0.5 - float(x @ x))


def _outside_fraction(alpha: float, x, d: int) -> float:
    """Fraction of the alpha-ball around (x,x) whose first block leaves the unit ball."""
    return 1.0 - _strip_volume(alpha, x, d) / _even_ball_volume(alpha, 2 * d)


@functools.lru_cache(maxsize=8)
def find_growth_ratio(d: int) -> tuple[float, float]:
    """Smallest lattice ratio passing the 4/5 center condition, with a probe
    radius certified for the 3/4 condition by sampling.

    Returns ``(alpha, eps0)``.
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    alpha = 1.0
    while True:
        alpha = round(alpha + GROWTH_STEP, 10)
        if alpha > GROWTH_CAP:
            raise RuntimeError(f"no ratio below {GROWTH_CAP} satisfies the volume condition")
        if _outside_fraction(alpha, None, d) > VOLUME_FRACTION_CENTER:
            break
    eps0 = alpha / 10.0
    for _ in range(40):
        if _probe_condition_holds(alpha, eps0, d):
            return alpha, eps0
        eps0 /= 2.0
    raise RuntimeError("could not certify a probe radius")


def _probe_points(eps0: float, d: int) -> np.ndarray:
    if d == 1:
        return np.linspace(-eps0, eps0, 9).reshape(-1, 1)
    ang = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    pts = [np.zeros(2)] + [eps0 * np.array([np.cos(a), np.sin(a)]) for a in ang]
    return np.asarray(pts)


def _probe_condition_holds(alpha: float, eps0: float, d: int) -> bool:
    for r in (eps0, eps0 / 2.0):
        for x in _probe_points(r, d):
            if not _outside_fraction(alpha, x, d) > VOLUME_FRACTION_PROBE:
                return False
    return True


# ---------------------------------------------------------------------------
# The alternating construction

@dataclass(frozen=True)
class CounterexampleInstance:
    """Indicator pair: annuli radii (ratio^(2i), ratio^(2i+1)], i = 0..n, against
    the ball of radius ratio^(2n+2); probes live in the eps0-ball."""

    d: int
    growth_ratio: float
    n: int
    eps0: float

    def __post_init__(self):
        if self.growth_ratio <= 1.0:
            raise ValueError("growth ratio must exceed 1")
        if self.n < 0:
            raise ValueError("n must be nonnegative")

    @property
    def powers(self) -> np.ndarray:
        return self.growth_ratio ** np.arange(0, 2 * self.n + 3, dtype=np.float64)

    def in_annuli(self, points: np.ndarray) -> np.ndarray:
        """Membership in the union of annuli (radii in (a^(2i), a^(2i+1)])."""
        r = np.linalg.norm(np.atleast_2d(points), axis=1)
        idx = np.searchsorted(self.powers, r, side="left") - 1
        return (r > 1.0) & (idx >= 0) & (idx <= 2 * self.n) & (idx % 2 == 0)

    def in_ball(self, points: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.atleast_2d(points), axis=1)
        return r <= self.powers[2 * self.n + 2]


def make_instance(d: int, n: int, growth_ratio: float | None = None,
                  eps0: float | None = None) -> CounterexampleInstance:
    if growth_ratio is None or eps0 is None:
        growth_ratio, eps0 = find_growth_ratio(d)
    return CounterexampleInstance(d=d, growth_ratio=growth_ratio, n=n, eps0=eps0)


@functools.lru_cache(maxsize=8)
def _block_nodes(d: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One d-block of the nodes of the unit ball of R^(2d) on the r-cell
    midpoint grid: ``(z, s, reach, N)`` (docs/notes.md, note 5).

    z (r^d, d) are the grid points in radius order and s = r^2 |z|^2 =
    sum (2i + 1 - r)^2 their exact squared radii.  The node (z[a], z[b]) lies
    in the ball iff s[a] + s[b] <= r^2, that is iff b < reach[a]; N counts them.
    """
    k = np.arange(r)
    cells = np.indices((r,) * d).reshape(d, -1).T
    z = ((k + 0.5) / r * 2.0 - 1.0)[cells]
    s = ((2 * k + 1 - r) ** 2)[cells].sum(axis=1)
    order = np.argsort(s, kind="stable")
    z, s = z[order], s[order]
    reach = np.searchsorted(s, r * r - s, side="right")
    for a in (z, s, reach):
        a.flags.writeable = False
    return z, s, reach, int(reach.sum())


def counterexample_average(inst: CounterexampleInstance, i: int, x,
                           refine: int | None = None, max_refine: int | None = None) -> float:
    """Average of the indicator pair over the ball dilate at scale ratio^i.

    Quadrature over the unit ball of R^(2d) in scaled coordinates on the
    r-cell midpoint grid; r doubles from ``refine`` until the value moves by
    less than 0.005, so the 3/4 / 1/4 margins are resolved well beyond
    quadrature error.  A node pairs two points of ``_block_nodes(d, r)``; the
    annuli test reads the first and the ball test the second, so a level
    counts sum over annuli z1 of P[reach[z1]], P the prefix sums of the ball
    test in radius order: the mean over the nodes, bit for bit
    (docs/notes.md, note 5).
    """
    if not (1 <= i <= 2 * inst.n + 2):
        raise ValueError("scale index outside the construction window")
    if refine is None:
        refine = 192 if inst.d == 1 else 24
    if max_refine is None:
        max_refine = 1536 if inst.d == 1 else 96
    if refine < 1:
        raise ValueError(f"refine must be at least 1, got {refine}")
    t = inst.growth_ratio ** i
    x = np.asarray(x, dtype=np.float64).reshape(inst.d)
    prev = None
    r = refine
    while True:
        z, _, reach, total = _block_nodes(inst.d, r)
        y = x[None, :] + t * z
        prefix = np.concatenate(([0], np.cumsum(inst.in_ball(y))))
        val = int(np.sum(prefix[reach[inst.in_annuli(y)]])) / total
        if prev is not None and abs(val - prev) < 5e-3:
            return val
        if r >= max_refine:
            return val
        prev = val
        r *= 2


@dataclass(frozen=True)
class VariationBoundReport:
    q: float
    value: float
    derived_bound: float   # (n 2^(1-q))^(1/q), from 2n jumps of size > 1/2
    literal_bound: float   # the quoted 2^(1-q) n level, reported alongside
    averages: tuple[float, ...]


def counterexample_variation(inst: CounterexampleInstance, q: float) -> VariationBoundReport:
    """Variation of the averages at scales ratio^1 .. ratio^(2n+1) at x = 0."""
    x = np.zeros(inst.d)
    avgs = [counterexample_average(inst, i, x) for i in range(1, 2 * inst.n + 2)]
    value = vq_exact(avgs, q).value
    derived = (inst.n * 2.0 ** (1.0 - q)) ** (1.0 / q) if inst.n else 0.0
    return VariationBoundReport(
        q=q,
        value=value,
        derived_bound=derived,
        literal_bound=inst.n * 2.0 ** (1.0 - q),
        averages=tuple(avgs),
    )


# ---------------------------------------------------------------------------
# Interpolation geometry

VERTICES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))  # plus the two s-dependent ones


class HullError(ValueError):
    """Target exponents outside the restricted-weak-type hull; names the facet."""


@dataclass(frozen=True)
class InterpPoint:
    recip: tuple[float, float]
    weights: tuple[float, float, float, float, float]
    q_out_recip: float

    def reconstruction(self, s: float) -> tuple[float, float]:
        vs = _vertices(s)
        x = sum(w * v[0] for w, v in zip(self.weights, vs))
        y = sum(w * v[1] for w, v in zip(self.weights, vs))
        return (x, y)


def _vertices(s: float):
    return VERTICES + ((0.0, 1.0 / s), (1.0 / s, 0.0))


def interp_weights(p1: float, p2: float, s: float) -> InterpPoint:
    """Convex weights over the five endpoint types reproducing (1/p1, 1/p2).

    Tries vertex matches first, then the ten vertex triangles in lexicographic
    order, accepting the first whose barycentric coordinates are nonnegative.
    Points outside the hull raise :class:`HullError` naming the violated facet.
    """
    if not s > 2:
        raise ValueError("s must exceed 2")
    if not (p1 > 0 and p2 > 0):
        raise ValueError("p1 and p2 must be positive")
    x, y = 1.0 / p1, 1.0 / p2
    for facet, ok in (
        ("1/p1 <= 1", x <= 1.0 + 1e-15),
        ("1/p2 <= 1", y <= 1.0 + 1e-15),
        ("1/p1 + 1/p2 >= 1/s", x + y >= 1.0 / s - 1e-15),
    ):
        if not ok:
            raise HullError(f"target ({x:.6g}, {y:.6g}) violates facet {facet}")
    verts = _vertices(s)
    qrecip = [1.0, 1.0, 2.0, 1.0 / s, 1.0 / s]
    weights = [0.0] * 5
    for k, v in enumerate(verts):
        if abs(v[0] - x) < 1e-14 and abs(v[1] - y) < 1e-14:
            weights[k] = 1.0
            return InterpPoint((x, y), tuple(weights), qrecip[k])
    for tri in itertools.combinations(range(5), 3):
        m = np.array(
            [[verts[k][0] for k in tri], [verts[k][1] for k in tri], [1.0, 1.0, 1.0]]
        )
        try:
            eta = np.linalg.solve(m, np.array([x, y, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if np.all(eta >= -1e-12):
            eta = np.clip(eta, 0.0, None)
            eta /= eta.sum()
            for k, w in zip(tri, eta):
                weights[k] = float(w)
            qr = float(sum(w * qrecip[k] for k, w in zip(tri, eta)))
            return InterpPoint((x, y), tuple(weights), qr)
    raise HullError(f"no containing vertex triangle for ({x:.6g}, {y:.6g})")


# ---------------------------------------------------------------------------
# Torus rotation demo

def sample_torus(fn, m: int, d: int) -> np.ndarray:
    """Sample a function of [0,1)^d on the uniform m^d grid."""
    g = np.arange(m) / m
    grids = np.meshgrid(*([g] * d), indexing="ij")
    return np.asarray(fn(*grids), dtype=np.float64)


def default_rotation_mesh(t: float) -> float:
    """Power-of-two mesh ~ t/ROTATION_MESH_SCALE, clipped to divide 1."""
    j = int(np.floor(np.log2(max(t, 1e-12)))) - int(np.log2(ROTATION_MESH_SCALE))
    return float(2.0 ** min(j, 0))


def _torus_samples(f1, f2, body: ConvexBody, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The torus sample arrays as floats, after checking them against each
    other and the body, and checking the scale."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ValueError("torus sample arrays must share a shape")
    if body.d != f1.ndim:
        raise ValueError("body dimension does not match the torus")
    if f1.size == 0:
        raise ValueError("torus sample arrays must not be empty")
    if not t > 0:
        raise ValueError("t must be positive")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return f1, f2


def _finite_shift(v, d: int, name: str) -> np.ndarray:
    """``v`` as d finite floats: a non-finite shift would round to INT64_MIN,
    which is 0 modulo m, and answer silently."""
    v = np.asarray(v, dtype=np.float64).reshape(d)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def ergodic_avg_profile(
    beta, f1: np.ndarray, f2: np.ndarray, body: ConvexBody, t: float,
    quad_mesh: float | None = None,
) -> np.ndarray:
    """Rotation average at every torus grid node at once (d = 1).

    Because torus nodes are equally spaced, each quadrature point shifts the
    whole profile by a fixed number of grid cells, so the average is a mean of
    rolled sample products, one row per node.  The one-request view of
    :func:`_profile_rows`.
    """
    f1, f2 = _torus_samples(f1, f2, body, t)
    if f1.ndim != 1:
        raise ValueError("body dimension does not match the torus (the profile needs d = 1)")
    beta = float(_finite_shift(beta, 1, "beta")[0])
    h = default_rotation_mesh(t) if quad_mesh is None else float(quad_mesh)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("quadrature mesh must be positive and finite")
    return _profile_rows(beta, f1[None], f2[None], body, [(t, h, 0)])[0]


def _profile_rows(beta: float, rows1: np.ndarray, rows2: np.ndarray, body: ConvexBody,
                  reqs) -> np.ndarray:
    """(len(reqs), m): the rotation profile of ``ergodic_avg_profile`` for
    every request ``(t, h, pair)``, on the m-node torus samples ``rows1[pair]``
    and ``rows2[pair]``, each row its bits.  The requests with one (t, h)
    share one lattice enumeration, one table of rounded shifts and one rows
    ``_node_average`` call (docs/notes.md, note 16)."""
    m = rows1.shape[1]
    rows_of = {}  # the requests of each distinct (t, h), in request order
    for i, (t, h, _) in enumerate(reqs):
        rows_of.setdefault((t, h), []).append(i)
    out = np.empty((len(reqs), m))
    for (t, h), rows in rows_of.items():
        shifts = np.rint(beta * h * enumerate_lattice(body, t / h).points * m).astype(np.int64)
        if len(shifts) == 0:
            raise ValueError(f"no quadrature nodes at t={t}")
        pairs = [reqs[i][2] for i in rows]
        out[rows] = _node_average(rows1[pairs], rows2[pairs], shifts[:, :1], shifts[:, 1:], 1,
                                  "wrap")
    return out


def ergodic_bilinear_avg(
    beta, f1: np.ndarray, f2: np.ndarray, body: ConvexBody, t: float, omega,
    quad_mesh: float | None = None,
) -> float:
    """Self-normalized average of f1(omega + beta x) f2(omega + beta y) over
    the body dilate, for the rotation action on the torus.

    ``f1, f2`` are samples on the uniform m^d torus grid (nearest-node
    evaluation); the quadrature mesh defaults to the torus mesh 1/m.
    """
    f1, f2 = _torus_samples(f1, f2, body, t)
    d = f1.ndim
    m = f1.shape[0]
    h = 1.0 / m if quad_mesh is None else float(quad_mesh)
    if not (h > 0 and math.isfinite(h)) or abs(round(1.0 / h) - 1.0 / h) > 1e-9:
        raise ValueError("quadrature mesh must divide 1")
    beta = _finite_shift(beta, d, "beta")
    omega = _finite_shift(omega, d, "omega")
    pts = enumerate_lattice(body, t / h).points
    if len(pts) == 0:
        raise ValueError(f"no quadrature nodes at t={t}")

    def lookup(f, shifts):
        theta = np.mod(omega[None, :] + shifts, 1.0)
        idx = np.mod(np.rint(theta * m).astype(np.int64), m)
        return f[tuple(idx.T)]

    v1 = lookup(f1, beta[None, :] * (h * pts[:, :d]))
    v2 = lookup(f2, beta[None, :] * (h * pts[:, d:]))
    return float(np.mean(v1 * v2))
