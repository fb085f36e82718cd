"""Dyadic conditional expectations, martingale differences, neighbor-maximal
functions, and the Carleson-type quantities built from them.

Levels are mesh-relative: level ``j`` cubes have side ``2**j`` cells, so the
physical side is ``2**j * mesh``.  ``cond_expect(f, j)`` averages the
zero-extended field over the full cube volume, which makes ``E_j`` a true
projection whenever level-``j`` cubes tile the box.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .averages import AvgRequest, TimeGrid, _field_values
from .bodies import ConvexBody
from .dyadic import cell_cube_ids, cells_by_cube, cube_slices, level_range
from .fields import Field, _bmo_rows, _lp_norm
from .variation import InequalityReport, vq_value_batch

__all__ = [
    "MeasurabilityError",
    "cond_expect",
    "mart_diff",
    "star_maximal",
    "bilinear_maximal",
    "domination_check",
    "DominationReport",
    "compensated_terms",
    "square_piece",
    "paraproduct_telescope",
    "TelescopeReport",
    "carleson_tent_mass",
    "carleson_tent_ratios",
    "carleson_weighted_sum",
    "martingale_product_variation_check",
    "RatioCheck",
    "young_convolution_check",
    "measurable_field",
]

TELESCOPE_TOL = 1e-10  # largest telescoping residual that counts as an identity
WEIGHTED_PAD_FACTOR = 1.0  # box-widths of padding per side in the weighted sum


class MeasurabilityError(ValueError):
    """A field that must be constant on dyadic cubes is not; carries the cube."""

    def __init__(self, level: int, cube_coords, spread: float):
        self.level = level
        self.cube_coords = tuple(int(c) for c in cube_coords)
        self.spread = spread
        super().__init__(
            f"field is not constant on level-{level} cube at {self.cube_coords} "
            f"(value spread {spread:g})"
        )


def cond_expect(f: Field, j: int) -> Field:
    """Projection onto functions constant on level-j cubes.

    Below the box-covering level each cube average divides by the full cube
    volume (zero extension).  Once a single level-j cube contains the box the
    projection acts as the global box mean, so constants stay fixed and box
    mass is preserved at every level; martingale differences vanish there.
    The one-row view of :func:`_ladder_rows`.
    """
    if j == 0:
        return f
    return Field(f.box, _ladder_rows(f.box, f.samples.reshape(1, -1), [j])[0])


def _ladder_rows(box, rows: np.ndarray, levels) -> list[np.ndarray]:
    """``E_j`` of every row of ``rows`` (N, cells), the row-major samples of
    fields on ``box``, at each ``j`` in ``levels``: one (N, cells) array per
    level, each row the bytes of ``cond_expect`` on that field alone
    (docs/notes.md, note 12).  Level 0 gives ``rows`` back.

    One ``np.bincount`` per level over the slots ``ids + ncubes * row`` adds
    each cube's cells in cell order, as a one-field bincount does.  The box
    mean of the one-cube levels reduces each row of a C-contiguous block, as
    ``np.mean`` of one field does; a strided view would sum in another order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n, cells = rows.shape
    out = []
    for j in levels:
        if j < 0:
            raise ValueError(f"level {j} is below the cell level (misaligned)")
        if j == 0:
            out.append(rows)
            continue
        ids, _, ncubes = cell_cube_ids(box, j)
        if ncubes == 1:
            out.append(np.repeat(np.mean(rows, axis=1), cells).reshape(n, cells))
            continue
        slots = (ids + ncubes * np.arange(n)[:, None]).ravel()
        sums = np.bincount(slots, weights=rows.ravel(), minlength=n * ncubes)
        means = sums.reshape(n, ncubes) / float(1 << (j * box.dim))
        # np.take keeps the block C-contiguous; ``means[:, ids]`` need not be,
        # and a strided row sums in another order wherever it is reduced
        out.append(np.take(means, ids, axis=1))
    return out


def _product_rows(box, rows1: np.ndarray, rows2: np.ndarray, levels) -> np.ndarray:
    """(len(levels), N, cells): ``E_j f1 * E_j f2`` of every row pair at
    ``j = levels[i]``, from one ladder over both factors' rows."""
    n = len(rows1)
    ladder = _ladder_rows(box, np.concatenate([rows1, rows2]), levels)
    return np.stack([e[:n] * e[n:] for e in ladder])


def mart_diff(f: Field, j: int) -> Field:
    """Difference of consecutive projections, mean zero on every level-j cube."""
    if j < 1:
        raise ValueError("martingale differences are defined for levels j >= 1")
    e = _ladder_rows(f.box, f.samples.reshape(1, -1), [j - 1, j])
    return Field(f.box, e[0] - e[1])


def _cube_value_grids(box, rows: np.ndarray, level: int) -> np.ndarray:
    """(N, *grid): the per-cube values of every row of ``rows`` (N, cells),
    the row-major samples of fields on ``box``, on the dense cube grid of
    the box (the slots of ``cell_cube_ids`` reshaped); raises
    MeasurabilityError on the first non-constant cube of the first row that
    has one."""
    _, table, _ = cell_cube_ids(box, level)
    order, starts = cells_by_cube(box, level)
    vals = np.take(rows, order, axis=1)
    vmax = np.maximum.reduceat(vals, starts, axis=1)
    spread = vmax - np.minimum.reduceat(vals, starts, axis=1)
    bad = np.argwhere(spread > 0.0)
    if bad.size:
        r, c = bad[0]
        raise MeasurabilityError(level, table[c], float(spread[r, c]))
    return vmax.reshape(len(rows), *(table[-1] - table[0] + 1))


def measurable_field(box, level: int, cube_values: np.ndarray) -> Field:
    """Build a level-measurable field from per-cube values (row-major cube order)."""
    ids, _, ncubes = cell_cube_ids(box, level)
    vals = np.asarray(cube_values, dtype=np.float64).ravel()
    if vals.size != ncubes:
        raise ValueError(f"expected {ncubes} cube values, got {vals.size}")
    return Field(box, vals[ids])


def _neighbor_max(a: np.ndarray) -> np.ndarray:
    """Max over each cube and its 3Q neighbors of every grid of the stack
    ``a`` (N, *grid); cubes beyond the grid count as zeros."""
    grid = a.shape[1:]
    padded = np.zeros((len(a), *(n + 2 for n in grid)), dtype=a.dtype)
    padded[(slice(None),) + (slice(1, -1),) * len(grid)] = a
    out = np.zeros_like(a)
    for shift in np.ndindex(*([3] * len(grid))):
        sl = tuple(slice(s, s + n) for s, n in zip(shift, grid))
        np.maximum(out, padded[(slice(None), *sl)], out=out)
    return out


def _measurable_level(n: int) -> int:
    if n < 1:
        raise ValueError("need n >= 1")
    return n - 1


def _cells(box, level: int, grids: np.ndarray) -> np.ndarray:
    """(N, cells): the stack of cube-value grids expanded to the cells; a
    C-contiguous block, so each row reduces as a lone field does."""
    ids, _, _ = cell_cube_ids(box, level)
    return np.take(grids.reshape(len(grids), -1), ids, axis=1)


def star_maximal(h: Field, n: int) -> Field:
    """Neighbor maximum of |h| over the level-(n-1) cube containing x and the
    cubes in its 3Q neighborhood; cubes beyond the box count as zeros.  The
    one-row view of :func:`_neighbor_max`."""
    level = _measurable_level(n)
    a = np.abs(_cube_value_grids(h.box, h.samples.reshape(1, -1), level))
    return Field(h.box, _cells(h.box, level, _neighbor_max(a))[0])


def bilinear_maximal(h1: Field, h2: Field, n: int) -> Field:
    """max{ (h1* |h2|)*, (|h1| h2*)* } for level-(n-1)-measurable inputs.
    The one-row view of :func:`_maximal_rows`."""
    if h1.box != h2.box:
        raise ValueError("h1 and h2 must share one box")
    rows1, rows2 = h1.samples.reshape(1, -1), h2.samples.reshape(1, -1)
    return Field(h1.box, _maximal_rows(h1.box, rows1, rows2, _measurable_level(n))[0][0])


def _maximal_rows(box, rows1: np.ndarray, rows2: np.ndarray, level: int):
    """``(bound, star)``, each (N, cells): the bilinear maximal of every row
    pair and the star maximal of each ``rows1`` row, for level-measurable
    rows.  Every product is constant on level cubes, so every star maximal
    is taken on the stacked cube-value grids, and each result is expanded to
    the cells once.  A max changes no bit, so each row is that of a lone
    field (docs/notes.md, note 13)."""
    a1 = np.abs(_cube_value_grids(box, rows1, level))
    a2 = np.abs(_cube_value_grids(box, rows2, level))
    star1 = _neighbor_max(a1)
    bound = np.maximum(_neighbor_max(star1 * a2), _neighbor_max(a1 * _neighbor_max(a2)))
    return _cells(box, level, bound), _cells(box, level, star1)


@dataclass(frozen=True)
class DominationReport:
    max_average: float
    max_excess: float
    holds: bool
    bound: Field  # the bilinear maximal compared against


def domination_check(body: ConvexBody, h1: Field, h2: Field, n: int, k: int) -> DominationReport:
    """Pointwise |average at scale 2^k| <= neighbor-maximal bound, at every cell.

    Requires k < n (the scale may not exceed the measurability side).  The
    geometric argument behind the bound needs the dilate's diameter to stay
    within one cube side, so for k = n-1 sparse adversarial inputs can beat
    the bound; see the edge-case tests.  The one-trial view of
    :func:`_domination_rows`.
    """
    if h1.box != h2.box:
        raise ValueError("h1 and h2 must share one box")
    _measurable_level(n)
    if k >= n:
        raise ValueError(f"hypothesis violated: need k < n, got k={k}, n={n}")
    AvgRequest(body, (2.0**k) * h1.box.mesh, h1, h2)  # the averaging call's checks
    rows1, rows2 = h1.samples.reshape(1, -1), h2.samples.reshape(1, -1)
    average, bound, _ = _domination_rows(h1.box, rows1, rows2, [(body, n, k)])
    max_average, max_excess, holds = (v[0] for v in _domination_verdicts(average, bound))
    return DominationReport(max_average, max_excess, holds, Field(h1.box, bound[0]))


def _domination_rows(box, rows1: np.ndarray, rows2: np.ndarray,
                     trials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(|average|, bound, star)``, each (N, cells), of every trial
    ``(body, n, k)`` on the row pair (h1, h2) of ``rows1`` and ``rows2``
    (N, cells) with its index, bit for bit: one averaging call for every
    trial, its memo lookups in trial order, and one stack of cube-value
    grids per measurability level n - 1 (docs/notes.md, note 13).  ``star``
    is the star maximal of h1."""
    reqs = [(body, (2.0**k) * box.mesh, i) for i, (body, _, k) in enumerate(trials)]
    average = np.abs(_field_values(box, "continuum_quadrature", reqs, rows1, rows2))
    bound, star = np.empty_like(average), np.empty_like(average)
    ns = np.array([n for _, n, _ in trials])
    for n in np.unique(ns).tolist():
        at = np.flatnonzero(ns == n)
        bound[at], star[at] = _maximal_rows(box, rows1[at], rows2[at], n - 1)
    return average, bound, star


def _domination_verdicts(average: np.ndarray, bound: np.ndarray):
    """Per row of |average| and bound (N, cells): the largest |average|, the
    largest excess over the bound, and whether that excess is within the
    tolerance, as lists."""
    max_excess = (average - bound).max(axis=1)
    tol = 1e-12 * np.maximum(1.0, bound.max(axis=1, initial=0.0))
    return average.max(axis=1).tolist(), max_excess.tolist(), (max_excess <= tol).tolist()


# ---------------------------------------------------------------------------
# Paraproduct telescoping

def compensated_terms(f1: Field, f2: Field, body: ConvexBody, ks) -> tuple[np.ndarray, np.ndarray]:
    """(averages, products) at the increasing levels ``ks``, each (len(ks), cells):
    the averages at scales 2^k * mesh and E_k f1 * E_k f2.  The one-pair
    view of :func:`_compensated_rows` (docs/notes.md, note 10)."""
    rows1, rows2 = _compensated_checks(f1, f2, body, ks)
    averages, products = _compensated_rows(f1.box, rows1, rows2, body, ks)
    return averages[:, 0], products[:, 0]


def _compensated_checks(f1: Field, f2: Field, body: ConvexBody,
                        ks) -> tuple[np.ndarray, np.ndarray]:
    """The checks of a compensated-terms call at the levels ``ks``, those of
    ``avg_field_sweep`` over their scales; returns the fields' sample rows."""
    if f1.box != f2.box:
        raise ValueError("fields must share one box")
    grid = TimeGrid(tuple((2.0**k) * f1.box.mesh for k in ks))
    if not len(grid):
        raise ValueError("need at least one level")
    AvgRequest(body, grid.times[0], f1, f2)
    return f1.samples.reshape(1, -1), f2.samples.reshape(1, -1)


def _compensated_rows(box, rows1: np.ndarray, rows2: np.ndarray, body: ConvexBody, ks):
    """(averages, products), each (len(ks), N, cells), of every row pair of
    ``rows1`` and ``rows2`` at the levels ``ks``: the averages at scales
    2^k * mesh from one ``_field_values`` call, whose memo lookups go pair
    by pair as a loop of one-pair calls makes them, and the products from
    one ladder over every field (docs/notes.md, notes 10 and 16)."""
    n, ks = len(rows1), list(ks)
    reqs = [(body, (2.0**k) * box.mesh, p) for p in range(n) for k in ks]
    averages = _field_values(box, "continuum_quadrature", reqs, rows1, rows2)
    return averages.reshape(n, len(ks), -1).transpose(1, 0, 2), _product_rows(box, rows1, rows2, ks)


def square_piece(f1: Field, f2: Field, body: ConvexBody, k: int) -> Field:
    """Average at scale 2^k minus the product of the level-k projections."""
    averages, products = compensated_terms(f1, f2, body, [k])
    return Field(f1.box, averages[0] - products[0])


@dataclass(frozen=True)
class TelescopeReport:
    residual_max: float
    fine_boundary_max: float
    coarse_boundary_max: float
    holds: bool


def paraproduct_telescope(
    f1: Field, f2: Field, body: ConvexBody, k: int, l: int, j: int
) -> TelescopeReport:
    """Finite telescoping of the scale-k compensated average across levels l..j.

    Verifies, at every cell,
    ``piece(E_(l-1)f1, E_(l-1)f2) - piece(E_j f1, E_j f2)
      = sum_(n=l..j) [piece(d_(1,n), E_(n-1)f2) + piece(E_n f1, d_(2,n))]``
    and reports the two boundary magnitudes (the coarse one decays as j grows;
    the fine one stabilizes once l reaches the cell level).  The one-trial
    view of :func:`_telescope_rows`.
    """
    if l > j:
        raise ValueError("need l <= j")
    if l < 1:
        raise ValueError("need l >= 1 so that E_(l-1) is defined")
    if f1.box != f2.box:
        raise ValueError("fields must share one box")
    AvgRequest(body, (2.0**k) * f1.box.mesh, f1, f2)  # the pieces' checks
    rows1, rows2 = f1.samples.reshape(1, -1), f2.samples.reshape(1, -1)
    return _telescope_rows(f1.box, rows1, rows2, [(body, k, l, j)])[0]


def _telescope_rows(box, rows1: np.ndarray, rows2: np.ndarray, trials) -> list[TelescopeReport]:
    """The report of every trial ``(body, k, l, j)`` on the row pair (f1, f2)
    of ``rows1`` and ``rows2`` (N, cells) with its index, each the bytes of
    a lone ``paraproduct_telescope``: one ladder over every field, one
    averaging call for every piece of every trial, its memo lookups in
    trial order, and one level-k product ladder per distinct k over the
    same operand rows (docs/notes.md, note 12)."""
    n = len(trials)
    base = min(l for *_, l, _ in trials) - 1
    # e[m][i] is E_(base+m) of trial i's f1, and e[m][n + i] of its f2
    e = _ladder_rows(box, np.concatenate([rows1, rows2]),
                     range(base, max(j for *_, j in trials) + 1))
    # the piece operands of each trial: the fine and coarse boundaries, then
    # per level (d_(1,n), E_(n-1) f2) and (E_n f1, d_(2,n)), in the order rhs adds them
    ops, reqs, ks = [], [], []
    for i, (body, k, l, j) in enumerate(trials):
        e1 = [e[m - base][i] for m in range(l - 1, j + 1)]
        e2 = [e[m - base][n + i] for m in range(l - 1, j + 1)]
        first = len(ops)
        ops += [(e1[0], e2[0]), (e1[-1], e2[-1])]
        for m in range(1, len(e1)):
            ops.append((e1[m - 1] - e1[m], e2[m - 1]))
            ops.append((e1[m], e2[m - 1] - e2[m]))
        # the pieces share the body and the scale of their trial
        t = float((2.0**k) * box.mesh)
        reqs += [(body, t, p) for p in range(first, len(ops))]
        ks += [k] * (len(ops) - first)
    # piece p averages row p of a against row p of b
    a, b = np.stack([u for u, _ in ops]), np.stack([v for _, v in ops])
    del e, e1, e2, ops
    # one averaging call, whose rows are the bytes of one-piece calls
    # (docs/notes.md, notes 11 and 12)
    pieces = _field_values(box, "continuum_quadrature", reqs, a, b)
    ks = np.array(ks)
    for k in np.unique(ks).tolist():
        at = np.flatnonzero(ks == k)
        pieces[at] -= _product_rows(box, a[at], b[at], [k])[0]
    reports, first = [], 0
    for *_, l, j in trials:
        fine, coarse, *rest = pieces[first : first + 2 * (j - l + 2)]
        first += 2 * (j - l + 2)
        lhs = fine - coarse
        rhs = np.zeros_like(lhs)
        for p in rest:
            rhs += p
        residual = float(np.abs(lhs - rhs).max())
        reports.append(TelescopeReport(
            residual_max=residual,
            fine_boundary_max=float(np.abs(fine).max()),
            coarse_boundary_max=float(np.abs(coarse).max()),
            holds=residual < TELESCOPE_TOL,
        ))
    return reports


# ---------------------------------------------------------------------------
# Carleson quantities

def carleson_tent_mass(b: Field, cube, n: int) -> float:
    """Tent mass: sum over scales 2^k <= side(Q) of the Q-integral of the
    squared shifted martingale differences |E_(k+1-n)b - E_(k-n)b|^2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sl = cube_slices(b.box, cube)
    total = 0.0
    for k in range(n, cube.level + 1):
        diff = mart_diff(b, k + 1 - n).samples[sl]
        total += float(np.sum(diff * diff))
    return total * b.box.cell_volume


def _diff_rows(box, rows: np.ndarray) -> list[np.ndarray]:
    """Differences ``[d_1, ..., d_(top+1)]`` of every row of ``rows`` (N, cells),
    each (N, cells), d_m = E_(m-1) - E_m as :func:`mart_diff` forms it, from
    one ladder of top + 2 projections."""
    _, top = level_range(box)
    e = _ladder_rows(box, rows, range(top + 2))
    return [e[m - 1] - e[m] for m in range(1, top + 2)]


def carleson_tent_ratios(b: Field, n_max: int) -> tuple[float, ...]:
    """``(S_0, ..., S_(n_max))``: per shift n, the sup over dyadic cubes meeting
    the box of tent mass / (|Q| * bmo(b)^2), from one BMO norm and one
    difference ladder.  The shift-n mass of a level-j cube adds its sums of
    d_m^2 over m = 1..j+1-n left to right: row j - n of their ``cumsum``.
    The one-row view of :func:`_tent_rows`."""
    return tuple(_tent_rows(b.box, b.samples.reshape(1, -1), n_max)[0].tolist())


def _tent_rows(box, rows: np.ndarray, n_max: int) -> np.ndarray:
    """(N, n_max + 1): :func:`carleson_tent_ratios` of every row of ``rows``
    (N, cells), the row-major samples of fields on ``box``, bit for bit: one
    BMO scan, one difference ladder, and per level one bincount over every
    (difference, row) pair and one sequential ``cumsum`` along the
    differences (docs/notes.md, note 12)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    best = np.zeros((len(rows), n_max + 1))
    bmo = _bmo_rows(box, rows)
    live = np.flatnonzero(bmo != 0.0)  # a row of norm 0 keeps its zeros
    if live.size == 0:
        return best
    rows, bmo = rows[live], bmo[live]
    sq = [d * d for d in _diff_rows(box, rows)]
    n = len(rows)
    for j in range(1, len(sq)):
        ids, _, ncubes = cell_cube_ids(box, j)
        # slot (m, row, cube): each cube adds its cells of d_m^2 in cell order
        slots = (ids + ncubes * np.arange((j + 1) * n)[:, None]).ravel()
        sums = np.bincount(slots, weights=np.stack(sq[: j + 1]).ravel(),
                           minlength=(j + 1) * n * ncubes).reshape(j + 1, n, ncubes)
        peak = (np.cumsum(sums, axis=0) * box.cell_volume).max(axis=2)
        vol_q = (float(1 << j) * box.mesh) ** box.dim
        for s in range(min(j, n_max) + 1):
            ratio, now = peak[j - s] / (vol_q * bmo * bmo), best[live, s]
            best[live, s] = np.where(ratio > now, ratio, now)  # as max(now, ratio)
    return best


@functools.lru_cache(maxsize=16)
def _zeta_kernel(box, level: int, eps: float, pad: int):
    """Quadrature matrix of the level-scaled decay kernel (1+|x|)^(-d-eps).

    Rows are padded output lattice points, columns the in-box cells; entries
    below 1e-12 of the on-diagonal peak are dropped.  Memoized per
    (box, level, eps, pad) and read-only.
    """
    d = box.dim
    s = (2.0**level) * box.mesh
    axes_in = box.lattice_axes()
    axes_out = [np.arange(o - pad, o + e + pad, dtype=np.int64) for o, e in zip(box.origin, box.extent)]
    grids_in = np.meshgrid(*axes_in, indexing="ij")
    grids_out = np.meshgrid(*axes_out, indexing="ij")
    pin = np.stack([g.ravel() for g in grids_in], axis=-1).astype(np.float64) * box.mesh
    pout = np.stack([g.ravel() for g in grids_out], axis=-1).astype(np.float64) * box.mesh
    dist = np.linalg.norm(pout[:, None, :] - pin[None, :, :], axis=-1)
    kern = (1.0 + dist / s) ** (-(d + eps)) * (s**-d) * box.cell_volume
    kern[kern < 1e-12 * (s**-d) * box.cell_volume] = 0.0
    kern.flags.writeable = False
    return kern


def carleson_weighted_sum(f: Field, b: Field, l: float, eps: float, n: int) -> float:
    """Level sum of integrals of (zeta_k * |f|^l)^(2/l) (zeta_k * |diff_k|^l)^(2/l).

    The spatial integral runs over the box padded by ``WEIGHTED_PAD_FACTOR``
    box-widths per side; the integrand decays like |x|^(-2(d+eps)/l), so the
    omitted tail is small at desk scale.  The one-trial view of
    :func:`_weighted_sums`.
    """
    if not (1.0 < l < 2.0):
        raise ValueError(f"l must lie in (1, 2), got {l}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if f.box != b.box:
        raise ValueError("f and b must share one box")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _weighted_sums(f.box, f.samples.reshape(1, -1), b.samples.reshape(1, -1), [n],
                          l, eps)[0]


def _weighted_sums(box, frows: np.ndarray, brows: np.ndarray, ns, l: float,
                   eps: float) -> list[float]:
    """:func:`carleson_weighted_sum` of every row f of ``frows`` (N, cells)
    with the row b of ``brows`` and the shift n of ``ns`` at its index, bit
    for bit: one difference ladder over every b, and the kernels from the
    memo of ``_zeta_kernel``.  Each trial keeps its own matrix-vector
    products: a matrix-matrix product may add in another order
    (docs/notes.md, note 12)."""
    pad = max(1, int(round(WEIGHTED_PAD_FACTOR * max(box.extent))))
    diffs = _diff_rows(box, brows)
    out = []
    for i, (f, n) in enumerate(zip(frows, ns)):
        fl = np.abs(f) ** l
        total = 0.0
        for k, diff in enumerate(diffs, start=n):
            kern = _zeta_kernel(box, k, eps, pad)
            dl = np.abs(diff[i]) ** l
            cf = (kern @ fl) ** (2.0 / l)
            cd = (kern @ dl) ** (2.0 / l)
            total += float(np.sum(cf * cd)) * box.cell_volume
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Sequence-level checks

@dataclass(frozen=True)
class RatioCheck:
    lhs: float
    rhs: float
    ratio: float


def martingale_product_variation_check(f1: Field, f2: Field, q: float) -> RatioCheck:
    """L2 norm of the levelwise variation of E_j f1 * E_j f2 against
    min(||f1||_2 ||f2||_inf, ||f1||_inf ||f2||_2).  The one-pair view of
    :func:`_product_variation_checks`."""
    if f1.box != f2.box:
        raise ValueError("fields must share one box")
    return _product_variation_checks(f1.box, f1.samples.reshape(1, -1),
                                     f2.samples.reshape(1, -1), q)[0]


def _product_variation_checks(box, rows1: np.ndarray, rows2: np.ndarray,
                              q: float) -> list[RatioCheck]:
    """:func:`martingale_product_variation_check` of every row pair of
    ``rows1`` and ``rows2`` (N, cells), bit for bit: one ladder over every
    factor and one q-variation DP over every cell of every pair."""
    _, top = level_range(box)
    products = _product_rows(box, rows1, rows2, range(top + 2))
    # (pairs * cells, levels): each cell's sequence over the levels, as a
    # one-pair call lays it out
    vq = vq_value_batch(products.reshape(len(products), -1).T, q).reshape(len(rows1), -1)
    vol = box.cell_volume
    out = []
    for f1, f2, v in zip(rows1, rows2, vq):
        lhs = _lp_norm(v, vol, 2.0)
        rhs = min(
            _lp_norm(f1, vol, 2.0) * _lp_norm(f2, vol, np.inf),
            _lp_norm(f1, vol, np.inf) * _lp_norm(f2, vol, 2.0),
        )
        ratio = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
        out.append(RatioCheck(lhs, rhs, ratio))
    return out


def young_convolution_check(a, sigma) -> InequalityReport:
    """||sigma * a||_2 <= ||sigma||_1 ||a||_2 for finite nonnegative sequences."""
    a = np.asarray(a, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(sigma))):
        raise ValueError("sequences must be finite")
    if np.any(a < 0) or np.any(sigma < 0):
        raise ValueError("sequences must be nonnegative")
    if a.size == 0 or sigma.size == 0:
        return InequalityReport(0.0, 0.0, True)
    lhs = float(np.linalg.norm(np.convolve(sigma, a)))
    rhs = float(np.sum(sigma) * np.linalg.norm(a))
    return InequalityReport(lhs, rhs, lhs <= rhs * (1.0 + 1e-12))
