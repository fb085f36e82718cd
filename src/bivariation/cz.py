"""Stopping-time decomposition of a field at a prescribed height.

``cz_decompose(f, p_i, alpha, p)`` selects maximal dyadic cubes whose
L^(p_i)-average exceeds ``alpha**(p/p_i)`` by descending from a coarse root
cube, then splits ``f`` into a bounded good part and mean-zero bad pieces on
the selected cubes.  ``cz_certify`` re-verifies the eight structural
properties with their explicit constants.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicCube, covering_level, cube_cell_values, cube_slices, orthant_regions
from .fields import Box, Field, _embed_slices, _lp_norm, lp_norm

__all__ = ["CZOutput", "CZCertificate", "cz_decompose", "cz_certify", "format_cz_report"]

MAX_ROOT_CELLS = 1 << 22


@dataclass(frozen=True)
class CZOutput:
    """The good part on the root box (the hull of the input box and the root
    cubes), and each bad piece on its own cube's box."""

    good: Field
    bad_pieces: tuple[tuple[DyadicCube, Field], ...]
    p_i: float
    alpha: float
    p: float
    root_level: int
    flagged: bool  # True when no sub-threshold root cube was representable

    @property
    def bad(self) -> Field:
        """The sum of the pieces, on the root box."""
        return Field(self.good.box, _bad_samples(self))


def _bad_samples(out: CZOutput) -> np.ndarray:
    """The pieces added in order into zeros on the root box; a piece whose box
    leaves the root box raises ValueError."""
    total = np.zeros(out.good.box.extent)
    for _, piece in out.bad_pieces:
        total[_embed_slices(out.good.box, piece.box)] += piece.samples
    return total


@dataclass(frozen=True)
class CZCertificate:
    checks: dict[str, bool]
    margins: dict[str, float]

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())


def _cube_lp_avg_pow(f: Field, cube: DyadicCube, p_i: float) -> float:
    """(1/|Q|) * integral over Q of |f|^p_i, with zero extension."""
    total = float(np.sum(np.abs(cube_cell_values(f, cube)) ** p_i)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def _power_block(plan: _Plan, root: DyadicCube) -> np.ndarray:
    """``|f|^p_i`` on the root's cells.  Every cube below the root is full in
    the root box, so the power is read once over the root's block.  It is
    taken only on the window of the block inside the bounds of f's support:
    with p_i >= 1 every other cell gives ``|0|^p_i = +0.0``, the block's zero
    fill."""
    block = plan.fr[cube_slices(plan.root_box, root)]
    lo = np.clip(plan.bounds[0] - root.corner(), 0, root.side_cells)
    hi = np.clip(plan.bounds[1] + 1 - root.corner(), 0, root.side_cells)
    window = tuple(slice(a, b) for a, b in zip(lo, hi))
    pw = np.zeros(block.shape)
    pw[window] = np.abs(block[window]) ** plan.p_i
    return pw


def _descend(units, mesh: float, d: int) -> list[list[DyadicCube]]:
    """The stopping time below every root of ``units``, triples ``(block,
    root, threshold_pow)`` with ``block`` from :func:`_power_block`: the
    selected cubes of each unit, one pass per level for all of them.

    A root joins the descent at its own level.  Per level, the 2^d children
    of the active cubes of every unit become rows listing their cells
    row-major, as ``cube_cell_values`` ravels them, gathered from one flat
    array of every block, so each row sums exactly as ``_cube_lp_avg_pow``
    sums its cube (docs/notes.md, notes 8 and 13).
    """
    selected = [[] for _ in units]
    if not units:
        return selected
    flat = np.concatenate([block.ravel() for block, _, _ in units])
    base = np.cumsum([0, *(block.size for block, _, _ in units[:-1])])
    top = np.array([root.level for _, root, _ in units])
    corner = np.array([root.coords for _, root, _ in units], dtype=np.int64)
    thresholds = np.array([t for _, _, t in units])
    offsets = np.array(list(np.ndindex(*([2] * d))), dtype=np.int64)
    cell_volume = float(mesh) ** d
    unit = np.zeros(0, dtype=np.int64)
    active = np.zeros((0, d), dtype=np.int64)  # root-relative cube coordinates
    for level in range(int(top.max()) - 1, -1, -1):
        joining = np.flatnonzero(top == level + 1)
        unit = np.concatenate([unit, joining])
        active = np.concatenate([active, np.zeros((joining.size, d), dtype=np.int64)])
        if not unit.size:
            continue
        side = 1 << level
        owner = np.repeat(unit, len(offsets))
        children = (2 * active[:, None, :] + offsets).reshape(-1, d)
        # the flat index of each child's cells, row-major in the child and in
        # its unit's block of side 2^top cells
        cells = np.indices((side,) * d).reshape(d, -1)
        span = (np.int64(1) << top[owner])[:, None]
        idx = np.zeros((len(owner), cells.shape[1]), dtype=np.int64)
        for ax in range(d):
            idx = idx * span + (children[:, ax, None] * side + cells[ax])
        rows = flat[idx + base[owner][:, None]]
        avg = np.sum(rows, axis=-1) * cell_volume / (side * mesh) ** d
        above = avg > thresholds[owner]
        coords = children + (corner[owner] << (top[owner] - level)[:, None])
        for u, c in zip(owner[above].tolist(), coords[above].tolist()):
            selected[u].append(DyadicCube(level, tuple(c)))
        keep = ~above & (avg > 0.0)
        unit, active = owner[keep], children[keep]
    return selected


def cz_decompose(f: Field, p_i: float, alpha: float, p: float) -> CZOutput:
    """Top-down stopping time from the coarsest sub-threshold cube.

    The root starts at the level whose single cube covers the support and
    moves coarser while its own average still exceeds the threshold (the
    average shrinks by 2^(-d) per level, so this terminates unless the root
    box would become unrepresentably large, which flags the output instead of
    silently truncating).  The good part lives on the root cube's box, and
    each piece on its own cube's box, so pieces keep their mean-zero tails
    even when a selected cube is coarser than the input box.  The one-row
    view of :func:`_decompose_rows`.
    """
    return _decompose_rows([(f, p_i, alpha)], p)[0]


def _decompose_rows(rows, p: float) -> list[CZOutput]:
    """:func:`cz_decompose` of every ``(f, p_i, alpha)`` in ``rows`` at the
    exponent ``p``, bit for bit, for fields of one mesh and dimension: each
    row climbs to its own roots, then one descent runs below the roots of
    every row (docs/notes.md, note 13)."""
    if not (0.0 < p < np.inf):
        raise ValueError("p must lie in (0, inf)")
    plans = [_plan(f, p_i, alpha, p) for f, p_i, alpha in rows]
    mesh, d = rows[0][0].box.mesh, rows[0][0].box.dim
    if any(f.box.mesh != mesh or f.box.dim != d for f, _, _ in rows):
        raise ValueError("the fields must share one mesh and dimension")
    units = [(i, root) for i, plan in enumerate(plans) if not plan.flagged for root in plan.roots]
    found = _descend([(_power_block(plans[i], root), root, plans[i].threshold_pow)
                      for i, root in units], mesh, d)
    selected = [list(plan.roots) if plan.flagged else [] for plan in plans]
    for (i, _), cubes in zip(units, found):
        selected[i] += cubes
    return [_split(plan, cubes, p) for plan, cubes in zip(plans, selected)]


class _Plan(NamedTuple):
    """One decomposition before its descent: the climb's roots, and f's
    samples ``fr`` on the root box."""

    p_i: float
    alpha: float
    threshold_pow: float
    bounds: tuple[np.ndarray, np.ndarray]  # the lattice bounds of f's support
    roots: list[DyadicCube]
    flagged: bool
    root_box: Box
    fr: np.ndarray


def _plan(f: Field, p_i: float, alpha: float, p: float) -> _Plan:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not (1.0 <= p_i < np.inf):
        raise ValueError("p_i must lie in [1, inf)")
    bounds = f.support_bounds()
    if bounds is None:
        raise ValueError("cannot decompose the zero field")
    threshold_pow = float(alpha ** p)  # = (alpha^(p/p_i))^(p_i)

    # dyadic cubes never straddle the origin, so the descent starts from one
    # covering root per orthant touched by the support; the climb reads f
    # itself, whose box may clip the ancestor cubes
    roots = []
    flagged = False
    for lo, hi in orthant_regions(*bounds):
        level = covering_level(lo, hi)
        root = DyadicCube(level, tuple(int(v) >> level for v in lo))
        while _cube_lp_avg_pow(f, root, p_i) > threshold_pow:
            root = root.parent()
            if root.side_cells ** f.box.dim > MAX_ROOT_CELLS:
                flagged = True
                break
        roots.append(root)

    # output box: hull of the input box and the root cubes, so the input
    # embeds losslessly and every cube below a root is full in it
    out_lo = np.min([f.box.origin, *(r.corner() for r in roots)], axis=0)
    out_hi = np.max([np.add(f.box.origin, f.box.extent),
                     *(np.add(r.corner(), r.side_cells) for r in roots)], axis=0)
    root_box = Box(f.box.dim, tuple(out_lo), tuple(out_hi - out_lo), f.box.mesh)
    fr = np.zeros(root_box.extent)
    fr[_embed_slices(root_box, f.box)] = f.samples
    return _Plan(p_i, alpha, threshold_pow, bounds, roots, flagged, root_box, fr)


def _split(plan: _Plan, selected: list[DyadicCube], p: float) -> CZOutput:
    """The good part and the pieces of a plan on its selected cubes, in
    (level, coords) order.  A mean sums the ravelled cube slice."""
    box, fr = plan.root_box, plan.fr
    good = fr.copy()
    pieces = []
    for cube in sorted(selected, key=lambda c: (c.level, c.coords)):
        sl = cube_slices(box, cube)
        mean = float(np.sum(fr[sl].ravel())) * box.cell_volume
        mean /= cube.volume(box.mesh, box.dim)
        good[sl] = mean
        cube_box = Box(box.dim, cube.corner(), (cube.side_cells,) * box.dim, box.mesh)
        pieces.append((cube, Field(cube_box, fr[sl] - mean)))
    return CZOutput(good=Field(box, good), bad_pieces=tuple(pieces), p_i=plan.p_i,
                    alpha=plan.alpha, p=p, root_level=max(r.level for r in plan.roots),
                    flagged=plan.flagged)


def cz_certify(out: CZOutput, f: Field) -> CZCertificate:
    """Re-check the eight decomposition properties against the original field.

    Constants: (v) 2^(d+p_i), (vi) 1 (selection is sharp), (vii)
    2^((d+p_i)/p_i), (viii) 1 for the L^(p_i) bound and 2^(d/p_i) for the
    sup bound.  Margins report bound/value (inf when the value vanishes).
    """
    f = f.embed(out.good.box)
    d = f.box.dim
    p_i, alpha, p = out.p_i, out.alpha, out.p
    height = float(alpha ** (p / p_i))
    tol = 1e-12 * max(1.0, float(np.abs(f.samples).max()))

    # one pass over the pieces: ii overlap, iii support, iv mean, v size, vi
    # cube mass and the maximality of each cube against its parent.  A
    # piece's sums run over the root box, the piece written into zeros, so
    # the margins add as when every piece was stored on the root box
    mean_tol = 1e-12 * max(1.0, lp_norm(f, 1.0))
    c5 = 2.0 ** (d + p_i)
    seen = np.zeros(f.box.extent, dtype=bool)
    embedded = np.zeros(f.box.extent)
    disjoint = supp_ok = mean_ok = ok5 = maximal = True
    mean_worst = worst5 = total_q = 0.0
    for cube, piece in out.bad_pieces:
        sl, vol = cube_slices(f.box, cube), cube.volume(f.box.mesh, d)
        disjoint &= not np.any(seen[sl])
        seen[sl] = True
        inside = piece.samples[cube_slices(piece.box, cube)]
        supp_ok &= np.count_nonzero(piece.samples) == np.count_nonzero(inside)
        at = _embed_slices(f.box, piece.box)
        embedded[at] = piece.samples
        m = abs(float(np.sum(embedded)) * f.box.cell_volume)
        mean_worst = max(mean_worst, m)
        mean_ok &= not m > mean_tol
        lhs = _lp_norm(embedded, f.box.cell_volume, p_i) ** p_i
        embedded[at] = 0.0
        rhs = c5 * (alpha**p) * vol
        worst5 = max(worst5, lhs / rhs if rhs else np.inf)
        ok5 &= not lhs > rhs * (1 + 1e-12)
        total_q += vol
        if cube.level < out.root_level:
            maximal &= not _cube_lp_avg_pow(f, cube.parent(), p_i) > alpha**p

    bad = _bad_samples(out)
    err = float(np.abs(out.good.samples + bad - f.samples).max())
    rhs6 = (alpha**-p) * lp_norm(f, p_i) ** p_i
    lhs7 = _lp_norm(bad, f.box.cell_volume, p_i)
    rhs7 = 2.0 ** ((d + p_i) / p_i) * lp_norm(f, p_i)
    lhs8a, rhs8a = lp_norm(out.good, p_i), lp_norm(f, p_i)
    lhs8b, rhs8b = lp_norm(out.good, np.inf), 2.0 ** (d / p_i) * height
    rows = [  # (check, verdict, margin)
        ("i_reconstruction", err <= tol, err),
        ("ii_disjoint_cubes", disjoint, 0.0),
        ("iii_support", supp_ok, 0.0),
        ("iv_mean_zero", mean_ok, mean_worst),
        ("v_piece_size", ok5, worst5),
        ("vi_cube_mass", total_q <= rhs6 * (1 + 1e-12), total_q / rhs6 if rhs6 else 0.0),
        ("vii_bad_total", lhs7 <= rhs7 * (1 + 1e-12), lhs7 / rhs7 if rhs7 else 0.0),
        ("viii_good_bounds", lhs8a <= rhs8a * (1 + 1e-12) and lhs8b <= rhs8b * (1 + 1e-12),
         max(lhs8a / rhs8a if rhs8a else 0.0, lhs8b / rhs8b if rhs8b else 0.0)),
        ("maximality", maximal or out.flagged, 0.0),
    ]
    return CZCertificate({name: ok for name, ok, _ in rows}, {name: m for name, _, m in rows})


def format_cz_report(out: CZOutput, cert: CZCertificate) -> str:
    """Structured-text export: cube list with levels plus the constants table."""
    buf = io.StringIO()
    print(f"decomposition at height alpha^(p/p_i) = {out.alpha ** (out.p / out.p_i):.6g}", file=buf)
    print(f"p_i={out.p_i} alpha={out.alpha} p={out.p} root_level={out.root_level} "
          f"flagged={out.flagged}", file=buf)
    print(f"selected cubes: {len(out.bad_pieces)}", file=buf)
    for cube, _ in out.bad_pieces:
        print(f"  level={cube.level} corner={cube.corner()}", file=buf)
    print("property checks:", file=buf)
    for name, ok in cert.checks.items():
        print(f"  {name}: {'pass' if ok else 'FAIL'} (margin {cert.margins[name]:.6g})", file=buf)
    return buf.getvalue()
