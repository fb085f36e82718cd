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

import numpy as np

from .dyadic import DyadicCube, covering_level, cube_cell_values, cube_slices, orthant_regions
from .fields import Box, Field, lp_norm

__all__ = ["CZOutput", "CZCertificate", "cz_decompose", "cz_certify", "format_cz_report"]

MAX_ROOT_CELLS = 1 << 22


@dataclass(frozen=True)
class CZOutput:
    good: Field
    bad_pieces: tuple[tuple[DyadicCube, Field], ...]
    p_i: float
    alpha: float
    p: float
    root_level: int
    flagged: bool  # True when no sub-threshold root cube was representable

    @property
    def bad(self) -> Field:
        total = np.zeros(self.good.box.extent)
        for _, piece in self.bad_pieces:
            total += piece.samples
        return Field(self.good.box, total)


@dataclass(frozen=True)
class CZCertificate:
    checks: dict[str, bool]
    margins: dict[str, float]

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())


def _cube_lp_avg_pow(f: Field, cube: DyadicCube, p_i: float) -> float:
    """(1/|Q|) * integral over Q of |f|^p_i, with zero extension."""
    vals = cube_cell_values(f, cube)
    if vals.size == 0:
        return 0.0
    total = float(np.sum(np.abs(vals) ** p_i)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def _cube_mean(f: Field, cube: DyadicCube) -> float:
    vals = cube_cell_values(f, cube)
    total = float(np.sum(vals)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def cz_decompose(f: Field, p_i: float, alpha: float, p: float) -> CZOutput:
    """Top-down stopping time from the coarsest sub-threshold cube.

    The root starts at the level whose single cube covers the support and
    moves coarser while its own average still exceeds the threshold (the
    average shrinks by 2^(-d) per level, so this terminates unless the root
    box would become unrepresentably large, which flags the output instead of
    silently truncating).  All output fields live on the root cube's box, so
    pieces keep their mean-zero tails even when a selected cube is coarser
    than the input box.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not (1.0 <= p_i < np.inf):
        raise ValueError("p_i must lie in [1, inf)")
    bounds = f.support_bounds()
    if bounds is None:
        raise ValueError("cannot decompose the zero field")
    threshold_pow = float(alpha ** p)  # = (alpha^(p/p_i))^(p_i)

    # dyadic cubes never straddle the origin, so the descent starts from one
    # covering root per orthant touched by the support
    roots = []
    flagged = False
    for region in orthant_regions(*bounds):
        lo, hi = region
        level = covering_level(lo, hi)
        root = DyadicCube(level, tuple(int(v) >> level for v in lo))
        while _cube_lp_avg_pow(f, root, p_i) > threshold_pow:
            root = root.parent()
            if root.side_cells ** f.box.dim > MAX_ROOT_CELLS:
                flagged = True
                break
        roots.append(root)
    root_level = max(r.level for r in roots)

    # output box: hull of the input box and the root cubes, so pieces keep
    # their out-of-box tails and the input embeds losslessly
    out_lo = list(f.box.origin)
    out_hi = [o + e for o, e in zip(f.box.origin, f.box.extent)]
    for root in roots:
        for a in range(f.box.dim):
            out_lo[a] = min(out_lo[a], root.corner()[a])
            out_hi[a] = max(out_hi[a], root.corner()[a] + root.side_cells)
    root_box = Box(
        f.box.dim, tuple(out_lo), tuple(h - l for l, h in zip(out_lo, out_hi)), f.box.mesh
    )
    fr = f.embed(root_box)

    selected: list[DyadicCube] = []
    stack = [] if flagged else list(roots)
    if flagged:
        selected = list(roots)
    while stack:
        cube = stack.pop()
        if cube.level == 0:
            continue
        child_level = cube.level - 1
        for offset in np.ndindex(*([2] * f.box.dim)):
            child = DyadicCube(
                child_level,
                tuple((c << 1) + o for c, o in zip(cube.coords, offset)),
            )
            avg = _cube_lp_avg_pow(fr, child, p_i)
            if avg > threshold_pow:
                selected.append(child)
            elif avg > 0.0:
                stack.append(child)

    pieces = []
    good = fr.samples.copy()
    for cube in sorted(selected, key=lambda c: (c.level, c.coords)):
        mean = _cube_mean(fr, cube)
        piece = np.zeros(root_box.extent)
        sl = cube_slices(fr.box, cube)
        piece[sl] = fr.samples[sl] - mean
        good[sl] = mean
        pieces.append((cube, Field(root_box, piece)))
    return CZOutput(
        good=Field(root_box, good),
        bad_pieces=tuple(pieces),
        p_i=p_i,
        alpha=alpha,
        p=p,
        root_level=root_level,
        flagged=flagged,
    )


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
    checks: dict[str, bool] = {}
    margins: dict[str, float] = {}

    recon = out.good.samples + out.bad.samples
    checks["i_reconstruction"] = bool(np.abs(recon - f.samples).max() <= tol)
    margins["i_reconstruction"] = float(np.abs(recon - f.samples).max())

    interiors_disjoint = True
    seen = np.zeros(f.box.extent, dtype=bool)
    for cube, _ in out.bad_pieces:
        sl = cube_slices(f.box, cube)
        if np.any(seen[sl]):
            interiors_disjoint = False
        seen[sl] = True
    checks["ii_disjoint_cubes"] = interiors_disjoint
    margins["ii_disjoint_cubes"] = 0.0

    supp_ok, mean_ok, mean_worst = True, True, 0.0
    for cube, piece in out.bad_pieces:
        sl = cube_slices(f.box, cube)
        outside = piece.samples.copy()
        outside[sl] = 0.0
        if np.any(outside != 0.0):
            supp_ok = False
        m = abs(float(np.sum(piece.samples)) * f.box.cell_volume)
        mean_worst = max(mean_worst, m)
        if m > 1e-12 * max(1.0, lp_norm(f, 1.0)):
            mean_ok = False
    checks["iii_support"] = supp_ok
    margins["iii_support"] = 0.0
    checks["iv_mean_zero"] = mean_ok
    margins["iv_mean_zero"] = mean_worst

    c5 = 2.0 ** (d + p_i)
    ok5, worst5 = True, 0.0
    for cube, piece in out.bad_pieces:
        lhs = lp_norm(piece, p_i) ** p_i
        rhs = c5 * (alpha**p) * cube.volume(f.box.mesh, d)
        worst5 = max(worst5, lhs / rhs if rhs else np.inf)
        if lhs > rhs * (1 + 1e-12):
            ok5 = False
    checks["v_piece_size"] = ok5
    margins["v_piece_size"] = worst5

    total_q = sum(c.volume(f.box.mesh, d) for c, _ in out.bad_pieces)
    rhs6 = (alpha**-p) * lp_norm(f, p_i) ** p_i
    checks["vi_cube_mass"] = total_q <= rhs6 * (1 + 1e-12)
    margins["vi_cube_mass"] = total_q / rhs6 if rhs6 else 0.0

    lhs7 = lp_norm(out.bad, p_i)
    rhs7 = 2.0 ** ((d + p_i) / p_i) * lp_norm(f, p_i)
    checks["vii_bad_total"] = lhs7 <= rhs7 * (1 + 1e-12)
    margins["vii_bad_total"] = lhs7 / rhs7 if rhs7 else 0.0

    lhs8a = lp_norm(out.good, p_i)
    rhs8a = lp_norm(f, p_i)
    lhs8b = lp_norm(out.good, np.inf)
    rhs8b = 2.0 ** (d / p_i) * height
    ok8 = lhs8a <= rhs8a * (1 + 1e-12) and lhs8b <= rhs8b * (1 + 1e-12)
    checks["viii_good_bounds"] = ok8
    margins["viii_good_bounds"] = max(
        lhs8a / rhs8a if rhs8a else 0.0, lhs8b / rhs8b if rhs8b else 0.0
    )

    maximal = True
    for cube, _ in out.bad_pieces:
        if cube.level >= out.root_level:
            continue
        if _cube_lp_avg_pow(f, cube.parent(), p_i) > alpha**p:
            maximal = False
    checks["maximality"] = maximal or out.flagged
    margins["maximality"] = 0.0

    return CZCertificate(checks=checks, margins=margins)


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
