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
    total = float(np.sum(np.abs(cube_cell_values(f, cube)) ** p_i)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def _descend(fr: Field, root: DyadicCube, p_i: float, threshold_pow: float,
             bounds: tuple[np.ndarray, np.ndarray]) -> list[DyadicCube]:
    """Stopping time below one root, one pass per level.

    Every cube below the root is full in ``fr``'s box, so ``|f|^p_i`` is read
    once over the root's block.  It is taken only on the window of the block
    inside ``bounds``, the lattice bounds of ``fr``'s support: with p_i >= 1
    every other cell gives ``|0|^p_i = +0.0``, the block's zero fill.  Per
    level, the 2^d children of the active cubes become rows listing their
    cells row-major, as ``cube_cell_values`` ravels them, so each row sums
    exactly as ``_cube_lp_avg_pow`` sums its cube.
    """
    d, mesh = fr.box.dim, fr.box.mesh
    block = fr.samples[cube_slices(fr.box, root)]
    lo = np.clip(bounds[0] - root.corner(), 0, root.side_cells)
    hi = np.clip(bounds[1] + 1 - root.corner(), 0, root.side_cells)
    window = tuple(slice(a, b) for a, b in zip(lo, hi))
    pw = np.zeros(block.shape)
    pw[window] = np.abs(block[window]) ** p_i
    offsets = np.array(list(np.ndindex(*([2] * d))), dtype=np.int64)
    active = np.zeros((1, d), dtype=np.int64)  # root-relative cube coordinates
    selected = []
    for level in range(root.level - 1, -1, -1):
        if not len(active):
            break
        n, side = 1 << (root.level - level), 1 << level
        # (cube index per axis..., cell index per axis...) view of the block
        cubes = pw.reshape((n, side) * d).transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2))
        children = (2 * active[:, None, :] + offsets).reshape(-1, d)
        rows = cubes[tuple(children.T)].reshape(len(children), -1)
        avg = np.sum(rows, axis=-1) * fr.box.cell_volume / (side * mesh) ** d
        above = avg > threshold_pow
        corner = np.array(root.coords, dtype=np.int64) << (root.level - level)
        selected += [DyadicCube(level, tuple(int(v) for v in c)) for c in children[above] + corner]
        active = children[~above & (avg > 0.0)]
    return selected


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
    if not (0.0 < p < np.inf):
        raise ValueError("p must lie in (0, inf)")
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
    root_level = max(r.level for r in roots)

    # output box: hull of the input box and the root cubes, so pieces keep
    # their out-of-box tails and the input embeds losslessly
    out_lo = np.min([f.box.origin, *(r.corner() for r in roots)], axis=0)
    out_hi = np.max([np.add(f.box.origin, f.box.extent),
                     *(np.add(r.corner(), r.side_cells) for r in roots)], axis=0)
    root_box = Box(f.box.dim, tuple(out_lo), tuple(out_hi - out_lo), f.box.mesh)
    fr = f.embed(root_box)

    if flagged:
        selected = roots
    else:
        selected = [c for root in roots for c in _descend(fr, root, p_i, threshold_pow, bounds)]
    pieces = []
    good = fr.samples.copy()
    for cube in sorted(selected, key=lambda c: (c.level, c.coords)):
        sl = cube_slices(root_box, cube)
        mean = float(np.sum(fr.samples[sl].ravel())) * root_box.cell_volume
        mean /= cube.volume(root_box.mesh, root_box.dim)
        piece = np.zeros(root_box.extent)
        piece[sl] = fr.samples[sl] - mean
        good[sl] = mean
        pieces.append((cube, Field(root_box, piece)))
    return CZOutput(good=Field(root_box, good), bad_pieces=tuple(pieces), p_i=p_i,
                    alpha=alpha, p=p, root_level=root_level, flagged=flagged)


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
    # cube mass and the maximality of each cube against its parent
    mean_tol = 1e-12 * max(1.0, lp_norm(f, 1.0))
    c5 = 2.0 ** (d + p_i)
    seen = np.zeros(f.box.extent, dtype=bool)
    disjoint = supp_ok = mean_ok = ok5 = maximal = True
    mean_worst = worst5 = total_q = 0.0
    for cube, piece in out.bad_pieces:
        sl, vol = cube_slices(f.box, cube), cube.volume(f.box.mesh, d)
        disjoint &= not np.any(seen[sl])
        seen[sl] = True
        supp_ok &= np.count_nonzero(piece.samples) == np.count_nonzero(piece.samples[sl])
        m = abs(float(np.sum(piece.samples)) * f.box.cell_volume)
        mean_worst = max(mean_worst, m)
        mean_ok &= not m > mean_tol
        lhs = lp_norm(piece, p_i) ** p_i
        rhs = c5 * (alpha**p) * vol
        worst5 = max(worst5, lhs / rhs if rhs else np.inf)
        ok5 &= not lhs > rhs * (1 + 1e-12)
        total_q += vol
        if cube.level < out.root_level:
            maximal &= not _cube_lp_avg_pow(f, cube.parent(), p_i) > alpha**p

    bad = out.bad
    err = float(np.abs(out.good.samples + bad.samples - f.samples).max())
    rhs6 = (alpha**-p) * lp_norm(f, p_i) ** p_i
    lhs7, rhs7 = lp_norm(bad, p_i), 2.0 ** ((d + p_i) / p_i) * lp_norm(f, p_i)
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
