"""Stopping-time decomposition of a field at a prescribed height.

``cz_decompose(f, p_i, alpha, p)`` selects maximal dyadic cubes whose
L^(p_i)-average exceeds ``alpha**(p/p_i)`` by descending from a coarse root
cube, then splits ``f`` into a bounded good part and mean-zero bad pieces on
the selected cubes.  ``cz_certify`` re-verifies the eight structural
properties with their explicit constants.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube
from .fields import Box, Field, _embed_slices

__all__ = ["CZOutput", "CZCertificate", "cz_decompose", "cz_certify", "format_cz_report"]

MAX_ROOT_CELLS = 1 << 22

# values held by one certifier block, a stack of root-box rows; a block holds
# at least one row, so a root box of more cells is certified a row at a time
_BLOCK_VALUES = 1 << 20


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


def _box_kinds(shape: np.ndarray, extent) -> list:
    """The boxes of each distinct shape (``(boxes, d)`` ints) in arrays of
    shape ``extent``, one ``d``-tuple for every box or one row per box:
    per kind ``(boxes, strides, offsets)``, with the row-major strides of
    their arrays and the flat offsets of a box's cells from its corner,
    row-major.  Boxes with an empty axis have no cells and are left out."""
    d = shape.shape[1]
    shared = isinstance(extent, tuple)
    members = {}  # grouped in Python: a few boxes per call, most of one kind
    keys = shape if shared else np.concatenate([shape, extent], axis=1)
    for i, key in enumerate(map(tuple, keys.tolist())):
        members.setdefault(key, []).append(i)
    kinds = []
    for key, boxes in members.items():
        if min(key[:d]) > 0:
            ext = extent if shared else key[d:]
            strides = [math.prod(ext[ax + 1 :]) for ax in range(d)]
            offsets = np.zeros(1, dtype=np.int64)
            for side, stride in zip(key[:d], strides):
                offsets = (offsets[:, None] + np.arange(0, side * stride, stride)).ravel()
            kinds.append((np.array(boxes), np.array(strides, dtype=np.int64), offsets))
    return kinds


def _cells(shape: np.ndarray, lo: np.ndarray, extent) -> tuple[np.ndarray, np.ndarray]:
    """Every cell of the boxes ``lo[i] + [0, shape[i])`` in arrays of shape
    ``extent`` (as for :func:`_box_kinds`), box after box and row-major in
    each box: ``(owner, flat)``, each cell's box and its row-major flat
    index in the box's array."""
    size = np.where((shape > 0).all(axis=1), shape.prod(axis=1), 0)
    start = np.cumsum(size) - size
    flat = np.empty(int(size.sum()), dtype=np.int64)
    for boxes, strides, offsets in _box_kinds(shape, extent):
        flat[start[boxes, None] + np.arange(offsets.size)] = (
            (lo[boxes] @ strides)[:, None] + offsets)
    return np.repeat(np.arange(len(shape)), size), flat


def _box_sums(values: np.ndarray, base: np.ndarray, shape, lo, extent) -> np.ndarray:
    """Per box i, the sum of ``values[base[i]:]``, read as an array of shape
    ``extent`` (as for :func:`_box_kinds`), over the box ``lo[i] + [0,
    shape[i])``; an empty box sums to 0.  The boxes of one shape are the
    rows of one C-contiguous block, each listing its cells row-major, so
    each sums as the ravel of its slice sums."""
    sums = np.zeros(len(shape))
    for boxes, strides, offsets in _box_kinds(shape, extent):
        sums[boxes] = values[(base[boxes] + lo[boxes] @ strides)[:, None] + offsets].sum(axis=-1)
    return sums


def _volumes(levels: np.ndarray, mesh: float, d: int) -> np.ndarray:
    """``DyadicCube.volume(mesh, d)`` of a cube at each of ``levels``."""
    table = [float(((1 << j) * mesh) ** d) for j in range(int(levels.max(initial=0)) + 1)]
    return np.array(table)[levels]


def _descend(flat: np.ndarray, first: np.ndarray, stride: np.ndarray, top: np.ndarray,
             thresholds: np.ndarray, mesh: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stopping time below roots at levels ``top``, one row per root:
    ``(root, level, first)`` of every selected cube, with ``first`` the
    index of its first cell in ``flat``, one pass per level for all roots.
    ``flat`` holds ``|f|^p_i`` on root boxes, each row-major with the
    strides ``stride`` of its root, from a root cube's first cell at
    ``first``.

    A root joins the descent at its own level.  Per level, the 2^d children
    of the active cubes of every root become rows listing their cells
    row-major, as ``cube_cell_values`` ravels them, gathered from ``flat``,
    so each row sums as the ravel of its cube sums (docs/notes.md, notes 8
    and 13).
    """
    d = stride.shape[1]
    # per root, the offset of each child's first cell from its parent's, per
    # unit of the child's side
    child_step = stride @ np.array(list(np.ndindex(*([2] * d))), dtype=np.int64).T
    cell_volume = float(mesh) ** d
    joins = {}  # the roots that join at each level
    for root, level in enumerate(top.tolist()):
        joins.setdefault(level, []).append(root)
    unit = at = np.zeros(0, dtype=np.int64)  # the active cubes: root, first cell
    found = [(unit, 0, at)]
    for level in range(max(joins, default=0) - 1, -1, -1):
        if level + 1 in joins:
            joining = np.array(joins[level + 1])
            unit, at = np.concatenate([unit, joining]), np.concatenate([at, first[joining]])
        if not unit.size:
            continue
        side = 1 << level
        owner = np.repeat(unit, child_step.shape[1])
        at = (at[:, None] + side * child_step[unit]).ravel()
        idx, step = at[:, None], np.arange(side)
        for ax in range(d):  # the cells of each child, row-major
            idx = (idx[:, :, None] + stride[owner, ax, None, None] * step).reshape(len(at), -1)
        rows = flat[idx]
        del idx
        avg = rows.sum(axis=-1) * cell_volume / (side * mesh) ** d
        above = avg > thresholds[owner]
        found.append((owner[above], level, at[above]))
        keep = ~above & (avg > 0.0)
        unit, at = owner[keep], at[keep]
    return (np.concatenate([root for root, _, _ in found]),
            np.repeat([level for _, level, _ in found], [len(root) for root, _, _ in found]),
            np.concatenate([at for _, _, at in found]))


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
    exponent ``p``, bit for bit, for fields of one mesh and dimension.

    Each step runs over every row at once (docs/notes.md, note 13): the
    support bounds and the roots; one climb, which moves every root still
    above its threshold up a level per step; the hull of each row's root
    box; one descent below the roots of every unflagged row; and one split.
    The climb reads ``|f|^p_i`` on each clipped cube in f's own box, and the
    split f on each selected cube in its root box, each cube's cells as one
    row of a block (:func:`_box_kinds`), so each sums as the ravel of its
    slice.
    """
    if not (0.0 < p < np.inf):
        raise ValueError("p must lie in (0, inf)")
    for _, p_i, alpha in rows:
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if not (1.0 <= p_i < np.inf):
            raise ValueError("p_i must lie in [1, inf)")
    mesh, d = rows[0][0].box.mesh, rows[0][0].box.dim
    if any(f.box.mesh != mesh or f.box.dim != d for f, _, _ in rows):
        raise ValueError("the fields must share one mesh and dimension")
    fields = _Fields([f for f, _, _ in rows], [p_i for _, p_i, _ in rows])
    threshold = np.array([float(alpha ** p) for _, _, alpha in rows])
    unit_row, level, coords = _roots(*fields.support_bounds())
    flagged_unit = _climb(fields, unit_row, level, coords, threshold)

    # root box: hull of the input box and the root cubes, so the input embeds
    # losslessly and every cube below a root is full in it
    first = np.searchsorted(unit_row, np.arange(len(rows)))  # every row has a root
    corner = coords << level[:, None]
    root_lo = np.minimum(fields.origin, np.minimum.reduceat(corner, first))
    root_ext = np.maximum(fields.origin + fields.extent,
                          np.maximum.reduceat(corner + (1 << level)[:, None], first)) - root_lo
    root_level = np.maximum.reduceat(level, first)
    flagged = np.logical_or.reduceat(flagged_unit, first)
    root_size = root_ext.prod(axis=1)
    root_base = np.cumsum(root_size) - root_size

    # f and |f|^p_i on the root boxes, zero-extended, one after another,
    # each row-major with the strides root_stride
    root_stride = np.ones_like(root_ext)
    for ax in range(d - 2, -1, -1):
        root_stride[:, ax] = root_stride[:, ax + 1] * root_ext[:, ax + 1]
    owner, f_at = _cells(fields.extent, fields.origin - root_lo, root_ext)
    f_at += root_base[owner]
    power = np.zeros(int(root_size.sum()))
    power[f_at] = fields.power

    # the descent below the roots of the unflagged rows; every cell off f's
    # box is |0|^p_i = +0.0 (p_i >= 1).  A flagged row keeps its roots as
    # its cubes.
    units = (~flagged[unit_row]).nonzero()[0]
    r = unit_row[units]
    first_cell = root_base[r] + ((corner[units] - root_lo[r]) * root_stride[r]).sum(axis=1)
    found, cube_level, at = _descend(power, first_cell, root_stride[r], level[units],
                                     threshold[r], mesh)
    del power
    cube_row = r[found]
    at -= root_base[cube_row]
    cube_coords = np.empty((len(at), d), dtype=np.int64)
    for ax in range(d):
        cube_coords[:, ax], at = np.divmod(at, root_stride[cube_row, ax])
    cube_coords = (cube_coords + root_lo[cube_row]) >> cube_level[:, None]
    kept = flagged[unit_row].nonzero()[0]
    cube_row = np.concatenate([cube_row, unit_row[kept]])
    cube_level = np.concatenate([cube_level, level[kept]])
    cube_coords = np.concatenate([cube_coords, coords[kept]])
    # each row's cubes in (level, coords) order, so the order of finding them
    # does not matter
    order = np.lexsort((*cube_coords.T[::-1], cube_level, cube_row))
    cube_row, cube_level, cube_coords = cube_row[order], cube_level[order], cube_coords[order]

    # the split: each cube's mean is the sum of its ravelled cube slice, times
    # the cell volume, over the cube's volume.  The cubes of a row are
    # disjoint, so f on the root box becomes the good part in place.
    good, pieces = np.zeros(int(root_size.sum())), [None] * len(cube_row)
    good[f_at] = fields.samples
    cube_side = np.repeat((1 << cube_level)[:, None], d, axis=1)
    cube_lo = (cube_coords << cube_level[:, None]) - root_lo[cube_row]
    for boxes, strides, offsets in _box_kinds(cube_side, root_ext[cube_row]):
        at = (root_base[cube_row[boxes]] + cube_lo[boxes] @ strides)[:, None] + offsets
        cells = good[at]
        mean = cells.sum(axis=-1) * fields.cell_volume / _volumes(cube_level[boxes], mesh, d)
        good[at] = mean[:, None]
        cells -= mean[:, None]
        for k, piece in zip(boxes.tolist(), cells):
            pieces[k] = piece

    outs, ends = [], np.searchsorted(cube_row, np.arange(len(rows) + 1)).tolist()
    cubes = [(DyadicCube(lv, tuple(c)), Box(d, lo, (side,) * d, mesh)) for lv, c, lo, side in zip(
        cube_level.tolist(), cube_coords.tolist(), (cube_coords << cube_level[:, None]).tolist(),
        (1 << cube_level).tolist())]
    for i, (_, p_i, alpha) in enumerate(rows):
        box = Box(d, root_lo[i].tolist(), root_ext[i].tolist(), mesh)
        bad = [(cube, Field(cube_box, pieces[k]))
               for k, (cube, cube_box) in enumerate(cubes[ends[i] : ends[i + 1]], ends[i])]
        good_i = good[root_base[i] : root_base[i] + root_size[i]]
        outs.append(CZOutput(good=Field(box, good_i), bad_pieces=tuple(bad), p_i=p_i,
                             alpha=alpha, p=p, root_level=int(root_level[i]),
                             flagged=bool(flagged[i])))
    return outs


class _Fields:
    """The samples of many fields of one mesh and dimension, one flat array
    box after box, each row-major, and ``|f|^p_i`` on every cell."""

    def __init__(self, fields, p_i):
        self.d, self.mesh, self.cell_volume = (fields[0].box.dim, fields[0].box.mesh,
                                               fields[0].box.cell_volume)
        self.origin = np.array([f.box.origin for f in fields], dtype=np.int64)
        self.extent = np.array([f.box.extent for f in fields], dtype=np.int64)
        size = self.extent.prod(axis=1)
        self.base = np.cumsum(size) - size
        self.samples = np.concatenate([f.samples.ravel() for f in fields])
        self.power = np.abs(self.samples)
        exponent = np.repeat(p_i, size)
        for e in set(p_i):
            at = exponent == e
            self.power[at] = self.power[at] ** e

    def support_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The lattice bounds ``(lo, hi)`` of each field's support."""
        nonzero = self.samples.nonzero()[0]
        row = np.searchsorted(self.base, nonzero, side="right") - 1
        count = np.bincount(row, minlength=len(self.base))
        if not count.all():
            raise ValueError("cannot decompose the zero field")
        points = np.empty((nonzero.size, self.d), dtype=np.int64)
        rank = nonzero - self.base[row]
        for ax in range(self.d - 1, -1, -1):
            rank, points[:, ax] = np.divmod(rank, self.extent[row, ax])
        points += self.origin[row]
        first = np.cumsum(count) - count
        return np.minimum.reduceat(points, first), np.maximum.reduceat(points, first)

    def cube_power_sums(self, row, level, coords) -> np.ndarray:
        """The sum of ``|f|^p_i`` over each cube ∩ box of field ``row``."""
        corner = coords << level[:, None]
        lo = np.maximum(corner, self.origin[row])
        hi = np.minimum(corner + (1 << level)[:, None], self.origin[row] + self.extent[row])
        shape = hi - lo
        return _box_sums(self.power, self.base[row], shape, lo - self.origin[row],
                         self.extent[row])


def _roots(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, level, coords)`` of the covering cube of each orthant piece of
    the lattice boxes ``[lo, hi]``, one per row: dyadic cubes never straddle
    the origin.  The pieces come in the order of ``orthant_regions``: per
    axis the part below 0, then the part from 0."""
    upper = np.array(list(np.ndindex(*([2] * lo.shape[1]))), dtype=bool)
    piece_lo = np.where(upper, np.maximum(lo, 0)[:, None], lo[:, None])
    piece_hi = np.where(upper, hi[:, None], np.minimum(hi, -1)[:, None])
    row, which = np.nonzero((piece_lo <= piece_hi).all(axis=2))
    piece_lo, piece_hi = piece_lo[row, which], piece_hi[row, which]
    # the covering level: past the highest bit in which lo and hi differ
    level = np.frexp((piece_lo ^ piece_hi).astype(float))[1].max(axis=1).astype(np.int64)
    return row, level, piece_lo >> level[:, None]


def _climb(fields: _Fields, row, level, coords, threshold) -> np.ndarray:
    """Move each root of ``(row, level, coords)`` up, in place, while its
    average of ``|f|^p_i`` over the clipped cube ∩ box exceeds its row's
    threshold: every root still climbing moves one level per step.  Returns
    which roots stopped at a cube of more than ``MAX_ROOT_CELLS`` cells."""
    flagged = np.zeros(len(row), dtype=bool)
    climbing = np.arange(len(row))
    while climbing.size:
        r, lv = row[climbing], level[climbing]
        avg = fields.cube_power_sums(r, lv, coords[climbing])
        avg = avg * fields.cell_volume / _volumes(lv, fields.mesh, fields.d)
        climbing = climbing[avg > threshold[r]]
        level[climbing] += 1
        coords[climbing] >>= 1
        too_big = (1 << (level[climbing] * fields.d)) > MAX_ROOT_CELLS
        flagged[climbing[too_big]] = True
        climbing = climbing[~too_big]
    return flagged


def cz_certify(out: CZOutput, f: Field) -> CZCertificate:
    """Re-check the eight decomposition properties against the original field.

    Constants: (v) 2^(d+p_i), (vi) 1 (selection is sharp), (vii)
    2^((d+p_i)/p_i), (viii) 1 for the L^(p_i) bound and 2^(d/p_i) for the
    sup bound.  Margins report bound/value (inf when the value vanishes).
    The one-row view of :func:`_certify_rows`.
    """
    return _certify_rows([out], [f])[0]


def _certify_rows(outs, fs) -> list[CZCertificate]:
    """:func:`cz_certify` of every ``(out, f)`` pair, bit for bit.

    The rows are grouped by root box extent, mesh and p_i.  Per group, f on
    the root box, the good part and the bad part are stacked into
    C-contiguous ``(rows, root cells)`` blocks, and each piece is written
    into its own zeroed row of a ``(pieces, root cells)`` block, so every sum
    runs over a root-box row as over the root-box array it stands for, and
    every power is the group's scalar power (docs/notes.md, notes 8 and 13).
    A piece whose box leaves the root box raises ValueError, as does an f
    whose box does.
    """
    groups, heights, slices = {}, [], []
    for i, (out, f) in enumerate(zip(outs, fs)):
        box = out.good.box
        slices.append(_embed_slices(box, f.box))  # f's cells in the root box, as f.embed takes them
        heights.append(float(out.alpha ** (out.p / out.p_i)))
        if not out.p_i > 0:
            raise ValueError(f"p must be positive, got {out.p_i}")
        groups.setdefault((box.extent, box.mesh, out.p_i), []).append(i)
    certs = [None] * len(outs)
    for key, rows in groups.items():
        group = _certify_group([outs[i] for i in rows], [(fs[i], slices[i]) for i in rows],
                               [heights[i] for i in rows], *key)
        for i, cert in zip(rows, group):
            certs[i] = cert
    return certs


def _certify_group(outs, fs, heights, extent, mesh, p_i) -> list[CZCertificate]:
    """The certificates of rows that share a root box extent, mesh and p_i,
    at the heights alpha^(p/p_i): ``fs`` holds each f and the slices of its
    cells in the root box.  The L^p_i norms are (sum |x|^p_i h^d)^(1/p_i),
    and max |x| for p_i = inf, as ``lp_norm`` takes them."""
    d, cells, n = len(extent), math.prod(extent), len(outs)
    cell_volume = float(mesh) ** d
    roots = np.array([(*out.good.box.origin, out.root_level) for out in outs], dtype=np.int64)
    root_lo, root_level = roots[:, :d], roots[:, d]

    # the pieces, row after row: their boxes and cubes
    pieces = [(cube, piece) for out in outs for cube, piece in out.bad_pieces]
    if any(piece.box.mesh != mesh or piece.box.dim != d for _, piece in pieces):
        raise ValueError("embedding requires the same mesh and dimension")
    counts = [len(out.bad_pieces) for out in outs]
    first = np.cumsum([0, *counts]).tolist()
    row = np.repeat(np.arange(n), counts)
    info = np.array([(*piece.box.origin, *piece.box.extent, cube.level, *cube.coords)
                     for cube, piece in pieces], dtype=np.int64).reshape(-1, 3 * d + 1)
    lo, shape, level, coords = (info[:, :d] - root_lo[row], info[:, d : 2 * d], info[:, 2 * d],
                                info[:, 2 * d + 1 :])
    if (lo < 0).any() or (lo + shape > extent).any():
        raise ValueError("target box does not contain the field's box")
    cube_lo = (coords << level[:, None]) - root_lo[row]
    cube_hi = cube_lo + (1 << level)[:, None]
    # ii: two cubes overlap when both meet the root box and one holds the other
    meets = (np.minimum(cube_hi, extent) > np.maximum(cube_lo, 0)).all(axis=1)
    overlap = _nested_rows(row[meets], level[meets], coords[meets], n)
    leaks = np.zeros(len(pieces), dtype=bool)  # iii: a nonzero outside the cube
    spills = ~((lo >= cube_lo) & (lo + shape <= cube_hi)).all(axis=1)  # the box leaves the cube
    piece_sums = np.zeros((2, len(pieces)))  # iv and v: sum, and |x|^p_i sum or max

    # maximality: each parent's p_i-average, read from f on the root box
    # through the parent cube's slice
    parent = (level < root_level[row]).nonzero()[0]
    parent_level = level[parent] + 1
    parent_lo = ((coords[parent] >> 1) << parent_level[:, None]) - root_lo[row[parent]]
    parent_shape = np.minimum(parent_lo + (1 << parent_level)[:, None], extent)
    parent_lo = np.maximum(parent_lo, 0)
    parent_shape -= parent_lo
    parent_avg = np.zeros(len(parent))

    # per block of rows: max |f|, sum |f|, the L^p_i terms of f, of the bad
    # and of the good part, max |good + bad - f| and max |good|
    closing = np.zeros((7, n))
    per = max(1, _BLOCK_VALUES // cells)
    for r0 in range(0, n, per):
        r1 = min(n, r0 + per)
        a = np.zeros((r1 - r0, *extent))
        for k, (f, sl) in enumerate(fs[r0:r1]):
            np.abs(f.samples, out=a[(k, *sl)])
        a = a.reshape(r1 - r0, cells)
        closing[0, r0:r1] = a.max(axis=1)
        closing[1, r0:r1] = a.sum(axis=-1)  # lp_norm(f, 1.0): |x|^1.0 is |x| exactly
        closing[2, r0:r1] = _lp_terms(a, p_i, keep=True)
        mine = ((row[parent] >= r0) & (row[parent] < r1)).nonzero()[0]
        parent_avg[mine] = _box_sums(a.ravel(), (row[parent[mine]] - r0) * cells,
                                     parent_shape[mine], parent_lo[mine], extent)
        del a
        # each piece written into its own zeroed root-box row, and added in
        # order into the bad part, as ``_bad_samples`` adds it
        bad = np.zeros((r1 - r0, cells))
        for q0 in range(first[r0], first[r1], per):
            q1 = min(first[r1], q0 + per)
            owner, at = _cells(shape[q0:q1], lo[q0:q1], extent)
            q = q0 + owner
            values = np.concatenate([piece.samples.ravel() for _, piece in pieces[q0:q1]])
            if spills[q0:q1].any():  # a piece on a box inside its cube cannot leak
                inside, rest = True, at
                for ax in range(d - 1, -1, -1):
                    rest, x = np.divmod(rest, extent[ax])
                    inside = inside & (x >= cube_lo[q, ax]) & (x < cube_hi[q, ax])
                leaks[q[(values != 0.0) & ~inside]] = True
            np.add.at(bad.ravel(), (row[q] - r0) * cells + at, values)
            at += owner * cells
            block = np.zeros((q1 - q0, cells))
            block.ravel()[at] = values
            piece_sums[0, q0:q1] = block.sum(axis=-1)
            piece_sums[1, q0:q1] = _lp_terms(np.abs(block, out=block), p_i)
            del block
        closing[3, r0:r1] = _lp_terms(np.abs(bad), p_i)
        good = np.array([out.good.samples.ravel() for out in outs[r0:r1]])
        bad += good
        shaped = bad.reshape(-1, *extent)
        for k, (f, sl) in enumerate(fs[r0:r1]):
            shaped[(k, *sl)] -= f.samples  # f is +0.0 off its box, and x - 0.0 is x
        closing[4, r0:r1] = np.abs(bad, out=bad).max(axis=1)
        del bad, shaped
        a = np.abs(good, out=good)
        closing[5, r0:r1] = a.max(axis=1)
        closing[6, r0:r1] = _lp_terms(a, p_i)
        del a, good
    volume = _volumes(np.arange(int(level.max(initial=0)) + 2), mesh, d)  # per level
    parent_avg *= cell_volume
    parent_avg /= volume[parent_level]
    thresholds = np.array([out.alpha ** out.p for out in outs])
    not_maximal = np.zeros(n, dtype=bool)
    not_maximal[row[parent][parent_avg > thresholds[row[parent]]]] = True

    # the verdicts and margins, in the float operations of the one-row checks
    def norm(terms: float) -> float:
        return terms if p_i == np.inf else float((terms * cell_volume) ** (1.0 / p_i))

    fmax, f1, fp, badp, err, gmax, gp = closing.tolist()
    sums, terms = piece_sums.tolist()
    volumes = volume[level].tolist()
    c5 = 2.0 ** (d + p_i)
    certs = []
    for i, out in enumerate(outs):
        alpha, p = out.alpha, out.p
        tol = 1e-12 * max(1.0, fmax[i])
        mean_tol = 1e-12 * max(1.0, f1[i] * cell_volume)
        mean_ok = ok5 = True
        mean_worst = worst5 = total_q = 0.0
        for k in range(first[i], first[i + 1]):
            m = abs(sums[k] * cell_volume)
            mean_worst = max(mean_worst, m)
            mean_ok &= not m > mean_tol
            lhs = norm(terms[k]) ** p_i
            rhs = c5 * (alpha**p) * volumes[k]
            worst5 = max(worst5, lhs / rhs if rhs else np.inf)
            ok5 &= not lhs > rhs * (1 + 1e-12)
            total_q += volumes[k]
        norm_f = norm(fp[i])
        rhs6 = (alpha**-p) * norm_f ** p_i
        lhs7 = norm(badp[i])
        rhs7 = 2.0 ** ((d + p_i) / p_i) * norm_f
        lhs8a, rhs8a = norm(gp[i]), norm_f
        lhs8b, rhs8b = gmax[i], 2.0 ** (d / p_i) * heights[i]
        checks = [  # (check, verdict, margin)
            ("i_reconstruction", err[i] <= tol, err[i]),
            ("ii_disjoint_cubes", not overlap[i], 0.0),
            ("iii_support", not leaks[first[i] : first[i + 1]].any(), 0.0),
            ("iv_mean_zero", mean_ok, mean_worst),
            ("v_piece_size", ok5, worst5),
            ("vi_cube_mass", total_q <= rhs6 * (1 + 1e-12), total_q / rhs6 if rhs6 else 0.0),
            ("vii_bad_total", lhs7 <= rhs7 * (1 + 1e-12), lhs7 / rhs7 if rhs7 else 0.0),
            ("viii_good_bounds", lhs8a <= rhs8a * (1 + 1e-12) and lhs8b <= rhs8b * (1 + 1e-12),
             max(lhs8a / rhs8a if rhs8a else 0.0, lhs8b / rhs8b if rhs8b else 0.0)),
            ("maximality", not not_maximal[i] or out.flagged, 0.0),
        ]
        certs.append(CZCertificate({name: bool(ok) for name, ok, _ in checks},
                                   {name: m for name, _, m in checks}))
    return certs


def _lp_terms(a: np.ndarray, p_i: float, keep: bool = False) -> np.ndarray:
    """Per row of the C-contiguous 2-D ``a``, which holds |x|: the sum of
    |x|^p_i, or max |x| for p_i = inf, the terms of ``lp_norm``.  ``a`` is
    raised to p_i in place, also for p_i = inf when ``keep``.  Only the
    nonzero values are raised: |0|^p_i is +0.0 for p_i > 0, and zeros are
    the slow case of the power."""
    terms = a.max(axis=1) if p_i == np.inf else None
    if terms is None or keep:
        flat = a.ravel()
        nonzero = flat.nonzero()[0]
        flat[nonzero] = flat[nonzero] ** p_i
    return a.sum(axis=-1) if terms is None else terms


def _kinds(key: np.ndarray) -> np.ndarray:
    """One id per row of a 2-D int array, equal for equal rows, from 0 up."""
    order = np.lexsort(key.T)
    new = np.ones(len(key), dtype=bool)
    new[1:] = (key[order[1:]] != key[order[:-1]]).any(axis=1)
    kind = np.empty(len(key), dtype=np.int64)
    kind[order] = np.cumsum(new) - 1
    return kind


def _nested_rows(row: np.ndarray, level: np.ndarray, coords: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``n``, whether two of its dyadic cubes overlap.  Two dyadic
    cubes overlap only when one contains the other, so a row overlaps when
    one of its cubes repeats or an ancestor of one is among them."""
    hit = np.zeros(n, dtype=bool)
    if row.size < 2:
        return hit
    m, d = coords.shape
    up = np.arange(int(level.max() - level.min()) + 1)  # 0: the cube itself
    keys = np.empty((m, up.size, 2 + d), dtype=np.int64)
    keys[..., 0] = row[:, None]
    keys[..., 1] = level[:, None] + up
    keys[..., 2:] = coords[:, None, :] >> up[None, :, None]
    kind = _kinds(keys.reshape(-1, 2 + d)).reshape(m, up.size)
    repeats = np.bincount(kind[:, 0], minlength=kind.size)
    hit[row[(repeats[kind[:, 0]] > 1) | (repeats[kind[:, 1:]] > 0).any(axis=1)]] = True
    return hit


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
