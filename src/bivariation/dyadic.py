"""Dyadic cube indexing on the integer lattice, anchored at the origin.

At level ``j >= 0`` the cubes have side ``2**j`` cells and corners at lattice
multiples of ``2**j``; cube coordinates are floor-divided lattice coordinates.
The grid is anchored at 0, so dyadic structure is translation-sensitive by
construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .fields import Field

__all__ = [
    "DyadicCube",
    "covering_level",
    "level_range",
    "cube_cell_values",
]


@dataclass(frozen=True)
class DyadicCube:
    """Cube of side ``2**level`` cells with lattice corner ``coords * 2**level``."""

    level: int
    coords: tuple[int, ...]

    @property
    def side_cells(self) -> int:
        return 1 << self.level

    def corner(self) -> tuple[int, ...]:
        return tuple(c << self.level for c in self.coords)

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.level + 1, tuple(c >> 1 for c in self.coords))

    def volume(self, mesh: float, dim: int) -> float:
        return (self.side_cells * mesh) ** dim


def covering_level(lo, hi) -> int:
    """Smallest j >= 0 for which a single level-j cube contains [lo, hi] (lattice).

    Raises for ranges spanning the origin on some axis: cubes of the
    origin-anchored dyadic grid never straddle 0.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.int64)).tolist()
    hi = np.atleast_1d(np.asarray(hi, dtype=np.int64)).tolist()
    if any(a < 0 <= b for a, b in zip(lo, hi)):
        raise ValueError("no dyadic cube contains a range spanning the origin")
    # a >> j == b >> j from the first j past the highest bit where a and b differ
    return max((a ^ b).bit_length() for a, b in zip(lo, hi))


def orthant_regions(lo, hi) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Split a lattice bounding box [lo, hi] into its per-orthant pieces
    ``(lo, hi)``; no cube straddles 0, so each piece has a covering level."""
    per_axis = [[(a, -1), (0, b)] if a < 0 <= b else [(a, b)]
                for a, b in zip(map(int, lo), map(int, hi))]
    return [tuple(zip(*combo)) for combo in itertools.product(*per_axis)]


def level_range(box) -> tuple[int, int]:
    """Default level ladder (0, top) for a box: cells up to one level above the
    level where its cube partition becomes final, the covering level of its
    coarsest orthant piece; conditional expectations stabilize beyond it."""
    hi = [o + e - 1 for o, e in zip(box.origin, box.extent)]
    return 0, max(covering_level(a, b) for a, b in orthant_regions(box.origin, hi)) + 1


def cell_cube_ids(box, level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat cube slot per cell plus the cube coordinate table.

    Returns ``(ids, table, ncubes)`` where ``ids`` maps each cell (row-major)
    to a slot in ``table`` of cube coordinates, covering exactly the cubes
    that intersect the box.  Along each axis those cubes have consecutive
    coordinates, so the slots number a dense cube grid of shape
    ``table[-1] - table[0] + 1`` row-major, and ``ncubes == 1`` exactly when
    one cube covers the box.  Results are memoized per (box, level) and the
    arrays are read-only.
    """
    # a plain function around the memo, so call tracers (perfbench/) still see each call
    return _cube_layout(box, level)[:3]


def cells_by_cube(box, level: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the flat row-major cell indices grouped by cube
    slot, row-major within each cube, and the offset in ``order`` of each
    slot's first cell (every slot holds at least one cell).  Shares the memo
    of :func:`cell_cube_ids`."""
    return _cube_layout(box, level)[3:]


@functools.lru_cache(maxsize=128)
def cells_by_cube_size(box, level: int) -> tuple[np.ndarray, ...]:
    """The cells of the level cubes meeting the box, grouped by how many of
    their cells lie in the box: one read-only ``(cubes, size)`` array of flat
    row-major cell indices per distinct size, sizes increasing, cubes in slot
    order and each row as :func:`cells_by_cube` lists it.  Memoized per
    (box, level) apart from the layout, so only its callers pay for it."""
    order, starts = cells_by_cube(box, level)
    sizes = np.diff(starts, append=order.size)
    groups = tuple(order[starts[sizes == size, None] + np.arange(size)]
                   for size in np.unique(sizes))
    for g in groups:
        g.flags.writeable = False
    return groups


@functools.lru_cache(maxsize=128)
def _cube_layout(box, level: int):
    # per axis, the cube coordinate of each cell: consecutive from q[0] to q[-1]
    axes = [np.arange(o, o + e, dtype=np.int64) >> np.int64(level)
            for o, e in zip(box.origin, box.extent)]
    shape = tuple(int(q[-1] - q[0]) + 1 for q in axes)
    slots = np.meshgrid(*[q - q[0] for q in axes], indexing="ij")
    ids = np.ravel_multi_index(slots, shape).ravel()
    grids = np.meshgrid(*[np.arange(q[0], q[-1] + 1) for q in axes], indexing="ij")
    table = np.stack([g.ravel() for g in grids], axis=-1)
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(len(table)))
    for a in (ids, table, order, starts):
        a.flags.writeable = False
    return ids, table, len(table), order, starts


def cube_slices(box, cube: DyadicCube) -> tuple[slice, ...]:
    """Per-axis slices of the box's sample array that the cube covers; all
    empty when the cube misses the box."""
    sl = []
    for o, e, c in zip(box.origin, box.extent, cube.coords):
        a = max(c << cube.level, o)
        b = min((c + 1) << cube.level, o + e)
        if a >= b:
            return (slice(0, 0),) * box.dim
        sl.append(slice(a - o, b - o))
    return tuple(sl)


def cube_cell_values(f: "Field", cube: DyadicCube) -> np.ndarray:
    """In-box sample values of one cube (cells outside the box are implicit zeros)."""
    return f.samples[cube_slices(f.box, cube)].ravel()
