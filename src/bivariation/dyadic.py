"""Dyadic cube indexing on the integer lattice, anchored at the origin.

At level ``j >= 0`` the cubes have side ``2**j`` cells and corners at lattice
multiples of ``2**j``; cube coordinates are floor-divided lattice coordinates.
The grid is anchored at 0, so dyadic structure is translation-sensitive by
construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .fields import Field

__all__ = [
    "DyadicCube",
    "cube_coords",
    "cube_of",
    "covering_level",
    "level_range",
    "single_cube_covers_box",
    "iter_cubes",
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

    def physical_side(self, mesh: float) -> float:
        return self.side_cells * mesh

    def volume(self, mesh: float, dim: int) -> float:
        return (self.side_cells * mesh) ** dim


def cube_coords(lattice: np.ndarray, level: int) -> np.ndarray:
    """Cube coordinates of lattice points (floor division, correct for negatives)."""
    return np.asarray(lattice, dtype=np.int64) >> np.int64(level)


def cube_of(lattice, level: int) -> DyadicCube:
    lat = np.atleast_1d(np.asarray(lattice, dtype=np.int64))
    return DyadicCube(level, tuple(int(c) for c in cube_coords(lat, level)))


def covering_level(lo, hi) -> int:
    """Smallest j >= 0 for which a single level-j cube contains [lo, hi] (lattice).

    Raises for ranges spanning the origin on some axis: cubes of the
    origin-anchored dyadic grid never straddle 0.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.int64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.int64))
    if np.any((lo < 0) & (hi >= 0)):
        raise ValueError("no dyadic cube contains a range spanning the origin")
    j = 0
    while not np.array_equal(lo >> j, hi >> j):
        j += 1
        if j > 62:
            raise OverflowError("no covering level below 2**62")
    return j


def level_range(box) -> tuple[int, int]:
    """Default level ladder (0, top) for a box: cells up to one level above the
    box size; conditional expectations stabilize beyond it."""
    top = int(np.ceil(np.log2(max(box.extent)))) if max(box.extent) > 1 else 0
    return 0, top + 1


def single_cube_covers_box(box, level: int) -> bool:
    lo = np.asarray(box.origin, dtype=np.int64)
    hi = lo + np.asarray(box.extent, dtype=np.int64) - 1
    return bool(np.array_equal(lo >> level, hi >> level))


def _axis_groups(box, level: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # per axis: (unique cube coords, inverse map cell -> cube slot)
    out = []
    for o, e in zip(box.origin, box.extent):
        q = np.arange(o, o + e, dtype=np.int64) >> np.int64(level)
        uq, inv = np.unique(q, return_inverse=True)
        out.append((uq, inv))
    return out


def cell_cube_ids(box, level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat cube slot per cell plus the cube coordinate table.

    Returns ``(ids, table, ncubes)`` where ``ids`` maps each cell (row-major)
    to a slot in ``table`` of cube coordinates, covering exactly the cubes
    that intersect the box.  Results are memoized per (box, level) and the
    arrays are read-only.
    """
    # a plain function around the memo, so call tracers (perfbench/) still see each call
    return _cell_cube_ids(box, level)


@functools.lru_cache(maxsize=128)
def _cell_cube_ids(box, level: int) -> tuple[np.ndarray, np.ndarray, int]:
    groups = _axis_groups(box, level)
    shape = tuple(len(uq) for uq, _ in groups)
    ids = np.zeros(box.extent, dtype=np.int64)
    for axis, (_, inv) in enumerate(groups):
        sl = [None] * box.dim
        sl[axis] = slice(None)
        ids = ids * shape[axis] + inv[tuple(sl)]
    grids = np.meshgrid(*[uq for uq, _ in groups], indexing="ij")
    table = np.stack([g.ravel() for g in grids], axis=-1)
    ids = ids.ravel()
    ids.flags.writeable = False
    table.flags.writeable = False
    return ids, table, int(np.prod(shape))


def iter_cubes(f: "Field", level: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (cube coords, in-box sample values) for level cubes meeting the box."""
    ids, table, ncubes = cell_cube_ids(f.box, level)
    flat = f.samples.ravel()
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.searchsorted(sorted_ids, np.arange(ncubes))
    ends = np.append(starts[1:], flat.size)
    for c in range(ncubes):
        yield tuple(int(v) for v in table[c]), flat[order[starts[c] : ends[c]]]


def cube_cell_values(f: "Field", cube: DyadicCube) -> np.ndarray:
    """In-box sample values of one cube (cells outside the box are implicit zeros)."""
    sl = []
    for o, e, c in zip(f.box.origin, f.box.extent, cube.coords):
        a = max(c << cube.level, o)
        b = min(((c + 1) << cube.level), o + e)
        if a >= b:
            return np.empty(0)
        sl.append(slice(a - o, b - o))
    return f.samples[tuple(sl)].ravel()
