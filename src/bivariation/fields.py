"""Finite-support real fields on integer boxes, with the norms used everywhere else.

A field is a real-valued function sampled on an axis-aligned integer box
``origin + [0, extent)`` with mesh width ``h``; it is extended by zero outside
its box.  The cell at multi-index ``m`` sits at the lattice point
``origin + m`` and carries measure ``h**d``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dyadic import cell_cube_ids, cells_by_cube_size, level_range

__all__ = [
    "Box",
    "Field",
    "lp_norm",
    "weak_lp_quasinorm",
    "bmo_dyadic_norm",
    "write_ndf1",
    "read_ndf1",
    "export_csv",
    "import_csv",
]

NDF1_MAGIC = b"NDF1"


@dataclass(frozen=True)
class Box:
    """Axis-aligned integer box: ``dim`` axes, cells ``origin + [0, extent)``, mesh ``h``."""

    dim: int
    origin: tuple[int, ...]
    extent: tuple[int, ...]
    mesh: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "origin", tuple(int(o) for o in self.origin))
        object.__setattr__(self, "extent", tuple(int(e) for e in self.extent))
        if len(self.origin) != self.dim or len(self.extent) != self.dim:
            raise ValueError("origin/extent length must equal dim")
        if any(e < 1 for e in self.extent):
            raise ValueError("extent components must be >= 1")
        if not (self.mesh > 0 and np.isfinite(self.mesh)):
            raise ValueError("mesh must be a positive finite real")

    @property
    def cell_count(self) -> int:
        return math.prod(self.extent)

    @property
    def cell_volume(self) -> float:
        return float(self.mesh) ** self.dim

    def lattice_axes(self) -> list[np.ndarray]:
        """Per-axis lattice coordinates of the cells."""
        return [np.arange(o, o + e, dtype=np.int64) for o, e in zip(self.origin, self.extent)]


@dataclass(frozen=True)
class Field:
    """Samples on a :class:`Box`, stored row-major, zero outside the box."""

    box: Box
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.size != self.box.cell_count:
            raise ValueError(
                f"sample count {arr.size} does not match box cell count {self.box.cell_count}"
            )
        arr = arr.reshape(self.box.extent).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def zeros(cls, box: Box) -> "Field":
        return cls(box, np.zeros(box.extent))

    def values_at(self, lattice: np.ndarray) -> np.ndarray:
        """Values at integer lattice coordinates (…, dim), zero outside the box."""
        lattice = np.asarray(lattice, dtype=np.int64)
        # the row-major flat index, built axis by axis
        inside, flat = True, 0
        for ax, (o, e) in enumerate(zip(self.box.origin, self.box.extent)):
            i = lattice[..., ax] - o
            inside = inside & (i >= 0) & (i < e)
            flat = flat * e + i
        return np.where(inside, self.samples.ravel()[np.where(inside, flat, 0)], 0.0)

    def embed(self, box: Box) -> "Field":
        """Re-home onto a containing box (same mesh); new cells are zeros."""
        sl = _embed_slices(box, self.box)
        out = np.zeros(box.extent)
        out[sl] = self.samples
        return Field(box, out)

    def support_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Lattice (lo, hi) bounds of the nonzero cells, or None for the zero field."""
        nz = np.nonzero(self.samples)
        if nz[0].size == 0:
            return None
        lo = np.array([int(ax.min()) + o for ax, o in zip(nz, self.box.origin)])
        hi = np.array([int(ax.max()) + o for ax, o in zip(nz, self.box.origin)])
        return lo, hi


def _embed_slices(outer: Box, inner: Box) -> tuple[slice, ...]:
    """The slices of ``outer``'s sample array that ``inner``'s cells occupy;
    raises ValueError unless ``outer`` contains ``inner`` at the same mesh
    and dimension."""
    if outer.mesh != inner.mesh or outer.dim != inner.dim:
        raise ValueError("embedding requires the same mesh and dimension")
    for o_new, o_old, e_new, e_old in zip(outer.origin, inner.origin, outer.extent, inner.extent):
        if o_new > o_old or o_new + e_new < o_old + e_old:
            raise ValueError("target box does not contain the field's box")
    return tuple(slice(o_old - o_new, o_old - o_new + e_old)
                 for o_new, o_old, e_old in zip(outer.origin, inner.origin, inner.extent))


def lp_norm(f: Field, p: float) -> float:
    """(sum |f|^p h^d)^(1/p); max |f| for p = inf.  Rejects p <= 0."""
    return _lp_norm(f.samples, f.box.cell_volume, p)


def _lp_norm(samples: np.ndarray, cell_volume: float, p: float) -> float:
    """:func:`lp_norm` of the samples of a field whose cells have measure
    ``cell_volume``."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    a = np.abs(samples)
    if np.isinf(p):
        return float(a.max()) if a.size else 0.0
    return float((np.sum(a**p) * cell_volume) ** (1.0 / p))


def weak_lp_quasinorm(f: Field, p: float) -> float:
    """sup over lambda of lambda * |{|f| > lambda}|^(1/p), exact on the sample levels.

    The sup equals max_i v_i * (i * h^d)^(1/p) with v_i the i-th largest |sample|
    (the level sets are right-continuous steps, so the sup is attained from below
    at each distinct sample value).
    """
    return _weak_lp_quasinorm(f.samples, f.box.cell_volume, p)


def _weak_lp_quasinorm(samples: np.ndarray, cell_volume: float, p: float) -> float:
    """:func:`weak_lp_quasinorm` of the samples of a field whose cells have
    measure ``cell_volume``."""
    if not (p > 0 and np.isfinite(p)):
        raise ValueError(f"p must be a positive finite real, got {p}")
    a = np.sort(np.abs(samples), axis=None)[::-1]
    if a.size == 0 or a[0] == 0.0:
        return 0.0
    ranks = np.arange(1, a.size + 1, dtype=np.float64)
    return float(np.max(a * (ranks * cell_volume) ** (1.0 / p)))


def bmo_dyadic_norm(f: Field) -> float:
    """Sup over dyadic cubes of the minimal mean absolute oscillation.

    Cubes have side ``2^j * h`` and corners at lattice multiples of ``2^j``;
    oscillation on a cube is taken over its in-box samples with the minimizing
    constant a median of those samples, so box-constant fields have norm 0.
    The scan runs over the ``level_range`` levels; coarser cubes repeat in-box
    sample sets already seen.  The one-row view of :func:`_bmo_rows`.
    """
    return float(_bmo_rows(f.box, f.samples.reshape(1, -1))[0])


def _bmo_rows(box: Box, rows: np.ndarray) -> np.ndarray:
    """``bmo_dyadic_norm`` of each row of ``rows`` (P, cells), samples of a
    field on ``box`` in row-major order, bit for bit (docs/notes.md, note 11).

    Only levels that can raise the sup are scanned: level 0, whose one-cell
    cubes oscillate by exactly 0, and any level with as many cubes as the
    level below it, whose in-box cell sets are then the same, are skipped.
    """
    best = np.zeros(len(rows))
    _, j_top = level_range(box)
    below = box.cell_count  # the cubes of level 0
    for level in range(1, j_top + 1):
        ncubes = cell_cube_ids(box, level)[2]
        if ncubes == below:
            continue
        below = ncubes
        for cells in cells_by_cube_size(box, level):
            cubes, size = cells.shape
            # C-contiguous (rows * cubes, size): each cube's row is reduced as
            # a lone row is; a strided view of the gather would sum otherwise
            block = np.take(rows, cells, axis=1).reshape(-1, size)
            a = np.median(block, axis=1)
            osc = np.mean(np.abs(block - a[:, None]), axis=1)
            np.maximum(best, osc.reshape(len(rows), cubes).max(axis=1), out=best)
    return best


# ---------------------------------------------------------------------------
# File formats

def write_ndf1(f: Field, path) -> None:
    """Binary field format: magic 'NDF1', u32 d, d*i64 origin, d*u64 extent,
    f64 mesh, then row-major f64 samples, all little-endian."""
    b = f.box
    with open(path, "wb") as fh:
        fh.write(NDF1_MAGIC)
        fh.write(struct.pack("<I", b.dim))
        fh.write(struct.pack(f"<{b.dim}q", *b.origin))
        fh.write(struct.pack(f"<{b.dim}Q", *b.extent))
        fh.write(struct.pack("<d", b.mesh))
        fh.write(np.ascontiguousarray(f.samples, dtype="<f8").tobytes())


def read_ndf1(path) -> Field:
    """The field of a ``write_ndf1`` file; a short file, or one with bytes past
    its samples, raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != NDF1_MAGIC:
        raise ValueError(f"bad magic {raw[:4]!r}, expected {NDF1_MAGIC!r}")
    d = int.from_bytes(raw[4:8], "little")  # u32; a short file fails the check below
    start = 16 + 16 * d  # magic, d, origin, extent, mesh
    if len(raw) < start:
        raise ValueError("truncated NDF1 header")
    origin = struct.unpack_from(f"<{d}q", raw, 8)
    extent = struct.unpack_from(f"<{d}Q", raw, 8 + 8 * d)
    (mesh,) = struct.unpack_from("<d", raw, start - 8)
    count = math.prod(extent)
    if len(raw) != start + 8 * count:
        raise ValueError(f"NDF1 payload holds {len(raw) - start} bytes, expected {8 * count}")
    data = np.frombuffer(raw, "<f8", count, start)
    return Field(Box(d, origin, extent, mesh), data.astype(np.float64))


def export_csv(f: Field, path) -> None:
    """One-dimensional fields only: rows of (lattice coordinate, value)."""
    if f.box.dim != 1:
        raise ValueError("CSV export is defined for d = 1 only")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lattice", "value"])
        for lat, v in zip(f.box.lattice_axes()[0], f.samples):
            w.writerow([int(lat), repr(float(v))])


def import_csv(path, mesh: float = 1.0) -> Field:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["lattice", "value"]:
        raise ValueError("expected header 'lattice,value'")
    lats = [int(r[0]) for r in rows[1:]]
    vals = [float(r[1]) for r in rows[1:]]
    if not lats:
        raise ValueError("empty CSV field")
    if lats != list(range(lats[0], lats[0] + len(lats))):
        raise ValueError("lattice coordinates must be contiguous and increasing")
    return Field(Box(1, (lats[0],), (len(lats),), mesh), np.array(vals))
