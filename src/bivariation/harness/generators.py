"""Seeded random inputs for the experiment suites.

Per-trial RNG streams are derived from (master seed, trial index), so trials
are reproducible independently of execution order.  Field shapes are drawn in
physical coordinates on the fixed window [0, SUPPORT_WIDTH), which makes a
finer grid a resampling of the same underlying function rather than a new
draw; refinement trends are then meaningful.
"""

from __future__ import annotations

import functools

import numpy as np

from ..bodies import ConvexBody, ball, cube, gamma_body
from ..fields import Box, Field
from ..martingale import measurable_field
from ..dyadic import cell_cube_ids
from .config import SUPPORT_WIDTH, ExperimentConfig

__all__ = [
    "trial_rng",
    "standard_box",
    "random_field",
    "random_pair",
    "random_body",
    "random_measurable_pair",
    "random_step_field",
    "FAMILIES",
]

FAMILIES = ("indicator", "trig", "spike")


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


def standard_box(cfg: ExperimentConfig) -> Box:
    if cfg.d == 1:
        return Box(1, (0,), (cfg.grid,), cfg.mesh_value)
    side = min(cfg.grid, 32)
    return Box(2, (0, 0), (side, side), SUPPORT_WIDTH / side)


@functools.lru_cache(maxsize=32)
def _positions(box: Box) -> tuple[np.ndarray, ...]:
    """The physical position of every cell along each axis, as the ``ij``
    meshgrid of the box; memoized per box and read-only."""
    pos = np.meshgrid(*[ax * box.mesh for ax in box.lattice_axes()], indexing="ij")
    for a in pos:
        a.flags.writeable = False
    return tuple(pos)


# draws by ``array[rng.integers(0, len)]``, which gives the values and leaves
# the stream as ``rng.choice(list)`` does, at a fraction of its cost
_FAMILIES = np.array(FAMILIES)
_LEVELS = np.array([-2.0, -1.0, 1.0, 2.0])
_SIGNS = np.array([-1.0, 1.0])
_KINDS = np.array(["ball", "cube", "gamma"])


def _window_mask(pos, lo, hi) -> np.ndarray:
    """Cells whose position lies in [lo, hi) on every axis."""
    mask = (pos[0] >= lo[0]) & (pos[0] < hi[0])
    for ax in range(1, len(pos)):
        mask &= (pos[ax] >= lo[ax]) & (pos[ax] < hi[ax])
    return mask


def random_field(box: Box, family: str, rng: np.random.Generator) -> Field:
    w = box.mesh * max(box.extent)
    pos = _positions(box)
    vals = np.zeros(box.extent)
    if family == "indicator":
        for _ in range(rng.integers(1, 5)):
            c = _LEVELS[rng.integers(0, len(_LEVELS))]
            lo = rng.uniform(0.0, w, size=box.dim)
            hi = lo + rng.uniform(0.05 * w, 0.5 * w, size=box.dim)
            vals += c * _window_mask(pos, lo, hi)
    elif family == "trig":
        for _ in range(4):
            amp = rng.uniform(-1.0, 1.0)
            freq = rng.integers(1, 9, size=box.dim)
            phase = rng.uniform(0.0, 2 * np.pi)
            arg = sum(2 * np.pi * freq[ax] * pos[ax] / w for ax in range(box.dim))
            vals += amp * np.cos(arg + phase)
    elif family == "spike":
        # wide enough that the coarsest sweep grid resolves it in a few cells
        width = w / 16.0
        for _ in range(rng.integers(1, 4)):
            amp = rng.uniform(3.0, 10.0) * _SIGNS[rng.integers(0, len(_SIGNS))]
            lo = rng.uniform(0.0, w - width, size=box.dim)
            vals += amp * _window_mask(pos, lo, lo + width)
    else:
        raise ValueError(f"unknown family {family!r}")
    return Field(box, vals)


def random_pair(box: Box, rng: np.random.Generator) -> tuple[Field, Field, str, str]:
    fam1, fam2 = _FAMILIES[rng.integers(0, len(_FAMILIES), size=2)]
    return random_field(box, fam1, rng), random_field(box, fam2, rng), str(fam1), str(fam2)


def random_body(d: int, rng: np.random.Generator) -> ConvexBody:
    kind = _KINDS[rng.integers(0, len(_KINDS))]
    if kind == "ball":
        return ball(d)
    if kind == "cube":
        return cube(d)
    while True:
        g = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(g)) > 0.3:
            return gamma_body(d, g)


def random_measurable_pair(
    box: Box, level: int, rng: np.random.Generator, sparse: bool = False
) -> tuple[Field, Field]:
    """Level-measurable fields: dense normal cube values, or sparse indicators."""
    _, _, ncubes = cell_cube_ids(box, level)
    if sparse:
        vals1 = np.zeros(ncubes)
        vals2 = np.zeros(ncubes)
        k = max(1, ncubes // 4)
        vals1[rng.choice(ncubes, size=k, replace=False)] = rng.normal(size=k)
        vals2[rng.choice(ncubes, size=k, replace=False)] = rng.normal(size=k)
    else:
        vals1 = rng.normal(size=ncubes)
        vals2 = rng.normal(size=ncubes)
    return measurable_field(box, level, vals1), measurable_field(box, level, vals2)


def random_step_field(box: Box, rng: np.random.Generator, block: int = 4) -> Field:
    """Bounded step function: iid values on runs of ``block`` cells."""
    if box.dim != 1:
        raise ValueError("step fields are one-dimensional")
    n = box.extent[0]
    nblocks = (n + block - 1) // block
    vals = rng.uniform(-1.0, 1.0, size=nblocks)
    return Field(box, np.repeat(vals, block)[:n])
