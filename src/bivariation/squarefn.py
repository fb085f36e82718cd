"""The bilinear square function built from compensated dyadic-scale averages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .dyadic import level_range
from .fields import Field
from .martingale import square_piece

__all__ = ["SquarePieces", "square_piece", "square_function"]


@dataclass(frozen=True)
class SquarePieces:
    k_range: tuple[int, int]
    pieces: dict[int, Field]
    aggregate: Field
    tail_max: float


def square_function(
    f1: Field, f2: Field, body: ConvexBody, k_range: tuple[int, int] | None = None
) -> SquarePieces:
    """All pieces over k_range plus the l2 aggregate across scales.

    The scale just above k_range is evaluated as a truncation diagnostic
    (its max magnitude is reported, not silently dropped).
    """
    if k_range is None:
        k_range = level_range(f1.box)
    k_lo, k_hi = k_range
    if k_lo > k_hi:
        raise ValueError("empty k_range")
    pieces = {k: square_piece(f1, f2, body, k) for k in range(k_lo, k_hi + 1)}
    sq = np.zeros(f1.box.extent)
    for p in pieces.values():
        sq += p.samples * p.samples
    tail = square_piece(f1, f2, body, k_hi + 1)
    return SquarePieces(
        k_range=(k_lo, k_hi),
        pieces=pieces,
        aggregate=Field(f1.box, np.sqrt(sq)),
        tail_max=float(np.abs(tail.samples).max()),
    )
