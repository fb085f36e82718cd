"""The bilinear square function built from compensated dyadic-scale averages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .dyadic import level_range
from .fields import Field
from .martingale import compensated_terms, square_piece
from .variation import vq_value_batch

__all__ = ["SquarePieces", "square_piece", "square_function", "long_variation_check"]


@dataclass(frozen=True)
class SquarePieces:
    k_range: tuple[int, int]
    pieces: dict[int, Field]
    aggregate: Field
    tail_max: float
    averages: np.ndarray  # read-only (K, cells), row i at level k_lo + i
    products: np.ndarray  # the same for E_k f1 * E_k f2; piece k is the difference


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
    ks = range(k_lo, k_hi + 2)
    averages, products = compensated_terms(f1, f2, body, ks)
    diffs = averages - products
    pieces = {k: Field(f1.box, row) for k, row in zip(ks[:-1], diffs)}
    sq = np.zeros(f1.box.extent)
    for p in pieces.values():
        sq += p.samples * p.samples
    averages, products = averages[:-1], products[:-1]
    averages.flags.writeable = products.flags.writeable = False
    return SquarePieces(
        k_range=(k_lo, k_hi),
        pieces=pieces,
        aggregate=Field(f1.box, np.sqrt(sq)),
        tail_max=float(np.abs(diffs[-1]).max()),
        averages=averages,
        products=products,
    )


def long_variation_check(sp: SquarePieces, q: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per cell, lhs = V_q over the levels of ``sp`` of the averages and rhs =
    2 S + V_q of the products (Jones-Seeger-Wright), from one DP batch; and
    whether lhs <= rhs at every cell, within 1e-9 relative and 1e-12 absolute."""
    n = sp.averages.shape[1]
    vq = vq_value_batch(np.concatenate([sp.averages, sp.products], axis=1).T, q)
    lhs, rhs = vq[:n], 2.0 * sp.aggregate.samples.ravel() + vq[n:]
    return lhs, rhs, bool(np.all(lhs <= rhs * (1 + 1e-9) + 1e-12))
