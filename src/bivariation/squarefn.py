"""The bilinear square function built from compensated dyadic-scale averages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .dyadic import level_range
from .fields import Field
from .martingale import _compensated_checks, _compensated_rows, square_piece
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
    (its max magnitude is reported, not silently dropped).  The one-pair
    view of :func:`_square_rows`.
    """
    if k_range is None:
        k_range = level_range(f1.box)
    k_lo, k_hi = k_range
    if k_lo > k_hi:
        raise ValueError("empty k_range")
    ks = range(k_lo, k_hi + 2)
    rows1, rows2 = _compensated_checks(f1, f2, body, ks)
    diffs, averages, products, aggregate = _square_rows(f1.box, rows1, rows2, body, ks)
    averages, products = averages[:, 0], products[:, 0]
    averages.flags.writeable = products.flags.writeable = False
    return SquarePieces(
        k_range=(k_lo, k_hi),
        pieces={k: Field(f1.box, row) for k, row in zip(ks[:-1], diffs[:, 0])},
        aggregate=Field(f1.box, aggregate[0]),
        tail_max=float(np.abs(diffs[-1, 0]).max()),
        averages=averages,
        products=products,
    )


def _square_rows(box, rows1: np.ndarray, rows2: np.ndarray, body: ConvexBody, ks):
    """(pieces, averages, products, aggregate) of every row pair of ``rows1``
    and ``rows2`` (N, cells) at the increasing levels ``ks``, the last one
    the truncation level: the pieces (len(ks), N, cells), the compensated
    terms (len(ks) - 1, N, cells) below the truncation level, and the l2
    aggregate (N, cells) of those pieces, their squares added in increasing
    k (docs/notes.md, notes 10 and 16)."""
    averages, products = _compensated_rows(box, rows1, rows2, body, ks)
    diffs = averages - products
    sq = np.zeros(rows1.shape)
    for p in diffs[:-1]:
        sq += p * p
    return diffs, averages[:-1], products[:-1], np.sqrt(sq)


def long_variation_check(sp: SquarePieces, q: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per cell, lhs = V_q over the levels of ``sp`` of the averages and rhs =
    2 S + V_q of the products (Jones-Seeger-Wright); and whether lhs <= rhs
    at every cell, within 1e-9 relative and 1e-12 absolute.  The one-pair
    view of :func:`_long_variation_rows`."""
    lhs, rhs, holds = _long_variation_rows(sp.averages[:, None], sp.products[:, None],
                                           sp.aggregate.samples.reshape(1, -1), q)
    return lhs[0], rhs[0], bool(holds[0])


def _long_variation_rows(averages: np.ndarray, products: np.ndarray, aggregate: np.ndarray,
                         q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lhs, rhs, holds) of the long-variation check of every pair, from one
    DP batch over its cells' sequences in k: ``averages`` and ``products``
    (K, N, cells), ``aggregate`` (N, cells); lhs and rhs (N, cells)."""
    n, cells = aggregate.shape
    seqs = np.concatenate([averages, products], axis=2)  # (K, N, 2 cells)
    vq = vq_value_batch(seqs.reshape(len(seqs), -1).T, q).reshape(n, 2 * cells)
    lhs, rhs = vq[:, :cells], 2.0 * aggregate + vq[:, cells:]
    return lhs, rhs, np.all(lhs <= rhs * (1 + 1e-9) + 1e-12, axis=1)
