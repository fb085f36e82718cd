"""Exact q-variation of finite scale families and the elementary inequalities.

On a finite grid the supremum over increasing subsequences is a maximum, found
by an O(m^2) dynamic program; the grid value is also a certified lower bound
for the continuum variation of the underlying family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .averages import TimeGrid

__all__ = [
    "VariationOutcome",
    "vq_exact",
    "vq_value_batch",
    "long_variation",
    "short_variation",
    "product_rule_check",
    "sup_vs_variation_check",
    "InequalityReport",
]

Q_MAX = 16.0


@dataclass(frozen=True)
class VariationOutcome:
    q: float
    value: float
    witness: tuple[int, ...]


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    holds: bool


def _check_q(q: float):
    if not (1.0 < q <= Q_MAX):
        raise ValueError(f"q must lie in (1, {Q_MAX}], got {q}")


# outside this band the q-th powers risk under/overflow at q = 16, so the
# differences are rescaled by their maximum first
_RESCALE_LO, _RESCALE_HI = 1e-18, 1e18


def _vq_rows(seqs: np.ndarray, q: float, links: bool = False):
    """The q-variation DP on every row of ``seqs`` (N, m); docs/notes.md, note 7.

    Returns the values, each row's end index (-1 when m = 0) and, with
    ``links``, the backpointers ``prev`` (N, m): the earliest maximizing
    predecessor, or -1 where the best chain sum is 0 (else None).  Raises
    ``ValueError`` on a non-finite entry or an overflowing difference.
    """
    n, m = seqs.shape
    if m == 0:
        return np.zeros(n), np.full(n, -1), np.empty((n, 0), dtype=np.int64) if links else None
    # the DP runs on an (m, N) C-contiguous copy, so each step reduces over
    # rows of N values; a column-major ``seqs`` is read without a copy
    cols = np.ascontiguousarray(seqs.T)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows raise below
        # the largest |difference|: rounding is monotone, so it is max - min
        tops = (cols.max(axis=0) - cols.min(axis=0)).tolist()
    if not all(map(math.isfinite, tops)):
        raise ValueError("q-variation needs finite values with finite differences")
    scale = [1.0 if t == 0.0 or _RESCALE_LO < t < _RESCALE_HI else t for t in tops]
    row_scale = np.array(scale)
    best = np.zeros((m, n))
    prev = np.zeros((m, n), dtype=np.int64) if links else None
    for j in range(1, m):
        cand = cols[:j] - cols[j]  # column j of the power table, transposed
        np.abs(cand, out=cand)
        cand /= row_scale
        cand **= q
        cand += best[:j]
        np.maximum.reduce(cand, axis=0, out=best[j])
        if links:
            prev[j] = cand.argmax(axis=0)  # argmax takes the earliest maximizer
    if links:
        prev[best == 0] = -1
        prev = prev.T
    # the earliest maximizer of each column; argmax along axis 0 would
    # reduce a transposed copy of ``best``
    ends = (best == best.max(axis=0)).argmax(axis=0)
    # scalar pow for the final root, as the enumeration oracles take it: the
    # vectorized pow can round differently in the last ulp
    values = [s * b ** (1.0 / q) for s, b in zip(scale, best[ends, np.arange(n)].tolist())]
    return np.array(values, dtype=np.float64), ends, prev


def vq_exact(a, q: float) -> VariationOutcome:
    """Max over increasing subsequences of (sum |a_(i_(k+1)) - a_(i_k)|^q)^(1/q).

    One row of :func:`_vq_rows` plus the backtrack; ties go to the earlier
    predecessor, so witnesses are deterministic.  The value is bit-identical
    to brute force enumeration with left-to-right accumulation.
    """
    _check_q(q)
    values, ends, prev = _vq_rows(np.asarray(a, dtype=np.float64).reshape(1, -1), q, links=True)
    links = prev[0].tolist()
    path = []
    end = int(ends[0])
    while end >= 0:
        path.append(end)
        end = links[end]
    return VariationOutcome(q, float(values[0]), tuple(reversed(path)))


def vq_value_batch(seqs: np.ndarray, q: float) -> np.ndarray:
    """Values of :func:`vq_exact` for every row of ``seqs`` (N, m), from the same DP."""
    _check_q(q)
    return _vq_rows(np.atleast_2d(np.asarray(seqs, dtype=np.float64)), q)[0]


def _vq_blocks(blocks, q: float) -> np.ndarray:
    """:func:`vq_value_batch` of every row of the 2-D ``blocks`` of any widths,
    concatenated, from one DP over the rows padded to one width with their own
    last value, or zeros for an empty row (docs/notes.md, note 7)."""
    _check_q(q)
    width = max((b.shape[1] for b in blocks), default=0)
    # (width, rows): the DP reads it as its (m, N) layout, with no copy
    cols = np.zeros((width, sum(map(len, blocks))))
    for b, end in zip(blocks, np.cumsum([len(b) for b in blocks]).tolist()):
        cols[: b.shape[1], end - len(b) : end] = b.T
        cols[b.shape[1] :, end - len(b) : end] = b[:, -1] if b.shape[1] else 0.0
    return _vq_rows(cols.T, q)[0]


def long_variation(grid: TimeGrid, a, q: float) -> float:
    """Variation of the subsequence at the grid's dyadic anchors."""
    _check_q(q)
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size != len(grid):
        raise ValueError("value sequence does not match the grid")
    idx = np.asarray(grid.dyadic_anchors, dtype=np.int64)
    if idx.size == 0:
        warnings.warn("grid has no dyadic anchors; long variation is 0", stacklevel=2)
        return 0.0
    return vq_exact(a[idx], q).value


def short_variation(grid: TimeGrid, a, q: float) -> float:
    """l^q combination over dyadic blocks (2^k, 2^(k+1)] of the within-block variation."""
    _check_q(q)
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size != len(grid):
        raise ValueError("value sequence does not match the grid")
    # the times increase, so each block is a run of consecutive indices
    ks = np.array([TimeGrid.block_of(t) for t in grid.times], dtype=np.int64)
    _, starts = np.unique(ks, return_index=True)
    total = 0.0
    for v in _vq_blocks([row[None] for row in np.split(a, starts[1:])], q).tolist():
        total += v**q
    return float(total ** (1.0 / q))


def product_rule_check(a, b, q: float) -> InequalityReport:
    """V_q(a*b) against sup|a| V_q(b) + sup|b| V_q(a)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError("sequences must have equal length")
    return _product_rule_report(a, b, *vq_value_batch(np.stack([a * b, b, a]), q).tolist())


def sup_vs_variation_check(a, q: float, t0: int = 0) -> InequalityReport:
    """sup_t |a_t| against |a_(t0)| + 2 V_q(a), for 0 <= t0 < len(a)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("sequence must be nonempty")
    if not 0 <= t0 < a.size:
        raise ValueError(f"t0 must lie in [0, {a.size}), got {t0}")
    return _sup_report(a, t0, vq_exact(a, q).value)


def _product_rule_report(a: np.ndarray, b: np.ndarray, lhs: float, vb: float,
                         va: float) -> InequalityReport:
    """The product-rule check from lhs = V_q(a*b), vb = V_q(b) and va = V_q(a)."""
    rhs = float(np.max(np.abs(a), initial=0.0)) * vb
    rhs += float(np.max(np.abs(b), initial=0.0)) * va
    return InequalityReport(lhs, rhs, lhs <= rhs + 1e-12)


def _sup_report(a: np.ndarray, t0: int, va: float) -> InequalityReport:
    """The sup-versus-variation check from va = V_q(a)."""
    lhs = float(np.max(np.abs(a)))
    rhs = float(abs(a[t0])) + 2.0 * va
    return InequalityReport(lhs, rhs, lhs <= rhs + 1e-12)
