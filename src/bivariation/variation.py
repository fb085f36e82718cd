"""Exact q-variation of finite scale families and the elementary inequalities.

On a finite grid the supremum over increasing subsequences is a maximum, found
by an O(m^2) dynamic program; the grid value is also a certified lower bound
for the continuum variation of the underlying family.
"""

from __future__ import annotations

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


def vq_exact(a, q: float) -> VariationOutcome:
    """Max over increasing subsequences of (sum |a_(i_(k+1)) - a_(i_k)|^q)^(1/q).

    DP over end indices with backpointers; ties go to the earlier predecessor,
    so witnesses are deterministic.  The DP value is bit-identical to brute
    force enumeration with left-to-right accumulation.  When the differences
    have extreme magnitude they are rescaled by their maximum before the q-th
    powers are taken, which avoids overflow/underflow for large q.
    """
    _check_q(q)
    a = np.asarray(a, dtype=np.float64).ravel()
    m = a.size
    if m < 2:
        return VariationOutcome(q, 0.0, (0,) if m else ())
    diffs = np.abs(a[None, :] - a[:, None])
    top = float(diffs.max())
    if top == 0.0:
        return VariationOutcome(q, 0.0, (0,))
    scale = 1.0 if _RESCALE_LO < top < _RESCALE_HI else top
    pw = (diffs / scale) ** q if scale != 1.0 else diffs**q
    best = np.zeros(m)
    prev = np.full(m, -1, dtype=np.int64)
    for j in range(1, m):
        cand = best[:j] + pw[:j, j]
        i = int(np.argmax(cand))  # argmax takes the earliest maximizer
        if cand[i] > best[j]:
            best[j] = cand[i]
            prev[j] = i
    end = int(np.argmax(best))
    value = scale * float(best[end]) ** (1.0 / q)
    path = []
    while end >= 0:
        path.append(end)
        end = int(prev[end])
    return VariationOutcome(q, value, tuple(reversed(path)))


def vq_value_batch(seqs: np.ndarray, q: float) -> np.ndarray:
    """Values of :func:`vq_exact` for every row of ``seqs`` (N, m), vectorized.

    Same DP as the scalar path (no witnesses); rows are rescaled by their own
    maximal difference.
    """
    _check_q(q)
    seqs = np.atleast_2d(np.asarray(seqs, dtype=np.float64))
    n, m = seqs.shape
    if m < 2:
        return np.zeros(n)
    diffs = np.abs(seqs[:, None, :] - seqs[:, :, None])
    top = diffs.max(axis=(1, 2))
    scale = np.where((top <= _RESCALE_LO) | (top >= _RESCALE_HI), np.where(top == 0, 1.0, top), 1.0)
    pw = (diffs / scale[:, None, None]) ** q
    best = np.zeros((n, m))
    for j in range(1, m):
        best[:, j] = np.max(best[:, :j] + pw[:, :j, j], axis=1)
    mx = best.max(axis=1)
    # scalar pow for the final root: the vectorized pow rounds differently in
    # the last ulp, and rows must agree with vq_exact bit for bit
    return np.array(
        [0.0 if t == 0.0 else float(s) * float(b) ** (1.0 / q)
         for t, s, b in zip(top, scale, mx)]
    )


def long_variation(grid: TimeGrid, a, q: float) -> float:
    """Variation of the subsequence at the grid's dyadic anchors."""
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
    blocks: dict[int, list[float]] = {}
    for t, v in zip(grid.times, a):
        blocks.setdefault(TimeGrid.block_of(t), []).append(float(v))
    total = 0.0
    for vals in blocks.values():
        total += vq_exact(vals, q).value ** q
    return float(total ** (1.0 / q))


def product_rule_check(a, b, q: float) -> InequalityReport:
    """V_q(a*b) against sup|a| V_q(b) + sup|b| V_q(a)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError("sequences must have equal length")
    lhs = vq_exact(a * b, q).value
    rhs = float(np.max(np.abs(a), initial=0.0)) * vq_exact(b, q).value
    rhs += float(np.max(np.abs(b), initial=0.0)) * vq_exact(a, q).value
    return InequalityReport(lhs, rhs, lhs <= rhs + 1e-12)


def sup_vs_variation_check(a, q: float, t0: int = 0) -> InequalityReport:
    """sup_t |a_t| against |a_(t0)| + 2 V_q(a)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("sequence must be nonempty")
    lhs = float(np.max(np.abs(a)))
    rhs = float(abs(a[t0])) + 2.0 * vq_exact(a, q).value
    return InequalityReport(lhs, rhs, lhs <= rhs + 1e-12)
