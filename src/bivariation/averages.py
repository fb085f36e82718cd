"""Bilinear averaging operators: grid quadrature, lattice counting, and the
linear-change-of-variables family.

All averages are self-normalizing: the value at x is the plain mean of
``f1 f2`` over the nodes that land in the dilated body, so constants average
to their product without any volume formula entering.  Evaluation points are
lattice points; fields are extended by zero.

Conventions: ``continuum_quadrature`` averages ``f1(x + y1) f2(x + y2)`` over
quadrature nodes ``y = h p`` with ``p`` an integer point of ``G_(t/h)``;
``lattice_counting`` averages ``f1(x - k) f2(x - m)`` over integer points
``(k, m)`` of ``G_t`` (for the symmetric bodies used here the sign convention
is immaterial).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bodies import ConvexBody, enumerate_lattice, gamma_body, slice_tables
from .fields import Field

__all__ = [
    "DegenerateScale",
    "AvgRequest",
    "TimeGrid",
    "avg_at",
    "avg_sweep",
    "avg_field",
    "avg_field_sweep",
    "dtt_avg",
    "dtt_avg_field",
    "dtt_avg_via_body",
    "fast_slice_avg",
]

MODES = ("continuum_quadrature", "lattice_counting")

# values per block of an ordered sum, and at least one row; a _node_average fill
# forms its block in pieces of at most this many products (four times as many
# from its product table, which holds at most eight times as many), and at
# least one cell (docs/notes.md, notes 4 and 14)
_CHUNK_CELLS = 16_384

# nodes read per gather of the point kernel; a scale with more is read alone
# (docs/notes.md, note 17)
_POINT_NODES = 1 << 14


class DegenerateScale(Exception):
    """No quadrature/lattice node fell inside the dilated body at this scale."""


@dataclass(frozen=True)
class AvgRequest:
    body: ConvexBody
    t: float
    f1: Field
    f2: Field
    mode: str = "continuum_quadrature"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.t > 0:
            raise ValueError("t must be positive")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if self.f1.box != self.f2.box:
            raise ValueError("f1 and f2 must share one box")
        if self.body.d != self.f1.box.dim:
            raise ValueError("body dimension does not match the fields")

    @property
    def scaled_t(self) -> float:
        """Dilation parameter in lattice units."""
        return _lattice_t(self.mode, self.t, self.f1.box.mesh)

    @property
    def sign(self) -> int:
        return -1 if self.mode == "lattice_counting" else 1


def _lattice_t(mode: str, t: float, mesh: float) -> float:
    """The scale ``t`` of ``mode`` in lattice units."""
    return t if mode == "lattice_counting" else t / mesh


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive scales with the exact powers of two marked."""

    times: tuple[float, ...]
    dyadic_anchors: tuple[int, ...] = dc_field(init=False)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if any(not t > 0 for t in ts):
            raise ValueError("times must be positive")
        if any(not math.isfinite(t) for t in ts):
            raise ValueError("times must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", ts)
        anchors = tuple(i for i, t in enumerate(ts) if math.frexp(t)[0] == 0.5)
        object.__setattr__(self, "dyadic_anchors", anchors)

    def __len__(self):
        return len(self.times)

    @staticmethod
    def block_of(t: float) -> int:
        """k with t in (2^k, 2^(k+1)]; exact on floats."""
        m, e = math.frexp(t)
        return e - 2 if m == 0.5 else e - 1

    @classmethod
    def dyadic_spanning(cls, k_min: int, k_max: int, per_block: int = 0, rng=None) -> "TimeGrid":
        """All anchors 2^k, k_min..k_max, plus ``per_block`` random times per block.

        Keeping every block's right-endpoint anchor in the grid is what makes
        the long/short split dominate the full variation; grids missing those
        anchors do not satisfy that bound.
        """
        if per_block and rng is None:
            raise ValueError("random times per block need an rng")
        ts = [float(2.0**k) for k in range(k_min, k_max + 1)]
        if per_block:
            for k in range(k_min, k_max):
                lo, hi = 2.0**k, 2.0 ** (k + 1)
                ts.extend(float(u) for u in rng.uniform(lo, hi, size=per_block) if lo < u < hi)
        return cls(tuple(sorted(set(ts))))


# ---------------------------------------------------------------------------
# Reference evaluation (lexicographic point sums)

_POINT_CACHE: dict[tuple, object] = {}
# lookups of _POINT_CACHE that found their entry, and those that built it
CACHE_COUNTS = {"hits": 0, "misses": 0}


def _cached(key: tuple, build):
    """``build()`` memoized under ``key = (body, T, tag)``; a body is its own
    key, equal by class and field values.  The arrays are read-only, because
    every caller with an equal body and scale shares them."""
    value = _POINT_CACHE.get(key)
    if value is not None:
        CACHE_COUNTS["hits"] += 1
        return value
    CACHE_COUNTS["misses"] += 1
    value = build()
    for a in value if isinstance(value, tuple) else (value,):
        a.flags.writeable = False
    if len(_POINT_CACHE) > 256:
        _POINT_CACHE.clear()
    _POINT_CACHE[key] = value
    return value


def _points(body: ConvexBody, T: float) -> np.ndarray:
    return _cached((body, float(T), "points"), lambda: enumerate_lattice(body, T).points)


def _slices(keys) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The slice table of every ``(body, T)`` in ``keys``.  The tables the memo
    lacks are built by one ``slice_tables`` call, each distinct key once,
    whatever their bodies; then each key is looked up in turn as a one-key
    call would, so the memo and ``CACHE_COUNTS`` end as after a loop of
    one-key calls (docs/notes.md, notes 9, 11 and 13)."""
    keys = [(body, float(T), "slices") for body, T in keys]
    found = [_POINT_CACHE.get(key) for key in keys]
    if None in found:
        # the missing keys in order of first need
        missing = list(dict.fromkeys(key for key, v in zip(keys, found) if v is None))
        built = dict(zip(missing, slice_tables([key[:2] for key in missing])))
        found = [built[key] if v is None else v for key, v in zip(keys, found)]
    # a table found above and evicted by an earlier key's insertion is a
    # miss here, as in the loop, and goes back in unchanged
    return [_cached(key, lambda v=v: v) for key, v in zip(keys, found)]


def _lattice_point(x, d: int) -> np.ndarray:
    """x as d int64 coordinates; a point off the integer lattice is rejected,
    not truncated."""
    a = np.asarray(x).reshape(d)
    if a.dtype.kind not in "iu" and not np.all(np.isfinite(a) & (a == np.round(a))):
        raise ValueError("x must be a lattice point")
    return a.astype(np.int64, copy=False)


def avg_at(req: AvgRequest, x) -> float:
    """Average at one lattice point x, summed in lexicographic point order."""
    return _point_values(req.body, req.mode, (req.t,), req.f1, req.f2, x)[0]


def avg_sweep(body: ConvexBody, grid: TimeGrid, f1: Field, f2: Field, x,
              mode: str = "continuum_quadrature") -> np.ndarray:
    """Averages at one point across all grid scales, each the bits of
    ``avg_at`` at its scale (docs/notes.md, note 17)."""
    if not len(grid):
        return np.zeros(0)
    AvgRequest(body, grid.times[0], f1, f2, mode)  # the argument checks; TimeGrid checked t
    return np.array(_point_values(body, mode, grid.times, f1, f2, x))


def _point_values(body: ConvexBody, mode: str, ts, f1: Field, f2: Field, x) -> list[float]:
    """The average at the lattice point x at every scale of ``ts``: each
    scale's nodes are looked up in order, as a loop of ``avg_at`` calls would,
    both fields are read once per run of scales (``_node_groups``), and each
    scale sums its own contiguous run of the products (docs/notes.md, note 17)."""
    d = body.d
    x = _lattice_point(x, d)
    pts = []
    for t in ts:
        p = _points(body, _lattice_t(mode, t, f1.box.mesh))
        if len(p) == 0:
            raise DegenerateScale(f"no nodes in the body dilate at t={t}")
        pts.append(p)
    read = np.subtract if mode == "lattice_counting" else np.add
    out = []
    for group in _node_groups(pts):
        nodes = group[0] if len(group) == 1 else np.concatenate(group)
        prods = f1.values_at(read(x, nodes[:, :d])) * f2.values_at(read(x, nodes[:, d:]))
        ends = list(itertools.accumulate(map(len, group)))
        out += [float(np.sum(prods[a:b]) / (b - a)) for a, b in zip([0, *ends], ends)]
    return out


def _node_groups(pts):
    """Runs of consecutive node arrays of at most ``_POINT_NODES`` nodes in
    all; an array longer than that is a run alone."""
    start = size = 0
    for i, p in enumerate(pts):
        if i > start and size + len(p) > _POINT_NODES:
            yield pts[start:i]
            start, size = i, 0
        size += len(p)
    yield pts[start:]


# ---------------------------------------------------------------------------
# Whole-grid evaluation (the workhorse used by the martingale/square modules)

def _ordered_sum(n_rows: int, width: int, step: int, fill) -> np.ndarray:
    """Sum of ``n_rows`` rows of ``width`` values, added in increasing row order.

    ``fill(start, stop, out)`` writes rows ``start..stop-1`` into ``out``, at
    most ``step`` rows at a time.  Each block is added row after row into a
    running total that starts at +0.0 and lives in row 0 of the same buffer,
    so every column gets the floating-point sum of a plain ``acc += row``
    loop (see docs/notes.md, note 4).
    """
    buf = np.zeros((min(step, n_rows) + 1, width))
    for start in range(0, n_rows, step):
        rows = min(step, n_rows - start)
        fill(start, start + rows, buf[1 : rows + 1])
        if width == 1:
            # a single column would be reduced pairwise; accumulate stays in order
            buf[0] = np.add.accumulate(buf[: rows + 1], axis=0)[rows]
        else:
            # along the slow axis the reduction adds row after row
            buf[0] = np.add.reduce(buf[: rows + 1], axis=0)
    return buf[0]


def _pairwise_sum(g: np.ndarray) -> np.ndarray:
    """(batch, W) sums over axis 1 of a (batch, k, W) array, each value the
    bits of ``np.sum`` of its k terms laid out as one contiguous run: numpy's
    pairwise order, done with whole-row operations (docs/notes.md, note 4)."""
    B, k, W = g.shape
    j = 0
    while k > 128 and k % 16 == 0:
        # numpy splits a long run at half its length, rounded down to a
        # multiple of 8; an even split is summed as twice as many half runs
        k //= 2
        j += 1
    g = g.reshape(B << j, k, W)
    if k > 128:
        n2 = k // 2 - k // 2 % 8
        acc = np.add(_pairwise_sum(g[:, :n2]), _pairwise_sum(g[:, n2:]))
    elif k < 8:  # added in order from +0.0
        acc = g[:, 0] + 0.0
        for i in range(1, k):
            acc += g[:, i]
    else:
        # eight running sums, term i into sum i % 8 (the reduction over the
        # slow axis of a C-contiguous block adds row after row), added as
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order
        k8 = k - k % 8
        r = np.add.reduce(g[:, :k8].reshape(B << j, k8 // 8, 8 * W), axis=1).reshape(-1, W)
        if k8 == k:
            return _add_pairs(r, 3 + j)
        acc = _add_pairs(r, 3)
        for i in range(k8, k):
            acc += g[:, i]
    return _add_pairs(acc, j)


def _add_pairs(x: np.ndarray, levels: int) -> np.ndarray:
    """Rows 2i and 2i + 1 added, ``levels`` times over."""
    for _ in range(levels):
        x = np.add(x[0::2], x[1::2])
    return x


def _product_table(p1: np.ndarray, p2: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """(len(delta), p1.size) table whose row r is ``p1[z] * p2[z - delta[r]]``,
    zero where ``z - delta[r]`` is off ``p2``; built in blocks of rows, so its
    scratch is one block."""
    D = int(np.abs(delta).max())
    q = np.zeros(p2.size + 2 * D)
    q[D : D + p2.size] = p2
    shifted = _windows(q, p1.size)
    table = np.empty((delta.size, p1.size))
    step = max(1, _CHUNK_CELLS // p1.size)
    for r0 in range(0, delta.size, step):
        np.multiply(p1, shifted[D - delta[r0 : r0 + step]], out=table[r0 : r0 + step])
    return table


def _node_average(a1, a2, y1, y2, run: int, extend: str = "constant") -> np.ndarray:
    """Mean over the integer offset pairs ``(y1[i], y2[i])`` of ``a1(x + y1)
    a2(x + y2)`` at every cell x, flattened; the arrays are extended by zeros
    (``extend="constant"``) or periodically (``"wrap"``).  Each run of ``run``
    consecutive nodes is summed pairwise per cell, and the runs are added in
    order (docs/notes.md, notes 4 and 14).  ``a1`` and ``a2`` may carry a
    leading axis of rows, which gives one flattened row each, every row the
    bits of a one-row call (note 16)."""
    d = y1.shape[1]
    shape = a1.shape[a1.ndim - d :]
    both = np.stack((a1.reshape(-1, *shape), a2.reshape(-1, *shape)))  # (2, rows, *shape)
    ext = np.asarray(shape)
    # a coordinate past the extent reads only the extension from every cell,
    # so its class modulo the extent (wrap) or the extent itself (zeros) reads
    # the same values; the padding stays O(extent)
    clamp = (lambda y: np.mod(y, ext)) if extend == "wrap" else (lambda y: np.clip(y, -ext, ext))
    y1, y2 = clamp(y1), clamp(y2)
    R = int(max(np.abs(y1).max(), np.abs(y2).max()))
    below = 0 if extend == "wrap" else R  # a wrapped coordinate is not negative
    padded = [e + below + R for e in shape]
    size = math.prod(padded)
    strides = np.array([math.prod(padded[i + 1 :]) for i in range(d)])  # flat steps of the padding
    # a line is a run of shape[-1] cells along the last axis; its flat start in the padding
    starts = (np.indices(shape[:-1] + (1,)).reshape(d, -1).T + below) @ strides
    off1, off2, n = y1 @ strides, y2 @ strides, len(y1)
    del y1, y2  # the clamped copies; the offsets are all the fill reads
    # a node reads p2 at its p1 read minus delta = off1 - off2, so nodes with
    # one delta share their products: one table row per distinct delta, in
    # increasing order, when the table fits (docs/notes.md, note 14)
    delta = off1 - off2
    lo = int(delta.min())
    seen = np.zeros(int(delta.max()) - lo + 1, dtype=bool)
    seen[delta - lo] = True
    per_row = np.count_nonzero(seen) * size  # table values per row of fields
    table = per_row <= 8 * _CHUNK_CELLS
    if table:
        deltas = np.flatnonzero(seen) + lo
        off1 += (np.cumsum(seen)[delta - lo] - 1) * size  # the node's table row, then its read
        off2 = None  # the table route reads p2 through the table
        piece = 4 * _CHUNK_CELLS
    else:
        piece = _CHUNK_CELLS
    del delta
    # the rows go in groups whose table holds at most one piece of products,
    # at least one row; all of them in one group without a table.  Within a
    # group they are the innermost axis of the padding and of the table, so
    # the flat offsets above count cells of G values each, windows step G
    # values per cell, and a line is one run of shape[-1] * G values (note 16)
    group = max(1, piece // per_row) if table else both.shape[1]
    cells = math.prod(shape)
    values = np.empty((both.shape[1], cells))
    for r0 in range(0, both.shape[1], group):
        G = min(group, both.shape[1] - r0)
        # (2, *shape, G), padded along the cell axes and read flat
        block = both[:, r0 : r0 + G].transpose(0, *range(2, d + 2), 1)
        if extend == "wrap":
            padding = np.pad(block, [(0, 0)] + [(0, R)] * d + [(0, 0)], mode="wrap")
        else:  # zeros around the box; np.pad takes longer than the fill of a small call
            padding = np.zeros((2, *padded, G))
            padding[(slice(None), *(slice(R, R + e) for e in shape))] = block
        p1, p2 = padding.reshape(2, -1)
        prods = _product_table(p1, p2, deltas * G).ravel() if table else None
        inner = shape[-1] * G  # the values of a line

        def fill(start, stop, out):
            # one row per run; a short last run is alone in its block
            rows = stop - start
            nodes = slice(start * run, stop * run)
            k = off1[nodes].size // rows
            # (k, rows, 1): node j of every run of the block leads
            o1 = off1[nodes].reshape(rows, k).T[:, :, None]
            o2 = None if table else off2[nodes].reshape(rows, k).T[:, :, None]
            # pieces of at most `piece` products and at least one value: cw
            # values of one line, or lw whole lines when a line fits
            cw = max(1, min(inner, piece // (rows * k)))
            lw = max(1, piece // (rows * k * inner))
            out = out.reshape(rows, len(starts), inner)
            for l0 in range(0, len(starts), lw):
                s = starts[l0 : l0 + lw]
                for c0 in range(0, inner, cw):
                    c1 = min(c0 + cw, inner)
                    # row j of a window view is p[c0 + j G : c1 + j G], so each
                    # (node, run, line) is one copy of c1 - c0 consecutive values
                    if table:
                        g = _windows(prods[c0:], c1 - c0, G)[s + o1]
                    else:
                        g = _windows(p1[c0:], c1 - c0, G)[s + o1]
                        g *= _windows(p2[c0:], c1 - c0, G)[s + o2]
                    dst = out[:, l0 : l0 + len(s), c0:c1]
                    if k == 1:  # a run of one node sums to its product
                        dst[...] = g[0]
                    else:
                        dst[...] = _pairwise_sum(g.reshape(1, k, -1)).reshape(dst.shape)

        step = max(1, _CHUNK_CELLS // (cells * G * run)) if n % run == 0 else 1
        sums = _ordered_sum(-(-n // run), cells * G, step, fill)
        values[r0 : r0 + G] = sums.reshape(cells, G).T / n
        del prods, sums  # freed before the next group's are built
    return values if a1.ndim > d else values[0]


def avg_field(body: ConvexBody, t: float, f1: Field, f2: Field,
              mode: str = "continuum_quadrature") -> Field:
    """Average at every cell of the shared box; fast sliced path for d = 1."""
    AvgRequest(body, t, f1, f2, mode)  # the argument checks
    rows1, rows2 = f1.samples.reshape(1, -1), f2.samples.reshape(1, -1)
    return Field(f1.box, _field_values(f1.box, mode, [(body, t, 0)], rows1, rows2)[0])


def avg_field_sweep(body: ConvexBody, grid: TimeGrid, f1: Field, f2: Field,
                    mode: str = "continuum_quadrature") -> np.ndarray:
    """(len(grid), cells) matrix whose row i is ``avg_field`` at the i-th scale,
    flattened, bit for bit.  For d = 1 every scale shares one slice-table
    build and one set of field extensions (docs/notes.md, note 9)."""
    if not len(grid):
        return np.zeros((0, f1.box.cell_count))
    AvgRequest(body, grid.times[0], f1, f2, mode)  # the argument checks; TimeGrid checked t
    rows1, rows2 = f1.samples.reshape(1, -1), f2.samples.reshape(1, -1)
    return _field_values(f1.box, mode, [(body, t, 0) for t in grid.times], rows1, rows2)


def _field_values(box, mode: str, reqs, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """(len(reqs), cells): the averages at every cell of ``box``, one row per
    request ``(body, t, pair)``, each the bytes of a one-request call on the
    fields whose row-major samples are ``rows1[pair]`` and ``rows2[pair]``.
    The requests may differ in body, scale and pair, and several may read
    one pair: one sweep, every trial of a sweep suite grid, or every trial
    of a domination batch.  Nothing is checked here; the public views check
    their ``Field``s (docs/notes.md, notes 11, 13 and 15).  The memo is
    looked up in request order."""
    if reqs[0][0].d == 1:
        return _sliced_values(box, mode, reqs, rows1, rows2, box.origin[0], box.extent[0])
    return _gather_values(box, mode, reqs, rows1, rows2)


def _gather_values(box, mode: str, reqs, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """The d >= 2 average at every cell of every request ``(body, t, pair)``,
    one flattened row each: a gather over the lattice points of the dilate."""
    sign = -1 if mode == "lattice_counting" else 1
    values = []
    for body, t, p in reqs:
        pts = _points(body, _lattice_t(mode, t, box.mesh))
        if len(pts) == 0:
            raise DegenerateScale(f"no nodes in the body dilate at t={t}")
        y = sign * pts
        # runs of 1024 nodes: the pairwise blocks that fix the bytes (docs/notes.md, note 4)
        values.append(_node_average(rows1[p].reshape(box.extent), rows2[p].reshape(box.extent),
                                    y[:, : body.d], y[:, body.d :], 1024))
    return np.stack(values)


def _sliced_values(box, mode: str, reqs, rows1: np.ndarray, rows2: np.ndarray,
                   x: int, width: int) -> np.ndarray:
    """d = 1 kernel at the ``width`` lattice points x, x + 1, ... (the whole
    box, or one point), one row per request ``(body, t, pair)``: the sum
    over slices k of f1(x +- k) * (prefix window of f2), with f1 and f2 the
    rows ``rows1[pair]`` and ``rows2[pair]``.

    One row per slice k, summed in increasing k by ``_ordered_sum``, one sum
    per distinct (body, scale), whose columns are the points of every request
    with that body and scale.  A row is read as whole windows of f1 extended
    by zeros and of the f2 prefix sums extended by their end values, so it
    holds the values a clipped gather reads.  The extensions of the pairs
    are a few blocks, one row per pair, each block sized for the largest
    reach among its pairs (docs/notes.md, notes 4, 9 and 11).
    """
    n = box.extent[0]
    Ts = [_lattice_t(mode, t, box.mesh) for _, t, _ in reqs]
    tables = _slices([(body, T) for (body, _, _), T in zip(reqs, Ts)])
    cols_of = {}  # the requests of each distinct (body, scale), in request order
    for i, ((body, _, _), T) in enumerate(zip(reqs, Ts)):
        cols_of.setdefault((body, T), []).append(i)
    scales = [(cols, *tables[cols[0]]) for cols in cols_of.values()]
    counts = [int((hi - lo).sum()) + hi.size for _, _, lo, hi in scales]
    for (cols, *_), count in zip(scales, counts):
        if count == 0:  # the scales come in order of first request
            raise DegenerateScale(f"no nodes in the body dilate at t={reqs[cols[0]][1]}")
    if mode == "lattice_counting":
        # f1 is read at x - k, and the window of f2 is x - [lo, hi]
        scales = [(cols, -ks, -hi, -lo) for cols, ks, lo, hi in scales]
    # every offset read (k, lo, hi + 1) is less than the reach R in size, so
    # one point below -R or above n + R - 1 reads only the extensions;
    # clamping it there reads the same values and keeps the arrays O(n + R),
    # not O(|x|).  The ks are monotone and lo <= hi, so the ends of ks,
    # min(lo) and max(hi) bound them.
    reach = [max(abs(int(k[0])), abs(int(k[-1])), 1 - int(lo.min()), int(hi.max()) + 1) + 1
             for _, k, lo, hi in scales]
    R = max(reach)
    # the first point's clamped shift from the box origin; a row whose reads
    # reach r needs an extension E = r + pad on each side
    shift = min(max(int(x) - box.origin[0], -R), n + R - width)
    pad = max(0, -shift, shift + width - n)
    # each pair's row is sized for the largest reach among its requests; the
    # pairs fall into blocks by the bit length of that reach, each block one
    # (pairs, size) run of flat extension arrays, box index i of the p-th
    # pair of a block at its flat index + E + p * size.  A call whose scales
    # share a bit length is one block of every pair at reach R, whose rows it
    # reads through views.
    blocks = [(slice(None), range(len(rows1)), R)]
    if len({r.bit_length() for r in reach}) > 1:
        req_reach = np.empty(len(reqs), dtype=np.int64)
        for (cols, *_), r in zip(scales, reach):
            req_reach[cols] = r
        pair_reach = np.zeros(len(rows1), dtype=np.int64)
        np.maximum.at(pair_reach, [p for _, _, p in reqs], req_reach)
        pair_reach[pair_reach == 0] = R  # a pair no request reads
        kind = np.frexp(pair_reach.astype(float))[1]
        blocks = [(pairs, pairs.tolist(), int(pair_reach[pairs].max()))
                  for pairs in (np.flatnonzero(kind == c) for c in np.unique(kind))]
    total = sum(len(ids) * (n + 2 * (r + pad) + 1) for _, ids, r in blocks)
    ext1 = np.zeros(total)
    extp = np.zeros(total)
    start = [0] * len(rows1)  # the flat index of each pair's box index 0
    at = 0
    for pairs, ids, r in blocks:
        E = r + pad
        size = n + 2 * E + 1
        e1 = ext1[at : at + len(ids) * size].reshape(len(ids), size)
        ep = extp[at : at + len(ids) * size].reshape(len(ids), size)
        e1[:, E : E + n] = rows1[pairs]
        np.cumsum(rows2[pairs], axis=1, out=ep[:, E + 1 : E + n + 1])  # sequential along each row
        ep[:, E + n + 1 :] = ep[:, E + n, None]
        for j, p in enumerate(ids):
            start[p] = at + E + j * size
        at += len(ids) * size
    # each request reads its pair's windows from its own origin
    origin = [start[p] + shift for _, _, p in reqs]
    f1w = _windows(ext1, width)
    pw = _windows(extp, width)

    values = np.empty((len(reqs), width))
    for (cols, k1, lo, hi), count in zip(scales, counts):
        if len(cols) == 1:  # plain row indices and one scalar origin
            at = origin[cols[0]]
        else:  # a (rows, columns) index per read
            at = np.array([origin[i] for i in cols])
            k1, lo, hi = k1[:, None], lo[:, None], hi[:, None]

        def fill(first, stop, out):
            w1 = f1w[k1[first:stop] + at]
            out = out.reshape(w1.shape)
            np.subtract(pw[hi[first:stop] + (at + 1)], pw[lo[first:stop] + at], out=out)
            np.multiply(w1, out, out=out)

        span = len(cols) * width
        total = _ordered_sum(len(k1), span, max(1, _CHUNK_CELLS // span), fill)
        if len(cols) == 1:
            np.divide(total, count, out=values[cols[0]])
        else:
            values[cols] = total.reshape(len(cols), width) / count
    return values


def _windows(a: np.ndarray, width: int, step: int = 1) -> np.ndarray:
    """Read-only view of a C-contiguous array, read flat, whose row i is
    a.flat[i * step : i * step + width]: at step 1 the values of
    ``sliding_window_view(a.ravel(), width)``, without its argument checks,
    which take about a third of a one-point evaluation."""
    shape = ((a.size - width) // step + 1, width)
    view = np.ndarray(shape, a.dtype, a, 0, (a.itemsize * step, a.itemsize))
    view.flags.writeable = False
    return view


def fast_slice_avg(req: AvgRequest, x) -> float:
    """Sliced prefix-sum evaluation at one point, O(t) instead of O(t^2).

    Requires d = 1 and lattice mode.  Algebraically identical to ``avg_at``;
    on integer-valued fields the floating arithmetic is exact and the two
    agree bit for bit.
    """
    if req.body.d != 1:
        raise ValueError("fast_slice_avg requires d = 1")
    if req.mode != "lattice_counting":
        raise ValueError("fast_slice_avg requires lattice_counting mode")
    rows1, rows2 = req.f1.samples.reshape(1, -1), req.f2.samples.reshape(1, -1)
    at = _sliced_values(req.f1.box, req.mode, [(req.body, req.t, 0)], rows1, rows2,
                        _lattice_point(x, 1)[0], 1)
    return float(at[0, 0])


# ---------------------------------------------------------------------------
# Linear-change-of-variables averages

def _dtt_matrix(lam: np.ndarray, t: float, f1: Field, f2: Field) -> np.ndarray:
    """The 2x2 matrix of a dtt average, after checking it and its inputs."""
    L = np.asarray(lam, dtype=np.float64).reshape(2, 2)
    if not np.all(np.isfinite(L)):
        raise ValueError("matrix entries must be finite")
    if abs(np.linalg.det(L)) < 1e-14:
        raise ValueError("matrix must be nonsingular")
    if not t > 0:
        raise ValueError("t must be positive")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if f1.box != f2.box:
        raise ValueError("f1 and f2 must share one box")
    return L


def dtt_avg(lam: np.ndarray, t: float, f1: Field, f2: Field, x) -> float:
    """Average of f1(x + L11 u1 + L12 u2) f2(x + L21 u1 + L22 u2) over
    |u1| < t, |u2| < t, by grid quadrature at the fields' mesh."""
    L = _dtt_matrix(lam, t, f1, f2)
    d = f1.box.dim
    x = _lattice_point(x, d)
    h = f1.box.mesh
    T = t / h
    R = int(np.ceil(T))
    axes = [np.arange(-R, R + 1, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    inside = np.einsum("ij,ij->i", grid.astype(np.float64), grid.astype(np.float64)) < T * T
    J = grid[inside].astype(np.float64)
    if len(J) == 0:
        raise DegenerateScale(f"no quadrature nodes at t={t}")
    u1 = J[:, None, :]
    u2 = J[None, :, :]
    y1 = np.rint(L[0, 0] * u1 + L[0, 1] * u2).astype(np.int64) + x
    y2 = np.rint(L[1, 0] * u1 + L[1, 1] * u2).astype(np.int64) + x
    vals = f1.values_at(y1.reshape(-1, d)) * f2.values_at(y2.reshape(-1, d))
    return float(np.sum(vals) / (len(J) ** 2))


def dtt_avg_field(lam: np.ndarray, t: float, f1: Field, f2: Field) -> Field:
    """The u-cube quadrature average at every cell of a d = 1 box.

    Demeter-Tao-Thiele averages are one-dimensional, so d >= 2 raises;
    ``dtt_avg`` still evaluates one point in any d.
    """
    if f1.box.dim != 1:
        raise ValueError("dtt_avg_field requires d = 1")
    L = _dtt_matrix(lam, t, f1, f2)
    h = f1.box.mesh
    T = t / h
    R = int(np.ceil(T))
    j = np.arange(-R, R + 1, dtype=np.int64)
    j = j[np.abs(j) < T]
    if j.size == 0:
        raise DegenerateScale(f"no quadrature nodes at t={t}")
    # the table in u1-major order; one run per u1, its u2 terms summed pairwise
    y1 = np.rint(L[0, 0] * j[:, None] + L[0, 1] * j).astype(np.int64).reshape(-1, 1)
    y2 = np.rint(L[1, 0] * j[:, None] + L[1, 1] * j).astype(np.int64).reshape(-1, 1)
    return Field(f1.box, _node_average(f1.samples, f2.samples, y1, y2, j.size))


def dtt_avg_via_body(lam: np.ndarray, t: float, f1: Field, f2: Field, x) -> float:
    """Same average through the equivalent convex-body route with the inverse matrix."""
    L = _dtt_matrix(lam, t, f1, f2)
    body = gamma_body(f1.box.dim, np.linalg.inv(L))
    # the normalized body's dilate at (raw_scale * t) is the raw body's dilate at t
    return avg_at(AvgRequest(body, t * body.raw_scale, f1, f2, "continuum_quadrature"), x)
