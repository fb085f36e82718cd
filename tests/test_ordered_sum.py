"""The two summation kernels and their callers, bit for bit.

``_ordered_sum`` is checked against a plain ``acc += row`` loop, its run sums
``_pairwise_sum`` against ``np.sum`` of contiguous runs, and the node-table
kernel ``_node_average`` against a plain per-node loop, and its rows of
fields against loops of one-row calls.  Each
caller is checked against the loop it replaced, copied below unchanged as an
oracle: the d = 1 sliced kernel (``_ordered_sum``'s other caller), and the
three callers of ``_node_average``: the d >= 2 gather, ``dtt_avg_field`` and
``ergodic_avg_profile``.  ``avg_field_sweep`` is checked against a loop of
one-scale ``avg_field`` calls, and ``square_function``, a view of the sweep,
against its old per-level loop.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariation import averages
from bivariation.averages import (
    AvgRequest,
    DegenerateScale,
    TimeGrid,
    _node_average,
    _ordered_sum,
    _pairwise_sum,
    _points,
    avg_at,
    avg_field,
    avg_field_sweep,
    avg_sweep,
    dtt_avg_field,
    fast_slice_avg,
)
from bivariation.bodies import (
    CustomBody,
    ball,
    cube,
    enumerate_lattice,
    gamma_body,
    normalize,
    polytope_body,
    slice_tables,
)
from bivariation.dyadic import level_range
from bivariation.extremal import default_rotation_mesh, ergodic_avg_profile
from bivariation.fields import Box, Field
from bivariation.martingale import cond_expect
from bivariation.squarefn import square_function, square_piece

_CHUNK_CELLS = averages._CHUNK_CELLS

D1_BODIES = [
    ball(1),
    cube(1),
    gamma_body(1, [[1.0, 0.4], [-0.2, 0.8]]),
    polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
    normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
]

# a slanted gamma body whose slice table skips rows: ks [-3, 0, 3] at T = 7.3,
# 17 rows with gaps at T = 30
SLANTED_BODIES = [gamma_body(1, [[1, 3.1], [0.02, 0.01]])]

D2_BODIES = [
    ball(2),
    cube(2),
    gamma_body(2, [[1.0, 0.3], [-0.2, 0.9]]),
    polytope_body(2, np.vstack([np.eye(4), -np.eye(4), [[0.5, 0.5, 0.5, 0.5]],
                                [[-0.5, -0.5, -0.5, -0.5]]])),
    normalize(2, lambda y: np.abs(y).sum(axis=1) <= 5.0, 2.5, 5.0),
]

D3_BODIES = [ball(3)]

MESHES = [0.25, 0.37, 2.0]


# ---------------------------------------------------------------------------
# Oracles: the loops the kernel replaced

def oracle_avg_at(req: AvgRequest, x) -> float:
    """The one-scale point average ``avg_sweep`` replaced a loop of."""
    d = req.body.d
    x = averages._lattice_point(x, d)
    pts = _points(req.body, req.scaled_t)
    if len(pts) == 0:
        raise DegenerateScale(f"no nodes in the body dilate at t={req.t}")
    vals1 = req.f1.values_at(x[None, :] + req.sign * pts[:, :d])
    vals2 = req.f2.values_at(x[None, :] + req.sign * pts[:, d:])
    return float(np.sum(vals1 * vals2) / len(pts))


def oracle_sliced_values(req: AvgRequest, xs: np.ndarray) -> tuple[np.ndarray, int]:
    body, f1, f2 = req.body, req.f1, req.f2
    sgn = req.sign
    o1, n1 = f1.box.origin[0], f1.box.extent[0]
    o2, n2 = f2.box.origin[0], f2.box.extent[0]
    prefix = np.concatenate([[0.0], np.cumsum(f2.samples)])
    xs = np.asarray(xs, dtype=np.int64)
    ks, mlo, mhi = slice_tables([(body, req.scaled_t)])[0]
    count = int(np.sum(mhi - mlo + 1))
    if count == 0:
        raise DegenerateScale(f"no nodes in the body dilate at t={req.t}")
    step = max(1, _CHUNK_CELLS // xs.size)
    # row 0 carries the running total; rows 1.. take one chunk of slice terms
    buf = np.zeros((min(step, len(ks)) + 1, xs.size))
    for start in range(0, len(ks), step):
        k, lo, hi = (v[start : start + step, None] for v in (ks, mlo, mhi))
        rows = len(k)
        idx1 = xs + sgn * k - o1
        w1 = np.where((idx1 >= 0) & (idx1 < n1), f1.samples[np.clip(idx1, 0, n1 - 1)], 0.0)
        # window of f2 in lattice coordinates
        if sgn > 0:
            a, b = xs + lo, xs + hi
        else:
            a, b = xs - hi, xs - lo
        s = prefix[np.clip(b - o2 + 1, 0, n2)] - prefix[np.clip(a - o2, 0, n2)]
        np.multiply(w1, s, out=buf[1 : rows + 1])
        if xs.size == 1:
            # a single column would be reduced pairwise; accumulate stays in order
            buf[0] = np.add.accumulate(buf[: rows + 1], axis=0)[rows]
        else:
            # along the slow axis the reduction adds row after row
            buf[0] = np.add.reduce(buf[: rows + 1], axis=0)
    return buf[0] / count, count


def oracle_gather_field(body, t, f1, f2, mode="continuum_quadrature") -> Field:
    req = AvgRequest(body, t, f1, f2, mode)
    d = body.d
    pts = _points(body, req.scaled_t)
    if len(pts) == 0:
        raise DegenerateScale(f"no nodes in the body dilate at t={t}")
    axes = f1.box.lattice_axes()
    grids = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([g.ravel() for g in grids], axis=-1)
    acc = np.zeros(len(xs))
    for start in range(0, len(pts), 1024):
        chunk = pts[start : start + 1024]
        v1 = f1.values_at(xs[:, None, :] + req.sign * chunk[None, :, :d])
        v2 = f2.values_at(xs[:, None, :] + req.sign * chunk[None, :, d:])
        acc += np.sum(v1 * v2, axis=1)
    return Field(f1.box, acc / len(pts))


def oracle_dtt_field(L, t, f1, f2) -> Field:
    h = f1.box.mesh
    T = t / h
    R = int(np.ceil(T))
    j = np.arange(-R, R + 1, dtype=np.int64)
    j = j[np.abs(j) < T]
    if j.size == 0:
        raise DegenerateScale(f"no quadrature nodes at t={t}")
    o, n = f1.box.origin[0], f1.box.extent[0]
    xs = np.arange(o, o + n, dtype=np.int64)
    acc = np.zeros(n)
    for u1 in j:
        y1 = np.rint(L[0, 0] * u1 + L[0, 1] * j).astype(np.int64)
        y2 = np.rint(L[1, 0] * u1 + L[1, 1] * j).astype(np.int64)
        i1 = xs[:, None] + y1[None, :] - o
        i2 = xs[:, None] + y2[None, :] - o
        v1 = np.where((i1 >= 0) & (i1 < n), f1.samples[np.clip(i1, 0, n - 1)], 0.0)
        v2 = np.where((i2 >= 0) & (i2 < n), f2.samples[np.clip(i2, 0, n - 1)], 0.0)
        acc += np.sum(v1 * v2, axis=1)
    return Field(f1.box, acc / (j.size**2))


def oracle_ergodic_profile(beta, f1, f2, body, t, quad_mesh=None) -> np.ndarray:
    f1 = np.asarray(f1, dtype=np.float64).ravel()
    f2 = np.asarray(f2, dtype=np.float64).ravel()
    m = f1.size
    h = default_rotation_mesh(t) if quad_mesh is None else float(quad_mesh)
    beta = float(np.asarray(beta, dtype=np.float64).reshape(1)[0])
    pts = enumerate_lattice(body, t / h).points
    s1 = np.mod(np.rint(beta * h * pts[:, 0] * m).astype(np.int64), m)
    s2 = np.mod(np.rint(beta * h * pts[:, 1] * m).astype(np.int64), m)
    base = np.arange(m)
    acc = np.zeros(m)
    for a, b in zip(s1, s2):
        acc += f1[(base + a) % m] * f2[(base + b) % m]
    return acc / len(pts)


def oracle_node_average(a1, a2, y1, y2, run, extend) -> np.ndarray:
    """Each value read cell by cell and node by node, each run summed by
    ``np.sum`` per cell, the runs added in order."""
    shape = np.array(a1.shape)

    def value(a, p):
        if extend == "wrap":
            p = p % shape
        elif np.any((p < 0) | (p >= shape)):
            return 0.0
        return a[tuple(p)]

    cells = [np.array(c) for c in np.ndindex(*a1.shape)]
    acc = np.zeros(len(cells))
    for start in range(0, len(y1), run):
        nodes = range(start, min(start + run, len(y1)))
        prods = np.array([[value(a1, x + y1[i]) * value(a2, x + y2[i]) for i in nodes]
                          for x in cells])
        acc += np.sum(prods, axis=1)
    return acc / len(y1)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def offset_table(kind, rng, n, run, reach, d):
    """(y1, y2): n nodes uniform in [-reach, reach] (``"random"``), or a table
    whose nodes share their differences as the callers' tables do:
    ``rint(L u)`` over a run x run u-grid in u1-major order, as
    ``dtt_avg_field`` builds it (``"linear"``), or rounded multiples of one
    irrational shift over the integer points of a square, as
    ``ergodic_avg_profile`` builds it (``"rotation"``)."""
    if kind == "random":
        return tuple(rng.integers(-reach, reach + 1, size=(n, d)) for _ in "12")
    if kind == "linear":
        j = np.arange(run) - run // 2
        u1, u2 = (u.reshape(-1, 1) for u in np.meshgrid(j, j, indexing="ij"))
        L = rng.uniform(-1.0, 1.0, size=(2, 2, d)) * max(reach, 1) / max(run // 2, 1)
        return tuple(np.rint(M[0] * u1 + M[1] * u2).astype(np.int64) for M in L)
    r = max(1, int(np.sqrt(n)) // 2)
    p1, p2 = (p.reshape(-1, 1) for p in np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1)))
    shift = np.sqrt(2.0) * max(reach, 1) * np.ones(d)
    return tuple(np.rint(shift * p).astype(np.int64) for p in (p1, p2))


def peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_outcome(new, old) -> bool:
    """Both raise DegenerateScale, or both return the same bits."""
    try:
        expected = old()
    except DegenerateScale:
        with pytest.raises(DegenerateScale):
            new()
        return True
    return same_bits(new(), expected)


# ---------------------------------------------------------------------------
# The kernel against a plain loop

@pytest.mark.parametrize("width", [1, 2, 1000])
@pytest.mark.parametrize("n_rows", [1, 6, 7, 8, 13, 50])
def test_ordered_sum_matches_plain_loop(width, n_rows):
    step = 7  # row counts below, at and across one block
    rng = np.random.default_rng(width * 100 + n_rows)
    mat = rng.normal(size=(n_rows, width)) * 10.0 ** rng.integers(-8, 9, size=(n_rows, 1))
    mat[n_rows // 2] = -0.0
    calls = []

    def fill(start, stop, out):
        calls.append((start, stop))
        out[:] = mat[start:stop]

    got = _ordered_sum(n_rows, width, step, fill)
    acc = np.zeros(width)
    for row in mat:
        acc += row
    assert same_bits(got, acc)
    assert calls == [(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


@pytest.mark.parametrize("width", [1, 2, 1000])
def test_ordered_sum_of_negative_zeros_is_positive_zero(width):
    def fill(start, stop, out):
        out[:] = -0.0

    got = _ordered_sum(9, width, 4, fill)
    assert np.all(got == 0.0) and not np.any(np.signbit(got))


def test_ordered_sum_is_sequential_for_one_column():
    # np.sum of this column gives 14.0; added in order, each 1e16 + 1.0 rounds back to 1e16
    col = np.array([1e16] + [1.0] * 15 + [-1e16])

    def fill(start, stop, out):
        out[:, 0] = col[start:stop]

    acc = 0.0
    for v in col:
        acc += v
    assert same_bits(_ordered_sum(col.size, 1, 64, fill), [acc])


@pytest.mark.parametrize("width", [1, 2, 1000])
@pytest.mark.parametrize("k", [*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257,
                               1023, 1024, 1025, 2100])
def test_pairwise_sum_matches_np_sum_of_contiguous_runs(k, width):
    # the guard on numpy's pairwise block: 8 running sums up to 128 terms,
    # halved at multiples of 8 above
    batch = 1 if width == 1000 else 3
    rng = np.random.default_rng(k * 10_000 + width)
    g = rng.normal(size=(batch, k, width)) * 10.0 ** rng.integers(-8, 9, size=(batch, k, width))
    g[rng.random(g.shape) < 0.1] = -0.0
    g[0, :, 0] = -0.0  # a run of negative zeros sums to +0.0
    runs = np.ascontiguousarray(g.transpose(0, 2, 1))
    assert same_bits(_pairwise_sum(g), np.sum(runs, axis=-1))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(1,), (6,), (17,), (1, 5), (3, 4), (2, 3, 4)]),
    st.integers(1, 120),
    st.integers(1, 40),
    st.sampled_from(["constant", "wrap"]),
    st.one_of(st.integers(0, 8), st.integers(9, 60), st.just(10**6)),
    st.sampled_from([_CHUNK_CELLS, 40, 7]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "linear", "rotation"]),
)
@example((6,), 24, 4, "constant", 3, 48, 0, "random")  # blocks of two full runs of 4 nodes
@example((3, 4), 23, 5, "constant", 2, _CHUNK_CELLS, 1, "random")  # d = 2, a short last run
@example((1,), 23, 5, "constant", 1, _CHUNK_CELLS, 2, "random")  # one cell, a short last run
@example((7,), 30, 3, "wrap", 50, 40, 3, "random")  # wrap, offsets past the extent
@example((3, 4), 40, 10, "wrap", 9, 60, 4, "random")  # wrap in d = 2, several runs per block
@example((17,), 60, 12, "constant", 10**6, _CHUNK_CELLS, 5, "random")  # offsets far past the extent
@example((3, 4), 30, 4, "constant", 10**6, _CHUNK_CELLS, 6, "random")
@example((3, 4), 30, 4, "wrap", 10**6, _CHUNK_CELLS, 7, "random")
@example((17,), 120, 50, "constant", 9, 40, 8, "random")  # a run longer than the chunk: one-cell pieces
@example((17,), 60, 12, "wrap", 9, 40, 9, "random")  # pieces of 3 cells, a short last piece
@example((3, 5), 120, 50, "constant", 4, 40, 10, "random")  # d = 2, each line cut into one-cell pieces
@example((2, 3, 4), 40, 8, "constant", 3, _CHUNK_CELLS, 11, "random")  # all six lines in one piece
@example((2, 3, 4), 24, 2, "wrap", 3, 40, 12, "random")  # pieces of five whole lines, then one
@example((8, 8), 2100, 1024, "constant", 6, _CHUNK_CELLS, 13, "random")  # sweep_d2: run 1024, short last run
# tables whose nodes share their differences: the product table is built
# (145 rows for 2025 nodes), or, with _CHUNK_CELLS at 7, does not fit
@example((64,), 1, 45, "constant", 40, _CHUNK_CELLS, 14, "linear")  # dtt_avg_field: run J = 45
@example((64,), 1, 45, "constant", 40, 7, 15, "linear")
@example((24,), 150, 1, "wrap", 30, _CHUNK_CELLS, 16, "rotation")  # ergodic_avg_profile: run 1
@example((24,), 150, 1, "wrap", 30, 7, 16, "rotation")
@example((3, 4), 1, 6, "constant", 5, _CHUNK_CELLS, 17, "linear")  # d = 2, a table of 21 rows
def test_node_average_matches_per_node_loop(shape, n, run, extend, reach, chunk, seed, kind):
    rng = np.random.default_rng(seed)
    a1, a2 = (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape) for _ in "12")
    a1.flat[0] = -0.0
    y1, y2 = offset_table(kind, rng, n, run, reach, len(shape))
    with mock.patch.object(averages, "_CHUNK_CELLS", chunk):
        got = _node_average(a1, a2, y1, y2, run, extend)
    assert same_bits(got, oracle_node_average(a1, a2, y1, y2, run, extend))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(1,), (6,), (17,), (64,), (3, 4), (2, 5)]),
    st.integers(1, 5),
    st.integers(1, 90),
    st.sampled_from([1, 4, 7]),
    st.sampled_from(["constant", "wrap"]),
    st.one_of(st.integers(0, 8), st.just(40)),
    st.sampled_from([_CHUNK_CELLS, 100, 40, 7]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "linear", "rotation"]),
)
@example((6,), 5, 30, 1, "wrap", 3, 100, 0, "random")  # tables of three rows, then two
@example((6,), 5, 30, 4, "constant", 3, 100, 1, "random")  # the same with runs of 4, a short last run
@example((17,), 3, 90, 7, "constant", 8, 40, 2, "random")  # no table: pieces of a few values
@example((3, 4), 4, 40, 4, "wrap", 2, 100, 3, "random")  # d = 2, a table per row
@example((3, 4), 2, 23, 5, "constant", 9, 7, 4, "random")  # d = 2, no table: one group
@example((1,), 3, 23, 5, "constant", 1, _CHUNK_CELLS, 5, "random")  # one cell, one table of three rows
@example((64,), 5, 1, 1, "wrap", 30, _CHUNK_CELLS, 6, "rotation")  # the ergodic suite's shape
def test_node_average_rows_match_one_row_calls(shape, rows, n, run, extend, reach, chunk, seed,
                                               kind):
    """Each row of a rows call is the bits of a one-row call on its arrays,
    whatever the table rule, the row groups and the piece sizes decide."""
    rng = np.random.default_rng(seed)
    size = (rows, *shape)
    a1, a2 = (rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size) for _ in "12")
    a1.reshape(rows, -1)[:, 0] = -0.0
    y1, y2 = offset_table(kind, rng, n, run, reach, len(shape))
    want = np.stack([_node_average(a1[i], a2[i], y1, y2, run, extend) for i in range(rows)])
    with mock.patch.object(averages, "_CHUNK_CELLS", chunk):
        assert same_bits(_node_average(a1, a2, y1, y2, run, extend), want)


@pytest.mark.parametrize("chunk, groups", [(_CHUNK_CELLS, 1), (100, 3), (60, 5), (7, 0)])
def test_node_average_splits_the_rows_into_table_groups(chunk, groups):
    # a 6-cell line with offsets in [-3, 3]: 13 deltas of 12 padded cells, so
    # a row's table holds 156 values; the pieces are 4 * chunk products, and
    # a table over 8 * chunk values is not built (no groups, one gather pass)
    rng = np.random.default_rng(0)
    a1, a2 = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    y1 = np.arange(-3, 4).repeat(7).reshape(-1, 1)
    y2 = np.tile(np.arange(-3, 4), 7).reshape(-1, 1)
    want = np.stack([_node_average(a1[i], a2[i], y1, y2, 1) for i in range(5)])
    with mock.patch.object(averages, "_CHUNK_CELLS", chunk), \
            mock.patch.object(averages, "_product_table", wraps=averages._product_table) as table:
        got = _node_average(a1, a2, y1, y2, 1)
    assert same_bits(got, want)
    assert table.call_count == groups
    # no group's table holds more than one piece, unless it holds one row
    assert all(args[2].size * args[0].size <= max(4 * chunk, 156) for args, _ in table.call_args_list)


def test_node_average_scratch_stays_within_the_chunk():
    # one 32 x 32 ball average at T = 4 is blocks of one 1024-node run: a
    # fill of the whole block at once peaked at 25 MB
    box = Box(2, (-16, -16), (32, 32), 1.0)
    rng = np.random.default_rng(0)
    f1, f2 = (Field(box, rng.normal(size=box.extent)) for _ in "12")
    avg_field(ball(2), 4.0, f1, f2)  # warm the lattice memo
    assert peak_bytes(lambda: avg_field(ball(2), 4.0, f1, f2)) < 2_000_000
    # the largest routes_dtt call: 512 cells, J = 89
    box = Box(1, (-256,), (512,), 24.0 / 256)
    f1, f2 = (Field(box, rng.normal(size=512)) for _ in "12")
    L = np.array([[1.0, 0.4], [-0.3, 0.9]])
    assert peak_bytes(lambda: dtt_avg_field(L, 2.25 * 2.0**0.9, f1, f2)) < 2_000_000
    # the ergodic suite's largest scale: m = 64 at t = 16, run 1
    g1, g2 = (rng.normal(size=64) for _ in "12")
    assert peak_bytes(lambda: ergodic_avg_profile([2.0**0.5], g1, g2, ball(1), 16.0)) < 2_000_000


# ---------------------------------------------------------------------------
# Each caller against the loop it replaced

@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(D1_BODIES) - 1),
    st.integers(-40, 10),
    st.one_of(st.integers(1, 40), st.integers(1500, 2500)),
    st.sampled_from(MESHES),
    st.floats(0.3, 12.0),
    st.integers(0, 2**32 - 1),
)
@example(len(D1_BODIES), -7, 25, 1.0, 7.3, 0)
@example(len(D1_BODIES), -20, 40, 1.0, 30.0, 1)
def test_sliced_kernel_matches_oracle(which, origin, n, mesh, t, seed):
    body = (D1_BODIES + SLANTED_BODIES)[which]
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=n))
    f2 = Field(box, rng.normal(size=n))
    for mode in averages.MODES:
        req = AvgRequest(body, t, f1, f2, mode)
        assert same_outcome(
            lambda: avg_field(body, t, f1, f2, mode).samples,
            lambda: oracle_sliced_values(req, box.lattice_axes()[0])[0],
        )
    req = AvgRequest(body, t, f1, f2, "lattice_counting")
    for x in (origin - 10**6, origin - 3, origin + n // 2, origin + n + 3, 10**9):
        assert same_outcome(
            lambda: fast_slice_avg(req, x),
            lambda: oracle_sliced_values(req, np.asarray([x], dtype=np.int64))[0][0],
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, len(D2_BODIES) - 1),
    st.tuples(st.integers(-12, 4), st.integers(-12, 4)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.sampled_from(MESHES),
    st.floats(0.3, 6.0),
    st.integers(0, 2**32 - 1),
)
@example(0, (-3, -2), (3, 4), 1.0, 5.5, 0)  # 12 cells; 4785 nodes fill five chunks of 1024
@example(len(D2_BODIES), (-2, 1, -3), (3, 2, 2), 0.37, 2.5, 3)  # d = 3: 1341 nodes in R^6, two chunks
def test_gather_field_matches_oracle(which, origin, extent, mesh, T, seed):
    body = (D2_BODIES + D3_BODIES)[which]
    box = Box(body.d, origin, extent, mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=extent))
    f2 = Field(box, rng.normal(size=extent))
    for mode, t in (("continuum_quadrature", T * mesh), ("lattice_counting", T)):
        assert same_outcome(
            lambda: avg_field(body, t, f1, f2, mode).samples,
            lambda: oracle_gather_field(body, t, f1, f2, mode).samples,
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-300, 10),
    st.one_of(st.integers(1, 40), st.integers(300, 700)),
    st.sampled_from(MESHES),
    st.floats(0.1, 12.0),
    st.integers(0, 2**32 - 1),
    st.just(None),
)
@example(-3, 5, 1.0, 2.5, 1, None)  # n J = 25: blocks of many rows
@example(-350, 700, 0.25, 8.0, 2, None)  # n J = 44100: one row per block
@example(-32, 64, 1.0, 10.0, 3, [[2e5, 0.0], [0.0, 1.0]])  # offsets up to 1.8e6 cells
def test_dtt_field_matches_oracle(origin, n, mesh, t, seed, lam):
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=n))
    f2 = Field(box, rng.normal(size=n))
    ordinary = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    L = ordinary if lam is None else np.asarray(lam)
    assert same_outcome(
        lambda: dtt_avg_field(L, t, f1, f2).samples,
        lambda: oracle_dtt_field(L, t, f1, f2).samples,
    )
    if lam is not None:
        # offsets past the box read zeros; they must not widen the padding
        assert peak_bytes(lambda: dtt_avg_field(L, t, f1, f2)) <= 2 * peak_bytes(
            lambda: dtt_avg_field(ordinary, t, f1, f2))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2),
    st.one_of(st.just(1), st.integers(2, 200)),
    st.floats(0.0, 3.0),
    st.floats(0.5, 16.0),
    st.sampled_from([None, 0.5, 0.125]),
    st.integers(0, 2**32 - 1),
)
@example(0, 1, 1.3, 8.0, None, 0)
def test_ergodic_profile_matches_oracle(which, m, beta, t, quad_mesh, seed):
    body = D1_BODIES[which]
    rng = np.random.default_rng(seed)
    f1 = rng.normal(size=m)
    f2 = rng.normal(size=m)
    assert same_bits(
        ergodic_avg_profile([beta], f1, f2, body, t, quad_mesh=quad_mesh),
        oracle_ergodic_profile([beta], f1, f2, body, t, quad_mesh=quad_mesh),
    )


# ---------------------------------------------------------------------------
# The sweep against a loop of one-scale calls

def per_scale_loop(body, grid, f1, f2, mode) -> np.ndarray:
    return np.stack([avg_field(body, t, f1, f2, mode).samples.ravel() for t in grid.times])


# lattice radii of the ball and the cube (sqrt 2 and 3 sqrt 2 are the cube's)
RADII = [1.0, np.sqrt(2.0), 2.0, np.sqrt(5.0), 3.0, 3.0 * np.sqrt(2.0), 5.0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(D1_BODIES)),
    st.integers(-40, 10),
    st.integers(1, 40),
    st.sampled_from(MESHES),
    st.lists(st.floats(0.3, 12.0), max_size=6),
    st.sampled_from(RADII),
    st.integers(0, 2**32 - 1),
)
@example(len(D1_BODIES), -20, 40, 1.0, [7.3, 30.0], 3.0, 1)  # rows with gaps
def test_sweep_matches_per_scale_loop(which, origin, n, mesh, ts, radius, seed):
    body = (D1_BODIES + SLANTED_BODIES)[which]
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=n))
    f2 = Field(box, rng.normal(size=n))
    for mode in averages.MODES:
        # the radius in the mode's units, and one rounding step either side of it
        r = radius if mode == "lattice_counting" else radius * mesh
        grid = TimeGrid(tuple(sorted({*ts, np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)})))
        assert same_outcome(
            lambda: avg_field_sweep(body, grid, f1, f2, mode),
            lambda: per_scale_loop(body, grid, f1, f2, mode),
        )


@pytest.mark.parametrize("body", D2_BODIES, ids=lambda b: type(b).__name__)
def test_sweep_matches_per_scale_loop_d2(body):
    box = Box(2, (-3, -2), (3, 4), 0.37)
    rng = np.random.default_rng(4)
    f1 = Field(box, rng.normal(size=box.extent))
    f2 = Field(box, rng.normal(size=box.extent))
    for mode in averages.MODES:
        unit = box.mesh if mode == "continuum_quadrature" else 1.0
        grid = TimeGrid(tuple(T * unit for T in (1.0, 1.5, 2.5)))
        assert same_bits(avg_field_sweep(body, grid, f1, f2, mode),
                         per_scale_loop(body, grid, f1, f2, mode))
    assert avg_field_sweep(body, TimeGrid(()), f1, f2).shape == (0, 12)


def test_sweep_raises_the_loops_degenerate_scale():
    # direct construction bypasses the certificate spot-check: the annulus
    # 0.9 t <= |y| <= t holds no lattice point at t = 0.5 or t = 1.3
    hollow = CustomBody(
        d=1, r_in=0.5,
        predicate=lambda y: (np.linalg.norm(y, axis=1) <= 1.0)
        & (np.linalg.norm(y, axis=1) >= 0.9),
    )
    box = Box(1, (-5,), (11,), 1.0)
    f = Field(box, np.arange(11.0))
    for times, first in (((1.0, 1.3, 2.0), 1.3), ((0.5, 1.0, 1.3), 0.5)):
        grid = TimeGrid(times)
        for mode in averages.MODES:
            with pytest.raises(DegenerateScale) as loop:
                per_scale_loop(hollow, grid, f, f, mode)
            assert str(loop.value).endswith(f"t={first}")
            with pytest.raises(DegenerateScale, match=f"^{re.escape(str(loop.value))}$"):
                avg_field_sweep(hollow, grid, f, f, mode)


def test_sweep_leaves_the_memo_and_counts_of_the_loop():
    body = ball(1)
    f = Field(Box(1, (-8,), (16,), 1.0), np.ones(16))
    grid = TimeGrid(tuple(1.0 + 0.5 * i for i in range(13)))

    def run(route):
        averages._POINT_CACHE.clear()
        # the last scale's table is cached and the memo is six entries short
        # of clearing itself, so the seventh scale's insertion evicts it
        for i in range(250):
            averages._POINT_CACHE[("filler", i)] = ()
        avg_field(body, grid.times[-1], f, f)
        before = dict(averages.CACHE_COUNTS)
        route(body, grid, f, f, "continuum_quadrature")
        counts = {k: averages.CACHE_COUNTS[k] - before[k] for k in before}
        return counts, list(averages._POINT_CACHE)

    try:
        loop = run(per_scale_loop)
        assert loop[0] == {"hits": 0, "misses": 13}
        assert run(avg_field_sweep) == loop
    finally:
        averages._POINT_CACHE.clear()


# ---------------------------------------------------------------------------
# The point sweep against a loop of one-scale point averages

def point_loop(at, body, grid, f1, f2, x, mode) -> np.ndarray:
    return np.array([at(AvgRequest(body, t, f1, f2, mode), x) for t in grid.times])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(D1_BODIES)),
    st.integers(-40, 10),
    st.integers(1, 40),
    st.sampled_from([1.0, *MESHES]),
    st.lists(st.floats(0.3, 12.0), max_size=6),
    st.sampled_from(RADII),
    st.integers(-60, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 9, 40, averages._POINT_NODES]),
)
@example(len(D1_BODIES), -20, 40, 1.0, [7.3, 30.0], 3.0, -45, 1, averages._POINT_NODES)  # rows with gaps, x outside
def test_avg_sweep_matches_avg_at_loop(which, origin, n, mesh, ts, radius, dx, seed, budget):
    body = (D1_BODIES + SLANTED_BODIES)[which]
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=n))
    f2 = Field(box, rng.normal(size=n))
    x = [origin + dx]  # up to 60 cells outside the box on either side
    default, averages._POINT_NODES = averages._POINT_NODES, budget  # scales per gather
    try:
        for mode in averages.MODES:
            r = radius if mode == "lattice_counting" else radius * mesh
            grid = TimeGrid(tuple(sorted({*ts, np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)})))
            for at in (avg_at, oracle_avg_at):
                assert same_outcome(lambda: avg_sweep(body, grid, f1, f2, x, mode),
                                    lambda: point_loop(at, body, grid, f1, f2, x, mode))
    finally:
        averages._POINT_NODES = default


@pytest.mark.parametrize("budget", [1, 100, None])
@pytest.mark.parametrize("body", D2_BODIES, ids=lambda b: type(b).__name__)
def test_avg_sweep_matches_avg_at_loop_d2(body, budget, monkeypatch):
    if budget is not None:  # the scales per gather: one each, a few, all
        monkeypatch.setattr(averages, "_POINT_NODES", budget)
    box = Box(2, (-3, -2), (3, 4), 0.37)
    rng = np.random.default_rng(4)
    f1 = Field(box, rng.normal(size=box.extent))
    f2 = Field(box, rng.normal(size=box.extent))
    for mode in averages.MODES:
        unit = box.mesh if mode == "continuum_quadrature" else 1.0
        grid = TimeGrid(tuple(T * unit for T in (1.0, 1.5, 2.5)))
        for x in ([-1, 0], [-9, 5], [4, -7]):  # inside, and outside on both sides
            expected = point_loop(oracle_avg_at, body, grid, f1, f2, x, mode)
            assert same_bits(avg_sweep(body, grid, f1, f2, x, mode), expected)
            assert same_bits(point_loop(avg_at, body, grid, f1, f2, x, mode), expected)


@pytest.mark.parametrize("sizes, budget, runs", [
    ([], 4, [[]]),
    ([3], 1, [[3]]),
    ([1, 2, 3, 9, 1, 1], 4, [[1, 2], [3], [9], [1, 1]]),
    ([5, 5, 5], 10, [[5, 5], [5]]),
    ([2] * 5, 2**14, [[2] * 5]),
])
def test_node_groups_keep_order_under_the_budget(sizes, budget, runs, monkeypatch):
    monkeypatch.setattr(averages, "_POINT_NODES", budget)
    assert [list(map(len, g)) for g in averages._node_groups([np.zeros((k, 2)) for k in sizes])] == runs


def test_avg_sweep_raises_the_loops_degenerate_scale():
    hollow = CustomBody(
        d=1, r_in=0.5,
        predicate=lambda y: (np.linalg.norm(y, axis=1) <= 1.0)
        & (np.linalg.norm(y, axis=1) >= 0.9),
    )
    box = Box(1, (-5,), (11,), 1.0)
    f = Field(box, np.arange(11.0))
    for times, first in (((1.0, 1.3, 2.0), 1.3), ((0.5, 1.0, 1.3), 0.5)):
        grid = TimeGrid(times)
        for mode in averages.MODES:
            with pytest.raises(DegenerateScale) as loop:
                point_loop(oracle_avg_at, hollow, grid, f, f, [2], mode)
            assert str(loop.value).endswith(f"t={first}")
            with pytest.raises(DegenerateScale, match=f"^{re.escape(str(loop.value))}$"):
                avg_sweep(hollow, grid, f, f, [2], mode)


def test_avg_sweep_leaves_the_memo_and_counts_of_the_loop():
    body = ball(1)
    f = Field(Box(1, (-8,), (16,), 1.0), np.ones(16))
    grid = TimeGrid(tuple(1.0 + 0.5 * i for i in range(13)))

    def run(route):
        averages._POINT_CACHE.clear()
        # the last scale's points are cached and the memo is six entries short
        # of clearing itself, so the seventh scale's insertion evicts them
        for i in range(250):
            averages._POINT_CACHE[("filler", i)] = ()
        avg_at(AvgRequest(body, grid.times[-1], f, f), [3])
        before = dict(averages.CACHE_COUNTS)
        route(body, grid, f, f, [3], "continuum_quadrature")
        counts = {k: averages.CACHE_COUNTS[k] - before[k] for k in before}
        return counts, list(averages._POINT_CACHE)

    try:
        loop = run(lambda *args: point_loop(oracle_avg_at, *args))
        assert loop[0] == {"hits": 0, "misses": 13}
        assert run(avg_sweep) == loop
    finally:
        averages._POINT_CACHE.clear()


# ---------------------------------------------------------------------------
# The square function against its per-level loop

def oracle_square_function(f1, f2, body, k_range):
    def piece(k):
        a = avg_field(body, (2.0**k) * f1.box.mesh, f1, f2, "continuum_quadrature")
        return a.samples - cond_expect(f1, k).samples * cond_expect(f2, k).samples

    k_lo, k_hi = k_range
    pieces = {k: piece(k) for k in range(k_lo, k_hi + 1)}
    sq = np.zeros(f1.box.extent)
    for p in pieces.values():
        sq += p * p
    return pieces, np.sqrt(sq), float(np.abs(piece(k_hi + 1)).max())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(D1_BODIES) - 1),
    st.integers(-40, 40),
    st.integers(1, 40),
    st.sampled_from(MESHES),
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 4))),
    st.sampled_from(["normal", "zeros", "signed_zeros"]),
    st.integers(0, 2**32 - 1),
)
@example(0, -7, 16, 1.0, None, "zeros", 0)  # every piece a zero
@example(len(D1_BODIES), -40, 33, 0.25, (1, 2), "signed_zeros", 1)
def test_square_function_matches_per_level_loop(which, origin, n, mesh, levels, kind, seed):
    body = (D1_BODIES + SLANTED_BODIES)[which]
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=n))
    f2 = rng.normal(size=n)
    if kind != "normal":
        f2[(rng.random(n) < 0.5) if kind == "signed_zeros" else slice(None)] = -0.0
    f2 = Field(box, f2)
    k_range = None if levels is None else (levels[0], levels[0] + levels[1])
    try:
        pieces, aggregate, tail_max = oracle_square_function(
            f1, f2, body, k_range or level_range(box))
    except DegenerateScale:
        with pytest.raises(DegenerateScale):
            square_function(f1, f2, body, k_range)
        return
    sp = square_function(f1, f2, body, k_range)
    assert list(sp.pieces) == list(pieces)
    for i, (k, piece) in enumerate(pieces.items()):  # bytes keep the signs of zeros
        assert same_bits(sp.pieces[k].samples, piece)
        assert same_bits(square_piece(f1, f2, body, k).samples, piece)
        assert same_bits(sp.averages[i], avg_field(body, (2.0**k) * mesh, f1, f2).samples)
        assert same_bits(sp.products[i], cond_expect(f1, k).samples * cond_expect(f2, k).samples)
    assert same_bits(sp.aggregate.samples, aggregate)
    assert same_bits(sp.tail_max, tail_max)
    assert sp.averages.shape == sp.products.shape == (len(pieces), n)
    assert not sp.averages.flags.writeable and not sp.products.flags.writeable
