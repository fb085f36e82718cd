"""Every trial of a sweep grid in one batch, bit for bit.

The d = 1 sliced kernel takes requests that differ in their fields as well as
in their scale, the slice-table memo is filled once per distinct scale, the
dyadic-BMO scan takes many fields at once, and ``run_norm_sweep`` evaluates
its trials together.  Each is held to the code it replaced, copied below
unchanged as an oracle: the one-pair sliced sweep, the one-field BMO scan and
the per-trial sweep loop (docs/notes.md, note 11).
"""

import re
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
    _field_values,
    _slices,
    avg_field,
    avg_field_sweep,
)
from bivariation.bodies import (
    CustomBody,
    ball,
    body_from_descriptor,
    cube,
    gamma_body,
    normalize,
    polytope_body,
    slice_tables,
)
from bivariation.dyadic import cells_by_cube_size, level_range
from bivariation.fields import Box, Field, _bmo_rows, bmo_dyadic_norm, lp_norm, weak_lp_quasinorm
from bivariation.harness import suites
from bivariation.harness.ceilings import sweep_key
from bivariation.harness.config import ExperimentConfig
from bivariation.harness.generators import random_pair, standard_box, trial_rng
from bivariation.variation import vq_value_batch

_CHUNK_CELLS = averages._CHUNK_CELLS

D1_BODIES = [
    ball(1),
    cube(1),
    gamma_body(1, [[1.0, 0.4], [-0.2, 0.8]]),
    polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
    normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
    # a slanted gamma body whose slice tables skip rows
    gamma_body(1, [[1, 3.1], [0.02, 0.01]]),
]

MESHES = [0.25, 0.37, 2.0]


# ---------------------------------------------------------------------------
# Oracles: the code the batch replaced

def oracle_sweep_values(reqs, x, width):
    """The one-pair sliced kernel: requests that differ only in their scale."""
    req = reqs[0]
    f1, f2 = req.f1, req.f2
    n = f1.box.extent[0]
    tables = slice_tables([(req.body, r.scaled_t) for r in reqs])
    counts = [int(np.sum(hi - lo + 1)) for _, lo, hi in tables]
    for r, count in zip(reqs, counts):
        if count == 0:
            raise DegenerateScale(f"no nodes in the body dilate at t={r.t}")
    if req.sign < 0:
        tables = [(-ks, -hi, -lo) for ks, lo, hi in tables]
    R = max(int(max(np.abs(k).max(), np.abs(lo).max(), np.abs(hi).max() + 1))
            for k, lo, hi in tables) + 1
    E = 2 * R
    off = min(max(int(x) - f1.box.origin[0], -R), n + R - width) + E
    ext1 = np.zeros(n + 2 * E)
    ext1[E : E + n] = f1.samples
    extp = np.zeros(n + 2 * E + 1)
    np.cumsum(f2.samples, out=extp[E + 1 : E + n + 1])
    extp[E + n + 1 :] = extp[E + n]
    f1w = np.lib.stride_tricks.sliding_window_view(ext1, width)
    pw = np.lib.stride_tricks.sliding_window_view(extp, width)
    step = max(1, _CHUNK_CELLS // width)

    def total(k1, lo, hi):
        def fill(start, stop, out):
            rows = slice(start, stop)
            w1 = f1w[k1[rows] + off]
            np.subtract(pw[hi[rows] + (off + 1)], pw[lo[rows] + off], out=out)
            np.multiply(w1, out, out=out)

        return averages._ordered_sum(len(k1), width, step, fill)

    values = np.empty((len(tables), width))
    for i, (table, count) in enumerate(zip(tables, counts)):
        values[i] = total(*table) / count
    return values


def oracle_bmo(f):
    """The one-field scan over every level 0..top."""
    if not np.any(f.samples):
        return 0.0
    _, j_top = level_range(f.box)
    flat = f.samples.ravel()
    best = 0.0
    for level in range(0, j_top + 1):
        for cells in cells_by_cube_size(f.box, level):
            block = flat[cells]
            a = np.median(block, axis=1)
            osc = np.mean(np.abs(block - a[:, None]), axis=1)
            best = max(best, float(osc.max()))
    return best


def oracle_norm_sweep_rows(cfg):
    """The per-trial sweep loop, each trial's matrix from the one-pair kernel."""
    body = body_from_descriptor(cfg.body, cfg.d)
    box = standard_box(cfg)

    def one(trial):
        rng = trial_rng(cfg.seed, trial)
        f1, f2, fam1, fam2 = random_pair(box, rng)
        grid = TimeGrid.dyadic_spanning(0, 6, per_block=1, rng=rng)
        reqs = [AvgRequest(body, t, f1, f2) for t in grid.times]
        mat = oracle_sweep_values(reqs, box.origin[0], box.extent[0])
        vq = vq_value_batch(mat.T, cfg.q).reshape(box.extent)
        vfield = Field(box, vq)
        if cfg.norm == "strong":
            num = lp_norm(vfield, cfg.p)
            den = lp_norm(f1, cfg.p1) * lp_norm(f2, cfg.p2)
        elif cfg.norm == "weak":
            num = weak_lp_quasinorm(vfield, cfg.p)
            den = lp_norm(f1, cfg.p1) * lp_norm(f2, cfg.p2)
        else:
            num = oracle_bmo(vfield)
            den = lp_norm(f1, np.inf) * lp_norm(f2, np.inf)
        return trial, fam1, fam2, len(grid), num, den, suites._ratio(num, den)

    return [one(trial) for trial in range(cfg.trials)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The sliced kernel over many field pairs

@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(D1_BODIES) - 1),
    st.integers(-40, 10),
    st.integers(1, 40),
    st.sampled_from(MESHES),
    st.lists(st.floats(0.3, 12.0), min_size=1, max_size=5),
    st.lists(st.lists(st.integers(0, 4), max_size=4), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
@example(len(D1_BODIES) - 1, -20, 40, 1.0, [7.3, 30.0], [[0, 1], [1], [0, 1]], 1)
@example(0, -7, 1, 0.25, [2.0, 3.5], [[0], [0, 1], [1]], 2)  # one cell: one column per scale
def test_multi_pair_kernel_matches_per_pair_sweeps(which, origin, n, mesh, pool, picks, seed):
    # each pair's grid picks from a shared pool, so some scales are shared
    # by several pairs and some belong to one
    body = D1_BODIES[which]
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    fields = [(Field(box, rng.normal(size=n)), Field(box, rng.normal(size=n))) for _ in picks]
    rows1 = np.stack([f1.samples for f1, _ in fields])
    rows2 = np.stack([f2.samples for _, f2 in fields])
    for mode in averages.MODES:
        grids = [TimeGrid(tuple(sorted({pool[i % len(pool)] for i in pick}))) for pick in picks]
        reqs = [(body, t, p) for p, grid in enumerate(grids) for t in grid.times]
        if not reqs:
            continue
        try:
            want = [oracle_sweep_values([AvgRequest(body, t, f1, f2, mode) for t in grid.times],
                                        origin, n) if len(grid) else np.zeros((0, n))
                    for (f1, f2), grid in zip(fields, grids)]
        except DegenerateScale:
            with pytest.raises(DegenerateScale):
                _field_values(box, mode, reqs, rows1, rows2)
            continue
        got = _field_values(box, mode, reqs, rows1, rows2)
        at = 0
        for (f1, f2), grid, rows in zip(fields, grids, want):
            assert same_bits(got[at : at + len(grid)], rows)
            assert same_bits(avg_field_sweep(body, grid, f1, f2, mode), rows)
            at += len(grid)
        assert at == len(got)


def test_multi_pair_kernel_shares_one_extension_per_pair():
    # the same pair behind several requests at one scale: equal columns
    box = Box(1, (-3,), (9,), 1.0)
    f1, f2 = Field(box, np.arange(9.0)), Field(box, np.cos(np.arange(9.0)))
    # pair 1 holds the arrays of pair 0
    rows1, rows2 = np.stack([f1.samples, f1.samples]), np.stack([f2.samples, f2.samples])
    reqs = [(ball(1), t, p) for t in (2.0, 3.0) for p in (0, 0, 1)]
    got = _field_values(box, "continuum_quadrature", reqs, rows1, rows2)
    want = oracle_sweep_values([AvgRequest(ball(1), t, f1, f2) for t in (2.0, 3.0)], -3, 9)
    assert same_bits(got, np.repeat(want, 3, axis=0))


@pytest.mark.parametrize("mode", averages.MODES)
@pytest.mark.parametrize("box, body", [
    (Box(1, (-6,), (13,), 0.37), gamma_body(1, [[1.0, 0.4], [-0.2, 0.8]])),
    (Box(2, (-2, 3), (5, 4), 0.5), ball(2)),
], ids=["d1", "d2"])
def test_kernel_rows_read_by_several_requests_match_separate_calls(box, body, mode):
    # requests 0 and 2 read pair 0, and pairs 1 and 2 hold equal arrays
    rng = np.random.default_rng(4)
    f = [Field(box, rng.normal(size=box.cell_count)) for _ in range(3)]
    pairs = [(f[0], f[1]), (f[2], f[0]), (Field(box, f[2].samples), Field(box, f[0].samples))]
    rows1 = np.stack([a.samples.ravel() for a, _ in pairs])
    rows2 = np.stack([b.samples.ravel() for _, b in pairs])
    reqs = [(body, 1.5, 0), (body, 2.25, 1), (body, 2.25, 0), (body, 1.5, 2), (body, 2.25, 2)]
    got = _field_values(box, mode, reqs, rows1, rows2)
    for row, (_, t, p) in zip(got, reqs):
        assert same_bits(row, avg_field(body, t, *pairs[p], mode).samples.ravel())
    assert same_bits(got[1], got[4])


def test_multi_pair_kernel_raises_the_first_degenerate_request():
    # the annulus 0.9 t <= |y| <= t holds no lattice point at t = 0.5 or 1.3
    hollow = CustomBody(
        d=1, r_in=0.5,
        predicate=lambda y: (np.linalg.norm(y, axis=1) <= 1.0)
        & (np.linalg.norm(y, axis=1) >= 0.9),
    )
    box = Box(1, (-5,), (11,), 1.0)
    rows = np.stack([np.arange(11.0), np.ones(11)])
    for mode in averages.MODES:
        reqs = [(hollow, t, p) for p, ts in enumerate(((1.0, 2.0), (1.3, 0.5))) for t in ts]
        with pytest.raises(DegenerateScale, match=f"^{re.escape('no nodes in the body dilate at t=1.3')}$"):
            _field_values(box, mode, reqs, rows, rows)


# ---------------------------------------------------------------------------
# The slice-table memo: each missing scale built once, the loop's lookups

def test_slices_build_each_repeated_scale_once():
    body = ball(1)
    Ts = [3.0, 5.5, 3.0, 7.25, 5.5, 3.0, 9.0, 7.25]
    built = []

    def counting(keys):
        built.extend(t for _, t in keys)
        return slice_tables(keys)

    def run(route):
        averages._POINT_CACHE.clear()
        averages._POINT_CACHE[(body, 9.0, "slices")] = slice_tables([(body, 9.0)])[0]
        before = dict(averages.CACHE_COUNTS)
        tables = route()
        counts = {k: averages.CACHE_COUNTS[k] - before[k] for k in before}
        return tables, counts, list(averages._POINT_CACHE)

    try:
        loop = run(lambda: [_slices([(body, T)])[0] for T in Ts])
        with mock.patch.object(averages, "slice_tables", counting):
            batch = run(lambda: _slices([(body, T) for T in Ts]))
        assert sorted(built) == [3.0, 5.5, 7.25]
        assert loop[1] == batch[1] == {"hits": 5, "misses": 3}
        assert loop[2] == batch[2]
        for a, b in zip(loop[0], batch[0]):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
    finally:
        averages._POINT_CACHE.clear()


def test_slices_replay_the_loops_evictions():
    # a repeated scale whose entry is cleared between its two lookups is a
    # miss both times, as in the loop, and is still built once
    body = cube(1)
    Ts = [2.0 + 0.5 * i for i in range(8)] + [2.0]
    built = []

    def counting(keys):
        built.extend(t for _, t in keys)
        return slice_tables(keys)

    def run(route):
        averages._POINT_CACHE.clear()
        for i in range(252):
            averages._POINT_CACHE[("filler", i)] = ()
        before = dict(averages.CACHE_COUNTS)
        route()
        counts = {k: averages.CACHE_COUNTS[k] - before[k] for k in before}
        return counts, list(averages._POINT_CACHE)

    try:
        loop = run(lambda: [_slices([(body, T)]) for T in Ts])
        with mock.patch.object(averages, "slice_tables", counting):
            batch = run(lambda: _slices([(body, T) for T in Ts]))
        assert built == Ts[:-1]
        assert loop == batch
        assert loop[0] == {"hits": 0, "misses": 9}
    finally:
        averages._POINT_CACHE.clear()


# ---------------------------------------------------------------------------
# The dyadic-BMO scan over many fields

# boxes whose top levels hold one cube, on one or both sides of the origin,
# and one whose levels 1 and 2 share a partition below a coarser level 3
BMO_BOXES = [
    Box(1, (0,), (64,)),
    Box(1, (0,), (256,), 0.25),
    Box(1, (2,), (4,)),
    Box(1, (-37,), (50,)),
    Box(1, (5,), (1,)),
    Box(1, (-100,), (256,)),
    Box(2, (-5, 3), (11, 6)),
    Box(2, (0, 0), (8, 8)),
]


@pytest.mark.parametrize("box", BMO_BOXES, ids=lambda b: f"{b.origin}+{b.extent}")
def test_bmo_rows_match_the_one_field_scan(box):
    rng = np.random.default_rng(box.cell_count)
    for P in range(1, 13):
        # increasing rows, as q-variations are, plus signed noise over many scales
        rows = np.abs(rng.normal(size=(P, box.cell_count))).cumsum(axis=1)
        rows[P // 2] = rng.normal(size=box.cell_count) * 10.0 ** rng.integers(-6, 6, size=box.cell_count)
        if P > 2:
            rows[1] = 0.0
        got = _bmo_rows(box, rows)
        assert got.shape == (P,)
        for row, value in zip(rows, got.tolist()):
            f = Field(box, row.reshape(box.extent))
            assert repr(value) == repr(oracle_bmo(f)) == repr(bmo_dyadic_norm(f))


# ---------------------------------------------------------------------------
# The sweep suite against its per-trial loop

SWEEPS = [
    dict(norm="strong", p1=2.0, p2=2.0, p=1.0),
    dict(norm="weak", p1=1.0, p2=2.0, p=2.0 / 3.0),
    dict(norm="bmo", p1=np.inf, p2=np.inf, p=np.inf),
]


@pytest.mark.parametrize("setting", SWEEPS, ids=lambda s: s["norm"])
@pytest.mark.parametrize("body", ["ball", "gamma:1,0.4,-0.2,0.8"])
def test_norm_sweep_rows_match_the_per_trial_loop(setting, body):
    for grid, seed in ((8, 0), (16, 5), (64, 3)):
        cfg = ExperimentConfig(suite="sweep", body=body, grid=grid, trials=6, seed=seed,
                               q=3.0, **setting).validate()
        want = oracle_norm_sweep_rows(cfg)
        rep = suites.run_norm_sweep(cfg)
        assert repr(rep.rows) == repr(want)
        ratios = [row[-1] for row in want]
        assert rep.max_ratio == suites._sup_finite(ratios)
        assert rep.ceiling == suites.ceiling_for(
            sweep_key(cfg.norm, cfg.p1, cfg.p2, cfg.p, cfg.q), None)


def test_norm_sweep_rows_do_not_depend_on_the_batch_size():
    cfg = ExperimentConfig(suite="sweep", norm="bmo", p1=np.inf, p2=np.inf, p=np.inf,
                           grid=16, trials=7, seed=2).validate()
    whole = suites.run_norm_sweep(cfg).rows
    # one trial per batch, and batches of three trials with a short last one
    for values in (1, 3 * 13 * 16):
        with mock.patch.object(suites, "_BATCH_VALUES", values):
            assert repr(suites.run_norm_sweep(cfg).rows) == repr(whole)
