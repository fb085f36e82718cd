"""The identities, carleson, domination, cz, square and ergodic suites
evaluate their trials together, bit for bit.

The projection ladder takes many fields at once (``martingale._ladder_rows``),
``martingale._telescope_rows`` makes one averaging call for every piece of a
batch of telescope trials, and the suites draw their trials first and then
make one ladder pass, one BMO scan and one q-variation DP, whose rows of
different lengths are padded.  The domination trials make
one averaging call and one stack of cube-value grids per level, and the cz
decompositions one level-wise descent.  The square trials make one sweep,
one ladder and one DP batch, and the ergodic trials one node-table pass per
shared scale.  Each is held to the code it replaced, copied below unchanged
as an oracle: the one-field projection, the per-piece telescope, the
per-field maximal functions, the per-root descent with root-box pieces, the
choice-based trial generators and the per-trial suite loops (docs/notes.md,
notes 12, 13 and 16).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariation import averages, bodies, martingale, variation
from bivariation.averages import TimeGrid, avg_field
from bivariation.bodies import ball, body_from_descriptor, cube, gamma_body
from bivariation.cz import CZCertificate, CZOutput, MAX_ROOT_CELLS, format_cz_report
from bivariation.dyadic import (
    DyadicCube,
    cell_cube_ids,
    cells_by_cube,
    covering_level,
    cube_cell_values,
    cube_slices,
    level_range,
    orthant_regions,
)
from bivariation.extremal import ergodic_avg_profile, sample_torus
from bivariation.fields import Box, Field, bmo_dyadic_norm, lp_norm
from bivariation.harness import suites
from bivariation.harness.config import ExperimentConfig, with_updates
from bivariation.harness.generators import (
    FAMILIES,
    random_body,
    random_field,
    random_measurable_pair,
    random_pair,
    random_step_field,
    standard_box,
    trial_rng,
)
from bivariation.martingale import (
    TELESCOPE_TOL,
    WEIGHTED_PAD_FACTOR,
    MeasurabilityError,
    _cube_value_grids,
    _ladder_rows,
    _maximal_rows,
    _neighbor_max,
    bilinear_maximal,
    carleson_weighted_sum,
    cond_expect,
    domination_check,
    measurable_field,
    paraproduct_telescope,
    star_maximal,
    young_convolution_check,
)
from bivariation.squarefn import long_variation_check, square_function
from bivariation.variation import sup_vs_variation_check, vq_exact, vq_value_batch


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Oracles: the code the batches replaced

def oracle_cond_expect(f, j):
    """The one-field projection, flat."""
    if j == 0:
        return f.samples.ravel()
    ids, _, ncubes = cell_cube_ids(f.box, j)
    if ncubes == 1:
        return np.full(f.box.extent, float(np.mean(f.samples))).ravel()
    sums = np.bincount(ids, weights=f.samples.ravel(), minlength=ncubes)
    means = sums / float(1 << (j * f.box.dim))
    return means[ids]


def oracle_ladder(f, levels):
    return [oracle_cond_expect(f, j).reshape(f.box.extent) for j in levels]


def oracle_diff_ladder(b):
    _, top = level_range(b.box)
    e = oracle_ladder(b, range(top + 2))
    return [(e[m - 1] - e[m]).ravel() for m in range(1, top + 2)]


def oracle_telescope(f1, f2, body, k, l, j):
    """One square piece per averaging call and per projection pair."""
    e1, e2 = oracle_ladder(f1, range(l - 1, j + 1)), oracle_ladder(f2, range(l - 1, j + 1))

    def piece(a, b):
        fa, fb = Field(f1.box, a), Field(f2.box, b)
        avg = avg_field(body, (2.0**k) * f1.box.mesh, fa, fb).samples
        products = oracle_cond_expect(fa, k) * oracle_cond_expect(fb, k)
        return avg - products.reshape(a.shape)

    fine = piece(e1[0], e2[0])
    coarse = piece(e1[-1], e2[-1])
    lhs = fine - coarse
    rhs = np.zeros_like(lhs)
    for m in range(1, len(e1)):
        rhs += piece(e1[m - 1] - e1[m], e2[m - 1])
        rhs += piece(e1[m], e2[m - 1] - e2[m])
    residual = float(np.abs(lhs - rhs).max())
    return (residual, float(np.abs(fine).max()), float(np.abs(coarse).max()),
            residual < TELESCOPE_TOL)


def oracle_identity_csvs(cfg):
    """The per-trial loops of the identities suite, as {csv name: rows}."""
    rows_pr, rows_sup = [], []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        m = int(rng.integers(4, 24))
        a = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 1.0, size=m)
        b = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 1.0, size=m)
        lhs, vb, va = vq_value_batch(np.stack([a * b, b, a]), cfg.q).tolist()
        rhs = float(np.max(np.abs(a), initial=0.0)) * vb
        rhs += float(np.max(np.abs(b), initial=0.0)) * va
        rows_pr.append((trial, lhs, rhs, lhs <= rhs + 1e-12))
        t0 = int(rng.integers(0, m))
        lhs = float(np.max(np.abs(a)))
        rhs = float(abs(a[t0])) + 2.0 * vq_exact(a, cfg.q).value
        rows_sup.append((trial, lhs, rhs, lhs <= rhs + 1e-12))

    rows_ao = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, 20_000 + trial)
        nn, kk = 12, 24
        a = rng.uniform(0.0, 1.0, size=nn)
        sigma = 2.0 ** -np.abs(np.arange(-6, 7)) * rng.uniform(0.5, 1.5, size=13)
        w = float(sigma.sum())
        total = 0.0
        for k in range(-kk, kk):
            s = sum(sigma[j + 6] * a[n] for n in range(nn) for j in [k - n] if -6 <= j <= 6)
            total += s * s
        denom = float(np.sum(a * a))
        rows_ao.append((trial, total / (w * denom), total / (w * w * denom)))

    box = standard_box(with_updates(cfg, d=1, grid=min(cfg.grid, 64)))
    rows_para = []
    for trial in range(min(cfg.trials, 25)):
        rng = trial_rng(cfg.seed, 30_000 + trial)
        f1, f2, _, _ = random_pair(box, rng)
        body = random_body(1, rng)
        k = int(rng.integers(0, 7))
        residual, _, coarse, holds = oracle_telescope(f1, f2, body, k, 1, 7)
        rows_para.append((trial, k, residual, coarse, holds))

    rows_mart = []
    for trial in range(min(cfg.trials, 50)):
        rng = trial_rng(cfg.seed, 40_000 + trial)
        f, _, fam, _ = random_pair(box, rng)
        top = 7
        e = oracle_ladder(f, range(top + 1))
        recon = e[top].copy()
        for j in range(1, top + 1):
            recon += e[j - 1] - e[j]
        err = float(np.abs(recon - f.samples).max())
        comp = oracle_cond_expect(Field(box, e[3]), 5)
        err_comp = float(np.abs(comp - e[5]).max())
        d3, d5 = e[2] - e[3], e[4] - e[5]
        inner = abs(float(np.sum(d3 * d5)) * box.cell_volume)
        scale = max(1.0, lp_norm(f, 2.0) ** 2)
        good = err < 1e-12 and err_comp < 1e-12 and inner < 1e-10 * scale
        rows_mart.append((trial, fam, err, err_comp, inner, good))
    return {
        "product_rule.csv": rows_pr,
        "sup_vs_variation.csv": rows_sup,
        "almost_orthogonality_constants.csv": rows_ao,
        "paraproduct_telescope.csv": rows_para,
        "martingale_structure.csv": rows_mart,
    }


def oracle_tent_ratios(b, n_max):
    best = [0.0] * (n_max + 1)
    bmo = bmo_dyadic_norm(b)
    if bmo == 0.0:
        return tuple(best)
    box = b.box
    sq = [d * d for d in oracle_diff_ladder(b)]
    for j in range(1, len(sq)):
        ids, _, ncubes = cell_cube_ids(box, j)
        sums = [np.bincount(ids, weights=s, minlength=ncubes) for s in sq[: j + 1]]
        peak = (np.cumsum(sums, axis=0) * box.cell_volume).max(axis=1)
        vol_q = (float(1 << j) * box.mesh) ** box.dim
        for n in range(min(j, n_max) + 1):
            best[n] = max(best[n], float(peak[j - n]) / (vol_q * bmo * bmo))
    return tuple(best)


def oracle_tent_rows(cfg):
    box = standard_box(with_updates(cfg, d=1, grid=min(cfg.grid, 64)))
    rows = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        b = random_step_field(box, rng, block=int(rng.integers(2, 9)))
        rows.extend((trial, n, r) for n, r in enumerate(oracle_tent_ratios(b, 6)))
    return rows


def oracle_zeta_kernel(box, level, eps, pad):
    d = box.dim
    s = (2.0**level) * box.mesh
    axes_in = box.lattice_axes()
    axes_out = [np.arange(o - pad, o + e + pad, dtype=np.int64)
                for o, e in zip(box.origin, box.extent)]
    grids_in = np.meshgrid(*axes_in, indexing="ij")
    grids_out = np.meshgrid(*axes_out, indexing="ij")
    pin = np.stack([g.ravel() for g in grids_in], axis=-1).astype(np.float64) * box.mesh
    pout = np.stack([g.ravel() for g in grids_out], axis=-1).astype(np.float64) * box.mesh
    dist = np.linalg.norm(pout[:, None, :] - pin[None, :, :], axis=-1)
    kern = (1.0 + dist / s) ** (-(d + eps)) * (s**-d) * box.cell_volume
    kern[kern < 1e-12 * (s**-d) * box.cell_volume] = 0.0
    return kern


def oracle_weighted_sum(f, b, l, eps, n):
    box = f.box
    pad = max(1, int(round(WEIGHTED_PAD_FACTOR * max(box.extent))))
    fl = np.abs(f.samples.ravel()) ** l
    total = 0.0
    for k, diff in enumerate(oracle_diff_ladder(b), start=n):
        kern = oracle_zeta_kernel(box, k, eps, pad)
        dl = np.abs(diff) ** l
        cf = (kern @ fl) ** (2.0 / l)
        cd = (kern @ dl) ** (2.0 / l)
        total += float(np.sum(cf * cd)) * box.cell_volume
    return total


def oracle_weighted_rows(cfg):
    wbox = standard_box(with_updates(cfg, d=1, grid=32))
    rows = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, 50_000 + trial)
        f, _, fam, _ = random_pair(wbox, rng)
        b = random_step_field(wbox, rng, block=4)
        denom = lp_norm(f, 2.0) ** 2 * bmo_dyadic_norm(b) ** 2
        if denom == 0.0:
            continue
        n = int(rng.integers(0, 5))
        val = oracle_weighted_sum(f, b, cfg.l, cfg.eps, n)
        rows.append((trial, fam, n, val, val / denom))
    return rows


def oracle_product_variation_rows(cfg):
    wbox = standard_box(with_updates(cfg, d=1, grid=32))
    rows = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, 60_000 + trial)
        f1, f2, _, _ = random_pair(wbox, rng)
        _, top = level_range(wbox)
        prods = np.stack([(a * b).ravel() for a, b in zip(oracle_ladder(f1, range(top + 2)),
                                                          oracle_ladder(f2, range(top + 2)))])
        vq = vq_value_batch(prods.T, cfg.q)
        lhs = lp_norm(Field(wbox, vq.reshape(wbox.extent)), 2.0)
        rhs = min(lp_norm(f1, 2.0) * lp_norm(f2, np.inf), lp_norm(f1, np.inf) * lp_norm(f2, 2.0))
        ratio = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
        rows.append((trial, lhs, rhs, ratio))
    return rows


# ---------------------------------------------------------------------------
# The projection ladder over many fields

@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(-40, 10),
    st.integers(1, 40),
    st.sampled_from([1.0, 0.37, 2.0]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@example(1, -150, 300, 0.37, 3, 7)  # rows long enough for the recursive pairwise sum
@example(2, -3, 9, 1.0, 1, 8)
def test_ladder_rows_match_the_one_field_projection(dim, origin, size, mesh, n, seed):
    rng = np.random.default_rng(seed)
    extent = (size,) if dim == 1 else (1 + size % 9, 1 + size // 5)
    box = Box(dim, (origin,) * dim, extent[:dim], mesh)
    rows = rng.normal(size=(n, box.cell_count)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    rows[rng.random(size=rows.shape) < 0.3] = -0.0
    if n > 1:
        rows[-1] = -0.0  # a field of negative zeros
    _, top = level_range(box)
    levels = list(range(top + 3))  # past the covering level
    blocks = _ladder_rows(box, rows, levels)
    assert len(blocks) == len(levels)
    for j, block in zip(levels, blocks):
        assert block.shape == rows.shape and block.flags.c_contiguous
        for got, row in zip(block, rows):
            f = Field(box, row.reshape(box.extent))
            assert same_bits(got, oracle_cond_expect(f, j))
            assert same_bits(got, cond_expect(f, j).samples.ravel())


def test_ladder_rows_reject_negative_levels():
    with pytest.raises(ValueError):
        _ladder_rows(Box(1, (0,), (4,)), np.ones((2, 4)), [1, -1])


# ---------------------------------------------------------------------------
# The telescope from one averaging call

@settings(max_examples=30, deadline=None)
@given(
    st.integers(-30, 5),
    st.integers(4, 40),
    st.sampled_from([1.0, 0.37, 2.0]),
    st.integers(0, 6),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_telescope_matches_the_per_piece_loop(origin, n, mesh, k, l, span, seed):
    rng = np.random.default_rng(seed)
    box = Box(1, (origin,), (n,), mesh)
    f1, f2 = Field(box, rng.normal(size=n)), Field(box, rng.normal(size=n))
    body = random_body(1, rng)
    rep = paraproduct_telescope(f1, f2, body, k, l, l + span)
    want = oracle_telescope(f1, f2, body, k, l, l + span)
    assert (rep.residual_max, rep.fine_boundary_max, rep.coarse_boundary_max, rep.holds) == want


@pytest.mark.parametrize("k", [0, 2])
def test_telescope_matches_the_per_piece_loop_in_d2(k):
    # d = 2 pieces take the node-table route, one gather per piece
    rng = np.random.default_rng(40 + k)
    box = Box(2, (-3, 2), (6, 5), 0.37)
    f1, f2 = Field(box, rng.normal(size=30)), Field(box, rng.normal(size=30))
    body = random_body(2, rng)
    rep = paraproduct_telescope(f1, f2, body, k, 1, 3)
    want = oracle_telescope(f1, f2, body, k, 1, 3)
    assert (rep.residual_max, rep.fine_boundary_max, rep.coarse_boundary_max, rep.holds) == want


@pytest.mark.parametrize("dim", [1, 2])
def test_telescope_replays_the_per_piece_memo_lookups(dim):
    rng = np.random.default_rng(7)
    box = Box(dim, (-2,) * dim, (9,) if dim == 1 else (5, 4))
    f1 = Field(box, rng.normal(size=box.cell_count))
    f2 = Field(box, rng.normal(size=box.cell_count))
    body = random_body(dim, rng)

    def counts(route):
        averages._POINT_CACHE.clear()
        before = dict(averages.CACHE_COUNTS)
        route()
        return {key: averages.CACHE_COUNTS[key] - before[key] for key in before}

    try:
        got = counts(lambda: paraproduct_telescope(f1, f2, body, 1, 1, 4))
        want = counts(lambda: oracle_telescope(f1, f2, body, 1, 1, 4))
    finally:
        averages._POINT_CACHE.clear()
    assert got == want == {"hits": 9, "misses": 1}


@pytest.mark.parametrize("dim, seed", [(1, 0), (1, 1), (1, 2), (2, 3)])
def test_telescope_rows_match_the_per_trial_loop(dim, seed):
    # mixed bodies, scales and level ranges, and one repeated (body, scale)
    rng = np.random.default_rng(seed)
    box = Box(dim, (-3,) * dim, (24,) if dim == 1 else (6, 5), 0.37)
    trials = []
    for _ in range(12 if dim == 1 else 4):
        f1 = Field(box, rng.normal(size=box.cell_count))
        f2 = Field(box, rng.normal(size=box.cell_count))
        l = int(rng.integers(1, 3))
        trials.append((f1, f2, random_body(dim, rng), int(rng.integers(0, 5)), l,
                       l + int(rng.integers(0, 4))))
    trials.append((trials[0][1], trials[0][0], *trials[0][2:]))
    rows1 = np.stack([f1.samples.ravel() for f1, *_ in trials])
    rows2 = np.stack([f2.samples.ravel() for _, f2, *_ in trials])
    batch, counts, keys = _counts(
        lambda: martingale._telescope_rows(box, rows1, rows2, [t[2:] for t in trials]))
    loop, loop_counts, loop_keys = _counts(lambda: [paraproduct_telescope(*t) for t in trials])
    assert (counts, keys) == (loop_counts, loop_keys)
    assert len({body for _, _, body, *_ in trials}) > 2
    for got, want, trial in zip(batch, loop, trials):
        for rep in (want, oracle_telescope(*trial)):
            rep = rep if isinstance(rep, tuple) else (
                rep.residual_max, rep.fine_boundary_max, rep.coarse_boundary_max, rep.holds)
            assert same_bits(rep[:3], [got.residual_max, got.fine_boundary_max,
                                       got.coarse_boundary_max])
            assert got.holds is rep[3]


def test_telescope_rejects_fields_on_different_boxes():
    f = Field(Box(1, (0,), (8,)), np.ones(8))
    g = Field(Box(1, (1,), (8,)), np.ones(8))
    with pytest.raises(ValueError):
        paraproduct_telescope(f, g, random_body(1, np.random.default_rng(0)), 1, 1, 3)


# ---------------------------------------------------------------------------
# The suites against their per-trial loops

def _oracle_csv(tmp_path, name, header, rows):
    path = tmp_path / f"oracle_{name}"
    suites._write_csv(path, header, rows)
    return path.read_bytes()


IDENTITY_HEADERS = {
    "product_rule.csv": ["trial", "lhs", "rhs", "pass"],
    "sup_vs_variation.csv": ["trial", "lhs", "rhs", "pass"],
    "almost_orthogonality_constants.csv": ["trial", "ratio_vs_w", "ratio_vs_w_squared"],
    "paraproduct_telescope.csv": ["trial", "k", "residual_max", "coarse_boundary_max", "pass"],
    "martingale_structure.csv": ["trial", "family", "telescope_err", "composition_err",
                                 "orthogonality", "pass"],
}

# one trial per batch, a few trials per batch with a short last one, one batch
BATCH_BOUNDS = [1, 600, 2000, suites._BATCH_VALUES]


@pytest.mark.parametrize("seed, trials, grid", [(0, 3, 64), (1, 30, 64), (5, 12, 16)])
def test_identities_rows_match_the_per_trial_loops(tmp_path, seed, trials, grid):
    cfg = ExperimentConfig(suite="identities", grid=grid, trials=trials, seed=seed,
                           out=str(tmp_path)).validate()
    want = {name: _oracle_csv(tmp_path, name, IDENTITY_HEADERS[name], rows)
            for name, rows in oracle_identity_csvs(cfg).items()}
    for bound in BATCH_BOUNDS:
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            assert suites.run_suite("identities", cfg) == 0
        for name, csv in want.items():
            assert (tmp_path / "identities" / name).read_bytes() == csv, (bound, name)


@pytest.mark.parametrize("seed, trials, grid", [(0, 3, 64), (1, 25, 64), (5, 9, 16)])
def test_carleson_rows_match_the_per_trial_loops(tmp_path, seed, trials, grid):
    cfg = ExperimentConfig(suite="carleson", grid=grid, trials=trials, seed=seed,
                           out=str(tmp_path)).validate()
    tent = _oracle_csv(tmp_path, "tent.csv", ["trial", "n", "ratio"], oracle_tent_rows(cfg))
    weighted, variation = oracle_weighted_rows(cfg), oracle_product_variation_rows(cfg)
    for bound in BATCH_BOUNDS:
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            suites.run_suite("carleson", cfg)
            assert repr(suites._carleson_weighted(cfg).rows) == repr(weighted)
            assert repr(suites._martingale_product_variation(cfg).rows) == repr(variation)
        assert (tmp_path / "carleson" / "tent_ratios.csv").read_bytes() == tent, bound


def test_weighted_sum_builds_each_kernel_once_per_level():
    box = Box(1, (0,), (16,))
    rng = np.random.default_rng(3)
    f = Field(box, rng.normal(size=16))
    b = Field(box, np.repeat(rng.uniform(-1, 1, 4), 4))
    martingale._zeta_kernel.cache_clear()
    for n in (0, 1, 2):
        got = carleson_weighted_sum(f, b, 1.5, 1.0, n)
        assert repr(got) == repr(oracle_weighted_sum(f, b, 1.5, 1.0, n))
    _, top = level_range(box)
    # levels n..n+top for n = 0, 1, 2: top + 3 distinct kernels
    assert martingale._zeta_kernel.cache_info().misses == top + 3


# ---------------------------------------------------------------------------
# Argument checks

def test_sup_vs_variation_rejects_t0_outside_the_sequence():
    a = [0.5, -1.0, 2.0]
    for t0 in (-1, 3, 10):
        with pytest.raises(ValueError):
            sup_vs_variation_check(a, 3.0, t0=t0)
    assert sup_vs_variation_check(a, 3.0, t0=2).holds


def test_young_rejects_non_finite_entries():
    cases = (([np.inf], [1.0]), ([np.nan], [1.0]), ([1.0], [np.inf]), ([1.0, 2.0], [np.nan]))
    for a, sigma in cases:
        with pytest.raises(ValueError):
            young_convolution_check(a, sigma)


def test_weighted_sum_rejects_negative_n():
    box = Box(1, (0,), (8,))
    f = Field(box, np.arange(8.0))
    b = Field(box, np.repeat([1.0, -1.0], 4))
    with pytest.raises(ValueError):
        carleson_weighted_sum(f, b, 1.5, 1.0, -2)


# ---------------------------------------------------------------------------
# Field.values_at from one flat index

def oracle_values_at(f, lattice):
    lattice = np.asarray(lattice, dtype=np.int64)
    idx = lattice - np.asarray(f.box.origin, dtype=np.int64)
    inside = np.all((idx >= 0) & (idx < np.asarray(f.box.extent)), axis=-1)
    safe = np.where(inside[..., None], idx, 0)
    vals = f.samples[tuple(np.moveaxis(safe, -1, 0))]
    return np.where(inside, vals, 0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from([(50,), (4, 7), (), (0,)]),
    st.integers(0, 2**32 - 1),
)
def test_values_at_matches_the_tuple_index(dim, batch, seed):
    rng = np.random.default_rng(seed)
    box = Box(dim, rng.integers(-12, 6, size=dim), rng.integers(1, 8, size=dim), 0.37)
    f = Field(box, rng.normal(size=box.cell_count))
    lo = np.array(box.origin) - 4
    hi = np.array(box.origin) + np.array(box.extent) + 4
    lattice = rng.integers(lo, hi, size=batch + (dim,))
    got, want = f.values_at(lattice), oracle_values_at(f, lattice)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert same_bits(got, want)


# ---------------------------------------------------------------------------
# Oracles: the per-field maximal functions and the per-trial domination loop

def oracle_cube_value_grid(f, level):
    _, table, _ = cell_cube_ids(f.box, level)
    order, starts = cells_by_cube(f.box, level)
    vals = f.samples.ravel()[order]
    vmax = np.maximum.reduceat(vals, starts)
    spread = vmax - np.minimum.reduceat(vals, starts)
    bad = np.nonzero(spread > 0.0)[0]
    if bad.size:
        c = bad[0]
        raise MeasurabilityError(level, table[c], float(spread[c]))
    return vmax.reshape(table[-1] - table[0] + 1)


def oracle_neighbor_max(a):
    padded = np.zeros(tuple(n + 2 for n in a.shape), dtype=a.dtype)
    padded[(slice(1, -1),) * a.ndim] = a
    out = np.zeros_like(a)
    for shift in np.ndindex(*([3] * a.ndim)):
        sl = tuple(slice(s, s + a.shape[ax]) for ax, s in enumerate(shift))
        np.maximum(out, padded[sl], out=out)
    return out


def oracle_star_maximal(h, n):
    ids, _, _ = cell_cube_ids(h.box, n - 1)
    grid = oracle_neighbor_max(np.abs(oracle_cube_value_grid(h, n - 1)))
    return Field(h.box, grid.ravel()[ids]).samples


def oracle_bilinear_maximal(h1, h2, n):
    level = n - 1
    a1 = np.abs(oracle_cube_value_grid(h1, level))
    a2 = np.abs(oracle_cube_value_grid(h2, level))
    a = oracle_neighbor_max(oracle_neighbor_max(a1) * a2)
    b = oracle_neighbor_max(a1 * oracle_neighbor_max(a2))
    ids, _, _ = cell_cube_ids(h1.box, level)
    return Field(h1.box, np.maximum(a, b).ravel()[ids]).samples


def oracle_domination_check(body, h1, h2, n, k):
    avg = avg_field(body, (2.0**k) * h1.box.mesh, h1, h2, "continuum_quadrature")
    bound = oracle_bilinear_maximal(h1, h2, n)
    excess = np.abs(avg.samples) - bound
    max_excess = float(excess.max())
    tol = 1e-12 * max(1.0, float(bound.max(initial=0.0)))
    return float(np.abs(avg.samples).max()), max_excess, max_excess <= tol, bound


def oracle_domination_rows(cfg):
    box = standard_box(with_updates(cfg, grid=min(cfg.grid, 64)))
    cover = int(np.log2(max(box.extent)))
    rows = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        n = int(rng.integers(1, min(5, cover) + 1))
        k = int(rng.integers(0, n))
        sparse = bool(rng.random() < 0.5)
        h1, h2 = random_measurable_pair(box, max(n - 1, 0), rng, sparse=sparse)
        body = random_body(box.dim, rng)
        _, max_excess, holds, bound = oracle_domination_check(body, h1, h2, n, k)
        num = float(np.sum(bound**2)) * box.cell_volume
        den = float(np.sum((h1.samples * h2.samples) ** 2)) * box.cell_volume
        ratio = num / den if den > 0.0 else np.nan
        st = oracle_star_maximal(h1, n)
        star_ok = float(np.sum(st**2)) <= 3**box.dim * float(np.sum(h1.samples**2)) + 1e-9
        rows.append((trial, n, k, body.kind, sparse, max_excess, holds, ratio, star_ok))
    return rows


# ---------------------------------------------------------------------------
# Oracles: the per-root descent with root-box pieces, its certifier, and the
# per-trial cz loop

def oracle_cube_lp_avg_pow(f, cube, p_i):
    total = float(np.sum(np.abs(cube_cell_values(f, cube)) ** p_i)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def oracle_descend(fr, root, p_i, threshold_pow, bounds):
    d, mesh = fr.box.dim, fr.box.mesh
    block = fr.samples[cube_slices(fr.box, root)]
    lo = np.clip(bounds[0] - root.corner(), 0, root.side_cells)
    hi = np.clip(bounds[1] + 1 - root.corner(), 0, root.side_cells)
    window = tuple(slice(a, b) for a, b in zip(lo, hi))
    pw = np.zeros(block.shape)
    pw[window] = np.abs(block[window]) ** p_i
    offsets = np.array(list(np.ndindex(*([2] * d))), dtype=np.int64)
    active = np.zeros((1, d), dtype=np.int64)
    selected = []
    for level in range(root.level - 1, -1, -1):
        if not len(active):
            break
        n, side = 1 << (root.level - level), 1 << level
        cubes = pw.reshape((n, side) * d).transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2))
        children = (2 * active[:, None, :] + offsets).reshape(-1, d)
        rows = cubes[tuple(children.T)].reshape(len(children), -1)
        avg = np.sum(rows, axis=-1) * fr.box.cell_volume / (side * mesh) ** d
        above = avg > threshold_pow
        corner = np.array(root.coords, dtype=np.int64) << (root.level - level)
        selected += [DyadicCube(level, tuple(int(v) for v in c)) for c in children[above] + corner]
        active = children[~above & (avg > 0.0)]
    return selected


def oracle_cz_decompose(f, p_i, alpha, p):
    bounds = f.support_bounds()
    threshold_pow = float(alpha ** p)
    roots = []
    flagged = False
    for lo, hi in orthant_regions(*bounds):
        level = covering_level(lo, hi)
        root = DyadicCube(level, tuple(int(v) >> level for v in lo))
        while oracle_cube_lp_avg_pow(f, root, p_i) > threshold_pow:
            root = root.parent()
            if root.side_cells ** f.box.dim > MAX_ROOT_CELLS:
                flagged = True
                break
        roots.append(root)
    root_level = max(r.level for r in roots)
    out_lo = np.min([f.box.origin, *(r.corner() for r in roots)], axis=0)
    out_hi = np.max([np.add(f.box.origin, f.box.extent),
                     *(np.add(r.corner(), r.side_cells) for r in roots)], axis=0)
    root_box = Box(f.box.dim, tuple(out_lo), tuple(out_hi - out_lo), f.box.mesh)
    fr = f.embed(root_box)
    if flagged:
        selected = roots
    else:
        selected = [c for root in roots for c in oracle_descend(fr, root, p_i, threshold_pow, bounds)]
    pieces = []
    good = fr.samples.copy()
    for cube in sorted(selected, key=lambda c: (c.level, c.coords)):
        sl = cube_slices(root_box, cube)
        mean = float(np.sum(fr.samples[sl].ravel())) * root_box.cell_volume
        mean /= cube.volume(root_box.mesh, root_box.dim)
        piece = np.zeros(root_box.extent)
        piece[sl] = fr.samples[sl] - mean
        good[sl] = mean
        pieces.append((cube, Field(root_box, piece)))
    return CZOutput(good=Field(root_box, good), bad_pieces=tuple(pieces), p_i=p_i,
                    alpha=alpha, p=p, root_level=root_level, flagged=flagged)


def oracle_cz_certify(out, f):
    f = f.embed(out.good.box)
    d = f.box.dim
    p_i, alpha, p = out.p_i, out.alpha, out.p
    height = float(alpha ** (p / p_i))
    tol = 1e-12 * max(1.0, float(np.abs(f.samples).max()))
    mean_tol = 1e-12 * max(1.0, lp_norm(f, 1.0))
    c5 = 2.0 ** (d + p_i)
    seen = np.zeros(f.box.extent, dtype=bool)
    disjoint = supp_ok = mean_ok = ok5 = maximal = True
    mean_worst = worst5 = total_q = 0.0
    for cube, piece in out.bad_pieces:
        sl, vol = cube_slices(f.box, cube), cube.volume(f.box.mesh, d)
        disjoint &= not np.any(seen[sl])
        seen[sl] = True
        supp_ok &= np.count_nonzero(piece.samples) == np.count_nonzero(piece.samples[sl])
        m = abs(float(np.sum(piece.samples)) * f.box.cell_volume)
        mean_worst = max(mean_worst, m)
        mean_ok &= not m > mean_tol
        lhs = lp_norm(piece, p_i) ** p_i
        rhs = c5 * (alpha**p) * vol
        worst5 = max(worst5, lhs / rhs if rhs else np.inf)
        ok5 &= not lhs > rhs * (1 + 1e-12)
        total_q += vol
        if cube.level < out.root_level:
            maximal &= not oracle_cube_lp_avg_pow(f, cube.parent(), p_i) > alpha**p
    total = np.zeros(out.good.box.extent)
    for _, piece in out.bad_pieces:
        total += piece.samples
    bad = Field(out.good.box, total)
    err = float(np.abs(out.good.samples + bad.samples - f.samples).max())
    rhs6 = (alpha**-p) * lp_norm(f, p_i) ** p_i
    lhs7, rhs7 = lp_norm(bad, p_i), 2.0 ** ((d + p_i) / p_i) * lp_norm(f, p_i)
    lhs8a, rhs8a = lp_norm(out.good, p_i), lp_norm(f, p_i)
    lhs8b, rhs8b = lp_norm(out.good, np.inf), 2.0 ** (d / p_i) * height
    rows = [
        ("i_reconstruction", err <= tol, err),
        ("ii_disjoint_cubes", disjoint, 0.0),
        ("iii_support", supp_ok, 0.0),
        ("iv_mean_zero", mean_ok, mean_worst),
        ("v_piece_size", ok5, worst5),
        ("vi_cube_mass", total_q <= rhs6 * (1 + 1e-12), total_q / rhs6 if rhs6 else 0.0),
        ("vii_bad_total", lhs7 <= rhs7 * (1 + 1e-12), lhs7 / rhs7 if rhs7 else 0.0),
        ("viii_good_bounds", lhs8a <= rhs8a * (1 + 1e-12) and lhs8b <= rhs8b * (1 + 1e-12),
         max(lhs8a / rhs8a if rhs8a else 0.0, lhs8b / rhs8b if rhs8b else 0.0)),
        ("maximality", maximal or out.flagged, 0.0),
    ]
    return CZCertificate({name: ok for name, ok, _ in rows}, {name: m for name, _, m in rows})


def oracle_cz_loop(cfg):
    """(rows, report text, all passed) of the per-trial cz loop."""
    ok = True
    box = standard_box(cfg)
    rows = []
    report_text = None
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        f, _, fam, _ = random_pair(box, rng)
        if not np.any(f.samples):
            continue
        for p_i in (1.0, 1.5, 2.0):
            height = float(rng.uniform(0.2, 2.0) * np.mean(np.abs(f.samples)[f.samples != 0]))
            alpha = height ** (p_i / cfg.p)
            out = oracle_cz_decompose(f, p_i, alpha, cfg.p)
            cert = oracle_cz_certify(out, f)
            rows.append((trial, fam, p_i, alpha, len(out.bad_pieces), out.flagged, cert.all_pass))
            ok &= cert.all_pass
            if report_text is None:
                report_text = format_cz_report(out, cert)
    return rows, report_text, ok


# ---------------------------------------------------------------------------
# Oracles: the choice-based trial generators

def oracle_random_field(box, family, rng):
    w = box.mesh * max(box.extent)
    pos = np.meshgrid(*[ax * box.mesh for ax in box.lattice_axes()], indexing="ij")
    vals = np.zeros(box.extent)
    if family == "indicator":
        for _ in range(rng.integers(1, 5)):
            c = rng.choice([-2.0, -1.0, 1.0, 2.0])
            lo = rng.uniform(0.0, w, size=box.dim)
            hi = lo + rng.uniform(0.05 * w, 0.5 * w, size=box.dim)
            mask = np.ones(box.extent, dtype=bool)
            for ax in range(box.dim):
                mask &= (pos[ax] >= lo[ax]) & (pos[ax] < hi[ax])
            vals += c * mask
    elif family == "trig":
        for _ in range(4):
            amp = rng.uniform(-1.0, 1.0)
            freq = rng.integers(1, 9, size=box.dim)
            phase = rng.uniform(0.0, 2 * np.pi)
            arg = sum(2 * np.pi * freq[ax] * pos[ax] / w for ax in range(box.dim))
            vals += amp * np.cos(arg + phase)
    elif family == "spike":
        width = w / 16.0
        for _ in range(rng.integers(1, 4)):
            amp = rng.uniform(3.0, 10.0) * rng.choice([-1.0, 1.0])
            lo = rng.uniform(0.0, w - width, size=box.dim)
            mask = np.ones(box.extent, dtype=bool)
            for ax in range(box.dim):
                mask &= (pos[ax] >= lo[ax]) & (pos[ax] < lo[ax] + width)
            vals += amp * mask
    return Field(box, vals)


def oracle_random_pair(box, rng):
    fam1, fam2 = rng.choice(FAMILIES, size=2)
    return oracle_random_field(box, fam1, rng), oracle_random_field(box, fam2, rng), str(fam1), str(fam2)


def oracle_random_body(d, rng):
    kind = rng.choice(["ball", "cube", "gamma"])
    if kind == "ball":
        return ball(d)
    if kind == "cube":
        return cube(d)
    while True:
        g = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(g)) > 0.3:
            return gamma_body(d, g)


# ---------------------------------------------------------------------------
# The stacked maximal functions

@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(-40, 10),
    st.integers(1, 40),
    st.sampled_from([1.0, 0.37, 2.0]),
    st.integers(0, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@example(1, -37, 40, 0.37, 5, 3, 1)  # a level whose cubes straddle the box's ends
@example(2, -3, 9, 2.0, 0, 2, 2)  # level 0: one cube per cell
def test_stacked_maximals_match_the_per_grid_functions(dim, origin, size, mesh, level, n, seed):
    rng = np.random.default_rng(seed)
    extent = (size,) if dim == 1 else (1 + size % 9, 1 + size // 5)
    box = Box(dim, (origin,) * dim, extent[:dim], mesh)
    ncubes = cell_cube_ids(box, level)[2]
    vals = rng.normal(size=(2, n, ncubes))
    vals[rng.random(size=vals.shape) < 0.3] = -0.0
    h1s = [measurable_field(box, level, v) for v in vals[0]]
    h2s = [measurable_field(box, level, v) for v in vals[1]]
    rows1 = np.stack([h.samples.ravel() for h in h1s])
    rows2 = np.stack([h.samples.ravel() for h in h2s])
    grids = _cube_value_grids(box, rows1, level)
    stacked = _neighbor_max(np.abs(grids))
    bound, star = _maximal_rows(box, rows1, rows2, level)
    assert bound.flags.c_contiguous and star.flags.c_contiguous
    for i, (h1, h2) in enumerate(zip(h1s, h2s)):
        grid = oracle_cube_value_grid(h1, level)
        assert same_bits(grids[i], grid)
        assert same_bits(stacked[i], oracle_neighbor_max(np.abs(grid)))
        want_bound = oracle_bilinear_maximal(h1, h2, level + 1)
        want_star = oracle_star_maximal(h1, level + 1)
        assert same_bits(bound[i], want_bound.ravel())
        assert same_bits(star[i], want_star.ravel())
        assert same_bits(bilinear_maximal(h1, h2, level + 1).samples, want_bound)
        assert same_bits(star_maximal(h1, level + 1).samples, want_star)


def test_stacked_cube_values_raise_on_the_first_bad_row():
    box = Box(1, (-3,), (12,), 0.37)
    rng = np.random.default_rng(5)
    rows = np.stack([measurable_field(box, 2, rng.normal(size=4)).samples for _ in range(4)])
    rows[2, 5] += 1.0  # rows 2 and 3 are not level-2 measurable
    rows[3, 0] += 1.0
    with pytest.raises(MeasurabilityError) as got:
        _cube_value_grids(box, rows, 2)
    with pytest.raises(MeasurabilityError) as want:
        oracle_cube_value_grid(Field(box, rows[2]), 2)
    assert str(got.value) == str(want.value)
    assert got.value.cube_coords == want.value.cube_coords


def test_domination_check_is_the_one_trial_view():
    box = Box(2, (-4, 2), (8, 6), 0.37)
    rng = np.random.default_rng(8)
    for n, k in ((1, 0), (2, 1), (3, 0), (3, 2)):
        h1, h2 = random_measurable_pair(box, n - 1, rng, sparse=bool(n % 2))
        body = random_body(2, rng)
        rep = domination_check(body, h1, h2, n, k)
        max_average, max_excess, holds, bound = oracle_domination_check(body, h1, h2, n, k)
        assert (rep.max_average, rep.max_excess, rep.holds) == (max_average, max_excess, holds)
        assert same_bits(rep.bound.samples, bound)
    with pytest.raises(ValueError, match="need k < n"):
        domination_check(body, h1, h2, 2, 2)


def test_batched_kernels_build_no_fields():
    # the kernels take sample rows; a Field is built and checked only at the
    # public views (docs/notes.md, note 15)
    rng = np.random.default_rng(11)
    box = Box(1, (-4,), (32,), 0.5)
    # constant on level-1 cubes, so that n = 2 is a valid domination level
    rows1, rows2 = np.repeat(rng.normal(size=(2, 3, 16)), 2, axis=2)
    built = []
    post_init = Field.__post_init__

    def counting(self):
        built.append(self.box)
        post_init(self)

    with mock.patch.object(Field, "__post_init__", counting):
        averages._field_values(box, "lattice_counting", [(ball(1), 3.0, 1), (cube(1), 2.0, 1)],
                               rows1, rows2)
        box2 = Box(2, (0, 0), (4, 4))
        averages._field_values(box2, "continuum_quadrature", [(ball(2), 1.5, 0)],
                               rows1[:, :16], rows2[:, :16])
        martingale._telescope_rows(box, rows1, rows2, [(ball(1), k, 1, 4) for k in (0, 1, 2)])
        martingale._domination_rows(box, rows1, rows2, [(ball(1), 1, 0), (cube(1), 2, 1),
                                                         (ball(1), 2, 0)])
        martingale._weighted_sums(box, rows1, rows2, [0, 1, 2], 1.5, 1.0)
        martingale._product_variation_checks(box, rows1, rows2, 3.0)
        assert built == []
        # the counter sees the one result Field of a public view
        domination_check(ball(1), Field(box, rows1[0]), Field(box, rows2[0]), 2, 1)
    assert built == [box] * 3


# ---------------------------------------------------------------------------
# The domination and cz suites against their per-trial loops

def _counts(route):
    """(result, CACHE_COUNTS deltas, memo keys) of ``route`` from an empty memo."""
    averages._POINT_CACHE.clear()
    before = dict(averages.CACHE_COUNTS)
    try:
        out = route()
        keys = list(averages._POINT_CACHE)
    finally:
        averages._POINT_CACHE.clear()
    return out, {key: averages.CACHE_COUNTS[key] - before[key] for key in before}, keys


DOMINATION_HEADER = ["trial", "n", "k", "body", "sparse", "max_excess", "dominated", "sq_ratio",
                     "star_l2_ok"]


@pytest.mark.parametrize("seed, trials, grid, d", [
    (0, 3, 64, 1), (1, 60, 64, 1), (6, 40, 16, 1), (2, 12, 8, 2), (3, 6, 16, 2),
])
def test_domination_rows_match_the_per_trial_loop(tmp_path, seed, trials, grid, d):
    cfg = ExperimentConfig(suite="domination", grid=grid, d=d, trials=trials, seed=seed,
                           out=str(tmp_path)).validate()
    rows, counts, keys = _counts(lambda: oracle_domination_rows(cfg))
    csv = _oracle_csv(tmp_path, "domination.csv", DOMINATION_HEADER, rows)
    sup = max((r[7] for r in rows if not np.isnan(r[7])), default=0.0)
    want = suites._report(cfg, "bilinear_maximal_sq", rows, sup)
    status = 0 if want.passed and all(r[6] and r[8] for r in rows) else 1
    for bound in BATCH_BOUNDS:
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            got, got_counts, got_keys = _counts(lambda: suites._bilinear_maximal_sq(cfg))
            assert (repr(got.rows), got.max_ratio, got.passed) == (repr(rows), want.max_ratio,
                                                                    want.passed)
            assert (got_counts, got_keys) == (counts, keys), bound
            assert _counts(lambda: suites.run_suite("domination", cfg))[0] == status
        assert (tmp_path / "domination" / "domination.csv").read_bytes() == csv, bound


@pytest.mark.parametrize("trials", [200, 1000])
def test_domination_replays_the_loops_memo_lookups(trials):
    # at 1000 trials the memo is cleared mid-run, at 256 entries
    cfg = ExperimentConfig(suite="domination", trials=trials, seed=0).validate()
    _, counts, keys = _counts(lambda: oracle_domination_rows(cfg))
    for bound in (suites._BATCH_VALUES, 50_000):
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            _, got_counts, got_keys = _counts(lambda: suites._bilinear_maximal_sq(cfg))
        assert (got_counts, got_keys) == (counts, keys), bound
    assert counts["hits"] + counts["misses"] == trials
    # more insertions than the memo holds: the run crosses a clear
    assert (counts["misses"] > 256) == (trials == 1000)


def test_calibration_batch_passes_stay_within_the_table_rows():
    # tools/calibrate.py runs 10 000 domination trials; the suite closes its
    # first batch at 3277 of them, which needs a table for each distinct key
    cfg = ExperimentConfig(suite="domination", trials=10_000, seed=20240801).validate()

    class FirstBatch(Exception):
        pass

    def first(box, batch):
        raise FirstBatch(box, batch)

    with mock.patch.object(suites, "_domination_batch_rows", first), \
            pytest.raises(FirstBatch) as caught:
        suites._bilinear_maximal_sq(cfg)
    box, batch = caught.value.args
    assert len(batch) == -(-suites._BATCH_VALUES // (5 * box.cell_count))
    table_pass = bodies._table_pass
    passes = []

    def counting(keys, sizes, pre):
        passes.append((len(keys), sum(sizes)))
        return table_pass(keys, sizes, pre)

    rows1 = np.stack([h1.samples.ravel() for *_, h1, _, _ in batch])
    rows2 = np.stack([h2.samples.ravel() for *_, h2, _ in batch])
    trials = [(body, n, k) for _, n, k, _, _, _, body in batch]
    with mock.patch.object(bodies, "_table_pass", counting):
        _counts(lambda: martingale._domination_rows(box, rows1, rows2, trials))
    keys = {(body, (2.0**k) * box.mesh) for body, _, k in trials}
    assert sum(n for n, _ in passes) == len(keys) > 1000
    assert max(rows for _, rows in passes) <= bodies._TABLE_ROWS
    # the gamma bodies share their passes
    assert len(passes) < 10


@pytest.mark.parametrize("seed, trials, grid, d", [
    (0, 3, 64, 1), (1, 50, 64, 1), (5, 30, 256, 1), (9, 25, 32, 1), (2, 12, 8, 2), (4, 8, 32, 2),
])
def test_cz_rows_match_the_per_trial_loop(tmp_path, seed, trials, grid, d):
    cfg = ExperimentConfig(suite="cz", grid=grid, d=d, trials=trials, seed=seed,
                           out=str(tmp_path)).validate()
    rows, report, ok = oracle_cz_loop(cfg)
    csv = _oracle_csv(tmp_path, "cz.csv",
                      ["trial", "family", "p_i", "alpha", "n_pieces", "flagged", "all_pass"], rows)
    for bound in BATCH_BOUNDS:
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            assert suites.run_suite("cz", cfg) == (0 if ok else 1)
        assert (tmp_path / "cz" / "cz_certificates.csv").read_bytes() == csv, bound
        assert (tmp_path / "cz" / "cz_example_report.txt").read_text() == report, bound


# ---------------------------------------------------------------------------
# Oracles: the per-trial loops of the square and ergodic suites

def oracle_square_rows(cfg):
    """One ``square_function`` and one ``long_variation_check`` per trial."""
    box = standard_box(with_updates(cfg, d=1, grid=min(cfg.grid, 64)))
    body = body_from_descriptor(cfg.body, 1)
    rows = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        f1, f2, fam1, fam2 = random_pair(box, rng)
        sp = square_function(f1, f2, body)
        recompute = np.sqrt(sum(p.samples**2 for p in sp.pieces.values()))
        agg_err = float(np.abs(recompute - sp.aggregate.samples).max())
        den = lp_norm(f1, np.inf) * lp_norm(f2, 2.0)
        ratio = suites._ratio(lp_norm(sp.aggregate, 2.0), den)
        lv_ok = long_variation_check(sp, cfg.q)[2]
        rel = 1e-12 * max(1.0, float(np.abs(sp.aggregate.samples).max()))
        good = agg_err <= rel and lv_ok
        rows.append((trial, fam1, fam2, agg_err, sp.tail_max, ratio, lv_ok, good))
    return rows


def oracle_ergodic_trials(cfg):
    """(trial, f1, f2, means, vq) of each trial: one profile per scale."""
    m = 64
    body = ball(1)
    beta = np.array([np.sqrt(2.0)])
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        f1 = sample_torus(suites._random_trig(rng), m, 1)
        f2 = sample_torus(suites._random_trig(rng), m, 1)
        tg = TimeGrid.dyadic_spanning(0, 4, per_block=1, rng=rng)
        mat = np.stack([ergodic_avg_profile(beta, f1, f2, body, t) for t in tg.times])
        means = [float(np.mean(np.abs(mat[tg.times.index(t)]))) for t in (4.0, 8.0, 16.0)]
        yield trial, f1, f2, means, vq_value_batch(mat.T, cfg.q)


def oracle_ergodic_rows(cfg):
    """The per-trial rows, with the norms of finite exponents."""
    rows = []
    for trial, f1, f2, means, vq in oracle_ergodic_trials(cfg):
        num = float(np.mean(vq**cfg.p) ** (1.0 / cfg.p))
        den = float(np.mean(np.abs(f1) ** cfg.p1) ** (1.0 / cfg.p1)
                    * np.mean(np.abs(f2) ** cfg.p2) ** (1.0 / cfg.p2))
        rows.append((trial, *means, num, den, suites._ratio(num, den)))
    return rows


# ---------------------------------------------------------------------------
# The square and ergodic suites against their per-trial loops

@pytest.mark.parametrize("seed, trials", [(6, 10), (2, 30), (3, 50)])
def test_square_rows_match_the_per_trial_loop(tmp_path, seed, trials):
    cfg = ExperimentConfig(suite="square", trials=trials, seed=seed, out=str(tmp_path)).validate()
    capped = with_updates(cfg, trials=min(trials, 30))
    rows = oracle_square_rows(capped)
    csv = _oracle_csv(tmp_path, "square.csv",
                      ["trial", "family1", "family2", "aggregate_err", "tail_max", "l2_ratio",
                       "long_variation_dominated", "pass"], rows)
    status = 0 if suites._square_l2(capped).passed and all(r[-1] for r in rows) else 1
    for bound in BATCH_BOUNDS:
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            assert suites.run_suite("square", cfg) == status
            assert repr(suites._square_l2(capped).rows) == repr(rows), bound
        assert (tmp_path / "square" / "square_function.csv").read_bytes() == csv, bound


@pytest.mark.parametrize("seed, trials", [(6, 3), (1, 20), (7, 50)])
def test_ergodic_rows_match_the_per_trial_loop(tmp_path, seed, trials):
    cfg = ExperimentConfig(suite="ergodic", trials=trials, seed=seed, out=str(tmp_path)).validate()
    capped = with_updates(cfg, trials=min(trials, 20))
    rows = oracle_ergodic_rows(capped)
    equi = _oracle_csv(tmp_path, "equi.csv", ["trial", "mean_abs_t4", "mean_abs_t8", "mean_abs_t16"],
                       [r[:4] for r in rows])
    ratio = _oracle_csv(tmp_path, "ratio.csv", ["trial", "numerator", "denominator", "ratio"],
                        [(r[0], *r[4:]) for r in rows])
    for bound in BATCH_BOUNDS:
        with mock.patch.object(suites, "_BATCH_VALUES", bound):
            suites.run_suite("ergodic", cfg)
            assert repr(suites._ergodic_vq(capped).rows) == repr(rows), bound
        assert (tmp_path / "ergodic" / "equidistribution.csv").read_bytes() == equi, bound
        assert (tmp_path / "ergodic" / "variation_ratio.csv").read_bytes() == ratio, bound


def test_identities_and_ergodic_batches_make_one_dp_call(tmp_path):
    # the identities rows have lengths 4-23: one padded DP call
    ident = ExperimentConfig(suite="identities", trials=20, seed=3, out=str(tmp_path)).validate()
    assert len({suites._identity_trial(ident, t)[1].size for t in range(20)}) > 1
    with mock.patch.object(variation, "_vq_rows", wraps=variation._vq_rows) as dp:
        suites.run_suite("identities", ident)
    assert dp.call_count == 1
    ergodic = ExperimentConfig(suite="ergodic", trials=3, seed=6).validate()
    with mock.patch.object(variation, "_vq_rows", wraps=variation._vq_rows) as dp:
        suites._ergodic_vq(ergodic)
    assert dp.call_count == 1


@pytest.mark.parametrize("setting", [dict(norm="strong", p1=2.0, p2=2.0, p=1.0),
                                     dict(norm="bmo", p1=np.inf, p2=np.inf, p=np.inf)],
                         ids=lambda s: s["norm"])
def test_mixed_length_sweep_batch_makes_one_dp_call(setting):
    cfg = ExperimentConfig(suite="sweep", grid=16, trials=5, seed=2, **setting).validate()
    body, box = body_from_descriptor(cfg.body, cfg.d), standard_box(cfg)
    batch = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        f1, f2, fam1, fam2 = random_pair(box, rng)
        grid = TimeGrid.dyadic_spanning(0, 6, per_block=1, rng=rng)
        if trial % 2:
            grid = TimeGrid(grid.times[:5] + grid.times[6:])
        batch.append((trial, f1, f2, fam1, fam2, grid))
    assert {len(t[-1]) for t in batch} == {12, 13}
    want = [suites._sweep_rows(cfg, body, box, [t])[0] for t in batch]
    with mock.patch.object(variation, "_vq_rows", wraps=variation._vq_rows) as dp:
        assert repr(suites._sweep_rows(cfg, body, box, batch)) == repr(want)
    assert dp.call_count == 1


def _lp_mean(a, p):
    return float(np.max(a)) if p == np.inf else float(np.mean(a**p) ** (1.0 / p))


@pytest.mark.parametrize("p1, p2, p", [(np.inf, 2.0, 2.0), (2.0, np.inf, 2.0),
                                       (np.inf, np.inf, np.inf)])
def test_ergodic_norms_take_the_max_at_p_inf(p1, p2, p):
    # the mean form reads 1.0 for any field at p = inf: trial 0's
    # denominator at (inf, 2, 2) read 0.44645, ||f2||_2 alone
    cfg = ExperimentConfig(suite="ergodic", trials=2, seed=1, p1=p1, p2=p2, p=p).validate()
    rows = suites._ergodic_vq(cfg).rows
    for row, (_, f1, f2, _, vq) in zip(rows, oracle_ergodic_trials(cfg)):
        assert row[4] == _lp_mean(vq, p)
        assert row[5] == _lp_mean(np.abs(f1), p1) * _lp_mean(np.abs(f2), p2)
    if p == 2.0 and p1 == np.inf:
        assert rows[0][5] == pytest.approx(1.07327, abs=5e-6)


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("trials, mib", [(3, 1.1), (20, 1.4)])
def test_ergodic_scratch_stays_bounded(seed, trials, mib):
    # every row of an anchor scale shares one node table, built a group of
    # rows at a time; unbounded, 20 trials peaked at 4.41 MiB
    cfg = ExperimentConfig(suite="ergodic", trials=trials, seed=seed).validate()
    suites._ergodic_vq(cfg)
    tracemalloc.start()
    try:
        suites._ergodic_vq(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


# ---------------------------------------------------------------------------
# The trial generators against their choice-based draws

GENERATOR_BOXES = [
    Box(1, (0,), (64,), 1.0),
    Box(1, (0,), (256,), 0.25),
    Box(1, (-9,), (33,), 0.37),
    Box(2, (0, 0), (16, 16), 4.0),
    Box(2, (0, 0), (32, 32), 2.0),
    Box(2, (-5, 3), (7, 12), 0.37),
]


@pytest.mark.parametrize("box", GENERATOR_BOXES, ids=str)
def test_generators_match_the_choice_based_draws(box):
    for seed in range(120):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = random_pair(box, got), oracle_random_pair(box, want)
        assert a[2:] == b[2:] and type(a[2]) is type(b[2]) is str
        assert same_bits(a[0].samples, b[0].samples) and same_bits(a[1].samples, b[1].samples)
        for family in FAMILIES:
            assert same_bits(random_field(box, family, got).samples,
                             oracle_random_field(box, family, want).samples)
        assert random_body(box.dim, got) == oracle_random_body(box.dim, want)
        assert got.random() == want.random()  # the streams go on alike


def test_random_field_rejects_unknown_families():
    with pytest.raises(ValueError, match="unknown family"):
        random_field(GENERATOR_BOXES[0], "sawtooth", np.random.default_rng(0))
