"""The identities and carleson suites evaluate their trials together, bit for bit.

The projection ladder takes many fields at once (``martingale._ladder_rows``),
``paraproduct_telescope`` makes one averaging call for all of its pieces, and
the suites draw their trials first and then make one ladder pass, one BMO
scan and one q-variation DP per distinct length.  Each is held to the code it
replaced, copied below unchanged as an oracle: the one-field projection, the
per-piece telescope and the per-trial suite loops (docs/notes.md, note 12).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariation import averages, martingale
from bivariation.averages import avg_field
from bivariation.dyadic import cell_cube_ids, level_range
from bivariation.fields import Box, Field, bmo_dyadic_norm, lp_norm
from bivariation.harness import suites
from bivariation.harness.config import ExperimentConfig, with_updates
from bivariation.harness.generators import (
    random_body,
    random_pair,
    random_step_field,
    standard_box,
    trial_rng,
)
from bivariation.martingale import (
    TELESCOPE_TOL,
    WEIGHTED_PAD_FACTOR,
    _ladder_rows,
    carleson_weighted_sum,
    cond_expect,
    paraproduct_telescope,
    young_convolution_check,
)
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
