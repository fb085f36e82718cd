"""Experiment suites: each runs seeded checks, writes one CSV per check plus a
manifest, and reports an exit status that is nonzero iff an exact check fails.

CSV bodies are deterministic functions of (config, seed); wall-clock data and
library versions are quarantined to the manifest.
"""

from __future__ import annotations

import csv
import itertools
import time
from contextvars import ContextVar
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .. import __version__
from ..averages import CACHE_COUNTS, TimeGrid, _field_values
from ..bodies import ball, body_from_descriptor
from ..cz import _certify_rows, _decompose_rows, format_cz_report
from ..extremal import (
    LOWER_THRESHOLD,
    UPPER_THRESHOLD,
    _profile_rows,
    counterexample_average,
    counterexample_variation,
    default_rotation_mesh,
    interp_weights,
    make_instance,
    sample_torus,
)
from ..dyadic import level_range
from ..fields import _bmo_rows, _lp_norm, _weak_lp_quasinorm, lp_norm
from ..martingale import (
    _domination_rows,
    _domination_verdicts,
    _ladder_rows,
    _product_variation_checks,
    _telescope_rows,
    _tent_rows,
    _weighted_sums,
    young_convolution_check,
)
from ..squarefn import _long_variation_rows, _square_rows
from ..variation import _product_rule_report, _sup_report, _vq_blocks
from .ceilings import ceiling_for, sweep_key
from .config import SUITES, ConfigError, ExperimentConfig, with_updates
from .generators import (
    FAMILIES,
    random_body,
    random_field,
    random_measurable_pair,
    random_pair,
    random_step_field,
    standard_box,
    trial_rng,
)

__all__ = ["run_suite", "run_norm_sweep", "RatioReport", "TRACKED"]


@dataclass(frozen=True)
class RatioReport:
    """One tracked constant over a run of trials: the per-trial CSV rows, the
    largest ratio, its ceiling and the verdict."""

    rows: list[tuple]
    max_ratio: float
    ceiling: float
    passed: bool


def _report(cfg: ExperimentConfig, key: str, rows: list[tuple], max_ratio: float,
            all_finite: bool = True) -> RatioReport:
    ceiling = ceiling_for(key, cfg.ceiling)
    return RatioReport(rows, max_ratio, ceiling, bool(all_finite and max_ratio <= ceiling))


def _ratio(num: float, den: float) -> float:
    return 0.0 if num == 0.0 else (np.inf if den == 0.0 else num / den)


def _sup_finite(ratios) -> float:
    """The largest finite ratio, 0.0 if there is none: a ratio made infinite
    by a zero denominator is left out."""
    return max([0.0, *(r for r in ratios if np.isfinite(r))])


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# (file name, perf_counter time) of each CSV the running suite has written
_CSV_WRITES: ContextVar[list[tuple[str, float]] | None] = ContextVar("csv_writes", default=None)


def _write_csv(path: Path, header: list[str], rows: list[tuple]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    writes = _CSV_WRITES.get()
    if writes is not None:
        writes.append((path.name, time.perf_counter()))


def _write_constant(path: Path, rep: RatioReport, passed: bool, **extra):
    """The one-row CSV of a tracked constant; ``extra`` columns sit between
    the ceiling and the verdict."""
    _write_csv(path, ["sup_ratio", "ceiling", *extra, "pass"],
               [(rep.max_ratio, rep.ceiling, *extra.values(), passed)])


# values held per batch of trials: a suite draws trials until they hold this
# many, then evaluates them together
_BATCH_VALUES = 1 << 20


def _batched(trials, values, evaluate) -> list:
    """The rows ``evaluate(batch)`` of the drawn ``trials``, concatenated in
    trial order; each batch is a run of consecutive trials, closed once
    their ``values(trial)`` reach ``_BATCH_VALUES``."""
    rows, batch, held = [], [], 0
    for trial in trials:
        batch.append(trial)
        held += values(trial)
        if held >= _BATCH_VALUES:
            rows += evaluate(batch)
            batch, held = [], 0
    if batch:
        rows += evaluate(batch)
    return rows


def _stack(fields) -> np.ndarray:
    """(N, cells): the row-major samples of ``fields``, one row each."""
    return np.stack([f.samples.ravel() for f in fields])


# ---------------------------------------------------------------------------
# sweep suite

def run_norm_sweep(cfg: ExperimentConfig) -> RatioReport:
    """Empirical constant tracking for the variation-of-averages bound at one
    exponent tuple and one grid size."""
    body = body_from_descriptor(cfg.body, cfg.d)
    box = standard_box(cfg)

    def draw(trial):
        rng = trial_rng(cfg.seed, trial)
        f1, f2, fam1, fam2 = random_pair(box, rng)
        # the floor stays at the coarsest grid's mesh, so refinements
        # quadrature the same scales rather than adding sub-cell ones
        grid = TimeGrid.dyadic_spanning(0, 6, per_block=1, rng=rng)
        return trial, f1, f2, fam1, fam2, grid

    rows = _batched(map(draw, range(cfg.trials)), lambda t: len(t[-1]) * box.cell_count,
                    lambda batch: _sweep_rows(cfg, body, box, batch))
    ratios = np.array([r[-1] for r in rows])
    # unlike the other tracked constants, an infinite ratio fails the sweep
    return _report(cfg, sweep_key(cfg.norm, cfg.p1, cfg.p2, cfg.p, cfg.q), rows,
                   _sup_finite(ratios), all(np.isfinite(ratios)))


def _sweep_rows(cfg: ExperimentConfig, body, box, batch: list[tuple]) -> list[tuple]:
    """The CSV rows of drawn trials ``(trial, f1, f2, fam1, fam2, grid)``,
    each the bytes of a trial evaluated alone: one averaging call for every
    trial's scales, one q-variation DP and, for the BMO norm, one scan
    (docs/notes.md, note 11)."""
    reqs = [(body, t, i) for i, (*_, grid) in enumerate(batch) for t in grid.times]
    mat = _field_values(box, "continuum_quadrature", reqs,
                        _stack(t[1] for t in batch), _stack(t[2] for t in batch))
    # trial i's scales are its len(grid) rows of mat; the transpose gives
    # each cell its sequence as a one-trial call does
    starts = np.cumsum([len(grid) for *_, grid in batch])[:-1]
    vq = _vq_blocks([rows.T for rows in np.split(mat, starts)], cfg.q).reshape(len(batch), -1)
    if cfg.norm == "bmo":
        nums = _bmo_rows(box, vq).tolist()
        p1 = p2 = np.inf
    else:
        norm = _lp_norm if cfg.norm == "strong" else _weak_lp_quasinorm
        nums = [norm(v, box.cell_volume, cfg.p) for v in vq]
        p1, p2 = cfg.p1, cfg.p2
    out = []
    for (trial, f1, f2, fam1, fam2, grid), num in zip(batch, nums):
        den = lp_norm(f1, p1) * lp_norm(f2, p2)
        out.append((trial, fam1, fam2, len(grid), num, den, _ratio(num, den)))
    return out


def _suite_sweep(cfg: ExperimentConfig, outdir: Path) -> bool:
    ok = True
    maxima = []
    for grid in (cfg.grid, cfg.grid * 2, cfg.grid * 4):
        sub = with_updates(cfg, grid=grid, mesh=None)
        rep = run_norm_sweep(sub)
        maxima.append(rep.max_ratio)
        _write_csv(
            outdir / f"sweep_grid{grid}.csv",
            ["trial", "family1", "family2", "n_scales", "numerator", "denominator", "ratio"],
            rep.rows,
        )
        ok &= rep.passed
    spread = (max(maxima) - min(maxima)) / min(maxima) if min(maxima) > 0 else np.inf
    _write_csv(
        outdir / "sweep_refinement.csv",
        ["grid", "max_ratio", "spread_vs_min"],
        [
            (cfg.grid * (2**i), m, spread if i == 2 else "")
            for i, m in enumerate(maxima)
        ],
    )
    return ok


# ---------------------------------------------------------------------------
# identities suite

def _identity_trial(cfg: ExperimentConfig, trial: int):
    rng = trial_rng(cfg.seed, trial)
    m = int(rng.integers(4, 24))
    a = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 1.0, size=m)
    b = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 1.0, size=m)
    return trial, a, b, int(rng.integers(0, m))


# the almost-orthogonality sums: sequences a_0..a_(N-1) against sigma_(-6..6),
# at k = -K..K-1.  Entry (k, n) of the (2K, N) term table is sigma_(k-n) a_n,
# a term where |k - n| <= 6; _AO_SIGMA is its index into sigma
_AO_N, _AO_K = 12, 24
_AO_J = np.arange(-_AO_K, _AO_K)[:, None] - np.arange(_AO_N)
_AO_TERM = np.abs(_AO_J) <= 6
_AO_SIGMA = np.where(_AO_TERM, _AO_J + 6, 0)


def _ao_trial(cfg: ExperimentConfig, trial: int):
    rng = trial_rng(cfg.seed, 20_000 + trial)
    a = rng.uniform(0.0, 1.0, size=_AO_N)
    sigma = 2.0 ** -np.abs(np.arange(-6, 7)) * rng.uniform(0.5, 1.5, size=13)
    return trial, a, sigma


def _ao_rows(batch: list[tuple]) -> list[tuple]:
    """The almost-orthogonality rows of drawn trials ``(trial, a, sigma)``:
    each k's sum adds its terms in increasing n from +0.0, and each trial's
    total adds the squares in increasing k.  The missing terms are +0.0 and
    every term is nonnegative, so they change no bit of the sums."""
    a = np.stack([t[1] for t in batch])
    sigma = np.stack([t[2] for t in batch])
    table = np.where(_AO_TERM, sigma[:, _AO_SIGMA] * a[:, None, :], 0.0)
    s = np.zeros(table.shape[:2])
    for n in range(_AO_N):
        s += table[:, :, n]
    sq = s * s
    totals = np.zeros(len(batch))
    for k in range(2 * _AO_K):
        totals += sq[:, k]
    out = []
    for (trial, a, sigma), total in zip(batch, totals.tolist()):
        w = float(sigma.sum())
        denom = float(np.sum(a * a))
        out.append((trial, total / (w * denom), total / (w * w * denom)))
    return out


def _suite_identities(cfg: ExperimentConfig, outdir: Path) -> bool:
    def variation_reports(batch):
        # one DP over the rows a*b, b, a of every trial
        values = _vq_blocks([np.stack([a * b, b, a]) for _, a, b, _ in batch], cfg.q)
        return [(trial, _product_rule_report(a, b, *v), _sup_report(a, t0, v[2]))
                for (trial, a, b, t0), v in zip(batch, values.reshape(-1, 3).tolist())]

    draws = (_identity_trial(cfg, trial) for trial in range(cfg.trials))
    reports = _batched(draws, lambda t: 3 * t[1].size, variation_reports)
    rows_pr = [(trial, pr.lhs, pr.rhs, pr.holds) for trial, pr, _ in reports]
    rows_sup = [(trial, sv.lhs, sv.rhs, sv.holds) for trial, _, sv in reports]
    ok = all(r[-1] for r in rows_pr + rows_sup)
    _write_csv(outdir / "product_rule.csv", ["trial", "lhs", "rhs", "pass"], rows_pr)
    _write_csv(outdir / "sup_vs_variation.csv", ["trial", "lhs", "rhs", "pass"], rows_sup)

    rows_young = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, 10_000 + trial)
        a = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 30)))
        sigma = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 12)))
        yc = young_convolution_check(a, sigma)
        rows_young.append((trial, yc.lhs, yc.rhs, yc.holds))
        ok &= yc.holds
    _write_csv(outdir / "young_convolution.csv", ["trial", "lhs", "rhs", "pass"], rows_young)

    # aggregated almost-orthogonality data: which constant (w or w^2) the
    # sequence-level sum supports
    draws = (_ao_trial(cfg, trial) for trial in range(cfg.trials))
    rows_ao = _batched(draws, lambda _: _AO_J.size, _ao_rows)
    _write_csv(
        outdir / "almost_orthogonality_constants.csv",
        ["trial", "ratio_vs_w", "ratio_vs_w_squared"],
        rows_ao,
    )

    box = standard_box(with_updates(cfg, d=1, grid=min(cfg.grid, 64)))

    def telescope_trial(trial):
        rng = trial_rng(cfg.seed, 30_000 + trial)
        f1, f2, _, _ = random_pair(box, rng)
        body = random_body(1, rng)
        return trial, f1, f2, body, int(rng.integers(0, 7))

    def telescope_rows(batch):
        reps = _telescope_rows(box, _stack(t[1] for t in batch), _stack(t[2] for t in batch),
                               [(body, k, 1, 7) for *_, body, k in batch])
        return [(trial, k, rep.residual_max, rep.coarse_boundary_max, rep.holds)
                for (trial, *_, k), rep in zip(batch, reps)]

    # one averaging call for every piece of a batch, whatever its body
    # (docs/notes.md, note 12); each of a trial's 16 pieces holds its two
    # operands, its average and its product
    draws = map(telescope_trial, range(min(cfg.trials, 25)))
    rows_para = _batched(draws, lambda _: 64 * box.cell_count, telescope_rows)
    ok &= all(r[-1] for r in rows_para)
    _write_csv(
        outdir / "paraproduct_telescope.csv",
        ["trial", "k", "residual_max", "coarse_boundary_max", "pass"],
        rows_para,
    )

    rows_mart = _martingale_structure_rows(cfg, box)
    ok &= all(r[-1] for r in rows_mart)
    _write_csv(
        outdir / "martingale_structure.csv",
        ["trial", "family", "telescope_err", "composition_err", "orthogonality", "pass"],
        rows_mart,
    )
    return ok


def _martingale_structure_rows(cfg: ExperimentConfig, box) -> list[tuple]:
    """Telescoping, composition and orthogonality of the projections of up to
    50 fields, from one ladder over every field and one level-5 projection of
    their E_3 rows."""
    top = 7
    drawn = []
    for trial in range(min(cfg.trials, 50)):
        rng = trial_rng(cfg.seed, 40_000 + trial)
        # the pair's two families, then f1: nothing reads f2 or draws after it
        fam = FAMILIES[rng.integers(0, len(FAMILIES), size=2)[0]]
        drawn.append((trial, random_field(box, fam, rng), fam))
    rows = _stack(f for _, f, _ in drawn)
    e = _ladder_rows(box, rows, range(top + 1))  # E_0 f .. E_7 f
    recon = e[top].copy()
    for j in range(1, top + 1):
        recon += e[j - 1] - e[j]
    err = np.abs(recon - rows).max(axis=1)
    err_comp = np.abs(_ladder_rows(box, e[3], [5])[0] - e[5]).max(axis=1)
    d3, d5 = e[2] - e[3], e[4] - e[5]
    inner = np.abs(np.sum(d3 * d5, axis=1) * box.cell_volume)
    out = []
    checks = zip(err.tolist(), err_comp.tolist(), inner.tolist())
    for (trial, f, fam), (e_tel, e_comp, orth) in zip(drawn, checks):
        scale = max(1.0, lp_norm(f, 2.0) ** 2)
        good = e_tel < 1e-12 and e_comp < 1e-12 and orth < 1e-10 * scale
        out.append((trial, fam, e_tel, e_comp, orth, good))
    return out


# ---------------------------------------------------------------------------
# domination suite

def _bilinear_maximal_sq(cfg: ExperimentConfig) -> RatioReport:
    """Pointwise domination trials, tracking the squared bilinear maximal
    against |h1 h2|^2 on the pairs whose product does not vanish."""
    box = standard_box(with_updates(cfg, grid=min(cfg.grid, 64)))
    cover = int(np.log2(max(box.extent)))

    def draw(trial):
        rng = trial_rng(cfg.seed, trial)
        n = int(rng.integers(1, min(5, cover) + 1))
        k = int(rng.integers(0, n))
        sparse = bool(rng.random() < 0.5)
        h1, h2 = random_measurable_pair(box, max(n - 1, 0), rng, sparse=sparse)
        return trial, n, k, sparse, h1, h2, random_body(box.dim, rng)

    # a trial holds its two fields and its average, bound and star rows
    rows = _batched(map(draw, range(cfg.trials)), lambda _: 5 * box.cell_count,
                    lambda batch: _domination_batch_rows(box, batch))
    # an infinite ratio makes the sup infinite, which fails the ceiling
    sup_ratio = max((r[7] for r in rows if not np.isnan(r[7])), default=0.0)
    return _report(cfg, "bilinear_maximal_sq", rows, sup_ratio)


def _domination_batch_rows(box, batch: list[tuple]) -> list[tuple]:
    """The CSV rows of drawn trials ``(trial, n, k, sparse, h1, h2, body)``,
    each the bytes of a trial evaluated alone: one averaging call and one
    stack of cube-value grids per level (docs/notes.md, note 13).  Each sum
    reduces one row of a C-contiguous block, as ``np.sum`` of one field does."""
    rows1, rows2 = _stack(t[4] for t in batch), _stack(t[5] for t in batch)
    average, bound, star = _domination_rows(box, rows1, rows2,
                                            [(body, n, k) for _, n, k, *_, body in batch])
    _, max_excess, holds = _domination_verdicts(average, bound)
    num = (np.sum(bound**2, axis=1) * box.cell_volume).tolist()
    den = (np.sum((rows1 * rows2) ** 2, axis=1) * box.cell_volume).tolist()
    star_sq = np.sum(star**2, axis=1).tolist()
    h1_sq = np.sum(rows1**2, axis=1).tolist()
    out = []
    for i, (trial, n, k, sparse, _, _, body) in enumerate(batch):
        # the squared-maximal ratio is tracked on nondegenerate pairs only:
        # disjoint-support pairs can have num > 0 with den = 0 (see the
        # edge-case tests), which makes the tracked constant meaningless
        ratio = num[i] / den[i] if den[i] > 0.0 else np.nan
        star_ok = star_sq[i] <= 3**box.dim * h1_sq[i] + 1e-9
        out.append((trial, n, k, body.kind, sparse, max_excess[i], holds[i], ratio, star_ok))
    return out


def _suite_domination(cfg: ExperimentConfig, outdir: Path) -> bool:
    rep = _bilinear_maximal_sq(cfg)
    _write_csv(
        outdir / "domination.csv",
        ["trial", "n", "k", "body", "sparse", "max_excess", "dominated", "sq_ratio", "star_l2_ok"],
        rep.rows,
    )
    degenerate = sum(1 for r in rep.rows if np.isnan(r[7]))
    _write_constant(outdir / "bilinear_maximal_constant.csv", rep, rep.passed,
                    degenerate_pairs=degenerate)
    return rep.passed and all(r[6] and r[8] for r in rep.rows)


# ---------------------------------------------------------------------------
# carleson suite

def _carleson_weighted(cfg: ExperimentConfig) -> RatioReport:
    """The weighted Carleson level sum over ||f||_2^2 ||b||_bmo^2."""
    wbox = standard_box(with_updates(cfg, d=1, grid=32))

    def draw(trial):
        rng = trial_rng(cfg.seed, 50_000 + trial)
        f, _, fam, _ = random_pair(wbox, rng)
        b = random_step_field(wbox, rng, block=4)
        # drawn for every trial: the trial's stream is its own, so a trial
        # left out below leaves the others' draws as they were
        return trial, fam, f, b, int(rng.integers(0, 5))

    def evaluate(batch):
        frows, brows = _stack(t[2] for t in batch), _stack(t[3] for t in batch)
        norms = _bmo_rows(wbox, brows).tolist()
        denoms = [lp_norm(f, 2.0) ** 2 * norm**2 for (_, _, f, _, _), norm in zip(batch, norms)]
        kept = [i for i, denom in enumerate(denoms) if denom != 0.0]
        if not kept:
            return []
        values = _weighted_sums(wbox, frows[kept], brows[kept], [batch[i][4] for i in kept],
                                cfg.l, cfg.eps)
        return [(batch[i][0], batch[i][1], batch[i][4], val, val / denoms[i])
                for i, val in zip(kept, values)]

    rows = _batched(map(draw, range(cfg.trials)), lambda _: _ladder_values(wbox), evaluate)
    return _report(cfg, "carleson_weighted", rows, max([0.0, *(r[-1] for r in rows)]))


def _ladder_values(box) -> int:
    """The values of one field's projection ladder over its level range."""
    return box.cell_count * (level_range(box)[1] + 2)


def _martingale_product_variation(cfg: ExperimentConfig) -> RatioReport:
    """The L2 norm of the levelwise product variation against the mixed
    L2 x L-infinity norms."""
    wbox = standard_box(with_updates(cfg, d=1, grid=32))
    draws = ((trial, *random_pair(wbox, trial_rng(cfg.seed, 60_000 + trial))[:2])
             for trial in range(cfg.trials))
    def evaluate(batch):
        checks = _product_variation_checks(wbox, _stack(t[1] for t in batch),
                                           _stack(t[2] for t in batch), cfg.q)
        return [(trial, rep.lhs, rep.rhs, rep.ratio) for (trial, *_), rep in zip(batch, checks)]

    rows = _batched(draws, lambda _: 2 * _ladder_values(wbox), evaluate)
    return _report(cfg, "martingale_product_variation", rows, _sup_finite(r[-1] for r in rows))


def _suite_carleson(cfg: ExperimentConfig, outdir: Path) -> bool:
    box = standard_box(with_updates(cfg, d=1, grid=min(cfg.grid, 64)))
    sups = [0.0] * 7  # per shift n = 0..6

    def draw(trial):
        rng = trial_rng(cfg.seed, trial)
        return trial, random_step_field(box, rng, block=int(rng.integers(2, 9)))

    def evaluate(batch):
        profiles = _tent_rows(box, _stack(b for _, b in batch), len(sups) - 1).tolist()
        return [(trial, n, r) for (trial, _), ratios in zip(batch, profiles)
                for n, r in enumerate(ratios)]

    rows = _batched(map(draw, range(cfg.trials)), lambda _: _ladder_values(box), evaluate)
    for _, n, r in rows:
        sups[n] = max(sups[n], r)
    _write_csv(outdir / "tent_ratios.csv", ["trial", "n", "ratio"], rows)
    # the level shift only removes terms, so the per-n sup is nonincreasing;
    # uniformity in n is exactly "bounded by the unshifted case, no growth"
    stable = max(sups) <= 2.0 * min(sups) if min(sups) > 0 else False
    nongrowing = all(sups[i + 1] <= sups[i] * (1 + 1e-9) for i in range(len(sups) - 1))
    ok = nongrowing and all(np.isfinite(s) for s in sups)
    _write_csv(
        outdir / "tent_uniformity.csv",
        ["n", "sup_ratio", "within_2x_of_all_n", "nongrowing"],
        [(n, s, stable, nongrowing) for n, s in enumerate(sups)],
    )

    weighted = _carleson_weighted(with_updates(cfg, trials=min(cfg.trials, 20)))
    _write_csv(outdir / "weighted_sum.csv", ["trial", "family", "n", "value", "ratio"],
               weighted.rows)
    _write_constant(outdir / "weighted_sum_constant.csv", weighted, weighted.passed)

    mpv = _martingale_product_variation(with_updates(cfg, trials=min(cfg.trials, 30)))
    _write_csv(outdir / "product_variation.csv", ["trial", "lhs", "rhs", "ratio"], mpv.rows)
    return ok and weighted.passed and mpv.passed


# ---------------------------------------------------------------------------
# cz suite

def _suite_cz(cfg: ExperimentConfig, outdir: Path) -> bool:
    box = standard_box(cfg)

    def draw(trial):
        """The trial's decompositions ``(trial, family, f, p_i, alpha)``, one
        per p_i; the heights come from the stream, not from the results."""
        rng = trial_rng(cfg.seed, trial)
        f, _, fam, _ = random_pair(box, rng)
        if not np.any(f.samples):
            return []
        scale = np.mean(np.abs(f.samples)[f.samples != 0])
        return [(trial, fam, f, p_i, float(rng.uniform(0.2, 2.0) * scale) ** (p_i / cfg.p))
                for p_i in (1.0, 1.5, 2.0)]

    report = []  # the report of the first decomposition

    def evaluate(batch):
        outs = _decompose_rows([(f, p_i, alpha) for _, _, f, p_i, alpha in batch], cfg.p)
        certs = _certify_rows(outs, [f for _, _, f, _, _ in batch])
        if not report:
            report.append(format_cz_report(outs[0], certs[0]))
        return [(trial, fam, p_i, alpha, len(out.bad_pieces), out.flagged, cert.all_pass)
                for (trial, fam, _, p_i, alpha), out, cert in zip(batch, outs, certs)]

    draws = itertools.chain.from_iterable(map(draw, range(cfg.trials)))
    # a decomposition holds its field on the root box, the good part, the
    # power blocks and the pieces
    rows = _batched(draws, lambda _: 4 * box.cell_count, evaluate)
    _write_csv(
        outdir / "cz_certificates.csv",
        ["trial", "family", "p_i", "alpha", "n_pieces", "flagged", "all_pass"],
        rows,
    )
    if report:
        (outdir / "cz_example_report.txt").write_text(report[0])
    return all(r[-1] for r in rows)


# ---------------------------------------------------------------------------
# square suite

def _square_l2(cfg: ExperimentConfig) -> RatioReport:
    """Square-function trials, tracking its L2 norm against
    ||f1||_inf ||f2||_2."""
    box = standard_box(with_updates(cfg, d=1, grid=min(cfg.grid, 64)))
    body = body_from_descriptor(cfg.body, 1)
    k_lo, k_hi = level_range(box)
    ks = range(k_lo, k_hi + 2)

    def draw(trial):
        return trial, *random_pair(box, trial_rng(cfg.seed, trial))

    def evaluate(batch):
        # one sweep, one ladder and one DP batch over every trial (docs/notes.md, note 16)
        rows1, rows2 = _stack(t[1] for t in batch), _stack(t[2] for t in batch)
        diffs, averages, products, agg = _square_rows(box, rows1, rows2, body, ks)
        recompute = np.sqrt(sum(p**2 for p in diffs[:-1]))
        agg_err = np.abs(recompute - agg).max(axis=1).tolist()
        tail_max = np.abs(diffs[-1]).max(axis=1).tolist()
        lv_ok = _long_variation_rows(averages, products, agg, cfg.q)[2].tolist()
        out = []
        for i, (trial, f1, f2, fam1, fam2) in enumerate(batch):
            den = lp_norm(f1, np.inf) * lp_norm(f2, 2.0)
            ratio = _ratio(_lp_norm(agg[i], box.cell_volume, 2.0), den)
            rel = 1e-12 * max(1.0, float(np.abs(agg[i]).max()))
            good = agg_err[i] <= rel and lv_ok[i]
            out.append((trial, fam1, fam2, agg_err[i], tail_max[i], ratio, lv_ok[i], good))
        return out

    # per level and cell a trial holds its average, product and piece, and
    # two rows of the DP with their sequence, best sums and candidates
    rows = _batched(map(draw, range(cfg.trials)), lambda _: 11 * len(ks) * box.cell_count,
                    evaluate)
    return _report(cfg, "square_l2", rows, _sup_finite(r[5] for r in rows))


def _suite_square(cfg: ExperimentConfig, outdir: Path) -> bool:
    rep = _square_l2(with_updates(cfg, trials=min(cfg.trials, 30)))
    _write_csv(
        outdir / "square_function.csv",
        ["trial", "family1", "family2", "aggregate_err", "tail_max", "l2_ratio",
         "long_variation_dominated", "pass"],
        rep.rows,
    )
    _write_constant(outdir / "square_constant.csv", rep, rep.passed)
    return rep.passed and all(r[-1] for r in rep.rows)


# ---------------------------------------------------------------------------
# counterexample suite

def _suite_counterexample(cfg: ExperimentConfig, outdir: Path) -> bool:
    ok = True
    inst = make_instance(1, cfg.n)
    probes = np.linspace(-inst.eps0, inst.eps0, 9)
    rows = []
    for i in range(1, 2 * inst.n + 2):
        threshold = UPPER_THRESHOLD if i % 2 == 1 else LOWER_THRESHOLD
        for x in probes:
            val = counterexample_average(inst, i, [x])
            good = val > threshold if i % 2 == 1 else val < threshold
            rows.append((inst.n, i, inst.growth_ratio**i, float(x), val, threshold, good))
            ok &= good
    _write_csv(
        outdir / "alternation.csv",
        ["n", "i", "scale", "probe", "average", "threshold", "pass"],
        rows,
    )
    rep = counterexample_variation(inst, cfg.q)
    var_ok = rep.value >= rep.derived_bound
    ok &= var_ok
    _write_csv(
        outdir / "variation_lower_bound.csv",
        ["n", "q", "value", "derived_bound", "literal_bound", "pass"],
        [(inst.n, cfg.q, rep.value, rep.derived_bound, rep.literal_bound, var_ok)],
    )
    return ok


# ---------------------------------------------------------------------------
# interp suite

def _suite_interp(cfg: ExperimentConfig, outdir: Path) -> bool:
    ok = True
    rows = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        while True:
            x, y = rng.uniform(0.0, 1.0, size=2)
            if x + y > 1.0 / cfg.s and x > 1e-9 and y > 1e-9:
                break
        pt = interp_weights(1.0 / x, 1.0 / y, cfg.s)
        rx, ry = pt.reconstruction(cfg.s)
        err = max(abs(rx - x), abs(ry - y))
        w_ok = all(0.0 <= w <= 1.0 for w in pt.weights) and abs(sum(pt.weights) - 1.0) < 1e-12
        good = err < 1e-12 and w_ok
        rows.append((trial, x, y, err, pt.q_out_recip, good))
        ok &= good
    _write_csv(
        outdir / "interpolation.csv",
        ["trial", "recip_p1", "recip_p2", "reconstruction_err", "q_out_recip", "pass"],
        rows,
    )
    return ok


# ---------------------------------------------------------------------------
# ergodic suite

def _random_trig(rng):
    coeffs = rng.uniform(-1.0, 1.0, size=4)
    freqs = rng.integers(1, 7, size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)

    def fn(x):
        return sum(c * np.cos(2 * np.pi * k * x + p) for c, k, p in zip(coeffs, freqs, phases))

    return fn


def _mean_norm(a: np.ndarray, p: float) -> float:
    """(mean of a^p)^(1/p) of nonnegative values ``a``; max a at p = inf."""
    return float(a.max()) if np.isinf(p) else float(np.mean(a**p) ** (1.0 / p))


def _ergodic_vq(cfg: ExperimentConfig) -> RatioReport:
    """Rotation averages on the torus: each row holds the mean |average| at
    t = 4, 8, 16, then the variation ratio's numerator, denominator and value."""
    m = 64
    body = ball(1)
    beta = float(np.sqrt(2.0))

    def draw(trial):
        rng = trial_rng(cfg.seed, trial)
        f1 = sample_torus(_random_trig(rng), m, 1)
        f2 = sample_torus(_random_trig(rng), m, 1)
        return trial, f1, f2, TimeGrid.dyadic_spanning(0, 4, per_block=1, rng=rng).times

    def evaluate(batch):
        # one node-table pass per distinct scale of the batch (docs/notes.md, note 16)
        reqs = [(t, default_rotation_mesh(t), i) for i, (*_, times) in enumerate(batch)
                for t in times]
        profiles = _profile_rows(beta, np.stack([b[1] for b in batch]),
                                 np.stack([b[2] for b in batch]), body, reqs)
        mats = np.split(profiles, np.cumsum([len(b[-1]) for b in batch])[:-1])
        vqs = _vq_blocks([mat.T for mat in mats], cfg.q).reshape(len(batch), m)
        out = []
        for (trial, f1, f2, times), mat, vq in zip(batch, mats, vqs):
            means = [float(np.mean(np.abs(mat[times.index(t)]))) for t in (4.0, 8.0, 16.0)]
            num = _mean_norm(vq, cfg.p)
            den = _mean_norm(np.abs(f1), cfg.p1) * _mean_norm(np.abs(f2), cfg.p2)
            out.append((trial, *means, num, den, _ratio(num, den)))
        return out

    # a trial holds its two fields and a profile per scale
    rows = _batched(map(draw, range(cfg.trials)), lambda t: (2 + len(t[-1])) * m, evaluate)
    return _report(cfg, "ergodic_vq", rows, _sup_finite(r[-1] for r in rows))


def _suite_ergodic(cfg: ExperimentConfig, outdir: Path) -> bool:
    rep = _ergodic_vq(with_updates(cfg, trials=min(cfg.trials, 20)))
    _write_csv(outdir / "equidistribution.csv",
               ["trial", "mean_abs_t4", "mean_abs_t8", "mean_abs_t16"],
               [r[:4] for r in rep.rows])
    trend_ok = np.mean([r[3] for r in rep.rows]) < np.mean([r[1] for r in rep.rows])
    _write_csv(outdir / "variation_ratio.csv",
               ["trial", "numerator", "denominator", "ratio"], [(r[0], *r[4:]) for r in rep.rows])
    _write_constant(outdir / "ergodic_constant.csv", rep, rep.passed and trend_ok,
                    trend_decreasing=trend_ok)
    return rep.passed and trend_ok


# ---------------------------------------------------------------------------
# entry points

_SUITE_FNS = {
    "identities": _suite_identities,
    "domination": _suite_domination,
    "carleson": _suite_carleson,
    "cz": _suite_cz,
    "square": _suite_square,
    "counterexample": _suite_counterexample,
    "interp": _suite_interp,
    "ergodic": _suite_ergodic,
    "sweep": _suite_sweep,
}

# every tracked constant but the sweeps' (run_norm_sweep): its ceiling key,
# and the suite and function that measure it
TRACKED = {
    "bilinear_maximal_sq": ("domination", _bilinear_maximal_sq),
    "carleson_weighted": ("carleson", _carleson_weighted),
    "martingale_product_variation": ("carleson", _martingale_product_variation),
    "square_l2": ("square", _square_l2),
    "ergodic_vq": ("ergodic", _ergodic_vq),
}


def run_suite(name: str, cfg: ExperimentConfig) -> int:
    """Run one suite; writes reports under cfg.out/<name>/ and returns 0 or 1."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}")
    cfg = with_updates(cfg, suite=name)
    outdir = Path(cfg.out) / name
    outdir.mkdir(parents=True, exist_ok=True)
    writes: list[tuple[str, float]] = []
    token = _CSV_WRITES.set(writes)
    counts_before = dict(CACHE_COUNTS)
    started = time.perf_counter()
    try:
        ok = _SUITE_FNS[name](cfg, outdir)
    finally:
        _CSV_WRITES.reset(token)

    def ms(at: float) -> int:
        return round((at - started) * 1000)

    elapsed_ms = ms(time.perf_counter())
    lines = [f"suite = {name}", f"status = {'pass' if ok else 'FAIL'}"]
    for f in fields(ExperimentConfig):
        if f.name not in ("suite", "out"):
            lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    lines.append(f"package_version = {__version__}")
    lines.append(f"numpy_version = {np.__version__}")
    lines.append(f"elapsed_seconds = {elapsed_ms / 1000:.3f}")
    # each CSV is charged the time since the previous one (or the start); whole
    # milliseconds since the start keep the lines summing to at most the total
    prev = 0
    for csv_name, at in writes:
        lines.append(f"check_seconds.{csv_name} = {(ms(at) - prev) / 1000:.3f}")
        prev = ms(at)
    for kind, count in CACHE_COUNTS.items():
        lines.append(f"cache_{kind} = {count - counts_before[kind]}")
    lines.append(f"finished_unix = {time.time():.0f}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")
    return 0 if ok else 1
