"""Benchmark workloads: inputs built from a seed, the timed operations, and
the checks on their outputs.

A workload is a list of operations.  Each operation's ``run`` is what gets
timed (and traced).  Its ``check`` runs afterwards, untimed and untraced, and
returns the problems it found plus the bytes that identify the output.  Those
bytes must be equal on every pass of a run, and, for the seeds recorded in
``reference.json``, equal to the bytes the seed commit produced.

The program under test receives only what is built here: command lines for
the CLI suites (the shipped ``configs/*.cfg`` with seed, report directory and
trial overrides), and seeded fields, bodies and scale grids for the library
workloads.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bivariation import averages, bodies, fields, variation
from bivariation.harness import ceilings, cli, config, generators


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], bytes]]


# ---------------------------------------------------------------------------
# CLI suites

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# exit status of each suite other than 0; domination exits 1 by design
# (docs/notes.md, note 1)
EXPECTED_STATUS = {"domination": 1}


def _ergodic_status(suite_dir: Path) -> int:
    """The exit status the ergodic suite must give for the data it wrote.

    With few trials its verdict depends on the seed: it passes when the mean
    |average| at t = 16 is below that at t = 4 and no finite variation ratio
    exceeds the ceiling.  The verdict is recomputed here from the per-trial
    rows (floats written with repr, so exactly) rather than read from the
    suite's own verdict."""
    def columns(name):
        header, *rows = (line.split(",") for line in (suite_dir / name).read_text().splitlines())
        return {key: [float(r[i]) for r in rows] for i, key in enumerate(header)}

    trend = columns("equidistribution.csv")
    ratios = [r for r in columns("variation_ratio.csv")["ratio"] if np.isfinite(r)]
    trend_ok = np.mean(trend["mean_abs_t16"]) < np.mean(trend["mean_abs_t4"])
    return 0 if trend_ok and max(ratios, default=0.0) <= ceilings.ceiling_for("ergodic_vq") else 1


STATUS_CHECKS = {"ergodic": _ergodic_status}


def _shipped(suite: str, cfg_name: str, seed: int, reports: Path, *extra: str) -> list[str]:
    """CLI arguments running ``suite`` with its shipped config, the given
    seed and report directory, and any further overrides."""
    return ["run", suite, "--config", str(CONFIGS / cfg_name), "--seed", str(seed),
            "--out", str(reports), *extra]


def _cli_op(suite: str, argv: list[str], reports: Path, name: str | None = None) -> Op:
    suite_dir = reports / suite

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(status):
        files = sorted(p for p in suite_dir.iterdir() if p.name != "manifest.txt")
        if suite in STATUS_CHECKS:
            expected = STATUS_CHECKS[suite](suite_dir)
        else:
            expected = EXPECTED_STATUS.get(suite, 0)
        problems = [] if status == expected else [f"exit status {status}, expected {expected}"]
        if not files:
            problems.append("no reports written")
        ident = f"status={status}\n".encode() + b"".join(
            p.name.encode() + b"\n" + p.read_bytes() for p in files)
        shutil.rmtree(suite_dir)
        return problems, ident

    return Op(name or suite, run, check)


# the shipped 40 trials per grid, as this many CLI runs of 40 / SWEEP_RUNS
# trials with seeds seed * SWEEP_RUNS + j: a 10-trial run takes about 2 s,
# short enough for the speed calibrations around it to follow the machine
SWEEP_RUNS = 4


def sweep_d1(seed: int, size: str, workdir: Path) -> list[Op]:
    trials = config.parse_config_file(CONFIGS / "sweep_bmo.cfg")["trials"] // SWEEP_RUNS
    extra = ["--trials", str(trials)]
    runs = SWEEP_RUNS
    if size == "smoke":
        extra = ["--trials", "1", "--grid", "16"]
        runs = 1
    reports = workdir / "reports"
    return [_cli_op("sweep", _shipped("sweep", "sweep_bmo.cfg", seed * SWEEP_RUNS + j, reports,
                                      *extra), reports, name=f"sweep/{j}")
            for j in range(runs)]


# trials for the suites that run with their defaults (no shipped config)
STATED_TRIALS = {"square": 10, "cz": 50, "ergodic": 3}


# The suites draw bodies, scales and trial parameters from their seed, so the
# cost of one run differs by up to 2x between seeds; each suite whose output
# depends on the seed runs MIX_RUNS times, with seeds seed * MIX_RUNS + j,
# which halves the seed-to-seed variance of the pass time.
MIX_RUNS = 2


def suite_mix(seed: int, size: str, workdir: Path) -> list[Op]:
    reports = workdir / "reports"
    runs = 1 if size == "smoke" else MIX_RUNS
    ops = []
    for j in range(runs):
        run_seed = seed * MIX_RUNS + j
        for suite in ("identities", "carleson", "domination", "counterexample"):
            if suite == "counterexample" and j > 0:
                continue  # its instance does not depend on the seed
            # domination keeps its 200 trials: fewer may miss the k = n-1 violation
            extra = ("--trials", "2") if size == "smoke" and suite in ("identities", "carleson") else ()
            argv = _shipped(suite, f"{suite}.cfg", run_seed, reports, *extra)
            ops.append(_cli_op(suite, argv, reports, name=f"{suite}/{j}"))
        for suite, trials in STATED_TRIALS.items():
            if size == "smoke":
                trials = 1
            argv = ["run", suite, "--seed", str(run_seed), "--trials", str(trials),
                    "--out", str(reports)]
            ops.append(_cli_op(suite, argv, reports, name=f"{suite}/{j}"))
    return ops


# ---------------------------------------------------------------------------
# d = 2 scale family

# fixed so that the work per pass does not depend on the seed; the seed
# draws the fields
GAMMA_D2 = ((1.0, 0.5), (-0.5, 1.0))
D2_CASES = {  # box side -> lattice scales T (node-heavy at 16^2, cell-heavy at 32^2)
    "full": {16: (1.0, 2.0, 4.0, 6.0, 8.0), 32: (1.0, 2.0, 3.0, 4.0)},
    "smoke": {8: (1.0, 2.0)},
}
Q = 3.0


def sweep_d2(seed: int, size: str, workdir: Path) -> list[Op]:
    ops = []
    bodies_d2 = (bodies.ball(2), bodies.cube(2), bodies.gamma_body(2, np.array(GAMMA_D2)))
    for i, (side, scales) in enumerate(D2_CASES[size].items()):
        cfg = config.ExperimentConfig(suite="sweep", d=2, grid=side)
        box = generators.standard_box(cfg)
        rng = generators.trial_rng(seed, i)
        f1, f2, _, _ = generators.random_pair(box, rng)
        times = tuple(T * box.mesh for T in scales)
        probe_cells = rng.choice(box.cell_count, size=2, replace=False)
        probe_rows = rng.choice(box.cell_count, size=8, replace=False)
        for body in bodies_d2:
            ops.append(_d2_op(body, box, f1, f2, times, probe_cells, probe_rows))
    return ops


def _d2_op(body, box, f1, f2, times, probe_cells, probe_rows) -> Op:
    def run():
        mat = np.stack([averages.avg_field(body, t, f1, f2).samples.ravel() for t in times])
        vq = variation.vq_value_batch(mat.T, Q)
        norm = fields.lp_norm(fields.Field(box, vq.reshape(box.extent)), 1.0)
        return mat, vq, norm

    def check(out):
        mat, vq, norm = out
        problems = []
        if not (np.all(np.isfinite(vq)) and np.all(vq >= 0.0) and np.isfinite(norm)):
            problems.append("non-finite or negative variation")
        for r in sorted(set(probe_rows.tolist()) | {int(np.argmax(vq))}):
            exact = variation.vq_exact(mat[:, r], Q).value
            if exact != vq[r]:
                problems.append(f"vq_value_batch row {r} = {vq[r]!r}, vq_exact = {exact!r}")
        # avg_at sums the same nodes in another order, so agreement is to rounding
        tol = 1e-9 * float(np.abs(f1.samples).max() * np.abs(f2.samples).max())
        coords = np.stack(np.unravel_index(probe_cells, box.extent), axis=-1)
        coords = coords + np.asarray(box.origin)
        for i, t in enumerate(times):
            req = averages.AvgRequest(body, t, f1, f2)
            for cell, x in zip(probe_cells, coords):
                at = averages.avg_at(req, x)
                if abs(at - mat[i, cell]) > tol:
                    problems.append(f"avg_field vs avg_at at t={t}, cell {cell}: "
                                    f"{mat[i, cell]!r} vs {at!r}")
        return problems, mat.tobytes() + vq.tobytes() + repr(norm).encode()

    return Op(f"{box.extent[0]}x{box.extent[1]}/{body.kind}", run, check)


# ---------------------------------------------------------------------------
# linear-change-of-variables family and the per-point routes

WINDOW = 24.0  # physical width of the dtt fields, as in acceptance criterion 10
# fixed matrices L (|det L| > 0.3), so the work per pass does not depend on the
# seed; the seed draws the fields and probe points
LAMBDAS = (
    ((1.0, 0.4), (-0.3, 0.9)),
    ((0.8, -0.6), (0.5, 0.7)),
    ((-1.1, 0.2), (0.6, 0.5)),
    ((0.3, 1.0), (-0.9, 0.4)),
)
DTT_SIZES = {
    "full": {"lambdas": 4, "grids": (32, 64, 128, 256), "scales": 4, "points": 6,
             "lattice_times": (1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32)},
    "smoke": {"lambdas": 1, "grids": (32, 64, 128), "scales": 2, "points": 2,
              "lattice_times": (1, 2, 4)},
}
PROBE_HALF = 64  # integer probe fields live on lattice [-64, 64)


def routes_dtt(seed: int, size: str, workdir: Path) -> list[Op]:
    spec = DTT_SIZES[size]
    ops = []
    for k, lam in enumerate(LAMBDAS[: spec["lambdas"]]):
        lam = np.array(lam)
        rng = np.random.default_rng((seed, k))
        coef = rng.uniform(-1, 1, size=(2, 3))
        freq = rng.integers(1, 4, size=(2, 3))
        phase = rng.uniform(0, 2 * np.pi, size=(2, 3))

        def smooth(i, xs, coef=coef, freq=freq, phase=phase):
            return sum(coef[i, j] * np.sin(2 * np.pi * freq[i, j] * xs / WINDOW + phase[i, j])
                       for j in range(3))

        cases = []
        for grid in spec["grids"]:
            box = fields.Box(1, (-grid,), (2 * grid,), WINDOW / grid)
            xs = np.arange(-grid, grid) * box.mesh
            cases.append((grid, fields.Field(box, smooth(0, xs)), fields.Field(box, smooth(1, xs))))
        tset = 2.25 * 2.0 ** np.linspace(0.0, 0.9, spec["scales"])
        body = bodies.gamma_body(1, np.linalg.inv(lam))
        ops.append(_dtt_op(k, lam, body, cases, tset))

        pbox = fields.Box(1, (-PROBE_HALF,), (2 * PROBE_HALF,), WINDOW / PROBE_HALF)
        ints = [fields.Field(pbox, rng.integers(-3, 4, size=2 * PROBE_HALF).astype(np.float64))
                for _ in range(2)]
        xs_lat = rng.integers(-PROBE_HALF - 8, PROBE_HALF + 8, size=spec["points"])
        _, fine1, fine2 = cases[-1]
        lo, n = fine1.box.origin[0], fine1.box.extent[0]
        xs_cont = rng.integers(lo, lo + n, size=spec["points"])
        cont_grid = averages.TimeGrid(tuple(fine1.box.mesh * T for T in spec["lattice_times"][:6]))
        ops.append(_points_op(
            k, (bodies.ball(1), bodies.cube(1), body), ints, xs_lat,
            averages.TimeGrid(tuple(float(t) for t in spec["lattice_times"])),
            (fine1, fine2), xs_cont, cont_grid))
    return ops


def _dtt_op(k, lam, body, cases, tset) -> Op:
    def run():
        return [(averages.dtt_avg_field(lam, t, f1, f2).samples,
                 averages.avg_field(body, t * body.raw_scale, f1, f2).samples)
                for _, f1, f2 in cases for t in tset]

    def check(pairs):
        errs = []
        for g, (grid, _, _) in enumerate(cases):
            mid = slice(grid // 2, 3 * grid // 2)
            per_t = [np.sqrt(np.mean((a[mid] - b[mid]) ** 2))
                     for a, b in pairs[g * len(tset):(g + 1) * len(tset)]]
            errs.append(float(np.sqrt(np.mean(np.square(per_t)))))
        problems = []
        if not all(np.isfinite(errs)):
            problems.append(f"non-finite route discrepancy {errs}")
        # the discrepancy shrinks under mesh halving (criterion 10); from the
        # coarsest grid it can rise once, so that step is checked over 2 halvings
        elif not (all(b < a for a, b in zip(errs[1:], errs[2:])) and errs[-1] < errs[0] / 2):
            problems.append(f"route discrepancy does not shrink with the mesh: {errs}")
        return problems, b"".join(a.tobytes() + b.tobytes() for a, b in pairs)

    return Op(f"dtt/L{k}", run, check)


def _points_op(k, probe_bodies, ints, xs_lat, lat_grid, smooth, xs_cont, cont_grid) -> Op:
    f1, f2 = ints
    g1, g2 = smooth

    def run():
        out = []
        for body in probe_bodies:
            for x in xs_lat:
                sweep = averages.avg_sweep(body, lat_grid, f1, f2, [x], "lattice_counting")
                reqs = [averages.AvgRequest(body, t, f1, f2, "lattice_counting")
                        for t in lat_grid.times]
                out.append(("lattice", sweep, [averages.avg_at(r, [x]) for r in reqs],
                            [averages.fast_slice_avg(r, x) for r in reqs]))
        body = probe_bodies[-1]
        for x in xs_cont:
            sweep = averages.avg_sweep(body, cont_grid, g1, g2, [x])
            at = [averages.avg_at(averages.AvgRequest(body, t, g1, g2), [x])
                  for t in cont_grid.times]
            out.append(("continuum", sweep, at, []))
        return out

    def check(out):
        problems = []
        # bit-identity contracts: avg_sweep = avg_at in every mode, and
        # fast_slice_avg = avg_at on integer fields
        for mode, sweep, at, fast in out:
            for i, (s, a) in enumerate(zip(sweep, at)):
                if s != a:
                    problems.append(f"{mode} avg_sweep[{i}] = {s!r}, avg_at = {a!r}")
            for i, (f, a) in enumerate(zip(fast, at)):
                if f != a:
                    problems.append(f"{mode} fast_slice_avg[{i}] = {f!r}, avg_at = {a!r}")
        ident = b"".join(np.asarray(sweep).tobytes() + np.asarray(at + fast).tobytes()
                         for _, sweep, at, fast in out)
        return problems, ident

    return Op(f"points/L{k}", run, check)


WORKLOADS = {
    "sweep_d1": sweep_d1,
    "suite_mix": suite_mix,
    "sweep_d2": sweep_d2,
    "routes_dtt": routes_dtt,
}


def build(name: str, seed: int, size: str, workdir: Path) -> list[Op]:
    return WORKLOADS[name](seed, size, workdir)
