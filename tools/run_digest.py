"""Digest of the CLI's outputs: one diff compares two trees byte for byte.

Runs the seven ``configs/*.cfg`` and the default square, cz, ergodic and
interp suites at each given seed, each in a fresh process of
``bivariation run``, and prints per run its exit status, a sha256 of every
CSV and report it wrote, and its manifest ``cache_hits``/``cache_misses``
lines.  The other manifest lines hold wall-clock times and are left out.
The package is imported from the ``src`` directory next to this file.

After the runs comes, per seed, a section that the CLI never reaches: a
sha256 of the outputs of ``avg_at``, ``avg_sweep``, ``fast_slice_avg``,
``dtt_avg_field`` and the d = 1 ``avg_field`` on inputs drawn from the seed,
one line per route and body (every body kind, both modes, a negative box
origin, points inside and outside the box), then of the public q-variation
views on ragged sequences drawn from the seed, one line per view and q.  A
route that raises is digested by its exception.

Invoke as: python3 tools/run_digest.py [--seeds 0 3] [--trials N] > digest.txt
and compare the digests of two trees with ``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SUITES = ("square", "cz", "ergodic", "interp")
CACHE_LINES = ("cache_hits", "cache_misses")


def runs() -> list[tuple[str, list[str]]]:
    """(label, ``bivariation run`` arguments) of every digested run."""
    out = [(p.name, [p.stem.split("_")[0], "--config", str(p)])
           for p in sorted((ROOT / "configs").glob("*.cfg"))]
    return out + [(f"default {suite}", [suite]) for suite in DEFAULT_SUITES]


def digest(label: str, args: list[str], seed: int, trials: int | None, out: Path) -> list[str]:
    """The digest lines of one run, written under ``out``."""
    cmd = [sys.executable, "-m", "bivariation.harness.cli", "run", *args,
           "--seed", str(seed), "--out", str(out)]
    if trials is not None:
        cmd += ["--trials", str(trials)]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd, capture_output=True, env={**os.environ, "PYTHONPATH": path})
    lines = [f"run {label} seed={seed}: exit {proc.returncode}"]
    for f in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.txt"):
        lines.append(f"  {hashlib.sha256(f.read_bytes()).hexdigest()}  {f.relative_to(out)}")
    for manifest in sorted(out.rglob("manifest.txt")):
        for line in manifest.read_text().splitlines():
            if line.split(" = ")[0] in CACHE_LINES:
                lines.append(f"  {manifest.parent.name}: {line}")
    return lines


def route_digest(seed: int) -> list[str]:
    """The digest lines of the point routes, the d = 1 field routes and the
    q-variation views on inputs drawn from ``seed``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from bivariation import averages, bodies, variation
    from bivariation.fields import Box, Field

    rng = np.random.default_rng(seed)
    box = Box(1, (-41,), (64,), 0.37)
    f1, f2 = (Field(box, rng.normal(size=64)) for _ in "12")
    i1, i2 = (Field(box, rng.integers(-3, 4, size=64).astype(np.float64)) for _ in "12")
    xs = rng.integers(-61, 43, size=6).tolist()  # up to 20 cells outside the box
    Ts = (0.6, 1.0, 1.5, 2.2, 3.0, 5.3, 8.0)
    times = {"lattice_counting": Ts, "continuum_quadrature": tuple(box.mesh * T for T in Ts)}
    shapes = [
        bodies.ball(1),
        bodies.cube(1),
        bodies.gamma_body(1, [[1.0, 0.4], [-0.3, 0.9]]),
        bodies.gamma_body(1, [[1, 3.1], [0.02, 0.01]]),  # slanted: tables skip rows
        bodies.polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
        bodies.normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
    ]

    def line(name, outputs):
        try:
            data = b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in outputs())
        except Exception as exc:  # digested, so that two trees compare their errors too
            data = f"{type(exc).__name__}: {exc}".encode()
        return f"  {hashlib.sha256(data).hexdigest()}  {name}"

    lines = [f"routes seed={seed}:"]
    for b, body in enumerate(shapes):
        label = f"{b}:{type(body).__name__}"
        for mode, ts in times.items():
            reqs = [averages.AvgRequest(body, t, f1, f2, mode) for t in ts]
            grid = averages.TimeGrid(ts)
            lines.append(line(f"avg_at {label} {mode}",
                              lambda: [[averages.avg_at(r, [x]) for r in reqs] for x in xs]))
            lines.append(line(f"avg_sweep {label} {mode}",
                              lambda: [averages.avg_sweep(body, grid, f1, f2, [x], mode) for x in xs]))
            lines.append(line(f"avg_field {label} {mode}",
                              lambda: [averages.avg_field(body, t, f1, f2, mode).samples for t in ts]))
        for g1, g2, kind in ((i1, i2, "integer"), (f1, f2, "real")):
            reqs = [averages.AvgRequest(body, t, g1, g2, "lattice_counting") for t in Ts]
            lines.append(line(f"fast_slice_avg {label} {kind}",
                              lambda: [[averages.fast_slice_avg(r, x) for r in reqs] for x in xs]))
    for lam in ([[1.0, 0.4], [-0.3, 0.9]], [[0.8, -0.6], [0.5, 0.7]], [[-1.1, 0.2], [0.6, 0.5]]):
        lines.append(line(f"dtt_avg_field {lam}", lambda: [
            averages.dtt_avg_field(np.array(lam), t, f1, f2).samples for t in (0.5, 1.3, 2.9)]))

    # ragged sequences of lengths 0-23: normal rows, rows outside the rescale
    # band and an integer plateau; a grid with no dyadic anchor among the grids
    scales = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-20, 1e20, 1.0)
    seqs = [rng.normal(size=n) * s for n, s in zip(rng.integers(0, 24, size=9).tolist(), scales)]
    seqs.append(rng.integers(-2, 3, size=17).astype(np.float64))
    partners = [rng.normal(size=a.size) for a in seqs]
    t0s = [int(rng.integers(0, max(a.size, 1))) for a in seqs]
    grids = [averages.TimeGrid.dyadic_spanning(-1, 5, per_block=2, rng=rng),
             averages.TimeGrid.dyadic_spanning(0, 6, per_block=1, rng=rng),
             averages.TimeGrid((1.5, 3.0, 5.0))]
    values = [rng.normal(size=len(grid)) for grid in grids]
    with warnings.catch_warnings():  # the grid without anchors warns
        warnings.simplefilter("ignore", UserWarning)
        for q in (1.5, 3.0, 16.0):
            lines.append(line(f"vq_exact q={q}", lambda: [
                (out.value, *out.witness) for out in (variation.vq_exact(a, q) for a in seqs)]))
            lines.append(line(f"vq_value_batch q={q}", lambda: [
                variation.vq_value_batch(a, q) for a in seqs]))
            lines.append(line(f"long_variation q={q}", lambda: [
                variation.long_variation(g, v, q) for g, v in zip(grids, values)]))
            lines.append(line(f"short_variation q={q}", lambda: [
                variation.short_variation(g, v, q) for g, v in zip(grids, values)]))
            lines.append(line(f"product_rule_check q={q}", lambda: [
                (r.lhs, r.rhs, r.holds) for r in (variation.product_rule_check(a, b, q)
                                                  for a, b in zip(seqs, partners))]))
            lines.append(line(f"sup_vs_variation_check q={q}", lambda: [
                (r.lhs, r.rhs, r.holds) for r in (variation.sup_vs_variation_check(a, q, t0)
                                                  for a, t0 in zip(seqs, t0s) if a.size)]))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    ap.add_argument("--trials", type=int, default=None, help="override every run's trials")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for i, (label, run_args) in enumerate(runs()):
                out = Path(tmp) / f"{seed}-{i}"
                print("\n".join(digest(label, run_args, seed, args.trials, out)), flush=True)
    for seed in args.seeds:
        print("\n".join(route_digest(seed)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
