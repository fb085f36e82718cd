"""Smoke runs of the demos, the calibration tool and the run digest, which
import the package by name but are not otherwise exercised by the test
suite, and each shipped ceiling against the suite statistic it bounds."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bivariation.harness.ceilings import DEFAULT_CEILINGS
from bivariation.harness.suites import TRACKED

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE = ROOT / "tools" / "calibrate.py"
DIGEST = ROOT / "tools" / "run_digest.py"

CASES = [("demo", p.name) for p in sorted((ROOT / "demos").glob("*.py"))] + [
    ("calibrate", "cal_sweeps")
]

# trials per tracked constant at the calibration seed: about 2 s in all
CEILING_TRIALS = {
    "bilinear_maximal_sq": 200,  # the shipped domination count
    "carleson_weighted": 50,
    "martingale_product_variation": 50,
    "square_l2": 50,
    "ergodic_vq": 10,
}


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _within_ceiling(maxima: dict):
    for key, worst in maxima.items():
        assert np.isfinite(worst) and worst >= 0.0, key
        assert worst <= DEFAULT_CEILINGS[key], (key, worst)


@pytest.mark.parametrize("kind,name", CASES, ids=[f"{k}:{n}" for k, n in CASES])
def test_tooling_runs(kind, name, tmp_path, calibrate):
    if kind == "demo":
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / name)],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return
    maxima = getattr(calibrate, name)(1)
    assert sorted(maxima) == sorted(k for k in DEFAULT_CEILINGS if k.startswith("sweep:"))
    _within_ceiling(maxima)


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(
        strict=True,
        reason="docs/notes.md note 3: the suite tracks sparse pairs too, and the "
               "ceiling was set on dense pairs only"))
    if key == "bilinear_maximal_sq" else key
    for key in TRACKED
])
def test_shipped_ceiling_bounds_statistic(key, calibrate):
    _within_ceiling({key: calibrate.tracked_max(key, CEILING_TRIALS[key])})


# 8 point and field routes per body of 6, 3 dtt_avg_field lines and 6
# q-variation views at each of 3 q
ROUTE_LINES = 6 * 8 + 3 + 6 * 3
# the lattice points of 5 body kinds at d = 2 and 3 and 3 scales, once
LATTICE_LINES = 5 * 2 * 3


def test_run_digest_smoke():
    # every shipped config and default suite, each with its exit status,
    # one sha256 per report and its manifest's two cache lines, then the
    # routes section and the lattice section
    proc = subprocess.run([sys.executable, str(DIGEST), "--seeds", "0", "--trials", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cli, routes = proc.stdout.split("\nroutes seed=")
    routes, lattice = routes.split("\nlattice points:\n")
    head, *lines = routes.splitlines()
    assert head == "0:" and len(lines) == ROUTE_LINES  # checked below
    digests = {line.split(maxsplit=1)[1]: line.split()[0] for line in lattice.splitlines()}
    assert len(digests) == LATTICE_LINES
    assert all(len(h) == 64 and name.startswith("enumerate_lattice d=") for name, h in digests.items())
    runs = cli.split("\nrun ")
    labels = [p.name for p in sorted((ROOT / "configs").glob("*.cfg"))]
    labels += [f"default {s}" for s in ("square", "cz", "ergodic", "interp")]
    assert [r.split(" seed=")[0].removeprefix("run ") for r in runs] == labels
    for run in runs:
        head, *lines = run.splitlines()
        assert head.endswith(": exit 0"), head
        digests = [line.split() for line in lines if " = " not in line]
        assert digests and all(len(d) == 2 and len(d[0]) == 64 for d in digests), run
        assert [line.split(": ")[1].split(" = ")[0] for line in lines if " = " in line] == [
            "cache_hits", "cache_misses"]


def test_run_digest_routes_section():
    spec = importlib.util.spec_from_file_location("run_digest", DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    head, *lines = tool.route_digest(3)
    assert head == "routes seed=3:"
    digests = {line.split(maxsplit=1)[1]: line.split()[0] for line in lines}
    assert len(digests) == len(lines) == ROUTE_LINES
    assert all(len(h) == 64 for h in digests.values())
    assert {name.split(" q=")[0] for name in digests if " q=" in name} == {
        "vq_exact", "vq_value_batch", "long_variation", "short_variation",
        "product_rule_check", "sup_vs_variation_check"}
    # avg_sweep is avg_at at every scale, bit for bit, so the two hash alike
    for name, h in digests.items():
        if name.startswith("avg_sweep "):
            assert digests[name.replace("avg_sweep", "avg_at", 1)] == h, name
    assert tool.route_digest(3) == [head, *lines]  # a pure function of the seed
