"""Digest of the CLI's outputs: one diff compares two trees byte for byte.

Runs the seven ``configs/*.cfg`` and the default square, cz, ergodic and
interp suites at each given seed, each in a fresh process of
``bivariation run``, and prints per run its exit status, a sha256 of every
CSV and report it wrote, and its manifest ``cache_hits``/``cache_misses``
lines.  The other manifest lines hold wall-clock times and are left out.
The package is imported from the ``src`` directory next to this file.

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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
