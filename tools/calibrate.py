"""Regenerate the default empirical-constant ceilings.

Runs the seeded calibration described in bivariation/harness/ceilings.py and
prints the observed maxima together with the 4x ceilings to paste there.
Each statistic is the suite's own: the functions in ``suites.TRACKED`` and
``run_norm_sweep``, run at the seed below with the suite's default config.
Invoke as: python3 tools/calibrate.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from bivariation.harness.ceilings import sweep_key
from bivariation.harness.config import ExperimentConfig
from bivariation.harness.suites import TRACKED, run_norm_sweep

SEED = 20240801

# trials per tracked constant: (--quick, full)
TRIALS = {
    "bilinear_maximal_sq": (1000, 10_000),
    "carleson_weighted": (100, 1000),
    "martingale_product_variation": (100, 1000),
    "square_l2": (100, 1000),
    "ergodic_vq": (30, 200),
}


def tracked_max(key: str, trials: int) -> float:
    """The largest ratio of the tracked constant ``key`` over ``trials`` trials."""
    suite, fn = TRACKED[key]
    return fn(ExperimentConfig(suite=suite, trials=trials, seed=SEED).validate()).max_ratio


def cal_sweeps(trials: int) -> dict:
    out = {}
    for norm, p1, p2, p in [
        ("strong", 2.0, 2.0, 1.0),
        ("strong", 4.0, 4.0, 2.0),
        ("weak", 1.0, 2.0, 2.0 / 3.0),
        ("bmo", np.inf, np.inf, np.inf),
    ]:
        worst = 0.0
        for grid in (64, 128, 256):
            cfg = ExperimentConfig(
                suite="sweep", norm=norm, p1=p1, p2=p2, p=p, q=3.0,
                grid=grid, trials=trials, seed=SEED,
            ).validate()
            rep = run_norm_sweep(cfg)
            worst = max(worst, rep.max_ratio)
        out[sweep_key(norm, p1, p2, p, 3.0)] = worst
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="reduced trial counts")
    args = ap.parse_args()
    print("# calibration results (seed %d)" % SEED)
    for key in TRACKED:
        quick, full = TRIALS[key]
        t0 = time.time()
        worst = tracked_max(key, quick if args.quick else full)
        print(f'    "{key}": {4.0 * worst:.6g},  # max {worst:.6g} in {time.time()-t0:.0f}s')
    t0 = time.time()
    for key, worst in cal_sweeps(40 if args.quick else 200).items():
        print(f'    "{key}": {4.0 * worst:.6g},  # max {worst:.6g}')
    print(f"# sweeps took {time.time()-t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
