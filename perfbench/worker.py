"""One measurement process: builds a workload's inputs, runs its timed
passes, checks every output and prints one JSON object as its last line.

``run.py`` starts a fresh worker for every measurement; it is not meant to be
run by hand.  With ``--trace 0`` the passes run untraced and the worker
reports the pass wall time and peak memory.  With ``--trace 1`` it runs
untraced passes for half the time, then installs the tracer and runs traced
passes, and reports the per-layer metrics.  Before every operation the
package's caches are put back as set-up left them (:class:`ColdState`), so
each operation costs what it costs in a fresh process.  Times are reported at
a reference machine speed (see :func:`calibrate`).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import os
import platform
import pkgutil
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from run import THREAD_VARS

clock = time.perf_counter
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIN_PASSES = 2  # fewest passes of a --trace 0 run, and fewest untraced ones of --trace 1

# calibrate() takes CAL_REF_S at the reference machine speed (about its time
# on an otherwise idle 2-vCPU Xeon VM)
CAL_REF_S = 0.027
_N = 256
_F = np.sin(np.arange(_N) * 0.37)
_S = np.cos(np.arange(_N + 1) * 0.11).cumsum()
_XS = np.arange(_N, dtype=np.int64)
_NODES = (np.arange(1024, dtype=np.int64) * 37) % 301 - 150


def calibrate() -> float:
    """Seconds taken by a fixed mix of small-array numpy calls, large
    gathers and a pure-Python loop, none of it from the package under test.

    On a shared host the machine speed drifts by 20-40% over seconds to
    minutes as other tenants load it, and every kind of code slows alike.  Operations
    are timed between two calibrations, and CAL_REF_S over their mean is the
    speed used to scale the operation's time to the reference speed.
    """
    t0 = clock()
    total = np.zeros(_N)
    for k in range(-170, 170):
        idx = _XS + k
        w = np.where((idx >= 0) & (idx < _N), _F[np.clip(idx, 0, _N - 1)], 0.0)
        total += w * (_S[np.clip(idx + 3, 0, _N)] - _S[np.clip(idx - 3, 0, _N)])
    for r in range(4):
        idx = _XS[:, None] + _NODES[None, :] + r
        inside = (idx >= 0) & (idx < _N)
        total += np.where(inside, _F[np.clip(idx, 0, _N - 1)], 0.0).sum(axis=1)
    s = 0
    for i in range(120_000):
        s += (i * i) % 7
    return clock() - t0


def speed() -> float:
    """Current machine speed relative to the reference."""
    calibrate()  # the first call pays one-time costs
    return 2.0 * CAL_REF_S / (calibrate() + calibrate())


class ColdState:
    """The package's module-level state as it was when set-up ended.

    A real run is one cold process, so no operation may find a cache filled
    by an earlier one.  :meth:`restore` runs before every timed operation and
    puts back the contents of every dict, list and set held by a module of
    the package or by a class defined there (``averages._POINT_CACHE``,
    ``extremal._NODE_CACHE``, and any memo a later version adds), and
    empties every ``functools`` cache found there.  Caches kept on input
    objects or in closures are not found.
    """

    def __init__(self):
        import bivariation

        for info in pkgutil.walk_packages(bivariation.__path__, "bivariation."):
            importlib.import_module(info.name)
        self.saved: list[tuple] = []
        self.cached: list = []
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "bivariation" or name.startswith("bivariation.")):
                self._take(vars(mod))
                for value in list(vars(mod).values()):
                    if isinstance(value, type) and value.__module__ == name:
                        self._take(vars(value))

    def _take(self, namespace):
        for attr, value in list(namespace.items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                self.saved.append((value, copy.copy(value)))
            fn = getattr(value, "__func__", value)  # staticmethod / classmethod
            if callable(getattr(fn, "cache_clear", None)):
                self.cached.append(fn)

    def restore(self):
        for live, saved in self.saved:
            if isinstance(live, list):
                live[:] = saved
            else:
                live.clear()
                live.update(saved)
        for fn in self.cached:
            fn.cache_clear()


class Runner:
    """Runs the operations pass after pass and checks each output."""

    def __init__(self, ops, reference: dict | None):
        self.ops = ops
        self.cold = ColdState()
        self.reference = reference or {}
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, op_name, problems):
        self.failed += 1
        self.problems.extend(f"{op_name}: {p}" for p in problems)

    def one_pass(self, tracer=None) -> tuple[float, float, float]:
        """Runs every operation once.  Returns the wall seconds of the runs,
        the same scaled to the reference machine speed, and CPU seconds."""
        wall = scaled = cpu = 0.0
        cal = calibrate()
        for op in self.ops:
            self.attempted += 1
            out = failure = None
            self.cold.restore()
            if tracer is not None:
                tracer.enabled = True
            c0, t0 = time.process_time(), clock()
            try:
                out = op.run()
            except Exception:
                failure = traceback.format_exc(limit=3)
            finally:
                dt = clock() - t0
                cpu += time.process_time() - c0
                if tracer is not None:
                    tracer.enabled = False
            cal_after = calibrate()
            wall += dt
            scaled += dt * 2.0 * CAL_REF_S / (cal + cal_after)
            cal = cal_after
            if failure is None:
                self._check(op, out)
            else:
                self.fail(op.name, [failure])
        return wall, scaled, cpu

    def _check(self, op, out):
        try:
            problems, ident = op.check(out)
        except Exception:
            self.fail(op.name, [traceback.format_exc(limit=3)])
            return
        digest = hashlib.sha256(ident).hexdigest()
        first = self.first.setdefault(op.name, digest)
        if digest != first:
            problems.append("output differs from the first pass")
        ref = self.reference.get(op.name)
        if ref is not None and digest != ref:
            problems.append("output differs from the reference")
        if problems:
            self.fail(op.name, problems)


def timed_passes(budget: float, min_passes: int, run_pass) -> list:
    """Calls ``run_pass`` until another pass would end past ``budget``
    seconds (at least ``min_passes`` times); returns its results."""
    out = []
    start = clock()
    while True:
        t0 = clock()
        out.append(run_pass())
        now = clock()
        if len(out) >= min_passes and (now - start) + (now - t0) > budget:
            return out


def _env() -> dict:
    threads = {k: os.environ.get(k) for k in ("BIVARIATION_THREADS", *THREAD_VARS)}
    return {"python": platform.python_version(), "numpy": np.__version__, "threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True, help="monotonic clock at process start")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.size, args.workdir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "speed": speed(), "env": _env()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reference = None
    if args.size == "full":
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(args.seed))
    runner = Runner(ops, reference)
    if args.trace == 0:
        passes = timed_passes(args.seconds, MIN_PASSES, runner.one_pass)
        result["metrics"] = {
            "wall_s": {"value": statistics.median(scaled for _, scaled, _ in passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        result["passes"] = len(passes)
        result["raw_wall_s"] = statistics.median(wall for wall, _, _ in passes)
    else:
        result.update(_traced(runner, args))
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20])
    print(json.dumps(result))
    return 0


def _traced(runner: Runner, args) -> dict:
    import layers
    from tracer import Tracer

    untraced = timed_passes(args.seconds / 2, MIN_PASSES, runner.one_pass)
    tracer = Tracer()
    tracer.install(layers.targets(), layers.holders())
    per_pass = []

    def traced_pass():
        tracer.reset()
        wall, scaled, cpu = runner.one_pass(tracer)
        m = layers.pass_metrics(tracer, wall)
        # guards the tracer's own bookkeeping; a mismatch is a benchmark bug
        err = layers.accounting_error(tracer, m)
        if err > 1e-6 * wall + 1e-9:
            raise RuntimeError(f"trace: self times + uncovered differ from wall by {err!r} s")
        # times at reference speed, like wall_s
        per_pass.append({k: v * scaled / wall if layers.unit(k) == "s" else v
                         for k, v in m.items()})
        return wall, scaled, cpu

    traced = timed_passes(args.seconds / 2, 1, traced_pass)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["harness.cpu_s"] = statistics.median(cpu * scaled / wall for wall, scaled, cpu in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled for _, scaled, _ in traced)
        / statistics.median(scaled for _, scaled, _ in untraced) - 1.0)
    runner.problems.extend(f"count not computed: {e}" for e in tracer.hook_errors[:5])
    tracer.write_spans(args.workdir / "spans.csv")
    return {"metrics": {k: {"value": v, "unit": layers.unit(k)} for k, v in metrics.items()},
            "passes": len(untraced) + len(per_pass)}


if __name__ == "__main__":
    sys.exit(main())
