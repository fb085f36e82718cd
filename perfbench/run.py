"""Benchmark of the bivariation toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_d1 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

Each measurement runs in fresh worker processes (``worker.py``) that import
the package from ``src/`` with BLAS/OpenMP threads set to 1 and
``BIVARIATION_THREADS`` unset.  ``--trace 0`` reports the end-to-end metrics:
``setup_s`` (median over several worker start-ups), ``wall_s`` (median time
of a pass over the workload's operations) and ``peak_rss_mb``.  ``--trace 1``
reports the per-layer metrics of a traced run.  Times are scaled to a
reference machine speed, measured by a fixed calibration kernel next to each
operation (``worker.calibrate``), because a shared host's speed drifts by
tens of percent within minutes; the unscaled median pass time is printed too.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``fail_frac`` is
``failed / attempted`` and is printed on its own line above it.

``--smoke`` runs every workload at minimal size, traced and untraced, and
checks that each metric in BENCHMARK.json is emitted with its unit and that
no operation failed.  Generated configs, suite reports and span dumps go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # worker start-ups per run whose set-up time is measured
TIME_LIMIT_S = 170.0  # a run, workers included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BIVARIATION_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches,
            "platform": platform.platform(), "git_commit": _git_commit(),
            "src_sha256": _tree_digest(ROOT / "src")}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    """Digest of the source files, which identifies the code when the checkout
    is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One run: the result object, with the worker's details under ``detail``."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--size", size,
              "--workdir", str(workdir)]
    setups = []
    if trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            probe = _run_worker(common + ["--setup-only"], deadline)
            setups.append(probe["setup_s"] * probe["speed"])
    res = _run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    metrics = res["metrics"]
    if trace == 0:
        setups.append(res["setup_s"] * res["speed"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "detail": {"passes": res["passes"], "problems": res["problems"], "env": res["env"],
                   "workdir": str(workdir), "raw_wall_s": res.get("raw_wall_s")},
    }


def _report(result: dict, machine: dict) -> None:
    detail = result.pop("detail")
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"passes {detail['passes']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, outputs under {detail['workdir']}")
    if detail["raw_wall_s"] is not None:
        print(f"median pass wall time at the machine's own speed: {detail['raw_wall_s']!r} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_frac {result['failed'] / result['attempted']!r} frac")
    print("env " + json.dumps({**machine, **detail["env"]}, sort_keys=True))
    print(json.dumps(result))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke() -> int:
    """Every workload at minimal size, untraced and traced: each metric of
    BENCHMARK.json is emitted with its unit and no operation fails."""
    bench = _benchmark()
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    bad = []
    table = json.loads((HERE / "layer_table.json").read_text())
    if sorted(m for row in table["layers"] for m in row["metrics"]) != sorted(expected[1]):
        bad.append("layer_table.json does not list exactly the per_layer metrics")
    for w in bench["workloads"]:
        for trace in (0, 1):
            res = measure(w["name"], 0, 1.0, trace, size="smoke")
            units = {k: m["unit"] for k, m in res["metrics"].items()}
            label = f"{w['name']} trace {trace}"
            if units != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(units.items()))
                extra = sorted(set(units.items()) - set(expected[trace].items()))
                bad.append(f"{label}: metrics missing {missing}, unexpected {extra}")
            if res["attempted"] < 1 or res["failed"] != 0:
                bad.append(f"{label}: fail_frac {res['failed']}/{res['attempted']}: "
                           f"{res['detail']['problems']}")
            print(f"{label}: {len(units)} metrics, fail_frac "
                  f"{res['failed']}/{res['attempted']}")
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in _benchmark()["workloads"]])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="quick self-check of the benchmark")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bivariation" / "__init__.py").is_file():
        print(f"no bivariation sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        _report(result, _machine())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
