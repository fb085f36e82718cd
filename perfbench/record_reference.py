"""Records reference.json: the output digest of every operation of every
workload at full size, for seeds 0 to SEEDS - 1.

The references pin the outputs of the commit they were recorded on; a later
change must reproduce them bit for bit.  Re-record only when a workload's
definition changes, never to accept a changed output.  Run from the root of
a checkout:

    python3 perfbench/record_reference.py
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = 16


def main() -> int:
    from run import THREAD_VARS

    # the same thread settings as the benchmark's workers, before numpy loads
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ.pop("BIVARIATION_THREADS", None)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from worker import REFERENCE, Runner

    out = {}
    for name in workloads.WORKLOADS:
        out[name] = {}
        for seed in range(SEEDS):
            workdir = HERE.parent / ".bench_out" / f"reference-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            runner = Runner(workloads.build(name, seed, "full", workdir), None)
            runner.one_pass()
            if runner.failed:
                print(f"{name} seed {seed}: {runner.problems}", file=sys.stderr)
                return 1
            out[name][str(seed)] = runner.first
            print(f"{name} seed {seed}: {len(runner.first)} operations", flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
