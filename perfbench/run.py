"""pointfill benchmark: one workload per process, one client, one thread.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 12 --trace 0

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is a report with
the environment, operation counts, ``final_loss`` and, where enough samples
exist, ``latency_ms_p90``. ``--trace 1`` reports per-layer metrics instead of
end-to-end ones and writes every span to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def prepare():
    """Pin BLAS/OpenMP threads to one and make the checkout importable.

    Must run before numpy is imported. Returns the ``harness`` module, or
    None when the checkout holds no ``src/pointfill`` package.
    """
    if not (ROOT / "src" / "pointfill" / "__init__.py").is_file():
        return None
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness = prepare()
    if harness is None:
        print(f"no pointfill sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, report, tracer = harness.run_workload(
        workloads.make(args.workload), args.seed, args.seconds, args.trace, ROOT
    )
    if tracer is not None:
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
