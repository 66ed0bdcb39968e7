"""The repository benchmark: OCTOPUS end to end, checked against a linear scan.

Run from the root of a checkout::

    python3 perfbench/run.py --workload restructure --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` runs separately with spans around every call into the library
and prints the per-layer metrics.  The last stdout line is the JSON result.
The exit code is 0 when every answer was right, 1 when an answer raised or
held an id outside its box, and 2 when the checkout lacks the library
sources.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_to_one_cpu() -> None:
    """Run the benchmark, and every thread it or the library starts, on one CPU.

    On a shared virtual machine, waking a thread on another virtual CPU goes
    through the hypervisor, and how long that takes follows the neighbours'
    load.  On the 2-CPU reference machine the sharded service's fan-out
    threads made ``steer``'s median round swing between 47 and 82 ms within
    minutes, while the same rounds on one CPU stayed between 39 and 48 ms.
    Threads inherit the affinity, so this runs before NumPy starts its own.
    """
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])


def main(argv: list[str] | None = None) -> int:
    pin_to_one_cpu()
    sys.path.insert(0, str(HERE))
    from benchkit import inputs, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        src = inputs.library_src(ROOT)
    except inputs.MissingSourceError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from benchkit import bench

    return bench.execute(workloads.WORKLOADS[args.workload], ROOT, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
