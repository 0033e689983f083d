"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload life-clip --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the same checkout. Scratch files go to ``.perfbench_work/`` there and
are removed at exit. Standard output ends with two JSON lines: the full
report (inputs, environment, every metric, sample counts, failures),
then the result, whose metrics are the end-to-end ones with
``--trace 0`` and the per-layer ones with ``--trace 1``.
README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("life-clip", "life-ball", "vocab-10k", "words")
# One BLAS thread: the workloads are single-caller, and a second thread
# only adds contention on a 2-core machine.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "event2vec" / "__init__.py").is_file():
        print(f"error: the event2vec sources are missing from {SRC}", file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS thread pin", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))

    import event2vec
    import workloads

    if Path(event2vec.__file__).resolve().parent != SRC / "event2vec":
        print(f"error: imported event2vec from {event2vec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), tmp)
        run.execute()
        report = run.report()
    report["environment"] = environment(args.seed)
    if args.trace:
        layer = run.per_layer()
        report["per_layer"] = layer
        metrics = {k: {"value": v, "unit": workloads.PER_LAYER[k][0]} for k, v in layer.items()}
    else:
        metrics = report["end_to_end"]
    print(json.dumps(report))
    if run.tally.failures:
        print("\n".join(run.tally.failures), file=sys.stderr)
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
