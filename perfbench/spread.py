"""Run a workload over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload words --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

For every metric it prints the median over the runs and the
interquartile range as a share of that median (quartiles from
``statistics.quantiles(values, n=4)``), plus each run's wall time.
``--out`` also writes the per-run results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--out")
    args = p.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, "result": result})
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    names = list(runs[0]["result"]["metrics"])
    print(f"{'metric':44s} {'median':>12s} {'iqr/median':>10s}  unit")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else 0.0
        print(f"{name:44s} {med:12.6g} {share:10.4f}  {runs[0]['result']['metrics'][name]['unit']}")
    print(f"wall seconds per run: max {max(r['wall_s'] for r in runs):.1f}, "
          f"mean {statistics.mean(r['wall_s'] for r in runs):.1f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
