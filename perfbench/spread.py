"""Run one workload over several seeds and print each end-to-end metric's
median and spread (interquartile range as a share of the median, from
``statistics.quantiles(values, n=4)``) next to its bound.

    python3 perfbench/spread.py --workload stream-250 --seeds 1 2 3 4 5
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if out.returncode != 0:
            print(out.stderr[-3000:], file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, " + ", ".join(
                  f"{k} {v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:36s} median {med:12.5g}  spread {share:7.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
