"""Side-by-side A/B of the benchmark declared in BENCHMARK.json.

    python3 tools/ab_bench.py --parent HEAD~1 --seeds 1-10 \
        --change "what the change does" [--claim batch-200k:detect_lines_per_s]

Run from anywhere inside a checkout. For every workload and seed it runs
the benchmark command once in a temporary copy of the parent revision
(``git archive``, extracted under ``.bench_work/``) and once in this
checkout, untraced, the side that runs first alternating from seed to
seed. It then appends one entry to ``BENCH_perfbench.json``: per workload
and end-to-end metric, each side's value per seed, median and quartiles
over the seeds, and on how many seeds the change read better or worse.
Each pair also gets the verdict of the acceptance rule it is used for: the
claimed (workload, metric) ``claim_met``, every other one ``within_bound``
(see :func:`claim_met` and :func:`within_bound`). The copy is removed
afterwards. Standard library only; the benchmark's
own files are never edited.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "spark_master", "default_parallelism", "driver_memory",
             "spark_version", "python_version")


def parse_seeds(text: str) -> list[int]:
    """``"1-5,9"`` -> ``[1, 2, 3, 4, 5, 9]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and linear-interpolated 25th/75th percentiles."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def run_once(root: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict | None:
    """One untraced run in ``root``; its provenance and result, or None if
    it printed no result."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    prov = next((json.loads(ln[len("provenance "):]) for ln in lines
                 if ln.startswith("provenance ")), {})
    return {"provenance": prov, "result": json.loads(lines[-1])}


def _gain(stats: dict) -> float:
    """How much better the change's median is than the parent's, in the
    metric's unit (negative when it is worse)."""
    sign = 1 if stats["better"] == "higher" else -1
    return sign * (stats["change"]["median"] - stats["parent"]["median"])


def claim_met(stats: dict) -> bool:
    """A claimed gain holds iff at least 10 pairs were run, the change is
    better on at least 9 in 10 of them (a pair where a side gave no result
    is not won), and its median beats the parent's by more than the
    parent's own quartile spread (q3 - q1)."""
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    return (stats["pairs_run"] >= 10 and 10 * stats["change_wins"] >= 9 * stats["pairs_run"]
            and _gain(stats) > spread)


def within_bound(stats: dict, bound: float) -> bool:
    """An unclaimed metric holds iff the change's median is not worse than
    the parent's by more than ``bound`` (a fraction of the parent's median)."""
    return -_gain(stats) <= bound * abs(stats["parent"]["median"])


def compare(runs: dict[str, list[dict | None]], metrics: list[dict],
            claimed: str | None = None) -> dict:
    """Per-metric statistics over the ``pairs`` in which both sides ran
    (``pairs_run`` counts every pair), each with its verdict:
    ``claim_met`` for the ``claimed`` metric, ``within_bound`` for the
    others."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        vals = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                for p, c in pairs]
        if not vals:
            continue
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": quartiles([p for p, _ in vals]),
            "change": quartiles([c for _, c in vals]),
            "per_seed": {"parent": [round(p, 4) for p, _ in vals],
                         "change": [round(c, 4) for _, c in vals]},
            "change_wins": sum(1 for p, c in vals if sign * (c - p) > 0),
            "change_losses": sum(1 for p, c in vals if sign * (c - p) < 0),
            "pairs": len(vals),
            "pairs_run": len(runs["parent"]),
        }
        if name == claimed:
            out[name]["claim_met"] = claim_met(out[name])
        else:
            out[name]["within_bound"] = within_bound(out[name], m["bound"])
    return out


def all_correct(runs: dict[str, list[dict | None]]) -> bool:
    return all(r is not None and r["result"]["correct"] and r["result"]["failed"] == 0
               for side in runs.values() for r in side)


def f1_identical(runs: dict[str, list[dict | None]]) -> bool:
    def f1(r):
        return None if r is None else r["result"]["metrics"].get("detect_f1", {}).get("value")
    return all(f1(p) == f1(c) for p, c in zip(runs["parent"], runs["change"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--change", required=True, help="one line saying what the change does")
    ap.add_argument("--workloads", help="comma-separated; default: every workload")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = set(workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads: {sorted(unknown)}")
    claim = None
    if args.claim:
        claim = tuple(args.claim.partition(":")[::2])
        if claim[0] not in workloads or claim[1] not in [m["name"] for m in bench["end_to_end"]]:
            ap.error(f"--claim {args.claim}: not a run workload and BENCHMARK.json "
                     "end-to-end metric")
    seeds = parse_seeds(args.seeds)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()

    copy = os.path.join(ROOT, ".bench_work", f"ab-parent-{os.getpid()}")
    os.makedirs(copy)
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
    roots = {"parent": copy, "change": ROOT}
    results = {}
    host: dict = {}
    try:
        for workload in workloads:
            runs: dict[str, list[dict | None]] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    run = run_once(roots[side], bench["command"], workload, seed,
                                   bench["run_seconds"])
                    runs[side].append(run)
                    if run and not host:
                        host = {k: run["provenance"].get(k) for k in HOST_KEYS}
                    ok = "no result" if run is None else run["result"]["metrics"]
                    print(f"{workload} seed {seed} {side}: "
                          + (ok if isinstance(ok, str) else
                             " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(ok.items()))),
                          flush=True)
            results[workload] = {
                "seeds": seeds,
                "all_runs_correct_no_failed_ops": all_correct(runs),
                "detect_f1_identical_per_seed": f1_identical(runs),
                "metrics": compare(runs, bench["end_to_end"],
                                   claim[1] if claim and claim[0] == workload else None),
            }
    finally:
        shutil.rmtree(copy, ignore_errors=True)

    entry = {"change": args.change, "parent_commit": parent, "host": host,
             "run_seconds": bench["run_seconds"]}
    if claim:
        entry["claim"] = {"workload": claim[0], "metric": claim[1],
                          "claim_met": results[claim[0]]["metrics"].get(claim[1], {})
                          .get("claim_met", False)}
    entry["workloads"] = results
    record = os.path.join(ROOT, "BENCH_perfbench.json")
    with open(record) as f:
        doc = json.load(f)
    doc["entries"].append(entry)
    with open(record, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"appended the A/B of {parent} vs this checkout to {record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
