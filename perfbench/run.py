"""Run one MoniLog benchmark workload and print its result.

    python3 perfbench/run.py --workload batch-200k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports MoniLog from
``src/`` and keeps every file it writes under ``.bench_work/``, which it
removes on exit. It prints its provenance, then every metric with its
unit, then the result as one JSON object on the last line. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of a traced run. The exit code is 0 only
when a result was printed.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import batch, harness, stream  # noqa: E402

WORKLOADS = {
    "batch-200k": (batch, batch.BatchSpec()),
    "stream-250": (stream, stream.ReplaySpec()),
}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, workdir: str,
                 spark=None, spec=None):
    """Generate the workload's inputs from ``seed``, run it and return
    ``(gate, metrics, provenance)``. Without ``spark`` a session is started
    (while the inputs are generated) and stopped before returning."""
    module, default_spec = WORKLOADS[name]
    spec = spec or default_spec
    own_spark = spark is None
    t0 = time.perf_counter()
    if own_spark:
        with ThreadPoolExecutor(1) as pool:
            starting = pool.submit(harness.start_spark, workdir)
            try:
                inputs = module.make_inputs(spec, seed, seconds)
            finally:
                spark = starting.result()
    else:
        inputs = module.make_inputs(spec, seed, seconds)
    setup_s = time.perf_counter() - t0
    try:
        gate, metrics = module.run(spark, inputs, seconds=seconds, trace=trace,
                                   setup_s=setup_s, workdir=workdir, spec=spec)
        prov = harness.provenance(spark, name, seed)
    finally:
        if own_spark:
            harness.stop_spark(spark)
    if trace:
        for metric, unit in module.NOT_RUN.items():
            metrics.put(metric, 0, unit)
    return gate, metrics, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "monilog.py")):
        print(f"perfbench: no MoniLog sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    # before pyspark is imported: Spark's Python workers inherit this
    # environment, and no file may land outside the checkout
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # every JVM the run starts (spark-submit's launcher, the driver) would
    # otherwise write its perf data under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    sys.path.insert(0, SRC)
    try:
        gate, metrics, prov = run_workload(args.workload, seed=args.seed,
                                           seconds=args.seconds, trace=bool(args.trace),
                                           workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.emit(gate, metrics, prov)
    return 0


if __name__ == "__main__":
    sys.exit(main())
