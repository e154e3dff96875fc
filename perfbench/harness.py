"""Shared pieces of the benchmark: the Spark session it measures on, the
verdict gate, the statistics and the result line."""
from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

MASTER = "local[4]"
DRIVER_MEMORY = "3g"
# the deployment settings of the project's job entry points
# (jobs/_common.get_spark), so measured calls run as deployed
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    # keep every trigger's progress of a run, not the last 100
    "spark.sql.streaming.numRecentProgressUpdates": "10000",
}


def start_spark(workdir: str):
    """Start a local SparkSession whose scratch files stay under ``workdir``."""
    from pyspark.sql import SparkSession

    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    builder = (SparkSession.builder.master(MASTER).appName("monilog-perfbench")
               .config("spark.driver.memory", DRIVER_MEMORY)
               .config("spark.driver.host", "127.0.0.1")
               .config("spark.ui.enabled", "false")
               .config("spark.ui.showConsoleProgress", "false")
               .config("spark.local.dir", tmp)
               .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse")))
    for k, v in SESSION_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM it launched has exited."""
    sc = spark.sparkContext
    gateway = sc._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
            raise


def provenance(spark, workload: str, seed: int) -> dict:
    sc = spark.sparkContext
    import pyspark

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", "unset"),
        "spark_version": spark.version,
        "pyspark_version": pyspark.__version__,
        "java_version": sc._jvm.System.getProperty("java.version"),
        "python_version": platform.python_version(),
    }


# -- correctness ------------------------------------------------------------

@dataclasses.dataclass
class Gate:
    """One operation per input session: it must get exactly one verdict."""

    attempted: int = 0
    failed: int = 0
    # wrong outputs tied to no attempted session: verdicts for sessions
    # never input, reports that do not match the flagged sessions
    invalid: int = 0

    def check(self, expected: Iterable[str], verdicts: Sequence[str]) -> None:
        seen = Counter(verdicts)
        expected = set(expected)
        self.attempted += len(expected)
        self.failed += sum(1 for s in expected if seen.get(s, 0) != 1)
        self.invalid += sum(1 for s in seen if s not in expected)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.invalid == 0


def f1_score(labels: Mapping[str, int], preds: Mapping[str, int]) -> float:
    """§III F1 over sessions; a session without a verdict counts as 0."""
    tp = fp = fn = 0
    for sid, y in labels.items():
        p = preds.get(sid, 0)
        tp += y and p
        fp += p and not y
        fn += y and not p
    if tp == 0:
        return 0.0
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def session_labels(pdf) -> dict[str, int]:
    return {s: int(v) for s, v in pdf.groupby("session_id")["is_anomaly"].any().items()}


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- result line ------------------------------------------------------------

class Metrics(dict):
    """name -> {"value", "unit"}; printed one per line, then as JSON."""

    def put(self, name: str, value: float, unit: str) -> None:
        self[name] = {"value": float(value), "unit": unit}


def emit(gate: Gate, metrics: Metrics, prov: dict) -> None:
    """Print provenance and every metric, then the result as the last line."""
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:36s} {m['value']:>16.6f} {m['unit']}")
    result = {"correct": gate.correct, "attempted": int(gate.attempted),
              "failed": int(gate.failed), "metrics": dict(metrics)}
    print(json.dumps(result), flush=True)
