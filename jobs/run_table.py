"""Regenerate one evaluation table (DESIGN.md T1-T8) and print it:

    spark-submit jobs/run_table.py N

The runners under ``repro.evaluation.tables`` are the real
implementation; this entrypoint only builds the session and prints.
"""
import sys

from _common import get_spark, show

from repro.evaluation import tables

TITLES = {
    1: "anomaly-free training comparison",
    2: "robustness to parsing errors",
    3: "multi-source mixing",
    4: "log instability",
    5: "online parser benchmark",
    6: "JSON/XML extraction study",
    7: "feedback-trained classifier",
    8: "distribution & streaming throughput",
}

if __name__ == "__main__":
    n = int(sys.argv[1])
    if n not in TITLES:
        sys.exit(f"usage: run_table.py N  (N in {min(TITLES)}..{max(TITLES)})")
    spark = get_spark(f"monilog-table{n}")
    show(f"Table {n} — {TITLES[n]}", getattr(tables, f"run_table{n}")(spark))
    spark.stop()
