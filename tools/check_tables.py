"""Re-run evaluation tables and compare them with the recorded results.

    python3 tools/check_tables.py [N ...]

For each table N (default: all eight) it runs
``repro.evaluation.tables.run_tableN`` from this checkout's ``src/``, at
the sizes ``benchmarks/bench_tables.py`` records the tables with
(``KWARGS``), and compares the result cell by cell with
``results/tableN.csv``. The timing columns (:data:`TIMING`) are not
compared. Every differing cell is printed, and the exit status is 1 if
any cell or the shape of any table differs. Nothing is written.

The Spark session is set up as the test suite's: master ``SPARK_MASTER``
(default ``local[*]``), driver memory ``SPARK_DRIVER_MEM`` (default 4g),
``SPARK_SHUFFLE_PARTITIONS`` (default 64) shuffle partitions, Arrow on and
broadcast joins off.
"""
from __future__ import annotations

import io
import os
import sys

import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TIMING = {5: ("lines_per_s",), 8: ("seconds", "lines_per_s")}


def differences(n: int, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """One line per difference of table ``n`` from ``want`` (the recorded
    CSV) outside its timing columns; ``got`` is compared as it reads back
    from the CSV it would be written to."""
    got = pd.read_csv(io.StringIO(got.to_csv(index=False)))
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return [f"table{n}: shape {list(got.columns)} x {len(got)} rows, "
                f"recorded {list(want.columns)} x {len(want)} rows"]
    out = []
    for col in (c for c in want.columns if c not in TIMING.get(n, ())):
        for row, (new, old) in enumerate(zip(got[col], want[col])):
            if not (new == old or (pd.isna(new) and pd.isna(old))):
                label = ", ".join(str(v) for v in want.iloc[row, :2])
                out.append(f"table{n} row {row} ({label}) {col}: {new!r}, recorded {old!r}")
    return out


def main(argv: list[str]) -> int:
    numbers = [int(a) for a in argv] or list(range(1, 9))
    if not set(numbers) <= set(range(1, 9)):
        sys.exit(f"usage: check_tables.py [N ...]  (N in 1..8), got {argv}")
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "benchmarks")]
    # Spark's Python workers import repro too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    from pyspark.sql import SparkSession

    from bench_tables import KWARGS
    from repro.evaluation import tables

    spark = (SparkSession.builder.appName("check-tables")
             .master(os.environ.get("SPARK_MASTER", "local[*]"))
             .config("spark.driver.memory", os.environ.get("SPARK_DRIVER_MEM", "4g"))
             .config("spark.driver.host", "127.0.0.1")
             .config("spark.ui.enabled", "false")
             .config("spark.sql.shuffle.partitions",
                     os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .getOrCreate())
    failed = False
    try:
        for n in numbers:
            got = getattr(tables, f"run_table{n}")(spark, **KWARGS.get(n, {}))
            diff = differences(n, got, pd.read_csv(os.path.join(ROOT, "results",
                                                                f"table{n}.csv")))
            print("\n".join(diff) if diff else f"table{n}: equal")
            failed |= bool(diff)
    finally:
        spark.stop()
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
