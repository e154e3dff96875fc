"""Shared helpers for the spark-submit job entrypoints.

``jobs/run_table.py N`` wraps the evaluation-table runners (DESIGN.md
T1-T8); ``jobs/monilog_stream.py`` is the end-to-end streaming demo.
"""
import pandas as pd
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (SparkSession.builder.appName(app)
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate())


def show(title: str, table: pd.DataFrame) -> None:
    print(f"\n=== {title} ===")
    print(table.to_string(index=False))
