"""Structuring the parsed log stream into analysable sequences (MoniLog
step 2 input): Spark SQL sessionization, fixed windows, count matrices.

Three structurings, matching the paper's experiments:

* :func:`session_sequences` — per-session ordered event-id sequences
  (the HDFS-block protocol of the cited evaluations; T1/T2/T4);
* :func:`time_window_sequences` — fixed event-time tumbling windows over
  the *interleaved multi-source* stream, where flows mix (§III exp. 3,
  T3) — windows have no session identity, which is exactly what hurts
  sequence learners;
* :func:`count_matrix` — session/window x event-id count matrix feeding
  the counter-based detectors (PCA, IM, LogClustering).

Sessionization and windowing are Spark DataFrame API (groupBy / window);
the DuckDB oracle cross-checks them in tests. The count matrix is built on
the driver from the collected sequences.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

WINDOW = "30 seconds"  # T3's tumbling event-time window


def _ordered_events(df: DataFrame, key: Column) -> DataFrame:
    """``(key, events, label)`` per group of ``key``: the group's event ids
    ordered by event time then line id (stable under the §I mixed-arrival
    noise: event time, not arrival time, defines the flow), and 1 iff any
    of its lines belongs to an anomalous session."""
    return (df.groupBy(key.alias("key"))
              .agg(F.sort_array(F.collect_list(F.struct("ts", "line_id", "event_id"))).alias("_s"),
                   F.max(F.col("is_anomaly").cast("int")).alias("label"))
              .select("key", F.col("_s.event_id").alias("events"), "label"))


def session_sequences(df: DataFrame) -> DataFrame:
    """Per-session event sequence: ``(session_id, events: array<string>,
    label)``."""
    return _ordered_events(df, F.col("session_id")).withColumnRenamed("key", "session_id")


def time_window_sequences(df: DataFrame) -> DataFrame:
    """:data:`WINDOW` tumbling event-time windows over the whole
    multi-source stream: ``(session_id = window start, events, label)``;
    a window is anomalous iff it contains a line of an anomalous session."""
    return _ordered_events(df, F.window("ts", WINDOW)).select(
        F.col("key.start").cast("string").alias("session_id"), "events", "label")


def count_matrix(seq_pdf: pd.DataFrame, vocab: list[str] | None = None
                 ) -> tuple[np.ndarray, list[str], np.ndarray, list[str]]:
    """Session x event count matrix from a collected sequences frame.

    Returns ``(X, vocab, labels, session_ids)``. The returned vocab ends
    with ``"<unk>"``, whose column counts the events not in ``vocab`` (the
    training vocabulary, when given), so a counter-based detector sees an
    unseen event instead of silently dropping it. Passing a returned vocab
    back in gives the same columns.
    """
    if vocab is None:
        vocab = sorted({e for seq in seq_pdf["events"] for e in seq})
    base = [v for v in vocab if v != "<unk>"]
    index = {e: i for i, e in enumerate(base)}
    X = np.zeros((len(seq_pdf), len(base) + 1), dtype=np.float64)
    for r, seq in enumerate(seq_pdf["events"]):
        for e in seq:
            X[r, index.get(e, len(base))] += 1.0
    labels = seq_pdf["label"].to_numpy(dtype=np.int64)
    return X, base + ["<unk>"], labels, seq_pdf["session_id"].tolist()


def idf(X: np.ndarray) -> np.ndarray:
    """Smoothed inverse document frequency of each column of a count
    matrix: the TF-IDF weights PCA and LogClustering learn at ``fit``."""
    return np.log((1 + X.shape[0]) / (1 + (X > 0).sum(axis=0))) + 1.0
