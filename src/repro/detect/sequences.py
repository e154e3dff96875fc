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

All aggregation is Spark DataFrame API (groupBy / window / pivot); the
DuckDB oracle cross-checks the relational parts in tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def session_sequences(df: DataFrame, *, id_col: str = "session_id",
                      event_col: str = "event_id",
                      order_cols: tuple[str, ...] = ("ts", "line_id")) -> DataFrame:
    """Per-session event sequence: ``(session_id, events: array<string>,
    label)``. Ordered by event time then line id (stable under the §I
    mixed-arrival noise: event time, not arrival time, defines the flow).
    """
    struct_cols = [F.col(c) for c in order_cols] + [F.col(event_col)]
    agg = (df.groupBy(id_col)
             .agg(F.sort_array(F.collect_list(F.struct(*struct_cols))).alias("_s"),
                  F.max(F.col("is_anomaly").cast("int")).alias("label"))
             .select(F.col(id_col).alias("session_id"),
                     F.col(f"_s.{event_col}").alias("events"),
                     "label"))
    return agg


def time_window_sequences(df: DataFrame, *, window: str = "30 seconds",
                          event_col: str = "event_id") -> DataFrame:
    """Tumbling event-time windows over the whole multi-source stream:
    ``(session_id = window start, events, label)``; a window is anomalous
    iff it contains a line of an anomalous session."""
    w = F.window(F.col("ts"), window)
    agg = (df.groupBy(w.alias("w"))
             .agg(F.sort_array(F.collect_list(
                      F.struct(F.col("ts"), F.col("line_id"), F.col(event_col)))).alias("_s"),
                  F.max(F.col("is_anomaly").cast("int")).alias("label"))
             .select(F.col("w.start").cast("string").alias("session_id"),
                     F.col(f"_s.{event_col}").alias("events"),
                     "label"))
    return agg


def count_matrix(seq_pdf: pd.DataFrame, vocab: list[str] | None = None,
                 *, unknown_bucket: bool = False
                 ) -> tuple[np.ndarray, list[str], np.ndarray, list[str]]:
    """Session x event count matrix from a collected sequences frame.

    Returns ``(X, vocab, labels, session_ids)``. With ``vocab`` given
    (the training vocabulary), unseen events are dropped — the
    closed-world behaviour whose failure modes T4 measures — unless
    ``unknown_bucket`` adds one trailing column counting them (the
    open-vocabulary variant the count-based detectors can opt into; the
    returned vocab then ends with ``"<unk>"``).
    """
    if vocab is None:
        vocab = sorted({e for seq in seq_pdf["events"] for e in seq})
    base = [v for v in vocab if v != "<unk>"]
    index = {e: i for i, e in enumerate(base)}
    d = len(base) + (1 if unknown_bucket else 0)
    X = np.zeros((len(seq_pdf), d), dtype=np.float64)
    for r, seq in enumerate(seq_pdf["events"]):
        for e in seq:
            i = index.get(e)
            if i is not None:
                X[r, i] += 1.0
            elif unknown_bucket:
                X[r, len(base)] += 1.0
    labels = seq_pdf["label"].to_numpy(dtype=np.int64)
    out_vocab = base + (["<unk>"] if unknown_bucket else [])
    return X, out_vocab, labels, seq_pdf["session_id"].tolist()


def spark_count_matrix(df: DataFrame, *, id_col: str = "session_id",
                       event_col: str = "event_id") -> DataFrame:
    """Long-form (session, event, count) via Spark groupBy — the
    distributed equivalent of :func:`count_matrix`, oracle-checked in
    tests and used when the matrix would not fit on the driver."""
    return (df.groupBy(F.col(id_col).alias("session_id"),
                       F.col(event_col).alias("event"))
              .agg(F.count("*").alias("n")))
