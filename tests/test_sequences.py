"""Spark tests for sequence structuring (detect.sequences), with DuckDB
oracle checks on every relational aggregation."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.detect.sequences import count_matrix, session_sequences, time_window_sequences
from repro.loggen.generator import StreamSpec, generate
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def stream():
    return generate(StreamSpec(n_sessions=120, n_sources=4, anomaly_rate=0.1,
                               jitter_s=0.4, seed=33))


@pytest.fixture(scope="module")
def sdf(spark, stream):
    return spark.createDataFrame(stream).cache()


def test_session_labels_match_duckdb(spark, sdf, stream):
    got = (sdf.groupBy("session_id")
              .agg(F.max(F.col("is_anomaly").cast("int")).alias("label")))
    assert_equivalent(
        got,
        "SELECT session_id, max(CASE WHEN is_anomaly THEN 1 ELSE 0 END) AS label "
        "FROM logs GROUP BY session_id",
        logs=stream,
    )


def test_window_counts_match_duckdb(spark, sdf, stream):
    got = (sdf.groupBy(F.window("ts", "30 seconds").alias("w"))
              .agg(F.count("*").alias("n"))
              .select(F.col("w.start").alias("w_start"), "n"))
    assert_equivalent(
        got,
        "SELECT time_bucket(INTERVAL '30 seconds', ts) AS w_start, count(*) AS n "
        "FROM logs GROUP BY 1",
        logs=stream,
    )


def test_session_sequences_shape(spark, sdf, stream):
    seq = session_sequences(sdf).toPandas()
    assert len(seq) == stream["session_id"].nunique()
    assert set(seq.columns) == {"session_id", "events", "label"}
    lens = stream.groupby("session_id").size()
    got = {r.session_id: len(r.events) for r in seq.itertuples()}
    assert got == lens.to_dict()


def test_session_sequences_event_time_order(spark, sdf, stream):
    # sequences must follow event time, undoing the arrival jitter
    seq = session_sequences(sdf).toPandas()
    expect = (stream.sort_values(["ts", "line_id"])
              .groupby("session_id")["event_id"].apply(list))
    for r in seq.itertuples():
        assert list(r.events) == expect[r.session_id]


def test_session_sequences_label_is_any(spark, sdf, stream):
    seq = session_sequences(sdf).toPandas()
    truth = stream.groupby("session_id")["is_anomaly"].any()
    for r in seq.itertuples():
        assert bool(r.label) == bool(truth[r.session_id])


def test_time_window_sequences_cover_all_lines(spark, sdf, stream):
    seq = time_window_sequences(sdf, window="30 seconds").toPandas()
    assert sum(len(e) for e in seq["events"]) == len(stream)


def test_time_window_label_propagation(spark, sdf, stream):
    seq = time_window_sequences(sdf, window="30 seconds").toPandas()
    # at least one anomalous window must exist given 10% anomalous sessions
    assert seq["label"].sum() >= 1


def test_count_matrix_roundtrip(stream):
    pdf = (stream.sort_values(["ts", "line_id"]).groupby("session_id")
           .agg(events=("event_id", list), label=("is_anomaly", "any"))
           .reset_index())
    pdf["label"] = pdf["label"].astype(int)
    X, vocab, labels, sids = count_matrix(pdf)
    assert X.shape == (len(pdf), len(vocab))
    assert X.sum() == len(stream)
    # row sums equal sequence lengths
    assert (X.sum(axis=1) == pdf["events"].apply(len).to_numpy()).all()


def test_count_matrix_unknown_bucket(stream):
    pdf = pd.DataFrame({"session_id": ["a"], "events": [["x", "y", "z"]],
                        "label": [0]})
    X, vocab, _, _ = count_matrix(pdf, vocab=["x"])
    assert vocab == ["x", "<unk>"]
    assert X[0, 0] == 1 and X[0, 1] == 2


def test_count_matrix_unknown_bucket_idempotent_vocab(stream):
    pdf = pd.DataFrame({"session_id": ["a"], "events": [["x"]], "label": [1]})
    X1, vocab1, y, _ = count_matrix(pdf)
    X2, vocab2, _, _ = count_matrix(pdf, vocab1)
    assert vocab1 == vocab2
    np.testing.assert_array_equal(X1, X2)
    assert y[0] == 1

