"""Integration tests for the Structured Streaming pipeline (streaming.pipeline)."""
import json
import os

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.monilog import MoniLog
from repro.detect.scoring import LINE_FIELDS
from repro.evaluation.labels import prf
from repro.loggen.generator import StreamSpec, generate
from repro.streaming.pipeline import (FLUSH_SESSION, RAW_SCHEMA, StreamingMoniLog,
                                      write_stream_files)


@pytest.fixture(scope="module")
def fitted(spark):
    train = generate(StreamSpec(n_sessions=300, n_sources=2, anomaly_rate=0.0, seed=80))
    return MoniLog(spark).fit(spark.createDataFrame(train))


@pytest.fixture(scope="module")
def run(spark, fitted, tmp_path_factory):
    work = str(tmp_path_factory.mktemp("monilog-stream"))
    test = generate(StreamSpec(n_sessions=80, n_sources=2, anomaly_rate=0.1,
                               session_spread_s=200.0, seed=81))
    inp = os.path.join(work, "input")
    write_stream_files(test, inp, n_files=3)
    sm = StreamingMoniLog(fitted, work, session_gap="30 seconds", watermark="5 seconds")
    qp, qd = sm.start(inp)
    try:
        sm.drain(qp, qd, rounds=8)
    finally:
        qp.stop()
        qd.stop()
    return test, sm


def test_write_stream_files_layout(tmp_path):
    pdf = generate(StreamSpec(n_sessions=10, seed=5))
    paths = write_stream_files(pdf, str(tmp_path / "in"), n_files=3)
    assert len(paths) == 4  # 3 batches + flush
    total = 0
    last = json.loads(open(paths[-1]).read())
    assert last["session_id"] == FLUSH_SESSION
    for p in paths[:-1]:
        with open(p) as f:
            total += sum(1 for _ in f)
    assert total == len(pdf)


def test_requires_fitted_model(spark, tmp_path):
    with pytest.raises(RuntimeError):
        StreamingMoniLog(MoniLog(spark), str(tmp_path))


def test_every_session_scored_exactly_once(run):
    test, sm = run
    preds = sm.predictions()
    assert len(preds) == test["session_id"].nunique()
    assert preds["session_id"].is_unique
    assert FLUSH_SESSION not in set(preds["session_id"])


def test_streaming_detection_quality(run):
    test, sm = run
    preds = sm.predictions()
    truth = test.groupby("session_id")["is_anomaly"].any().astype(int)
    merged = preds.set_index("session_id").join(truth.rename("y"))
    r = prf(merged["y"].tolist(), merged["pred"].tolist())
    assert r.recall >= 0.75
    assert r.f1 >= 0.7


def test_reports_and_classification(run):
    _, sm = run
    assert len(sm.reports) == int(sm.predictions()["pred"].sum())
    stats = sm.monilog.pools.stats()
    assert sum(stats.values()) == len(sm.reports)


def test_multiple_microbatches_processed(run):
    _, sm = run
    assert sm.batches_parsed >= 3


@pytest.fixture(scope="module")
def fitted4(spark):
    train = generate(StreamSpec(n_sessions=300, n_sources=4, anomaly_rate=0.0, seed=82))
    test = generate(StreamSpec(n_sessions=80, n_sources=4, anomaly_rate=0.1,
                               session_spread_s=200.0, seed=83))
    return MoniLog(spark).fit(spark.createDataFrame(train)), test


def _raw(spark, pdf):
    return spark.createDataFrame(pdf[list(RAW_SCHEMA.fieldNames())], schema=RAW_SCHEMA)


def test_stage_a_templates_independent_of_microbatches(spark, fitted4, tmp_path):
    ml, test = fitted4
    sm = StreamingMoniLog(ml, str(tmp_path))
    arrival = test.sort_values("arrival_ts")
    for batch_id, rows in enumerate(np.array_split(np.arange(len(arrival)), 16)):
        sm._parse_batch(_raw(spark, arrival.iloc[rows]), batch_id)
    streamed = spark.read.parquet(sm.structured_dir).select("line_id", "template").toPandas()
    batch = ml.parse(_raw(spark, test)).select("line_id", "template").toPandas()
    assert len(streamed) == len(batch) == len(test)
    assert dict(zip(streamed["line_id"], streamed["template"])) == \
        dict(zip(batch["line_id"], batch["template"]))


def test_replayed_score_batch_counts_once(spark, fitted4, tmp_path):
    ml, test = fitted4
    sm = StreamingMoniLog(ml, str(tmp_path))
    sessions = (ml.parse(_raw(spark, test)).groupBy("session_id")
                .agg(F.collect_list(F.struct(*LINE_FIELDS)).alias("lines")))
    sm._score_batch(sessions, 7)
    first = (list(sm.results), list(sm.reports), ml.pools.stats())
    assert len(first[0]) == test["session_id"].nunique() and first[1]
    sm._score_batch(sessions, 7)
    assert (sm.results, sm.reports, ml.pools.stats()) == first
