"""Integration tests for the Structured Streaming pipeline (streaming.pipeline)."""
import json
import os

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
    return test, sm, (qp, qd)


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
    test, sm, _ = run
    preds = sm.predictions()
    assert len(preds) == test["session_id"].nunique()
    assert preds["session_id"].is_unique
    assert FLUSH_SESSION not in set(preds["session_id"])


def test_streaming_detection_quality(run):
    test, sm, _ = run
    preds = sm.predictions()
    truth = test.groupby("session_id")["is_anomaly"].any().astype(int)
    merged = preds.set_index("session_id").join(truth.rename("y"))
    r = prf(merged["y"].tolist(), merged["pred"].tolist())
    assert r.recall >= 0.75
    assert r.f1 >= 0.7


def test_reports_and_classification(run):
    _, sm, _ = run
    assert len(sm.reports) == int(sm.predictions()["pred"].sum())
    stats = sm.monilog.pools.stats()
    assert sum(stats.values()) == len(sm.reports)


def _executed(query) -> list:
    """Progress of the query's batches that ran (not idle triggers)."""
    return [p for p in query.recentProgress if "addBatch" in p["durationMs"]]


def test_multiple_microbatches_processed(run):
    _, _, (qp, _) = run
    assert len(_executed(qp)) >= 3


def _state_partitions(query) -> int:
    return query.lastProgress["stateOperators"][0]["numShufflePartitions"]


def test_state_partitions_capped_at_cores(spark, run):
    _, _, (_, qd) = run
    conf = spark.conf.get("spark.sql.shuffle.partitions")
    assert _state_partitions(qd) == min(int(conf), spark.sparkContext.defaultParallelism)


@pytest.fixture(scope="module")
def fitted4(spark):
    train = generate(StreamSpec(n_sessions=300, n_sources=4, anomaly_rate=0.0, seed=82))
    test = generate(StreamSpec(n_sessions=80, n_sources=4, anomaly_rate=0.1,
                               session_spread_s=200.0, seed=83))
    return MoniLog(spark).fit(spark.createDataFrame(train)), test


def _raw(spark, pdf):
    return spark.createDataFrame(pdf[list(RAW_SCHEMA.fieldNames())], schema=RAW_SCHEMA)


def _parsed(spark, sm):
    """Stage A's output without the flush record."""
    structured = spark.read.parquet(sm.structured_dir)
    return structured.filter(structured.session_id != FLUSH_SESSION)


def test_stage_a_templates_independent_of_microbatches(spark, fitted4, tmp_path):
    ml, test = fitted4
    inp = str(tmp_path / "input")
    write_stream_files(test, inp, n_files=16)
    sm = StreamingMoniLog(ml, str(tmp_path / "work"))
    qp, qd = sm.start(inp, max_files_per_trigger=1)
    try:
        qp.processAllAvailable()
    finally:
        qp.stop()
        qd.stop()
    assert len(_executed(qp)) == 17  # 16 files and the flush record
    streamed = _parsed(spark, sm).select("line_id", "template").toPandas()
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


def test_runtime_shuffle_partitions_kept_and_capped(spark, fitted4, tmp_path):
    ml, test = fitted4
    inp = str(tmp_path / "input")
    write_stream_files(test.head(200), inp, n_files=1)
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, "2")
    try:
        sm = StreamingMoniLog(ml, str(tmp_path / "work"))
        qp, qd = sm.start(inp)
        try:
            assert spark.conf.get(key) == "2"
            sm.drain(qp, qd, rounds=2)
        finally:
            qp.stop()
            qd.stop()
        assert _state_partitions(qd) == min(2, spark.sparkContext.defaultParallelism)
        assert spark.conf.get(key) == "2"
    finally:
        spark.conf.set(key, old)


def test_replayed_parse_batch_written_once(spark, fitted4, tmp_path):
    ml, test = fitted4
    inp = str(tmp_path / "input")
    # no flush file: the batch replayed is the last one, with 1/4 of the lines
    os.remove(write_stream_files(test, inp, n_files=4)[-1])
    work = str(tmp_path / "work")
    sm = StreamingMoniLog(ml, work)
    qp, qd = sm.start(inp)
    qd.stop()
    try:
        qp.processAllAvailable()
    finally:
        qp.stop()
    commits = os.path.join(sm.checkpoints, "parse", "commits")
    last = max((f for f in os.listdir(commits) if f.isdigit()), key=int)
    for name in (last, f".{last}.crc"):
        os.remove(os.path.join(commits, name))
    # a new pipeline on the same checkpoint runs the uncommitted batch again
    sm = StreamingMoniLog(ml, work)
    qp, qd = sm.start(inp)
    qd.stop()
    try:
        qp.processAllAvailable()
    finally:
        qp.stop()
    assert [p["batchId"] for p in _executed(qp)] == [int(last)]
    ids = _parsed(spark, sm).select("line_id").toPandas()["line_id"]
    assert sorted(ids) == sorted(test["line_id"])
