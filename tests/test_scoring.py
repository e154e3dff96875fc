"""Tests for session scoring (detect.scoring): the pure-pandas MoniLog
rule and Spark-distributed sequence scoring."""
import pandas as pd
import pytest

from repro.detect.loganomaly import LogAnomalyDetector
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import score_sequences, score_sessions, session_reports
from repro.detect.sequences import session_sequences
from repro.loggen.generator import StreamSpec, generate
from repro.evaluation.tables import template_map


@pytest.fixture(scope="module")
def data(spark):
    train = generate(StreamSpec(n_sessions=300, n_sources=2, anomaly_rate=0.0, seed=60))
    test = generate(StreamSpec(n_sessions=120, n_sources=2, anomaly_rate=0.1, seed=61))
    strain = session_sequences(spark.createDataFrame(train)).toPandas()
    stest_df = session_sequences(spark.createDataFrame(test)).cache()
    return train, test, strain, stest_df


def test_distributed_equals_driver_ngram(spark, data):
    train, test, strain, stest_df = data
    model = NGramDetector().fit([list(s) for s in strain["events"]])
    dist = score_sequences(stest_df.repartition(8), model).toPandas()
    local = stest_df.toPandas()
    expect = {r.session_id: int(model.is_anomalous(list(r.events)))
              for r in local.itertuples()}
    got = dict(zip(dist["session_id"], dist["pred"]))
    assert got == expect


def test_distributed_equals_driver_loganomaly(spark, data):
    train, test, strain, stest_df = data
    tmap = template_map(train, test)
    model = LogAnomalyDetector().fit([list(s) for s in strain["events"]], tmap)
    dist = score_sequences(stest_df.repartition(8), model, templates=tmap).toPandas()
    local = stest_df.toPandas()
    expect = {r.session_id: int(model.is_anomalous(list(r.events), tmap))
              for r in local.itertuples()}
    got = dict(zip(dist["session_id"], dist["pred"]))
    assert got == expect


def test_all_sessions_scored_once(spark, data):
    _, test, strain, stest_df = data
    model = NGramDetector().fit([list(s) for s in strain["events"]])
    dist = score_sequences(stest_df, model).toPandas()
    assert len(dist) == test["session_id"].nunique()
    assert dist["session_id"].is_unique


def test_detection_quality_through_spark_path(spark, data):
    train, test, strain, stest_df = data
    from repro.evaluation.labels import prf
    model = NGramDetector().fit([list(s) for s in strain["events"]])
    dist = score_sequences(stest_df, model).toPandas()
    truth = test.groupby("session_id")["is_anomaly"].any().astype(int)
    merged = dist.set_index("session_id").join(truth.rename("y"))
    r = prf(merged["y"].tolist(), merged["pred"].tolist())
    assert r.f1 > 0.6


FLOW = ["start", "send <*> bytes", "stop"]


def _line(t, tpl, value=100):
    msg = tpl.replace("<*>", str(value))
    return {"ts": pd.Timestamp("2020-01-01") + pd.Timedelta(seconds=t), "line_id": t,
            "source": "net", "level": "WARN" if value > 1000 else "INFO",
            "message": msg, "template": tpl}


@pytest.fixture(scope="module")
def scored():
    seq = NGramDetector(h=2, g=1).fit([FLOW] * 5)
    quant = ValueRangeDetector(k=6).fit(("send <*> bytes", [str(v)]) for v in range(95, 106))
    sessions = pd.DataFrame({
        "session_id": ["neither", "seq", "quant", "both", "unsorted"],
        "lines": [
            [_line(0, FLOW[0]), _line(1, FLOW[1]), _line(2, FLOW[2])],
            [_line(0, FLOW[0]), _line(1, FLOW[2]), _line(2, FLOW[1])],
            [_line(0, FLOW[0]), _line(1, FLOW[1], 999999), _line(2, FLOW[2])],
            [_line(0, FLOW[2]), _line(1, FLOW[1], 999999)],
            # arrival order would break the flow; event time restores it
            [_line(2, FLOW[2]), _line(0, FLOW[0]), _line(1, FLOW[1], 999999)],
        ],
    })
    return score_sessions(sessions, seq, quant, structured=False).set_index("session_id")


@pytest.mark.parametrize("session_id,seq_pred,quant_pred", [
    ("neither", 0, 0), ("seq", 1, 0), ("quant", 0, 1), ("both", 1, 1), ("unsorted", 0, 1),
])
def test_score_sessions_or_rule(scored, session_id, seq_pred, quant_pred):
    r = scored.loc[session_id]
    assert (r.seq_pred, r.quant_pred, r.pred) == (seq_pred, quant_pred,
                                                  int(seq_pred or quant_pred))


def test_score_sessions_payload_in_event_time_order(scored):
    r = scored.loc["unsorted"]
    assert (r.source, r.events, r.levels) == ("net", FLOW, ["INFO", "WARN", "INFO"])
    n = scored.loc["neither"]
    assert n.source is None and n.events is None and n.levels is None


def test_session_reports_one_per_flagged_session(scored):
    reports = {r.session_id: r for r in session_reports(scored.reset_index())}
    assert set(reports) == {"seq", "quant", "both", "unsorted"}
    assert {s: r.detector for s, r in reports.items()} == {
        "seq": "seq", "quant": "quant", "both": "seq", "unsorted": "quant"}
    assert reports["unsorted"].events == tuple(FLOW)
