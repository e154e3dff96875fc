"""Tests for session scoring (detect.scoring): the Arrow-in MoniLog rule
and Spark-distributed sequence scoring."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql.pandas.types import to_arrow_schema

from repro.detect.loganomaly import LogAnomalyDetector
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import (LINE_FIELDS, SCORED_SCHEMA, score_sequences, score_sessions,
                                  session_reports)
from repro.detect.sequences import session_sequences
from repro.evaluation.tables import template_map
from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.parsing.distributed import merge_templates, tag_lines
from repro.parsing.drain import Drain
from repro.parsing.preprocess import preprocess
from repro.streaming.pipeline import STRUCTURED_SCHEMA


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
    return {"ts": pd.Timestamp("2020-01-01") + pd.Timedelta(seconds=t), "line_id": t,
            "source": "net", "level": "WARN" if value > 1000 else "INFO",
            "template": tpl, "variables": [str(value)] * tpl.count("<*>")}


SESSIONS = {
    "neither": [_line(0, FLOW[0]), _line(1, FLOW[1]), _line(2, FLOW[2])],
    "seq": [_line(0, FLOW[0]), _line(1, FLOW[2]), _line(2, FLOW[1])],
    "quant": [_line(0, FLOW[0]), _line(1, FLOW[1], 999999), _line(2, FLOW[2])],
    "both": [_line(0, FLOW[2]), _line(1, FLOW[1], 999999)],
    # arrival order would break the flow; event time restores it
    "unsorted": [_line(2, FLOW[2]), _line(0, FLOW[0]), _line(1, FLOW[1], 999999)],
}


@pytest.fixture(scope="module")
def models():
    seq = NGramDetector(h=2, g=1).fit([FLOW] * 5)
    quant = ValueRangeDetector(k=6).fit(("send <*> bytes", [str(v)]) for v in range(95, 106))
    return seq, quant


@pytest.fixture(scope="module")
def scored(models):
    # one row per line; arrival interleaves the sessions
    lines = pd.DataFrame([{"session_id": sid, **line}
                          for sid, ls in SESSIONS.items() for line in ls])
    lines = lines.sample(frac=1, random_state=0)
    return score_sessions(pa.Table.from_pandas(lines, preserve_index=False),
                          *models).set_index("session_id")


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


def test_score_sessions_empty_frame(models):
    # stage B's empty micro-batch: its lines' schema, no rows, no verdicts
    empty = to_arrow_schema(STRUCTURED_SCHEMA).empty_table().select(["session_id", *LINE_FIELDS])
    out = score_sessions(empty, *models)
    assert out.empty and list(out.columns) == [c.split()[0] for c in SCORED_SCHEMA.split(", ")]


def _reference_scores(lines, seq, quant):
    """Score each session on its own with the per-session reference calls."""
    rows = []
    order = ["session_id", "ts", "line_id", "template", "level"]
    for sid, s in lines.sort_values(order).groupby("session_id", sort=False):
        events, variables = s["template"].tolist(), [list(v) for v in s["variables"]]
        seq_pred = seq.is_anomalous(events)
        quant_pred = quant.session_flag(zip(events, variables))
        pred = seq_pred or quant_pred
        rows.append((sid, int(seq_pred), int(quant_pred), int(pred),
                     s["source"].iloc[0] if pred else None, events if pred else None,
                     s["level"].tolist() if pred else None))
    return pd.DataFrame(rows, columns=[c.split()[0] for c in SCORED_SCHEMA.split(", ")])


@pytest.fixture(scope="module")
def unstable():
    """Models fitted on a clean stream, and instability-injected lines
    tagged against the same tree, as one Arrow table in arrival order."""
    train = generate(StreamSpec(n_sessions=300, n_sources=8, seed=90))
    local = Drain(preprocess=preprocess).parse_many(train["message"])
    tree, _ = merge_templates(sorted({tpl for _, tpl in local}))
    templates, variables = tag_lines(pa.array(train["message"]), tree)
    fitted = (train.assign(template=templates.to_pylist(), variables=variables.to_pylist())
              .sort_values(["session_id", "ts", "line_id"]))
    seq = NGramDetector().fit(fitted.groupby("session_id", sort=False)["template"].agg(list))
    quant = ValueRangeDetector().fit(zip(fitted["template"], fitted["variables"]))

    test = generate(StreamSpec(n_sessions=200, n_sources=8, anomaly_rate=0.1, seed=91))
    unstable, counts = instability.inject(test, 0.2, kinds=instability.KINDS, seed=4)
    assert all(counts[k] > 0 for k in instability.KINDS)
    templates, variables = tag_lines(pa.array(unstable["message"]), tree)
    templates, variables = templates.to_pylist(), variables.to_pylist()
    # values float() and Arrow's string-to-float cast read differently
    modelled = [i for i, (t, v) in enumerate(zip(templates, variables))
                if any(s < len(v) for s, _ in quant._slots.get(t, ()))]
    odd = ["1_000", "1e3", "-0.5", ".5", "nan", "inf", "+7", "٣"]
    for j, i in enumerate(modelled[::7]):
        variables[i][quant._slots[templates[i]][0][0]] = odd[j % len(odd)]
    lines = (unstable[["session_id", "ts", "line_id", "source", "level"]]
             .assign(template=templates, variables=variables)
             .sample(frac=1, random_state=1))  # arrival order
    return pa.Table.from_pandas(lines, preserve_index=False), seq, quant


def test_score_sessions_equals_per_session_reference(unstable):
    lines, seq, quant = unstable
    expect = _reference_scores(lines.to_pandas(), seq, quant)
    assert expect["seq_pred"].sum() > 0 and expect["quant_pred"].sum() > 0
    assert (expect["pred"] == 0).sum() > 0
    got = score_sessions(lines, seq, quant).sort_values("session_id", ignore_index=True)
    pd.testing.assert_frame_equal(got, expect, check_dtype=False)


def test_score_sessions_independent_of_arrival_order(unstable):
    lines, seq, quant = unstable
    # a dup line and its shuffled original tie on (session_id, ts, line_id)
    # but carry different templates
    keys = lines.select(["session_id", "ts", "line_id", "template"]).to_pandas()
    tied = keys.groupby(["session_id", "ts", "line_id"])["template"].nunique()
    assert (tied > 1).any()
    scored = [score_sessions(lines.take(np.random.default_rng(seed).permutation(len(lines))),
                             seq, quant).sort_values("session_id", ignore_index=True)
              for seed in (0, 1)]
    pd.testing.assert_frame_equal(*scored)


def test_score_sessions_reads_every_record_batch(unstable):
    # detect scores the record batches of a partition as one table
    lines, seq, quant = unstable
    batched = pa.Table.from_batches(lines.to_batches(max_chunksize=len(lines) // 3 + 1))
    assert batched.column("session_id").num_chunks >= 2
    pd.testing.assert_frame_equal(score_sessions(batched, seq, quant),
                                  score_sessions(batched.combine_chunks(), seq, quant))
