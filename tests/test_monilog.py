"""Integration tests for the batch MoniLog pipeline (core.monilog)."""
import os

import numpy as np
import pytest

from repro.classify.pools import DEFAULT_POOL
from repro.core.monilog import MoniLog
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import PRED_COLUMNS, score_sessions, session_reports
from repro.evaluation.labels import prf
from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.parsing.distributed import match_fitted, merge_templates, parse_distributed


TRAIN = StreamSpec(n_sessions=400, n_sources=2, anomaly_rate=0.0, seed=70)


@pytest.fixture(scope="module")
def fitted(spark):
    return MoniLog(spark).fit(spark.createDataFrame(generate(TRAIN)))


@pytest.fixture(scope="module")
def detection(spark, fitted):
    test = generate(StreamSpec(n_sessions=150, n_sources=2, anomaly_rate=0.1, seed=71))
    preds, reports = fitted.detect(spark.createDataFrame(test))
    return test, preds, reports


def test_detect_requires_fit(spark):
    ml = MoniLog(spark)
    test = generate(StreamSpec(n_sessions=5, seed=1))
    with pytest.raises(RuntimeError):
        ml.detect(spark.createDataFrame(test))
    with pytest.raises(RuntimeError):
        ml.parse(spark.createDataFrame(test))


def test_all_sessions_predicted(detection):
    test, preds, _ = detection
    assert len(preds) == test["session_id"].nunique()
    assert set(preds.columns) >= {"session_id", "seq_pred", "quant_pred", "pred"}


def test_end_to_end_f1(detection):
    test, preds, _ = detection
    truth = test.groupby("session_id")["is_anomaly"].any().astype(int)
    merged = preds.set_index("session_id").join(truth.rename("y"))
    r = prf(merged["y"].tolist(), merged["pred"].tolist())
    # real parsing + detection end to end on clean streams
    assert r.f1 >= 0.8
    assert r.recall >= 0.8


def test_quant_anomalies_found_by_quant_model(detection):
    test, preds, _ = detection
    qt = test.groupby("session_id")["anomaly_type"].agg(
        lambda s: "quant" if (s == "quant").any() else "")
    quant_sessions = set(qt[qt == "quant"].index)
    hit = preds[preds["session_id"].isin(quant_sessions)]
    assert len(hit) > 0
    assert hit["quant_pred"].mean() >= 0.5


def test_reports_match_positive_predictions(detection):
    _, preds, reports = detection
    assert len(reports) == int(preds["pred"].sum())
    ids = {r.session_id for r in reports}
    assert ids == set(preds[preds["pred"] == 1]["session_id"])


def test_reports_carry_lines(detection):
    _, _, reports = detection
    for r in reports:
        assert r.n_lines == len(r.events) == len(r.levels) > 0
        assert r.detector in ("seq", "quant")


def test_classify_routes_to_default_initially(fitted, detection):
    _, _, reports = detection
    out = fitted.classify(reports[:3])
    for _, pool, level in out:
        assert pool == DEFAULT_POOL and level == "low"


def test_run_full_pipeline(spark, fitted):
    test = generate(StreamSpec(n_sessions=60, n_sources=2, anomaly_rate=0.15, seed=72))
    out = fitted.run(spark.createDataFrame(test))
    assert len(out) >= 1


def test_perfbench_patch_targets_resolve():
    # the traced runs of perfbench/batch.py and perfbench/stream.py patch
    # these names on these modules, whether or not the module calls them
    from repro.core import monilog
    from repro.streaming import pipeline
    targets = [(monilog, ("parse_distributed", "session_sequences", "score_sequences",
                          "extract_variables")),
               (pipeline, ("parse_distributed", "preprocess", "extract_variables"))]
    for module, names in targets:
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_reports_follow_event_time_on_shuffled_input(spark, fitted):
    # jitter makes arrival (line_id) order differ from event-time order
    test = generate(StreamSpec(n_sessions=150, n_sources=2, anomaly_rate=0.1,
                               jitter_s=1.0, seed=71))
    df = spark.createDataFrame(test.sample(frac=1, random_state=0))
    _, reports = fitted.detect(df)
    assert reports
    parsed = fitted.parse(df).toPandas().sort_values(["ts", "line_id"])
    expect = parsed.groupby("session_id")[["template", "level"]].agg(tuple)
    for r in reports:
        assert r.events == expect.at[r.session_id, "template"]
        assert r.levels == expect.at[r.session_id, "level"]


def test_fit_independent_of_arrival_order(spark):
    # a dup line and its shuffled original tie on (session_id, ts, line_id)
    # but carry different templates; the second arrival order swaps each tie
    train, counts = instability.inject(
        generate(StreamSpec(n_sessions=200, n_sources=2, seed=74)), 0.2,
        kinds=("dup", "shuffle"), seed=6)
    assert counts["dup"] > 0 and counts["shuffle"] > 0
    swapped = (train.assign(row=-np.arange(len(train)))
               .sort_values(["arrival_ts", "line_id", "row"]).drop(columns="row"))
    assert not swapped["message"].reset_index(drop=True).equals(train["message"])
    a, b = (MoniLog(spark).fit(spark.createDataFrame(pdf)) for pdf in (train, swapped))
    assert ([c.template for c in a.parser.clusters]
            == [c.template for c in b.parser.clusters])
    assert a.seq_model._top == b.seq_model._top and a.seq_model.vocab == b.seq_model.vocab
    assert a.quant_model._slots == b.quant_model._slots


def _by_session(preds):
    return preds.sort_values("session_id").reset_index(drop=True).astype({
        c: int for c in PRED_COLUMNS[1:]})


def test_detect_equals_driver_scoring_across_arrow_batches(spark, fitted):
    # shuffled, jittered input, cut into small Arrow batches: a session's
    # lines reach the scoring pass in several batches of one partition
    test = generate(StreamSpec(n_sessions=150, n_sources=2, anomaly_rate=0.1,
                               jitter_s=1.0, seed=73))
    df = spark.createDataFrame(test.sample(frac=1, random_state=1))
    ref = score_sessions(fitted.parse(df).toArrow(), fitted.seq_model, fitted.quant_model)
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "64")
    try:
        preds, reports = fitted.detect(df)
    finally:
        spark.conf.set(key, old)
    assert ref["pred"].sum() > 0
    assert _by_session(preds).equals(_by_session(ref[PRED_COLUMNS]))
    assert sorted(reports, key=lambda r: r.session_id) == session_reports(ref)


def test_refit_forgets_earlier_stream(spark, fitted):
    # a first fit on a stream full of anomalies must not leak into the refit
    noisy = generate(StreamSpec(n_sessions=200, n_sources=2, anomaly_rate=0.5, seed=74))
    refit = MoniLog(spark).fit(spark.createDataFrame(noisy))
    refit.fit(spark.createDataFrame(generate(TRAIN)))
    test = spark.createDataFrame(generate(StreamSpec(n_sessions=150, n_sources=2,
                                                     anomaly_rate=0.1, seed=71)))
    assert _by_session(refit.detect(test)[0]).equals(_by_session(fitted.detect(test)[0]))


def test_calls_reuse_the_fit_broadcasts(spark, fitted):
    # each broadcast leaves one pickled file in the driver's temp dir; fit
    # made the tree's and the models', so later calls must add none
    tmp = spark.sparkContext._temp_dir
    df = spark.createDataFrame(generate(StreamSpec(n_sessions=30, n_sources=2,
                                                   anomaly_rate=0.1, seed=75)))
    before = set(os.listdir(tmp))
    for _ in range(3):
        fitted.detect(df)
        fitted.parse(df).count()
    assert set(os.listdir(tmp)) == before


def test_frame_parsed_before_refit_still_runs(spark):
    ml = MoniLog(spark).fit(spark.createDataFrame(
        generate(StreamSpec(n_sessions=100, n_sources=2, seed=76))))
    frame = ml.parse(spark.createDataFrame(generate(StreamSpec(n_sessions=20, n_sources=2,
                                                               seed=77))))
    expect = frame.toPandas()
    tmp = spark.sparkContext._temp_dir
    before = set(os.listdir(tmp))
    ml.fit(spark.createDataFrame(generate(StreamSpec(n_sessions=100, n_sources=2, seed=78))))
    # the refit broadcast a new tree and new models; the old ones were
    # unpersisted, not destroyed, so the earlier frame still reads its tree
    assert len(set(os.listdir(tmp)) - before) == 2
    assert frame.toPandas().equals(expect)


def test_fit_equals_full_width_parse_and_tag(spark, fitted):
    # reference: the full-width distributed parse, a second merge of its
    # catalogue, then tagging every generator column of the training stream
    train = spark.createDataFrame(generate(TRAIN))
    tree, _ = merge_templates(sorted(parse_distributed(train)[1]))
    b_tree = spark.sparkContext.broadcast(tree)
    try:
        lines = (match_fitted(train, b_tree).toPandas()
                 .sort_values(["session_id", "ts", "line_id"]))
        test = spark.createDataFrame(generate(StreamSpec(n_sessions=150, n_sources=2,
                                                         anomaly_rate=0.1, seed=71)))
        tagged = match_fitted(test, b_tree).toArrow()
    finally:
        b_tree.destroy()
    seq = NGramDetector().fit(lines.groupby("session_id", sort=False)["template"].agg(list))
    quant = ValueRangeDetector().fit(zip(lines["template"], lines["variables"]))
    assert ([(c.cluster_id, c.template) for c in fitted.parser.clusters]
            == [(c.cluster_id, c.template) for c in tree.clusters])
    assert fitted.seq_model._top == seq._top and fitted.seq_model.vocab == seq.vocab
    assert fitted.quant_model._slots == quant._slots
    ref = score_sessions(tagged, seq, quant)
    assert ref["pred"].sum() > 0
    assert _by_session(fitted.detect(test)[0]).equals(_by_session(ref[PRED_COLUMNS]))


def test_fit_runs_two_spark_jobs(spark):
    # one learning pass over the messages, one tagging pass collected for
    # the models; counted as perfbench's trace.count_jobs counts them
    sc = spark.sparkContext
    train = spark.createDataFrame(generate(StreamSpec(n_sessions=50, n_sources=2, seed=79)))
    group = "test-fit-jobs"
    sc.setJobGroup(group, group)
    try:
        MoniLog(spark).fit(train)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 2
