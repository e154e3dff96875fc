"""Integration tests for the batch MoniLog pipeline (core.monilog)."""
import pytest

from repro.classify.pools import DEFAULT_POOL
from repro.core.monilog import MoniLog, MoniLogConfig
from repro.evaluation.labels import prf
from repro.loggen.generator import StreamSpec, generate


@pytest.fixture(scope="module")
def fitted(spark):
    train = generate(StreamSpec(n_sessions=400, n_sources=2, anomaly_rate=0.0, seed=70))
    ml = MoniLog(spark).fit(spark.createDataFrame(train))
    return ml


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


def test_config_defaults():
    cfg = MoniLogConfig()
    assert cfg.g == 9 and cfg.structured


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
