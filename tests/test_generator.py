"""Unit tests for the stream generator (loggen.generator)."""
import numpy as np
import pandas as pd
import pytest

from repro.loggen.generator import BASE_TS, StreamSpec, generate


@pytest.fixture(scope="module")
def stream():
    return generate(StreamSpec(n_sessions=200, n_sources=4, anomaly_rate=0.1,
                               jitter_s=0.3, seed=42))


def test_deterministic_in_seed(stream):
    again = generate(StreamSpec(n_sessions=200, n_sources=4, anomaly_rate=0.1,
                                jitter_s=0.3, seed=42))
    pd.testing.assert_frame_equal(stream, again)


def test_different_seed_differs():
    a = generate(StreamSpec(n_sessions=50, seed=1))
    b = generate(StreamSpec(n_sessions=50, seed=2))
    assert not a["message"].equals(b["message"])


def test_expected_columns(stream):
    expected = {"line_id", "ts", "arrival_ts", "source", "level", "message",
                "session_id", "event_id", "template", "values", "is_anomaly",
                "anomaly_type", "quant_line"}
    assert expected <= set(stream.columns)


def test_session_count(stream):
    assert stream["session_id"].nunique() == 200


def test_anomaly_rate_honoured(stream):
    frac = stream.groupby("session_id")["is_anomaly"].any().mean()
    assert frac == pytest.approx(0.1, abs=0.005)


def test_sources_round_robin(stream):
    assert set(stream["source"].unique()) == {"hdfs", "net", "sto", "sch"}


def test_line_ids_are_arrival_order(stream):
    assert (stream["line_id"].to_numpy() == np.arange(len(stream))).all()
    assert stream["arrival_ts"].is_monotonic_increasing


def test_event_time_within_session_increasing():
    # without arrival jitter, arrival order == event-time order per session
    pdf = generate(StreamSpec(n_sessions=50, n_sources=4, seed=9))
    for _, sess in pdf.groupby("session_id"):
        assert sess.sort_values("line_id")["ts"].is_monotonic_increasing


def test_anomaly_type_consistent_with_flag(stream):
    anom = stream[stream["is_anomaly"]]
    norm = stream[~stream["is_anomaly"]]
    assert (anom["anomaly_type"].isin(["seq", "quant"])).all()
    assert (norm["anomaly_type"] == "").all()


def test_quant_sessions_have_flagged_line():
    pdf = generate(StreamSpec(n_sessions=300, anomaly_rate=0.2, quant_share=1.0, seed=7))
    for _, sess in pdf[pdf["anomaly_type"] == "quant"].groupby("session_id"):
        assert sess["quant_line"].any()


def test_quant_share_zero_means_all_seq():
    pdf = generate(StreamSpec(n_sessions=300, anomaly_rate=0.2, quant_share=0.0, seed=8))
    assert set(pdf[pdf["is_anomaly"]]["anomaly_type"]) == {"seq"}


def test_values_match_template_arity(stream):
    for r in stream.sample(100, random_state=0).itertuples():
        n_slots = r.template.count("<*>")
        vals = r.values.split("\x1f") if r.values else []
        assert len(vals) == n_slots


def test_message_contains_values(stream):
    for r in stream.sample(50, random_state=1).itertuples():
        for v in (r.values.split("\x1f") if r.values else []):
            assert v in r.message


def test_jitter_reorders_arrival():
    pdf = generate(StreamSpec(n_sessions=100, jitter_s=1.0, seed=4))
    # event time within some session must be non-monotonic in arrival order
    out_of_order = 0
    for _, sess in pdf.groupby("session_id"):
        ts = sess.sort_values("line_id")["ts"].to_numpy()
        if (np.diff(ts) < np.timedelta64(0, "ns")).any():
            out_of_order += 1
    assert out_of_order > 0


def test_timestamps_after_base(stream):
    assert (stream["ts"] >= BASE_TS).all()


def test_single_session_edge_case():
    pdf = generate(StreamSpec(n_sessions=1, seed=6))
    assert pdf["session_id"].nunique() == 1
