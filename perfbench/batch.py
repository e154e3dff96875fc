"""Workload ``batch-200k``: per-line work dominates.

``MoniLog.fit`` on a clean ~50k-line, 8-source stream, then as many
``MoniLog.detect`` + ``MoniLog.classify`` calls as fit in the run length
(at least one) on one ~200k-line, 8-source stream with 2% anomalous
sessions. Closed loop: one caller, the next call starts when the last
returned. Counting whole calls caps a run's length when calls slow down.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np

from perfbench.harness import Gate, Metrics, f1_score, median, percentile, session_labels
from perfbench.trace import Tracer, count_jobs, patched


@dataclasses.dataclass(frozen=True)
class BatchSpec:
    train_sessions: int = 8000    # ~50k lines
    test_sessions: int = 32000    # ~200k lines
    warmup_sessions: int = 400    # ~2.5k lines, detected once before timing
    n_sources: int = 8
    anomaly_rate: float = 0.02


# per-layer metrics of layers this workload never calls
NOT_RUN = {"stageA.trigger_p50_ms": "ms", "stageA.trigger_p90_ms": "ms", "stageA.triggers": "count",
           "stageA.scans_per_line": "ratio", "stageB.trigger_p50_ms": "ms",
           "stageB.state_rows_max": "count", "stageB.rows_dropped_by_watermark": "count",
           "stream.verdict_latency_drift_s": "s", "loggen.late_max_ms": "ms"}


def make_inputs(spec: BatchSpec, seed: int, seconds: float) -> dict:
    from repro.loggen.generator import StreamSpec, generate

    train_seed, warm_seed, test_seed = (int(s) for s in
                                        np.random.SeedSequence(seed).generate_state(3))
    return {
        "train": generate(StreamSpec(n_sessions=spec.train_sessions, n_sources=spec.n_sources,
                                     anomaly_rate=0.0, seed=train_seed)),
        "warmup": generate(StreamSpec(n_sessions=spec.warmup_sessions,
                                      n_sources=spec.n_sources,
                                      anomaly_rate=spec.anomaly_rate, seed=warm_seed)),
        "test": generate(StreamSpec(n_sessions=spec.test_sessions, n_sources=spec.n_sources,
                                    anomaly_rate=spec.anomaly_rate, seed=test_seed)),
    }


def _call(ml, frame):
    """One operation batch: detect then classify; returns timings too."""
    t0 = time.perf_counter()
    preds, reports = ml.detect(frame)
    t1 = time.perf_counter()
    routed = ml.classify(reports)
    t2 = time.perf_counter()
    return preds, reports, routed, t1 - t0, t2 - t1


def _check(gate: Gate, expected, preds, reports, routed) -> None:
    gate.check(expected, preds["session_id"].tolist())
    flagged = set(preds.loc[preds["pred"] == 1, "session_id"])
    # every flagged session becomes one report, and every report is routed
    if {r.session_id for r in reports} != flagged or len(reports) != len(flagged) \
            or len(routed) != len(reports):
        gate.invalid += 1


def run(spark, inputs: dict, *, seconds: float, trace: bool, setup_s: float,
        workdir: str, spec: BatchSpec = BatchSpec()) -> tuple[Gate, Metrics]:
    from repro.core.monilog import MoniLog

    sc = spark.sparkContext
    test = inputs["test"]
    expected = set(test["session_id"])
    labels = session_labels(test)

    t0 = time.perf_counter()
    train_df = spark.createDataFrame(inputs["train"])
    warm_df = spark.createDataFrame(inputs["warmup"])
    test_df = spark.createDataFrame(test)
    setup_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    ml, fit_jobs = count_jobs(sc, "perfbench-fit", lambda: MoniLog(spark).fit(train_df),
                              enabled=trace)
    fit_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ml.classify(ml.detect(warm_df)[1])
    setup_s += time.perf_counter() - t0

    gate = Gate()
    metrics = Metrics()
    calls: list[float] = []
    f1 = None
    while True:
        call, detect_jobs = count_jobs(sc, f"perfbench-detect-{len(calls)}",
                                       lambda: _call(ml, test_df), enabled=trace)
        preds, reports, routed, dt_detect, dt_classify = call
        calls.append(dt_detect + dt_classify)
        _check(gate, expected, preds, reports, routed)
        if f1 is None:
            f1 = f1_score(labels, dict(zip(preds["session_id"], preds["pred"])))
        if trace or sum(calls) + calls[-1] > seconds:
            break

    if not trace:
        metrics.put("setup_s", setup_s, "s")
        metrics.put("fit_s", fit_s, "s")
        metrics.put("detect_f1", f1, "ratio")
        metrics.put("detect_lines_per_s", len(test) / median(calls), "lines/s")
        # every session of a call gets its verdict when the call returns
        metrics.put("verdict_latency_p50_s", median(calls), "s")
        metrics.put("verdict_latency_p90_s", percentile(calls, 90), "s")
        return gate, metrics

    from repro.core import monilog as core
    from repro.parsing import distributed
    from repro.parsing import preprocess as prep

    tracer = Tracer(spark)
    patches = [
        (core, "parse_distributed", tracer.spark_layer("parse", core.parse_distributed, force=True)),
        (core, "session_sequences", tracer.spark_layer("sessionize", core.session_sequences,
                                                       force=True)),
        (core, "score_sequences", tracer.spark_layer("seqscore", core.score_sequences,
                                                     force=True)),
        (prep, "preprocess", tracer.counted("preprocess", prep.preprocess)),
        (core, "extract_variables", tracer.counted("extract_variables", core.extract_variables)),
    ]
    with patched(patches):
        preds, reports, routed, t_detect, t_classify = _call(ml, test_df)
    tracer.release()
    _check(gate, expected, preds, reports, routed)
    spark_layers = tracer.seconds["parse"] + tracer.seconds["sessionize"] + tracer.seconds["seqscore"]

    t0 = time.perf_counter()
    distributed.parse_single_node(test_df)
    single_node_s = time.perf_counter() - t0

    metrics.put("parse.s", tracer.seconds["parse"], "s")
    metrics.put("parse.spark_jobs", tracer.jobs["parse"], "count")
    metrics.put("parse.templates", len(tracer.templates), "count")
    metrics.put("parse.rows_out_per_in", tracer.rows["parse"] / len(test), "ratio")
    metrics.put("parse.single_node_lines_per_s", len(test) / single_node_s, "lines/s")
    metrics.put("sessionize.s", tracer.seconds["sessionize"], "s")
    metrics.put("sessionize.sessions", tracer.rows["sessionize"], "count")
    metrics.put("seqscore.s", tracer.seconds["seqscore"], "s")
    metrics.put("quant.s", t_detect - spark_layers - tracer.overhead_s, "s")
    metrics.put("quant.driver_lines",
                max(tracer.counts["preprocess"], tracer.counts["extract_variables"]), "count")
    metrics.put("detect.spark_jobs", detect_jobs, "count")
    metrics.put("fit.spark_jobs", fit_jobs, "count")
    metrics.put("classify.s", t_classify, "s")
    metrics.put("classify.reports", len(reports), "count")
    metrics.put("classify.pool.default", sum(1 for _, pool, _ in routed if pool == "default"),
                "count")
    metrics.put("trace.overhead_s", (t_detect + t_classify) - calls[0], "s")
    return gate, metrics
