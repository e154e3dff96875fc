"""Workload ``stream-250``: streaming verdict latency under an open loop.

After a ``fit``, the harness replays a pre-generated 8-source stream with
5% anomalous sessions into ``StreamingMoniLog`` at 250 lines/s: one JSON
file of ~2 500 lines every 10 s, written to a staging directory and
renamed into the input directory on a fixed schedule that never waits
for the system (open loop). Stage A reads up to four files per trigger.
Its trigger cost grows with the files it reads far more than with their
lines (on a 4-core host: ~4 s for four ~310-line files, ~1.7 s for one
2 500-line file). With 10 s files each file meets idle stages, even when
the shared host runs at half speed, and its sessions' latency is the
cost of one stage-A trigger and the two stage-B triggers that emit them.
With ~1 s files stage A runs back to back, and where a file lands in the
running trigger adds a random wait of up to one trigger.

A session's verdict latency runs from the scheduled write time of the
input file whose events first push the watermark (max event time - 10 s)
past the session's last event + 30 s gap, to the moment the verdict is
emitted. It leaves out the window and watermark wait, and counts queueing
and both stages. Event time runs ``EVENT_SPEEDUP`` times faster than the
wall clock, so most sessions close during the replay instead of waiting
for the closing flush record.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np
import pandas as pd

from perfbench.harness import Gate, Metrics, f1_score, median, percentile, session_labels
from perfbench.trace import Tracer, count_jobs, patched

SESSION_GAP_S = 30.0
WATERMARK_S = 10.0
POLL_S = 0.005
EVENT_SPEEDUP = 30.0       # event-time seconds per wall-clock second
MAX_FILES_PER_TRIGGER = 4
LINES_PER_SESSION = 6.2    # generator mean, to size the stream
WARMUP_SESSIONS = 40       # scored through both stages before timing


@dataclasses.dataclass(frozen=True)
class ReplaySpec:
    train_sessions: int = 2000     # ~12k clean lines for fit
    rate: float = 250.0            # lines written per second
    file_interval_s: float = 10.0
    anomaly_rate: float = 0.05
    n_sources: int = 8
    drain_timeout_s: float = 45.0  # wait for the last verdicts after the flush


# per-layer metrics of layers this workload never calls
NOT_RUN = {"sessionize.s": "s", "sessionize.sessions": "count", "seqscore.s": "s",
           "quant.s": "s", "detect.spark_jobs": "count"}


def make_inputs(spec: ReplaySpec, seed: int, seconds: float) -> dict:
    from repro.loggen.generator import StreamSpec, generate

    train_seed, warm_seed, test_seed = (int(s) for s in
                                        np.random.SeedSequence(seed).generate_state(3))
    n_sessions = max(1, round(spec.rate * seconds / LINES_PER_SESSION))
    warmup = generate(StreamSpec(n_sessions=WARMUP_SESSIONS, n_sources=spec.n_sources,
                                 anomaly_rate=0.0, seed=warm_seed))
    # a day before the test stream, with its own ids, so none of its lines
    # collide with a test line or close a test window
    warmup["ts"] -= pd.Timedelta(days=1)
    warmup["session_id"] = "warmup-" + warmup["session_id"]
    warmup["line_id"] += 1 << 40
    return {
        "train": generate(StreamSpec(n_sessions=spec.train_sessions, n_sources=spec.n_sources,
                                     anomaly_rate=0.0, seed=train_seed)),
        "warmup": warmup,
        "test": generate(StreamSpec(n_sessions=n_sessions, n_sources=spec.n_sources,
                                    anomaly_rate=spec.anomaly_rate,
                                    session_spread_s=seconds * EVENT_SPEEDUP,
                                    seed=test_seed)),
    }


def _record(r) -> str:
    return json.dumps({"line_id": int(r.line_id), "ts": pd.Timestamp(r.ts).isoformat(),
                       "source": r.source, "level": r.level, "message": r.message,
                       "session_id": r.session_id})


def _flush_record(frame: pd.DataFrame) -> str:
    """A record an hour after ``frame``'s last event: its watermark closes
    every window of ``frame``; the pipeline parses and scores it as no session."""
    from repro.streaming.pipeline import FLUSH_SESSION

    ts = pd.Timestamp(frame["ts"].max()) + pd.Timedelta(hours=1)
    return json.dumps({"line_id": -1, "ts": ts.isoformat(), "source": "flush",
                       "level": "INFO", "message": "flush", "session_id": FLUSH_SESSION}) + "\n"


def plan_files(test: pd.DataFrame, spec: ReplaySpec, seconds: float):
    """File contents in write order (data files, then the flush file) and,
    per session, the index of the file that closes its window. The data
    files split the stream evenly over ``seconds``, whatever its length."""
    test = test.sort_values("arrival_ts", kind="stable").reset_index(drop=True)
    n_data = max(1, round(seconds / spec.file_interval_s))
    bounds = np.linspace(0, len(test), n_data + 1).round().astype(int)
    chunks = [test.iloc[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    files = ["".join(_record(r) + "\n" for r in c.itertuples()) for c in chunks]
    files.append(_flush_record(test))
    # watermark after file k: max event time seen so far minus the delay
    max_ts = np.maximum.accumulate(np.array([c["ts"].max().value for c in chunks]))
    watermark = np.append(max_ts - int(WATERMARK_S * 1e9), np.iinfo(np.int64).max)
    last = test.groupby("session_id")["ts"].max()
    window_end = last.astype("datetime64[ns]").astype("int64").to_numpy() \
        + int(SESSION_GAP_S * 1e9)
    closing = np.searchsorted(watermark, window_end, side="right")
    return files, dict(zip(last.index, closing.tolist())), len(test) + 1


def _write(staging: str, input_dir: str, name: str, text: str) -> None:
    """Write a file beside the input directory, then rename it in whole."""
    path = os.path.join(staging, name)
    with open(path, "w") as f:
        f.write(text)
    os.rename(path, os.path.join(input_dir, name))


def _executed(query, since: float = 0.0) -> list:
    """Progress of the query's executed batches whose trigger started at
    ``since`` (seconds since the epoch) or later."""
    return [p for p in query.recentProgress if "addBatch" in (p.durationMs or {})
            and pd.Timestamp(p.timestamp).timestamp() >= since]


def _trigger_ms(batches) -> list[float]:
    return [float(p.durationMs["triggerExecution"]) for p in batches]


def run(spark, inputs: dict, *, seconds: float, trace: bool, setup_s: float,
        workdir: str, spec: ReplaySpec = ReplaySpec()) -> tuple[Gate, Metrics]:
    from repro.core.monilog import MoniLog
    from repro.streaming import pipeline
    from repro.streaming.pipeline import StreamingMoniLog

    sc = spark.sparkContext
    test = inputs["test"]
    labels = session_labels(test)
    warmup = inputs["warmup"]
    expected = set(labels) | set(warmup["session_id"])

    t0 = time.perf_counter()
    files, closing, lines_written = plan_files(test, spec, seconds)
    warmup_file = "".join(_record(r) + "\n" for r in warmup.itertuples()) \
        + _flush_record(warmup)
    train_df = spark.createDataFrame(inputs["train"])
    setup_s += time.perf_counter() - t0
    t0 = time.perf_counter()
    ml, fit_jobs = count_jobs(sc, "perfbench-fit", lambda: MoniLog(spark).fit(train_df),
                              enabled=trace)
    fit_s = time.perf_counter() - t0

    tracer = Tracer(spark)
    patches = []
    if trace:
        patches = [
            (pipeline, "parse_distributed",
             tracer.spark_layer("parse", pipeline.parse_distributed, force=False)),
            (pipeline, "preprocess", tracer.counted("preprocess", pipeline.preprocess)),
            (pipeline, "extract_variables",
             tracer.counted("extract_variables", pipeline.extract_variables)),
            (ml.classifier, "ingest", tracer.timed("classify", ml.classifier.ingest)),
        ]
    input_dir = os.path.join(workdir, "input")
    staging = os.path.join(workdir, "staging")
    os.makedirs(input_dir)
    os.makedirs(staging)

    emitted: dict[str, float] = {}
    verdict_ids: list[str] = []
    with patched(patches):
        t0 = time.perf_counter()
        sm = StreamingMoniLog(ml, os.path.join(workdir, "pipeline"),
                              session_gap=f"{SESSION_GAP_S:g} seconds",
                              watermark=f"{WATERMARK_S:g} seconds")
        queries = sm.start(input_dir, max_files_per_trigger=MAX_FILES_PER_TRIGGER)
        try:
            _write(staging, input_dir, "warmup.json", warmup_file)
            deadline = time.perf_counter() + spec.drain_timeout_s
            while len(sm.results) < warmup["session_id"].nunique():
                if time.perf_counter() > deadline:
                    raise RuntimeError("the warm-up sessions got no verdicts")
                time.sleep(10 * POLL_S)
            setup_s += time.perf_counter() - t0 + fit_s
            start = time.perf_counter()
            start_epoch = time.time()
            due = [start + k * spec.file_interval_s for k in range(len(files))]
            written: list[float] = []
            deadline = math.inf
            polls = 0
            while True:
                now = time.perf_counter()
                if len(written) < len(files) and now >= due[len(written)]:
                    k = len(written)
                    _write(staging, input_dir, f"part-{k:05d}.json", files[k])
                    written.append(time.perf_counter())
                    if len(written) == len(files):
                        deadline = written[-1] + spec.drain_timeout_s
                    continue
                n = len(sm.results)
                for r in sm.results[len(verdict_ids):n]:
                    verdict_ids.append(r["session_id"])
                    emitted.setdefault(r["session_id"], now)
                if len(written) == len(files) and (len(emitted) >= len(expected)
                                                   or now > deadline):
                    break
                polls += 1
                if polls % 100 == 0:
                    for q in queries:
                        if q.exception() is not None:
                            raise RuntimeError(f"streaming query failed: {q.exception()}")
                wait = due[len(written)] - now if len(written) < len(files) else POLL_S
                time.sleep(max(0.0, min(POLL_S, wait)))
            end = time.perf_counter()
            # a trigger's progress is reported when it ends: let the
            # triggers that emitted the last verdicts finish
            idle_by = end + spec.drain_timeout_s
            while any(q.status["isTriggerActive"] for q in queries) \
                    and time.perf_counter() < idle_by:
                time.sleep(10 * POLL_S)
        finally:
            for q in queries:
                q.stop()
    verdict_ids.extend(r["session_id"] for r in sm.results[len(verdict_ids):])

    gate = Gate()
    gate.check(expected, verdict_ids)
    preds: dict[str, int] = {}
    for r in sm.results:
        preds.setdefault(r["session_id"], int(r["pred"]))
    # a session without a verdict counts with the whole wait it saw
    order = sorted(labels, key=lambda s: (closing[s], s))
    latency = [emitted.get(s, end) - due[closing[s]] for s in order]
    metrics = Metrics()
    metrics.put("setup_s", setup_s, "s")
    metrics.put("fit_s", fit_s, "s")
    metrics.put("detect_f1", f1_score(labels, preds), "ratio")
    # lines per second of trigger time both stages spent on the replay
    busy_s = sum(sum(_trigger_ms(_executed(q, start_epoch))) for q in queries) / 1000
    metrics.put("detect_lines_per_s", (lines_written - 1) / busy_s, "lines/s")
    metrics.put("verdict_latency_p50_s", median(latency), "s")
    metrics.put("verdict_latency_p90_s", percentile(latency, 90), "s")
    if not trace:
        return gate, metrics

    from repro.parsing.distributed import parse_single_node

    a_batches, b_batches = _executed(queries[0]), _executed(queries[1])
    a_ms, b_ms = _trigger_ms(a_batches), _trigger_ms(b_batches)
    a_rows = sum(int(p.numInputRows) for p in a_batches)
    states = [p.stateOperators for p in b_batches]
    structured = spark.read.parquet(sm.structured_dir)
    rows_out = structured.filter(structured.session_id != pipeline.FLUSH_SESSION).count()
    t0 = time.perf_counter()
    parse_single_node(spark.createDataFrame(test))
    single_node_s = time.perf_counter() - t0
    quarter = max(1, len(latency) // 4)

    metrics = Metrics()
    metrics.put("parse.s", tracer.seconds["parse"], "s")
    metrics.put("parse.spark_jobs", tracer.jobs["parse"] / max(1, tracer.calls["parse"]), "count")
    metrics.put("parse.templates", len(tracer.templates), "count")
    metrics.put("parse.rows_out_per_in", rows_out / (len(test) + len(warmup)), "ratio")
    metrics.put("parse.single_node_lines_per_s", len(test) / single_node_s, "lines/s")
    metrics.put("quant.driver_lines",
                max(tracer.counts["preprocess"], tracer.counts["extract_variables"]), "count")
    metrics.put("fit.spark_jobs", fit_jobs, "count")
    metrics.put("classify.s", tracer.seconds["classify"], "s")
    metrics.put("classify.reports", len(sm.reports), "count")
    metrics.put("classify.pool.default", ml.pools.stats().get("default", 0), "count")
    metrics.put("stageA.trigger_p50_ms", median(a_ms), "ms")
    metrics.put("stageA.trigger_p90_ms", percentile(a_ms, 90), "ms")
    metrics.put("stageA.triggers", len(a_ms), "count")
    metrics.put("stageA.scans_per_line", a_rows / (lines_written + len(warmup)), "ratio")
    metrics.put("stageB.trigger_p50_ms", median(b_ms), "ms")
    metrics.put("stageB.state_rows_max",
                max((sum(op.numRowsTotal for op in s) for s in states), default=0), "count")
    metrics.put("stageB.rows_dropped_by_watermark",
                sum(op.numRowsDroppedByWatermark for s in states for op in s), "count")
    metrics.put("stream.verdict_latency_drift_s",
                median(latency[-quarter:]) - median(latency[:quarter]), "s")
    metrics.put("loggen.late_max_ms", 1000 * max(w - d for w, d in zip(written, due)), "ms")
    # no untraced twin exists inside one streaming run: the overhead is
    # only the time the tracer spent on its own job-id queries; the
    # counting wrappers' cost is not in it
    metrics.put("trace.overhead_s", tracer.overhead_s, "s")
    return gate, metrics
