"""MoniLog as a Structured Streaming dataflow (§II, Fig. 1).

Two chained streaming queries reproduce the three-step architecture over
a multi-source file stream (the container has no Kafka; a file source
exercises the same micro-batch dataflow, watermarking and stateful
aggregation paths — DESIGN.md substitution 4):

* **Stage A — parse**: ``MoniLog.parse`` matches each micro-batch of raw
  JSON log records against the tree ``fit`` learned; the rows, with
  ``template``/``variables``, go to a parquet file sink. The sink's
  ``_spark_metadata`` log commits each batch's files once, so a batch
  replayed after a failure is not written twice.
* **Stage B — structure + detect + classify**: a parquet file stream of
  structured records (read through the sink's log, which exists because
  stage A starts first) is watermarked on event time and aggregated with
  ``session_window`` (MoniLog's "windowed aggregation for sequence
  structuring"). The window state lives on
  ``min(spark.sql.shuffle.partitions, defaultParallelism)`` partitions:
  every trigger runs one state task per partition, and tasks beyond one
  per core only add fixed cost to each trigger. Spark reads that count
  when the query first starts and pins it in the checkpoint, so a
  restart keeps it, and a query first started before dynamic-allocation
  executors register keeps a lower count. In ``foreachBatch`` each
  micro-batch of *closed* session windows is flattened back to lines in
  Spark (``inline``), collected as one Arrow table (``toArrow``), and
  scored on the driver by
  :func:`~repro.detect.scoring.score_sessions` — the same function
  ``MoniLog.detect`` runs partition-parallel — and every anomalous
  session becomes an :class:`AnomalyReport` routed through the §V
  classifier. Scoring groups by ``session_id``, so a session whose
  lines fall in two windows of one micro-batch gets one verdict. A
  replayed ``batch_id`` is skipped, not scored twice.

Event identity is the fitted tree's template string, the same in every
micro-batch and in batch ``detect``. Stage A discovers no templates: an
unmatched line is its own, unseen, event — the §III instability case the
detectors are measured on.
"""
from __future__ import annotations

import json
import os
import threading

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.classify.pools import AnomalyReport
from repro.core.monilog import MoniLog
from repro.detect.scoring import (LINE_FIELDS, PRED_COLUMNS, score_sessions,
                                  session_reports)
# perfbench's traced runs patch these names on this module, so they stay
# importable here although nothing here calls them
from repro.parsing.distributed import parse_distributed  # noqa: F401
from repro.parsing.drain import extract_variables  # noqa: F401
from repro.parsing.preprocess import preprocess  # noqa: F401

RAW_SCHEMA = T.StructType([
    T.StructField("line_id", T.LongType()),
    T.StructField("ts", T.TimestampType()),
    T.StructField("source", T.StringType()),
    T.StructField("level", T.StringType()),
    T.StructField("message", T.StringType()),
    T.StructField("session_id", T.StringType()),
])

STRUCTURED_SCHEMA = T.StructType(RAW_SCHEMA.fields + [
    T.StructField("template", T.StringType()),
    T.StructField("variables", T.ArrayType(T.StringType())),
])

FLUSH_SESSION = "__flush__"


def write_stream_files(pdf: pd.DataFrame, directory: str, *, n_files: int = 4) -> list[str]:
    """Materialise a generated stream as JSON files in arrival order (one
    micro-batch per file with ``maxFilesPerTrigger=1``). A trailing flush
    record stamped an hour after the last event (beyond any session gap
    or watermark delay) advances the event-time watermark so every
    session window closes."""
    os.makedirs(directory, exist_ok=True)
    pdf = pdf.sort_values("arrival_ts").reset_index(drop=True)
    paths = []
    bounds = [int(round(i * len(pdf) / n_files)) for i in range(n_files + 1)]
    for i in range(n_files):
        chunk = pdf.iloc[bounds[i]:bounds[i + 1]]
        path = os.path.join(directory, f"batch-{i:04d}.json")
        with open(path, "w") as f:
            for r in chunk.itertuples():
                f.write(json.dumps({
                    "line_id": int(r.line_id),
                    "ts": pd.Timestamp(r.ts).isoformat(),
                    "source": r.source, "level": r.level,
                    "message": r.message, "session_id": r.session_id,
                }) + "\n")
        paths.append(path)
    flush_ts = pd.Timestamp(pdf["ts"].max()) + pd.Timedelta(hours=1)
    flush_path = os.path.join(directory, f"batch-{n_files:04d}-flush.json")
    with open(flush_path, "w") as f:
        f.write(json.dumps({
            "line_id": -1, "ts": flush_ts.isoformat(), "source": "flush",
            "level": "INFO", "message": "flush", "session_id": FLUSH_SESSION,
        }) + "\n")
    paths.append(flush_path)
    return paths


class StreamingMoniLog:
    """Run a fitted :class:`MoniLog` as a Structured Streaming pipeline."""

    def __init__(self, monilog: MoniLog, workdir: str, *,
                 session_gap: str = "30 seconds",
                 watermark: str = "10 seconds") -> None:
        if monilog.parser is None:
            raise RuntimeError("fit the MoniLog instance before streaming")
        self.monilog = monilog
        self.workdir = workdir
        self.session_gap = session_gap
        self.watermark = watermark
        self.structured_dir = os.path.join(workdir, "structured")
        self.checkpoints = os.path.join(workdir, "checkpoints")
        os.makedirs(self.structured_dir, exist_ok=True)
        self.results: list[dict] = []
        self.reports: list[AnomalyReport] = []
        self._scored_batches: set[int] = set()
        self._lock = threading.Lock()

    # -- stage B ----------------------------------------------------------
    def _score_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        if batch_id in self._scored_batches:  # at-least-once replay
            return
        lines = (batch_df.where(F.col("session_id") != FLUSH_SESSION)
                 .selectExpr("session_id", "inline(lines)").toArrow())
        ml = self.monilog
        scored = score_sessions(lines, ml.seq_model, ml.quant_model)
        with self._lock:
            self.results.extend(scored[PRED_COLUMNS].to_dict("records"))
        for report in session_reports(scored):
            ml.classifier.ingest(ml.pools, report)
            with self._lock:
                self.reports.append(report)
        self._scored_batches.add(batch_id)

    # -- wiring -----------------------------------------------------------
    def start(self, input_dir: str, *, max_files_per_trigger: int = 1):
        """Start both queries; returns (parse_query, detect_query)."""
        spark = self.monilog.spark
        raw = (spark.readStream.schema(RAW_SCHEMA)
               .option("maxFilesPerTrigger", max_files_per_trigger)
               .json(input_dir))
        # the one-token flush record matches no fitted template, keeps
        # "flush" as its own, and stage B drops its session
        q_parse = (self.monilog.parse(raw).select(*STRUCTURED_SCHEMA.fieldNames())
                   .writeStream
                   .format("parquet")
                   .option("path", self.structured_dir)
                   .option("checkpointLocation", os.path.join(self.checkpoints, "parse"))
                   .start())

        # started after stage A, whose sink has created _spark_metadata by
        # now: the source reads the sink's log instead of listing files
        structured = (spark.readStream.schema(STRUCTURED_SCHEMA)
                      .option("maxFilesPerTrigger", 64)
                      .parquet(self.structured_dir))
        sessions = (structured
                    .withWatermark("ts", self.watermark)
                    .groupBy(F.session_window(F.col("ts"), self.session_gap),
                             F.col("session_id"))
                    .agg(F.collect_list(F.struct(*LINE_FIELDS)).alias("lines")))
        writer = (sessions.writeStream
                  .outputMode("append")
                  .foreachBatch(self._score_batch)
                  .option("checkpointLocation", os.path.join(self.checkpoints, "detect")))
        # at most one state task per core; the query reads the count only
        # in start(), so the caller's value is set back right after it
        key = "spark.sql.shuffle.partitions"
        caller = spark.conf.get(key)
        spark.conf.set(key, str(min(int(caller), spark.sparkContext.defaultParallelism)))
        try:
            q_detect = writer.start()
        finally:
            spark.conf.set(key, caller)
        return q_parse, q_detect

    def drain(self, q_parse, q_detect, *, rounds: int = 6) -> None:
        """Process everything currently available through both stages."""
        for _ in range(rounds):
            q_parse.processAllAvailable()
            q_detect.processAllAvailable()

    def predictions(self) -> pd.DataFrame:
        with self._lock:
            return pd.DataFrame(self.results)
