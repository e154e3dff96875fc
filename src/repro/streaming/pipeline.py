"""MoniLog as a Structured Streaming dataflow (§II, Fig. 1).

Two chained streaming queries reproduce the three-step architecture over
a multi-source file stream (the container has no Kafka; a file source
exercises the same micro-batch dataflow, watermarking and stateful
aggregation paths — DESIGN.md substitution 4):

* **Stage A — parse**: a JSON file stream of raw log records is parsed
  micro-batch by micro-batch inside ``foreachBatch`` with the
  distributed Drain (partition-local trees + driver merge); the
  structured stream (template column added) lands in a parquet dir.
* **Stage B — structure + detect + classify**: a parquet file stream of
  structured records is watermarked on event time and aggregated with
  ``session_window`` (MoniLog's "windowed aggregation for sequence
  structuring"); in ``foreachBatch`` each micro-batch of *closed*
  session windows is collected and scored on the driver by
  :func:`~repro.detect.scoring.score_sessions` — the same function
  ``MoniLog.detect`` runs partition-parallel — and every anomalous
  session becomes an :class:`AnomalyReport` routed through the §V
  classifier.

Event identity across micro-batches is the *template string* (cluster
ids are batch-local); templates converge quickly, and unseen templates
at scoring time are exactly the §III instability case the detectors are
measured on.
"""
from __future__ import annotations

import json
import os
import threading

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.classify.pools import AnomalyReport
from repro.core.monilog import MoniLog
from repro.detect.scoring import (LINE_FIELDS, PRED_COLUMNS, score_sessions,
                                  session_reports)
from repro.parsing.distributed import parse_distributed
# perfbench's traced runs patch these names on this module, so they stay
# importable here although nothing here calls them
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
])

FLUSH_SESSION = "__flush__"


def write_stream_files(pdf: pd.DataFrame, directory: str, *, n_files: int = 4,
                       flush_delay_s: float = 3600.0) -> list[str]:
    """Materialise a generated stream as JSON files in arrival order (one
    micro-batch per file with ``maxFilesPerTrigger=1``). A trailing flush
    record with a far-future timestamp advances the event-time watermark
    so every session window closes."""
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
    flush_ts = pd.Timestamp(pdf["ts"].max()) + pd.Timedelta(seconds=flush_delay_s)
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
        if not monilog._fitted:
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
        self.batches_parsed = 0
        self._lock = threading.Lock()

    # -- stage A ----------------------------------------------------------
    def _parse_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        if batch_df.isEmpty():
            return
        flush = batch_df.filter(F.col("session_id") == FLUSH_SESSION)
        payload = batch_df.filter(F.col("session_id") != FLUSH_SESSION)
        out = None
        if not payload.isEmpty():
            cfg = self.monilog.config
            parsed, _ = parse_distributed(payload, depth=cfg.depth, st=cfg.st,
                                          structured=cfg.structured)
            out = parsed.select(*[f.name for f in RAW_SCHEMA.fields], "template")
        fl = flush.withColumn("template", F.lit("flush"))
        out = fl if out is None else out.unionByName(fl)
        out.write.mode("append").parquet(self.structured_dir)
        with self._lock:
            self.batches_parsed += 1

    # -- stage B ----------------------------------------------------------
    def _score_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        pdf = batch_df.toPandas()
        pdf = pdf[pdf["session_id"] != FLUSH_SESSION]
        if pdf.empty:
            return
        ml = self.monilog
        scored = score_sessions(pdf, ml.seq_model, ml.quant_model,
                                structured=ml.config.structured)
        with self._lock:
            self.results.extend(scored[PRED_COLUMNS].to_dict("records"))
        for report in session_reports(scored):
            ml.classifier.ingest(ml.pools, route=True, report=report)
            with self._lock:
                self.reports.append(report)

    # -- wiring -----------------------------------------------------------
    def start(self, input_dir: str, *, max_files_per_trigger: int = 1):
        """Start both queries; returns (parse_query, detect_query)."""
        spark = self.monilog.spark
        raw = (spark.readStream.schema(RAW_SCHEMA)
               .option("maxFilesPerTrigger", max_files_per_trigger)
               .json(input_dir))
        q_parse = (raw.writeStream
                   .foreachBatch(self._parse_batch)
                   .option("checkpointLocation", os.path.join(self.checkpoints, "parse"))
                   .start())

        structured = (spark.readStream.schema(STRUCTURED_SCHEMA)
                      .option("maxFilesPerTrigger", 64)
                      .parquet(self.structured_dir))
        sessions = (structured
                    .withWatermark("ts", self.watermark)
                    .groupBy(F.session_window(F.col("ts"), self.session_gap),
                             F.col("session_id"))
                    .agg(F.collect_list(F.struct(*LINE_FIELDS)).alias("lines")))
        q_detect = (sessions.writeStream
                    .outputMode("append")
                    .foreachBatch(self._score_batch)
                    .option("checkpointLocation", os.path.join(self.checkpoints, "detect"))
                    .start())
        return q_parse, q_detect

    def drain(self, q_parse, q_detect, *, rounds: int = 6) -> None:
        """Process everything currently available through both stages."""
        for _ in range(rounds):
            q_parse.processAllAvailable()
            q_detect.processAllAvailable()

    def predictions(self) -> pd.DataFrame:
        with self._lock:
            return pd.DataFrame(self.results)
