"""MoniLog core: the three-step system of §II (Fig. 1).

``MoniLog`` wires the components end-to-end over Spark DataFrames:

1. **Parse** — distributed Drain (with §IV structured-data extraction)
   turns the raw message stream into ``(cluster_id, template)``;
2. **Detect** — one Spark ``groupBy(session_id)`` collects each
   session's lines; :func:`~repro.detect.scoring.score_sessions`, the
   single scoring path shared with streaming stage B, orders them by event
   time and applies the sequential (n-gram/DeepLog-style) and
   quantitative models (broadcast, partition-parallel in
   ``mapInPandas``); anomalous sessions become :class:`AnomalyReport`;
3. **Classify** — the §V classifier assigns each report a pool and a
   criticality, learning passively from admin actions.

Training (``fit``) consumes an *anomaly-free* stream — the deployment
regime the paper argues for in §III (labelled anomalies are rare and
injecting them is error-prone).

The batch API here is the unit of the streaming pipeline: Structured
Streaming parses each micro-batch with the same parser and scores each
micro-batch of closed session windows with the same ``score_sessions``
(see :mod:`repro.streaming.pipeline`).
"""
from __future__ import annotations

import dataclasses

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.classify.classifier import AnomalyClassifier
from repro.classify.pools import AnomalyReport, PoolSystem
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import (LINE_FIELDS, PRED_COLUMNS, SCORED_SCHEMA,
                                  score_sessions, session_reports)
from repro.parsing.distributed import parse_distributed
from repro.parsing.drain import extract_variables
from repro.parsing.preprocess import preprocess
# perfbench's traced runs patch these names on this module, so they stay
# importable here although nothing here calls them
from repro.detect.scoring import score_sequences  # noqa: F401
from repro.detect.sequences import session_sequences  # noqa: F401


@dataclasses.dataclass
class MoniLogConfig:
    depth: int = 4
    st: float = 0.5
    structured: bool = True      # §IV JSON/XML extraction
    h: int = 4                   # n-gram history
    g: int = 9                   # top-g candidates (DeepLog default)
    quant_k: float = 8.0


class MoniLog:
    """End-to-end MoniLog instance over one SparkSession."""

    def __init__(self, spark: SparkSession, config: MoniLogConfig | None = None) -> None:
        self.spark = spark
        self.config = config or MoniLogConfig()
        self.seq_model = NGramDetector(h=self.config.h, g=self.config.g)
        self.quant_model = ValueRangeDetector(k=self.config.quant_k)
        self.classifier = AnomalyClassifier()
        self.pools = PoolSystem()
        self._fitted = False

    # -- step 1: parsing --------------------------------------------------
    def parse(self, raw: DataFrame) -> DataFrame:
        """Raw stream (line_id, ts, source, message, session_id, ...) ->
        structured stream with ``cluster_id``/``template`` columns."""
        cfg = self.config
        parsed, _ = parse_distributed(
            raw, depth=cfg.depth, st=cfg.st, structured=cfg.structured)
        return parsed

    # -- step 2: detection ------------------------------------------------
    def fit(self, train_raw: DataFrame) -> "MoniLog":
        """Train sequential + quantitative models on a normal stream. The
        parser's template is the event identity: unlike cluster ids, it
        does not depend on parse order."""
        lines = (self.parse(train_raw)
                 .select("session_id", "ts", "line_id", "template", "message")
                 .toPandas()
                 .sort_values(["session_id", "ts", "line_id"]))
        self.seq_model.fit(lines.groupby("session_id", sort=False)["template"].agg(list))
        self.quant_model.fit(
            (t, extract_variables(t, preprocess(m, structured=self.config.structured)))
            for t, m in zip(lines["template"], lines["message"]))
        self._fitted = True
        return self

    def detect(self, raw: DataFrame) -> tuple[pd.DataFrame, list[AnomalyReport]]:
        """Score a stream; returns (per-session predictions, reports)."""
        if not self._fitted:
            raise RuntimeError("call fit() before detect()")
        sessions = (self.parse(raw).groupBy("session_id")
                    .agg(F.collect_list(F.struct(*LINE_FIELDS)).alias("lines")))
        sc = self.spark.sparkContext
        b_seq, b_quant = sc.broadcast(self.seq_model), sc.broadcast(self.quant_model)
        structured = self.config.structured

        def _score(batches):
            for pdf in batches:
                yield score_sessions(pdf, b_seq.value, b_quant.value, structured=structured)

        scored = sessions.mapInPandas(_score, schema=SCORED_SCHEMA).toPandas()
        return scored[PRED_COLUMNS], session_reports(scored)

    # -- step 3: classification -------------------------------------------
    def classify(self, reports: list[AnomalyReport]) -> list[tuple[AnomalyReport, str, str]]:
        """Route reports through the pool system by prediction."""
        out = []
        for rep in reports:
            pool, level = self.classifier.ingest(self.pools, route=True, report=rep)
            out.append((rep, pool, level))
        return out

    def run(self, raw: DataFrame) -> list[tuple[AnomalyReport, str, str]]:
        """Full pipeline on a batch: detect then classify."""
        _, reports = self.detect(raw)
        return self.classify(reports)
