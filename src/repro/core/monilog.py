"""MoniLog core: the three-step system of §II (Fig. 1).

``MoniLog`` wires the components end-to-end over Spark DataFrames:

1. **Parse** — ``fit`` learns a template tree with distributed Drain (with
   §IV structured-data extraction) in one Spark job that ships only each
   partition's distinct templates to the driver
   (:func:`~repro.parsing.distributed.learn_templates`); every line is
   then matched against it once, giving its ``template`` (event identity)
   and ``variables``;
2. **Detect** — the raw lines are shuffled once on ``session_id``; one
   partition-local ``mapInArrow`` pass tags them column-wise (the same
   :func:`~repro.parsing.distributed.tag_lines` as ``parse``) and scores
   each session with :func:`~repro.detect.scoring.score_sessions`, the
   single scoring path shared with streaming stage B (event-time order;
   sequential n-gram/DeepLog-style OR quantitative model, broadcast);
   anomalous sessions become :class:`AnomalyReport`;
3. **Classify** — the §V classifier assigns each report a pool and a
   criticality, learning passively from admin actions.

Training (``fit``) consumes an *anomaly-free* stream — the deployment
regime the paper argues for in §III (labelled anomalies are rare and
injecting them is error-prone). Every component runs at its published
defaults (Drain's ``depth=4, st=0.5``; DeepLog's ``h=4, g=9``), and the
fitted tree and models are frozen until the next ``fit`` replaces them.

The batch API here is the unit of the streaming pipeline: Structured
Streaming tags each micro-batch with the same ``MoniLog.parse`` and scores
each micro-batch of closed session windows with the same
``score_sessions`` (see :mod:`repro.streaming.pipeline`).
"""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import StructType

from repro.classify.classifier import AnomalyClassifier
from repro.classify.pools import AnomalyReport, PoolSystem
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import (EVENT_ORDER, PRED_COLUMNS, SCORED_SCHEMA,
                                  score_sessions, session_reports)
from repro.parsing.distributed import learn_templates, match_fitted, tag_lines
from repro.parsing.drain import Drain
# perfbench's traced runs patch these names on this module, so they stay
# importable here although nothing here calls them
from repro.detect.scoring import score_sequences  # noqa: F401
from repro.parsing.distributed import parse_distributed  # noqa: F401
from repro.parsing.drain import extract_variables  # noqa: F401
from repro.detect.sequences import session_sequences  # noqa: F401


class MoniLog:
    """End-to-end MoniLog instance over one SparkSession."""

    def __init__(self, spark: SparkSession) -> None:
        self.spark = spark
        self.seq_model: NGramDetector | None = None
        self.quant_model: ValueRangeDetector | None = None
        self.classifier = AnomalyClassifier()
        self.pools = PoolSystem()
        self.parser: Drain | None = None  # the template tree, learned by fit
        # fit's broadcasts of the tree and of (seq_model, quant_model); every
        # parse and detect call until the next fit reuses them
        self._b_parser: Broadcast | None = None
        self._b_models: Broadcast | None = None

    # -- step 1: parsing --------------------------------------------------
    def parse(self, raw: DataFrame) -> DataFrame:
        """Raw stream (line_id, ts, source, message, session_id, ...) ->
        the same rows with ``template``/``variables`` columns, matched
        against the tree ``fit`` learned."""
        if self._b_parser is None:
            raise RuntimeError("call fit() first")
        return match_fitted(raw, self._b_parser)

    # -- step 2: detection ------------------------------------------------
    def fit(self, train_raw: DataFrame) -> "MoniLog":
        """Learn the template tree, then train sequential + quantitative
        models on a normal stream tagged with it. The template is the event
        identity: unlike cluster ids, it does not depend on parse order.
        A refit replaces the tree and both models, and their broadcasts:
        nothing learned from an earlier stream carries over."""
        self.parser, _ = learn_templates(train_raw)
        self._b_parser = self._rebroadcast(self._b_parser, self.parser)
        lines = (self.parse(train_raw.select("session_id", "ts", "line_id", "level",
                                             "message"))
                 .drop("message")
                 .toPandas()
                 .sort_values(list(EVENT_ORDER)))
        self.seq_model = NGramDetector().fit(
            lines.groupby("session_id", sort=False)["template"].agg(list))
        self.quant_model = ValueRangeDetector().fit(zip(lines["template"], lines["variables"]))
        self._b_models = self._rebroadcast(self._b_models, (self.seq_model, self.quant_model))
        return self

    def _rebroadcast(self, old: Broadcast | None, value) -> Broadcast:
        """Broadcast ``value``, unpersisting (not destroying) ``old``: a
        frame an earlier ``parse`` returned may still read it."""
        if old is not None:
            old.unpersist()
        return self.spark.sparkContext.broadcast(value)

    def detect(self, raw: DataFrame) -> tuple[pd.DataFrame, list[AnomalyReport]]:
        """Score a stream; returns (per-session predictions, reports)."""
        if self._b_parser is None:
            raise RuntimeError("call fit() first")
        b_tree, b_models = self._b_parser, self._b_models
        out_schema = to_arrow_schema(StructType.fromDDL(SCORED_SCHEMA))

        def run(batches):
            parts = list(batches)  # a session can span Arrow batches
            if not parts:  # an empty partition gets no batch
                return
            lines = pa.Table.from_batches(parts)
            templates, variables = tag_lines(lines.column("message").combine_chunks(),
                                             b_tree.value)
            lines = lines.append_column("template", templates).append_column("variables",
                                                                              variables)
            yield pa.RecordBatch.from_pandas(score_sessions(lines, *b_models.value),
                                             schema=out_schema, preserve_index=False)

        scored = (raw.select("session_id", "message", "ts", "line_id", "source", "level")
                  .repartition("session_id")
                  .mapInArrow(run, schema=SCORED_SCHEMA).toPandas())
        return scored[PRED_COLUMNS], session_reports(scored)

    # -- step 3: classification -------------------------------------------
    def classify(self, reports: list[AnomalyReport]) -> list[tuple[AnomalyReport, str, str]]:
        """Route reports through the pool system by prediction."""
        return [(rep, *self.classifier.ingest(self.pools, rep)) for rep in reports]

    def run(self, raw: DataFrame) -> list[tuple[AnomalyReport, str, str]]:
        """Full pipeline on a batch: detect then classify."""
        _, reports = self.detect(raw)
        return self.classify(reports)
