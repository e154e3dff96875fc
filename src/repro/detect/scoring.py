"""Session scoring: MoniLog's detection rule, and distributed scoring of
any sequence detector (§II: every MoniLog component must be
distributable).

:func:`score_sessions` is the one implementation of MoniLog's step-2 rule
(DeepLog's composition): a session is anomalous iff the sequential top-g
model or the quantitative value-range model raises. It is a pure pandas
function, so ``MoniLog.detect`` runs it partition-parallel in
``mapInPandas`` and streaming stage B runs it on the driver over a
micro-batch of closed session windows.

Training stays on the driver (models are small: flow tables, centroids,
a weight vector); *scoring* is the per-line/per-session hot path, so it
is the part that scales out. Tests assert the distributed result is
row-identical to driver-side scoring.
"""
from __future__ import annotations

from typing import Iterator, Mapping

import pandas as pd
from pyspark.sql import DataFrame

from repro.classify.pools import AnomalyReport, make_report
from repro.parsing.drain import extract_variables
from repro.parsing.preprocess import preprocess

# fields of each ``lines`` struct a session carries into score_sessions
LINE_FIELDS = ("ts", "line_id", "source", "level", "message", "template")
PRED_COLUMNS = ["session_id", "seq_pred", "quant_pred", "pred"]
SCORED_SCHEMA = ("session_id string, seq_pred int, quant_pred int, pred int, "
                 "source string, events array<string>, levels array<string>")


def score_sessions(sessions: pd.DataFrame, seq_model, quant_model, *,
                   structured: bool) -> pd.DataFrame:
    """Score ``session_id`` + ``lines`` (structs of :data:`LINE_FIELDS`).

    Each session's lines are ordered by ``(ts, line_id)``: event time, not
    arrival order, defines the flow. The template sequence goes to
    ``seq_model.is_anomalous``; each line's variable values go to
    ``quant_model.session_flag``. Returns :data:`PRED_COLUMNS` plus, for
    flagged sessions only (None otherwise), the report payload ``source``,
    ``events`` (templates) and ``levels`` in line order.
    """
    rows = []
    for session_id, lines in zip(sessions["session_id"], sessions["lines"]):
        lines = sorted(lines, key=lambda s: (s["ts"], s["line_id"]))
        events = [s["template"] for s in lines]
        seq = seq_model.is_anomalous(events)
        quant = quant_model.session_flag(
            (s["template"], extract_variables(
                s["template"], preprocess(s["message"], structured=structured)))
            for s in lines)
        pred = seq or quant
        rows.append((session_id, int(seq), int(quant), int(pred),
                     lines[0]["source"] if pred else None,
                     events if pred else None,
                     [s["level"] for s in lines] if pred else None))
    return pd.DataFrame(rows, columns=PRED_COLUMNS + ["source", "events", "levels"])


def session_reports(scored: pd.DataFrame) -> list[AnomalyReport]:
    """One :class:`AnomalyReport` per flagged session of a
    :func:`score_sessions` frame; "quant" only when the sequential model
    stayed silent."""
    return [make_report(r.session_id, r.source, r.events, r.levels,
                        "quant" if (r.quant_pred and not r.seq_pred) else "seq")
            for r in scored[scored["pred"] == 1].itertuples()]


def score_sequences(seq_df: DataFrame, detector,
                    templates: Mapping[str, str] | None = None) -> DataFrame:
    """Score a sequences frame (``session_id``, ``events``, ...) with any
    detector exposing ``is_anomalous(seq)`` (n-gram) or
    ``is_anomalous(seq, templates)`` (LogAnomaly) or ``decision(seq)``
    (semantic, on template-text sequences). Returns
    ``(session_id, pred int)``.
    """
    sc = seq_df.sparkSession.sparkContext
    b_model = sc.broadcast(detector)
    b_templates = sc.broadcast(dict(templates) if templates else None)

    def _score(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        model = b_model.value
        tpl = b_templates.value
        for pdf in batches:
            preds = []
            for seq in pdf["events"]:
                seq = list(seq)
                if tpl is not None and hasattr(model, "matcher"):
                    preds.append(int(model.is_anomalous(seq, tpl)))
                elif hasattr(model, "is_anomalous"):
                    preds.append(int(model.is_anomalous(seq)))
                else:
                    preds.append(int(model.decision(seq) > 0))
            yield pd.DataFrame({"session_id": pdf["session_id"], "pred": preds})

    return seq_df.mapInPandas(_score, schema="session_id string, pred int")
