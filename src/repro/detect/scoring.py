"""Session scoring: MoniLog's detection rule, and distributed scoring of
any sequence detector (§II: every MoniLog component must be
distributable).

:func:`score_sessions` is the one implementation of MoniLog's step-2 rule
(DeepLog's composition): a session is anomalous iff the sequential top-g
model or the quantitative value-range model raises. It takes flat tagged
lines (one row per line, carrying its ``session_id``) and uses only
pandas and the models, so ``MoniLog.detect`` runs it partition-parallel
in ``mapInPandas``, after one shuffle that puts every line of a session
in one partition, and streaming stage B runs it on the driver over the
flattened lines of a micro-batch of closed session windows.

Training stays on the driver (models are small: flow tables, centroids,
a weight vector); *scoring* is the per-line/per-session hot path, so it
is the part that scales out. Tests assert the distributed result is
row-identical to driver-side scoring.
"""
from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.classify.pools import AnomalyReport, make_report

# the per-line columns score_sessions reads, besides session_id
LINE_FIELDS = ("ts", "line_id", "source", "level", "template", "variables")
PRED_COLUMNS = ["session_id", "seq_pred", "quant_pred", "pred"]
SCORED_SCHEMA = ("session_id string, seq_pred int, quant_pred int, pred int, "
                 "source string, events array<string>, levels array<string>")


def score_sessions(lines: pd.DataFrame, seq_model, quant_model) -> pd.DataFrame:
    """Score flat tagged lines (``session_id`` + :data:`LINE_FIELDS`), one
    row per session.

    Lines are ordered by ``(session_id, ts, line_id)`` in one sort: event
    time, not arrival order, defines each flow. A session's template
    sequence goes to ``seq_model.is_anomalous``; each line's ``variables``
    go to ``quant_model.session_flag``. Returns :data:`PRED_COLUMNS` plus,
    for flagged sessions only (None otherwise), the report payload
    ``source``, ``events`` (templates) and ``levels`` in line order.
    """
    lines = lines.sort_values(["session_id", "ts", "line_id"])
    sids = lines["session_id"].to_numpy()
    events, variables, levels, sources = (lines[c].tolist() for c in
                                          ("template", "variables", "level", "source"))
    starts = [0, *(np.flatnonzero(sids[1:] != sids[:-1]) + 1)] if len(sids) else []
    rows = []
    for a, b in zip(starts, starts[1:] + [len(sids)]):
        seq = seq_model.is_anomalous(events[a:b])
        quant = quant_model.session_flag(zip(events[a:b], variables[a:b]))
        pred = seq or quant
        rows.append((sids[a], int(seq), int(quant), int(pred),
                     sources[a] if pred else None,
                     events[a:b] if pred else None,
                     levels[a:b] if pred else None))
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
    detector exposing ``is_anomalous(seq)`` (n-gram), or
    ``is_anomalous(seq, templates)`` when ``templates`` is given
    (LogAnomaly). Returns ``(session_id, pred int)``.
    """
    sc = seq_df.sparkSession.sparkContext
    b_model = sc.broadcast(detector)
    b_args = sc.broadcast((dict(templates),) if templates else ())

    def _score(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        model, args = b_model.value, b_args.value
        for pdf in batches:
            preds = [int(model.is_anomalous(list(seq), *args)) for seq in pdf["events"]]
            yield pd.DataFrame({"session_id": pdf["session_id"], "pred": preds})

    return seq_df.mapInPandas(_score, schema="session_id string, pred int")
