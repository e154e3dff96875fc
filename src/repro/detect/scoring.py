"""Session scoring: MoniLog's detection rule, and distributed scoring of
any sequence detector (§II: every MoniLog component must be
distributable).

:func:`score_sessions` is the one implementation of MoniLog's step-2 rule
(DeepLog's composition): a session is anomalous iff the sequential top-g
model or the quantitative value-range model raises. It takes an Arrow
table of flat tagged lines (one row per line, carrying its
``session_id``), works on it as Arrow and numpy columns, and needs
nothing but the models, so
``MoniLog.detect`` runs it partition-parallel in ``mapInArrow``, after
one shuffle that puts every line of a session in one partition, and
streaming stage B runs it on the driver over the flattened lines of a
micro-batch of closed session windows.

Training stays on the driver (models are small: flow tables, centroids,
a weight vector); *scoring* is the per-line/per-session hot path, so it
is the part that scales out. Tests assert the distributed result is
row-identical to driver-side scoring.
"""
from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from repro.classify.pools import AnomalyReport, make_report

# the per-line columns score_sessions reads, besides session_id
LINE_FIELDS = ("ts", "line_id", "source", "level", "template", "variables")
# event-time order of a session's lines, for training and scoring alike: a
# (ts, line_id) tie (a duplicated line) is broken on the fields the scorer
# reads in sequence, so no arrival order shows through
EVENT_ORDER = ("session_id", "ts", "line_id", "template", "level")
PRED_COLUMNS = ["session_id", "seq_pred", "quant_pred", "pred"]
SCORED_SCHEMA = ("session_id string, seq_pred int, quant_pred int, pred int, "
                 "source string, events array<string>, levels array<string>")


def score_sessions(lines: pa.Table, seq_model, quant_model) -> pd.DataFrame:
    """Score flat tagged lines, one row per session. ``lines`` holds a
    ``session_id`` and the :data:`LINE_FIELDS` columns, in one or more
    chunks; other columns are ignored.

    Lines are ordered by :data:`EVENT_ORDER` in one sort: event time, not
    arrival order, defines each flow. A session's template sequence goes
    to ``seq_model.is_anomalous``, once per distinct sequence; the
    quantitative flags of all lines come from one
    ``quant_model.line_flags`` pass (``session_flag`` of each session,
    column-wise). Returns :data:`PRED_COLUMNS` plus, for flagged sessions
    only (None otherwise), the report payload ``source``, ``events``
    (templates) and ``levels`` in line order.
    """
    if not lines.num_rows:
        return pd.DataFrame(columns=PRED_COLUMNS + ["source", "events", "levels"])
    cols = {c: lines.column(c).combine_chunks() for c in ("session_id", *LINE_FIELDS)}
    # a total order on every field read in sequence; variables only feed an OR
    order = pc.sort_indices(pa.table({c: cols[c] for c in EVENT_ORDER}),
                            sort_keys=[(c, "ascending") for c in EVENT_ORDER]).to_numpy()
    sids = pc.dictionary_encode(cols["session_id"].take(order))
    starts = np.flatnonzero(np.diff(sids.indices.to_numpy(), prepend=-1))
    ends = np.append(starts[1:], len(order))
    flags = quant_model.line_flags(cols["template"], cols["variables"])
    quant = np.logical_or.reduceat(flags[order], starts)

    events = pc.dictionary_encode(cols["template"].take(order))
    names, codes = events.dictionary.to_pylist(), events.indices.to_numpy().tolist()
    # sessions of one flow share one verdict; on the 8-source generator's
    # streams most sessions of a partition repeat an earlier flow
    verdicts: dict[tuple, bool] = {}
    seq = np.zeros(len(starts), bool)
    for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        flow = tuple(codes[a:b])
        if flow not in verdicts:
            verdicts[flow] = seq_model.is_anomalous([names[c] for c in flow])
        seq[i] = verdicts[flow]
    pred = seq | quant

    # the report payload, for flagged sessions only
    flagged = np.flatnonzero(pred)
    sizes = ends[flagged] - starts[flagged]
    rows = order[np.concatenate([np.arange(starts[i], ends[i]) for i in flagged] or [[]])
                 .astype(np.int64)]
    src, evs, lvl = (cols[c].take(rows).to_pylist() for c in ("source", "template", "level"))
    payload = {c: [None] * len(starts) for c in ("source", "events", "levels")}
    for i, b, size in zip(flagged, np.cumsum(sizes), sizes):
        a = b - size
        payload["source"][i], payload["events"][i], payload["levels"][i] = \
            src[a], evs[a:b], lvl[a:b]
    return pd.DataFrame({"session_id": sids.dictionary.take(sids.indices.take(starts)).to_pylist(),
                         "seq_pred": seq.astype(np.int32), "quant_pred": quant.astype(np.int32),
                         "pred": pred.astype(np.int32), **payload})


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
