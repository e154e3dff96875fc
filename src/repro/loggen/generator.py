"""Multi-source log-stream generation with anomaly injection.

Produces the labelled stream MoniLog consumes: each line carries the raw
HEADER+MESSAGE (Fig. 2) plus ground truth (template id, variable values,
session label) used by the evaluation harness. Sessions follow a source
profile's normal flow; a configurable fraction deviates:

* ``seq`` anomalies — the sequence leaves the normal flow (an error
  template is interleaved and/or required tail events are dropped),
  mirroring ``L1 -> L4`` of Table I;
* ``quant`` anomalies — the flow is followed exactly but one numeric
  variable is far outside its trained range (``L3`` of Table I).

Sessions from all requested sources are interleaved on event time with
per-line jitter, reproducing the paper's §I observation that "logs can
arrive in mixed order".
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd

from repro.loggen import templates as T

BASE_TS = pd.Timestamp("2020-03-19 15:38:55")  # Fig. 2's clock
MEAN_GAP_S = 0.8  # mean inter-event gap inside a session
# normal sessions with a benign retry (rare-but-normal flow, FP pressure)
BENIGN_REPEAT_RATE = 0.03


@dataclasses.dataclass(frozen=True)
class StreamSpec:
    """Parameters of one generated stream."""

    n_sessions: int = 200
    n_sources: int = 1
    anomaly_rate: float = 0.0       # fraction of sessions that are anomalous
    quant_share: float = 0.4        # of anomalous sessions, share quantitative
    seed: int = 0
    session_spread_s: float = 600.0  # session start times span
    jitter_s: float = 0.0           # per-line arrival jitter (out-of-order)


def _session_events(profile: T.SourceProfile, g: np.random.Generator,
                    anomaly: str) -> list[tuple[str, bool]]:
    """Event-id list for one session; bool marks the quant-anomalous line."""
    flow = profile.normal_flows[int(g.integers(0, len(profile.normal_flows)))]
    events: list[str] = []
    for tid, rep in flow:
        events.extend([tid] * int(rep))
    if not anomaly and g.random() < BENIGN_REPEAT_RATE and len(events) > 1:
        # benign retry: one mid-flow event repeats — rare but normal, the
        # pattern a detector trained on too few sessions false-alarms on
        pos = int(g.integers(1, len(events)))
        events.insert(pos, events[pos - 1])
    flags = [False] * len(events)
    if anomaly == "seq":
        mode = int(g.integers(0, 4))
        if mode == 0 or len(events) < 3:  # interleave an error template
            pos = int(g.integers(1, len(events)))
            events.insert(pos, str(g.choice(profile.error_tids)))
            flags.insert(pos, False)
        elif mode == 1:  # truncated flow, error template at the break
            cut = max(1, len(events) // 2)
            events, flags = events[:cut], flags[:cut]
            events.append(str(g.choice(profile.error_tids)))
            flags.append(False)
        elif mode == 2:  # error template replaces a mid-flow event
            pos = int(g.integers(1, len(events) - 1))
            events[pos] = str(g.choice(profile.error_tids))
        else:  # silent truncation: the tail just never happens (a crash
               # without a logged error — invisible to next-event models,
               # visible to count invariants)
            cut = max(1, len(events) * 2 // 3)
            events, flags = events[:cut], flags[:cut]
    elif anomaly == "quant":
        eligible = [i for i, tid in enumerate(events)
                    if profile.template(tid).quant_slot is not None]
        if eligible:
            flags[int(g.choice(eligible))] = True
        else:  # fall back: no numeric slot in this flow -> sequential
            events.insert(len(events) // 2, str(g.choice(profile.error_tids)))
            flags.insert(len(events) // 2, False)
    return list(zip(events, flags))


def generate(spec: StreamSpec) -> pd.DataFrame:
    """Generate a labelled multi-source log stream, ordered by arrival.

    Columns: line_id, ts (event time), arrival_ts, source, level, message,
    session_id, event_id (GT template id), template (GT template text),
    values (GT variable values, joined by \\x1f), is_anomaly (session
    label), anomaly_type ('', 'seq', 'quant'), quant_line (bool).
    """
    g = np.random.default_rng(spec.seed)
    profs = T.profiles(spec.n_sources)
    rows: list[dict] = []
    n_anom = int(round(spec.n_sessions * spec.anomaly_rate))
    anom_sessions = set(g.choice(spec.n_sessions, size=n_anom, replace=False).tolist())
    for sid in range(spec.n_sessions):
        profile = profs[sid % len(profs)]
        if sid in anom_sessions:
            anomaly = "quant" if g.random() < spec.quant_share else "seq"
        else:
            anomaly = ""
        events = _session_events(profile, g, anomaly)
        start = float(g.random() * spec.session_spread_s)
        t = start
        session_id = f"{profile.name}-s{sid:06d}"
        for k, (tid, qflag) in enumerate(events):
            tpl = profile.template(tid)
            values = [T.sample_value(kind, g, quant_anomaly=(qflag and i == tpl.quant_slot))
                      for i, kind in enumerate(tpl.slots)]
            msg = T.render(tpl, values, g)
            t += float(g.exponential(MEAN_GAP_S))
            arrival = t + (float(g.normal(0, spec.jitter_s)) if spec.jitter_s else 0.0)
            rows.append(dict(
                ts=BASE_TS + pd.to_timedelta(t, unit="s"),
                arrival_ts=BASE_TS + pd.to_timedelta(max(0.0, arrival), unit="s"),
                source=profile.name, level=tpl.level, message=msg,
                session_id=session_id, event_id=tid, template=tpl.text,
                values="\x1f".join(values),
                is_anomaly=bool(anomaly), anomaly_type=anomaly,
                quant_line=bool(qflag),
            ))
    pdf = pd.DataFrame(rows)
    pdf = pdf.sort_values("arrival_ts", kind="stable").reset_index(drop=True)
    pdf.insert(0, "line_id", np.arange(len(pdf), dtype=np.int64))
    # microsecond precision so Spark's Arrow path accepts the timestamps
    pdf["ts"] = pdf["ts"].astype("datetime64[us]")
    pdf["arrival_ts"] = pdf["arrival_ts"].astype("datetime64[us]")
    return pdf


def raw_line(row: pd.Series) -> str:
    """Format a stream row as the raw logline of Fig. 2:
    ``2020-03-19 15:38:55,977 - serviceManager - INFO - <message>``."""
    ts = pd.Timestamp(row["ts"])
    stamp = ts.strftime("%Y-%m-%d %H:%M:%S") + f",{ts.microsecond // 1000:03d}"
    return f"{stamp} - {row['source']} - {row['level']} - {row['message']}"

