"""Log-instability injection (the LogRobust §III taxonomy the paper adopts).

The paper evaluates robustness on "altered versions" of a dataset with a
proportion of *unstable log events* of four kinds; this module implements
all four over a generated stream (a pandas frame from
:func:`repro.loggen.generator.generate`):

* ``parse_error`` — badly parsed logline: the event id is corrupted into a
  fresh bogus id (simulating a parser splitting one template into many)
  and the message is token-mangled to match.
* ``twist`` — a code modification: a template's *static* wording changes
  (word swapped / inserted), so the line no longer matches the trained
  template text but keeps its meaning; the GT event id is suffixed with
  ``~`` so detectors that cannot re-map unseen templates break.
* ``dup`` — a line is duplicated (pipeline noise).
* ``shuffle`` — two adjacent lines of one session swap order (delay).

``inject(pdf, ratio, ...)`` alters ``ratio`` of lines, split evenly
across the enabled kinds, and returns a new frame plus the per-kind
counts. Determinism: ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

KINDS = ("parse_error", "twist", "dup", "shuffle")
SPLITS = 3  # bogus ids sequence_parse_noise splits one event id into

_TWIST_WORDS = {"block": "chunk", "bytes": "octets", "Sending": "Dispatching",
                "started": "launched", "completed": "finished", "error": "fault",
                "Receiving": "Accepting", "volume": "device", "user": "account"}


def _twist_message(msg: str, g: np.random.Generator) -> str:
    toks = msg.split(" ")
    for i, tok in enumerate(toks):
        if tok in _TWIST_WORDS:
            toks[i] = _TWIST_WORDS[tok]
            return " ".join(toks)
    # no known word: insert a marker token after the first word instead
    pos = 1 if len(toks) > 1 else 0
    return " ".join(toks[:pos] + ["v2"] + toks[pos:])


def _mangle_tokens(msg: str, g: np.random.Generator) -> str:
    """Simulate a parsing error by merging two adjacent tokens."""
    toks = msg.split(" ")
    if len(toks) < 2:
        return msg + "#"
    i = int(g.integers(0, len(toks) - 1))
    return " ".join(toks[:i] + [toks[i] + toks[i + 1]] + toks[i + 2:])


def inject(pdf: pd.DataFrame, ratio: float, *, kinds: tuple[str, ...] = KINDS,
           seed: int = 7) -> tuple[pd.DataFrame, dict[str, int]]:
    """Return an altered copy of the stream with ``ratio`` of lines unstable.

    Only normal-session lines are altered (the LogRobust protocol measures
    whether *normal* flows rendered unfamiliar are still not flagged), and
    session labels are unchanged: instability is noise, not anomaly.
    """
    if not 0 <= ratio <= 1:
        raise ValueError("ratio must be in [0, 1]")
    for k in kinds:
        if k not in KINDS:
            raise ValueError(f"unknown instability kind {k!r}")
    out = pdf.copy().reset_index(drop=True)
    if ratio == 0 or not len(out):
        return out, {k: 0 for k in kinds}
    g = np.random.default_rng(seed)
    normal_idx = out.index[~out["is_anomaly"]].to_numpy()
    n_alter = min(len(normal_idx), int(round(len(out) * ratio)))
    chosen = g.choice(normal_idx, size=n_alter, replace=False)
    assignment = g.integers(0, len(kinds), size=n_alter)
    counts = {k: 0 for k in kinds}
    dup_rows = []
    for idx, a in zip(chosen, assignment):
        kind = kinds[a]
        counts[kind] += 1
        if kind == "parse_error":
            out.loc[idx, "message"] = _mangle_tokens(out.loc[idx, "message"], g)
            out.loc[idx, "event_id"] = f"{out.loc[idx, 'event_id']}#pe{int(g.integers(0, 4))}"
        elif kind == "twist":
            out.loc[idx, "message"] = _twist_message(out.loc[idx, "message"], g)
            out.loc[idx, "template"] = _twist_message(out.loc[idx, "template"], g)
            out.loc[idx, "event_id"] = f"{out.loc[idx, 'event_id']}~"
        elif kind == "dup":
            dup_rows.append(out.loc[idx].copy())
        elif kind == "shuffle":
            sess = out.index[(out["session_id"] == out.loc[idx, "session_id"])].to_numpy()
            pos = int(np.where(sess == idx)[0][0])
            if pos + 1 < len(sess):
                j = sess[pos + 1]
                cols = ["event_id", "message", "template", "values", "level", "quant_line"]
                tmp = out.loc[idx, cols].copy()
                out.loc[idx, cols] = out.loc[j, cols].to_numpy()
                out.loc[j, cols] = tmp.to_numpy()
    if dup_rows:
        out = pd.concat([out, pd.DataFrame(dup_rows)], ignore_index=True)
        out = out.sort_values(["arrival_ts", "line_id"], kind="stable").reset_index(drop=True)
    return out, counts


def sequence_parse_noise(sequences: dict[str, list[str]], rate: float,
                         *, seed: int = 11) -> dict[str, list[str]]:
    """§III experiment 2 noise model applied *after* parsing: each event id
    is, with probability ``rate``, replaced by one of :data:`SPLITS`
    bogus split ids derived from it — exactly what an erroneous parser
    does (one true template seen as several spurious ones)."""
    g = np.random.default_rng(seed)
    out: dict[str, list[str]] = {}
    for sid, seq in sequences.items():
        out[sid] = [f"{e}#pe{int(g.integers(0, SPLITS))}" if g.random() < rate else e
                    for e in seq]
    return out
