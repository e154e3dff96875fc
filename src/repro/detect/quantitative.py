"""Quantitative anomaly detection: per-template variable-value models.

The paper (§III) distinguishes *quantitative* anomalies — logs that
follow the normal flow but carry unusual values (``L3`` of Table I:
"Sending 745675869 bytes"). DeepLog handles these with a second LSTM
over parameter-value vectors; the substitution (DESIGN.md S9) keeps the
identical anomaly rule — "is the new value in the expected range given
seen values?" — using a per-(template, slot) robust Gaussian interval:
flag iff ``|x - median| > k * (1.4826 * MAD + eps)``. Only numeric
variable slots are modelled; categorical slots (IPs, hosts) pass.

A session is quantitatively anomalous iff any of its lines has an
out-of-range value (:meth:`ValueRangeDetector.session_flag`);
:func:`repro.detect.scoring.score_sessions` ORs this with the sequential
model (DeepLog's architecture: either model may raise).
"""
from __future__ import annotations

import dataclasses
import math
import re
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_EPS = 1e-9


# a number is a decimal in this syntax: RE2 (Arrow) and Python's re read it
# alike, and Arrow's float64 cast gives what float() gives
_DECIMAL = r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$"
_DECIMAL_RE = re.compile(_DECIMAL)


def _numeric(v: str) -> float | None:
    """``v`` as a finite float if it is a :data:`_DECIMAL`, else None: a
    "nan" or "inf" token is not a value, so it can neither train a slot
    model nor be out of range. The per-value reference of
    :func:`_numeric_column`."""
    # fullmatch: Python's $ also matches before a final newline, RE2's not
    if v is None or _DECIMAL_RE.fullmatch(v) is None:
        return None
    x = float(v)
    return x if math.isfinite(x) else None


def _numeric_column(values: pa.Array) -> np.ndarray:
    """:func:`_numeric` of each string of ``values``, NaN for None."""
    decimal = pc.match_substring_regex(values, _DECIMAL).fill_null(False).to_numpy(
        zero_copy_only=False)
    x = np.full(len(values), np.nan)
    if decimal.any():
        x[decimal] = pc.cast(values.filter(pa.array(decimal)), pa.float64()).to_numpy()
        x[~np.isfinite(x)] = np.nan
    return x


@dataclasses.dataclass
class _SlotModel:
    median: float
    scale: float  # 1.4826 * MAD, floored to a fraction of the median

    def in_range(self, x: float, k: float) -> bool:
        return abs(x - self.median) <= k * max(self.scale, 0.05 * abs(self.median), _EPS)


class ValueRangeDetector:
    """Expected-range model for numeric variable slots of each template."""

    def __init__(self, *, k: float = 8.0, min_support: int = 5) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.min_support = min_support
        # event_id -> its modelled (slot, model) pairs, built by fit
        self._slots: dict[str, list[tuple[int, _SlotModel]]] = {}

    def fit(self, rows: Iterable[tuple[str, Sequence[str]]]) -> "ValueRangeDetector":
        """Train from (event_id, variable values) of *normal* lines,
        replacing any earlier fit. Only the slot models are kept, so the
        model's size does not grow with the number of training values."""
        seen: dict[tuple[str, int], list[float]] = defaultdict(list)
        for event_id, values in rows:
            for slot, v in enumerate(values):
                x = _numeric(v)
                if x is not None:
                    seen[(event_id, slot)].append(x)
        slots = defaultdict(list)
        for (event_id, slot), xs in seen.items():
            if len(xs) < self.min_support:
                continue
            arr = np.asarray(xs)
            med = float(np.median(arr))
            mad = float(np.median(np.abs(arr - med)))
            slots[event_id].append((slot, _SlotModel(median=med, scale=1.4826 * mad)))
        self._slots = dict(slots)
        return self

    def line_flag(self, event_id: str, values: Sequence[str]) -> bool:
        """True iff any modelled slot of this line is out of range."""
        for slot, model in self._slots.get(event_id, ()):
            x = _numeric(values[slot]) if slot < len(values) else None
            if x is not None and not model.in_range(x, self.k):
                return True
        return False

    def line_flags(self, events: pa.Array, variables: pa.Array) -> np.ndarray:
        """:meth:`line_flag` of every line, column-wise: ``events`` is a
        string column and ``variables`` a list<string> column of the same
        length. Every modelled (line, slot) value is parsed and range-checked
        in one pass."""
        flags = np.zeros(len(events), bool)
        if not self._slots or not len(events):
            return flags
        names = list(self._slots)
        models = [(t, slot, m) for t, e in enumerate(names) for slot, m in self._slots[e]]
        model_t, slot, med, scale = (np.array(col) for col in zip(
            *((t, s, m.median, m.scale) for t, s, m in models)))
        per_t = np.bincount(model_t, minlength=len(names))
        first = np.cumsum(per_t) - per_t  # each template's first model row
        tid = pc.index_in(events, value_set=pa.array(names, pa.string())).fill_null(-1).to_numpy()
        # one row per (line, modelled slot of its template)
        lines = np.flatnonzero(tid >= 0)
        k = per_t[tid[lines]]
        line = np.repeat(lines, k)
        model = (np.repeat(first[tid[lines]], k)
                 + np.arange(len(line)) - np.repeat(np.cumsum(k) - k, k))
        present = slot[model] < pc.list_value_length(variables).fill_null(0).to_numpy()[line]
        line, model = line[present], model[present]
        x = _numeric_column(variables.values.take(
            variables.offsets.to_numpy()[line] + slot[model]))
        m_med = med[model]
        bound = self.k * np.maximum(np.maximum(scale[model], 0.05 * np.abs(m_med)), _EPS)
        flags[line[np.abs(x - m_med) > bound]] = True  # NaN (no number) passes
        return flags

    def session_flag(self, lines: Iterable[tuple[str, Sequence[str]]]) -> bool:
        return any(self.line_flag(e, v) for e, v in lines)
