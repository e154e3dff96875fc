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
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

_EPS = 1e-9


def _numeric(v: str) -> float | None:
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


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
        self._models: dict[tuple[str, int], _SlotModel] = {}
        self._seen: dict[tuple[str, int], list[float]] = defaultdict(list)

    def fit(self, rows: Iterable[tuple[str, Sequence[str]]]) -> "ValueRangeDetector":
        """Train from (event_id, variable values) of *normal* lines."""
        for event_id, values in rows:
            for slot, v in enumerate(values):
                x = _numeric(v)
                if x is not None:
                    self._seen[(event_id, slot)].append(x)
        for key, xs in self._seen.items():
            if len(xs) < self.min_support:
                continue
            arr = np.asarray(xs)
            med = float(np.median(arr))
            mad = float(np.median(np.abs(arr - med)))
            self._models[key] = _SlotModel(median=med, scale=1.4826 * mad)
        return self

    def line_flag(self, event_id: str, values: Sequence[str]) -> bool:
        """True iff any modelled slot of this line is out of range."""
        for slot, v in enumerate(values):
            model = self._models.get((event_id, slot))
            if model is None:
                continue
            x = _numeric(v)
            if x is not None and not model.in_range(x, self.k):
                return True
        return False

    def session_flag(self, lines: Iterable[tuple[str, Sequence[str]]]) -> bool:
        return any(self.line_flag(e, v) for e, v in lines)

    def n_models(self) -> int:
        return len(self._models)

