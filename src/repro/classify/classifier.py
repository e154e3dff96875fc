"""The §V anomaly classifier: incremental, passively trained.

Assigns each anomaly report a *pool* (anomaly type — pools are the
teams' own taxonomy) and a *criticality level*, learning exclusively
from observed administrator actions: a report moved into a pool is a
labelled example for that pool; a criticality edit is a labelled example
for that level. No extra human effort (§V: feedback "is passively done
by the user experience").

Model: two incremental multinomial naive-Bayes heads (pool head,
criticality head) over the report's token bag
(:meth:`AnomalyReport.feature_tokens`). NB is the natural fit here —
single-pass incremental updates, calibrated under tiny label counts,
and new classes (pools) can appear at any time.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Iterable

from repro.classify.pools import (CRITICALITY_LEVELS, DEFAULT_POOL,
                                  AnomalyReport, PoolAction, PoolSystem)

ALPHA = 1.0  # Laplace smoothing count


class IncrementalNB:
    """Multinomial naive Bayes with Laplace smoothing (:data:`ALPHA`),
    online updates."""

    def __init__(self) -> None:
        self._class_docs: Counter = Counter()
        self._token_counts: dict[str, Counter] = defaultdict(Counter)
        self._class_tokens: Counter = Counter()
        self._vocab: set[str] = set()

    @property
    def classes(self) -> list[str]:
        return sorted(self._class_docs)

    def n_observations(self) -> int:
        return sum(self._class_docs.values())

    def observe(self, tokens: Iterable[str], label: str) -> None:
        tokens = list(tokens)
        self._class_docs[label] += 1
        self._token_counts[label].update(tokens)
        self._class_tokens[label] += len(tokens)
        self._vocab.update(tokens)

    def log_posteriors(self, tokens: Iterable[str]) -> dict[str, float]:
        tokens = list(tokens)
        total_docs = self.n_observations()
        v = max(1, len(self._vocab))
        out: dict[str, float] = {}
        for c in self._class_docs:
            lp = math.log((self._class_docs[c]) / total_docs)
            denom = self._class_tokens[c] + ALPHA * v
            tc = self._token_counts[c]
            for t in tokens:
                lp += math.log((tc.get(t, 0) + ALPHA) / denom)
            out[c] = lp
        return out

    def predict(self, tokens: Iterable[str], default: str | None = None) -> str | None:
        lps = self.log_posteriors(list(tokens))
        if not lps:
            return default
        return max(sorted(lps), key=lambda c: lps[c])


class AnomalyClassifier:
    """Pool + criticality heads, fed by :class:`PoolSystem` actions."""

    def __init__(self) -> None:
        self.pool_head = IncrementalNB()
        self.level_head = IncrementalNB()
        self._reports: dict[str, AnomalyReport] = {}

    # -- inference --------------------------------------------------------
    def classify(self, report: AnomalyReport) -> tuple[str, str]:
        """(pool, criticality) for a new report; defaults before any
        feedback are the §V initial state: default pool, low."""
        toks = report.feature_tokens()
        pool = self.pool_head.predict(toks, default=DEFAULT_POOL)
        level = self.level_head.predict(toks, default=CRITICALITY_LEVELS[0])
        return pool, level

    # -- passive training -------------------------------------------------
    def register(self, report: AnomalyReport) -> None:
        """Make the report's features available for later feedback."""
        self._reports[report.report_id] = report

    def learn_from(self, action: PoolAction) -> None:
        report = self._reports.get(action.report_id)
        if report is None:
            return
        toks = report.feature_tokens()
        if action.kind == "move":
            self.pool_head.observe(toks, action.value)
        elif action.kind == "level":
            self.level_head.observe(toks, action.value)

    def ingest(self, pools: PoolSystem, report: AnomalyReport) -> tuple[str, str]:
        """Register a new report and route it into ``pools`` by prediction;
        returns the (pool, level) used."""
        self.register(report)
        pool, level = self.classify(report)
        pools.add(report, pool=pool, criticality=level)
        return pool, level
