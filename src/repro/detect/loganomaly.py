"""LogAnomaly-style detection (Meng et al., IJCAI'19).

LogAnomaly's answer to template instability (§III): most new templates
are minor variants of existing ones, so at inference time an unseen
template is *matched* to its most similar known template (template2vec
similarity) and the sequential/quantitative LSTMs then operate on the
closed vocabulary. Substitution (DESIGN.md S11): similarity is cosine
over the same semantic vectors as S10 (with a token-Jaccard tie-break),
the sequential model is the S8 n-gram with DeepLog's top-g rule, and
the quantitative part models per-event window counts with robust
z-scores (template-count vectors, LogAnomaly's "quantitative pattern").

The matcher is the measured variable: with it, a twisted template maps
back onto the trained flow (T4's expected LogAnomaly advantage over
DeepLog); without a close-enough match (similarity < :data:`MIN_SIM`),
the event stays unknown and is flagged by the n-gram model. A window
count more than :data:`Z_K` robust deviations from its training mean is
a quantitative anomaly.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.detect.ngram import NGramDetector
from repro.detect.semantic import SemanticVectorizer, _subtokens

MIN_SIM = 0.5  # least cosine similarity of a matched template
Z_K = 8.0  # deviations (floored at 0.5) an event's count may stray from its mean


def _jaccard(a: str, b: str) -> float:
    sa = set(w for t in a.split() for w in _subtokens(t))
    sb = set(w for t in b.split() for w in _subtokens(t))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


class TemplateMatcher:
    """Map an unseen template's id onto the nearest trained event id."""

    def __init__(self) -> None:
        self.vec = SemanticVectorizer()
        self._known: dict[str, str] = {}  # event_id -> template text
        self._vecs: dict[str, np.ndarray] = {}
        self._cache: dict[str, str | None] = {}

    def fit(self, id_to_template: Mapping[str, str]) -> "TemplateMatcher":
        """Learn the known templates, forgetting every earlier match."""
        self._known = dict(id_to_template)
        self.vec.fit(self._known.values())
        self._vecs = {eid: self.vec.transform(t) for eid, t in self._known.items()}
        self._cache = {}
        return self

    def match(self, event_id: str, template: str | None) -> str | None:
        """Known ids map to themselves; unknown ids map to the most
        similar known template's id, or None below :data:`MIN_SIM`."""
        if event_id in self._known:
            return event_id
        if template is None:
            return None
        hit = self._cache.get(template, "__miss__")
        if hit != "__miss__":
            return hit
        v = self.vec.transform(template)
        best, best_sim = None, -1.0
        for eid, kv in self._vecs.items():
            sim = float(v @ kv)
            if sim > best_sim:
                best, best_sim = eid, sim
        if best is not None and best_sim < MIN_SIM:
            best = None
        if best is not None and _jaccard(template, self._known[best]) == 0.0:
            best = None  # cosine fluke with zero shared words
        self._cache[template] = best
        return best


class LogAnomalyDetector:
    """Sequential (matched n-gram) + quantitative (count z-score) model."""

    def __init__(self, *, h: int = 4, g: int = 9) -> None:
        self.seq = NGramDetector(h=h, g=g)
        self.matcher = TemplateMatcher()
        self._count_mu: dict[str, float] = {}
        self._count_sd: dict[str, float] = {}

    def fit(self, sequences: Sequence[Sequence[str]],
            id_to_template: Mapping[str, str]) -> "LogAnomalyDetector":
        """Train on normal sequences (anomaly-free regime) plus the
        trained template catalogue for matching; a refit replaces every
        learned table."""
        self.seq.fit(sequences)
        self.matcher.fit(id_to_template)
        per_event: dict[str, list[float]] = {}
        for seq in sequences:
            counts: dict[str, float] = {}
            for e in seq:
                counts[e] = counts.get(e, 0.0) + 1.0
            for e in self.seq.vocab:
                per_event.setdefault(e, []).append(counts.get(e, 0.0))
        self._count_mu = {e: float(np.mean(xs)) for e, xs in per_event.items()}
        self._count_sd = {e: float(np.std(xs)) for e, xs in per_event.items()}
        return self

    def _map_sequence(self, seq: Sequence[str],
                      templates: Mapping[str, str] | None) -> list[str]:
        out = []
        for e in seq:
            m = self.matcher.match(e, templates.get(e) if templates else None)
            out.append(m if m is not None else e)
        return out

    def is_anomalous(self, seq: Sequence[str],
                     templates: Mapping[str, str] | None = None) -> bool:
        """``templates`` maps (possibly unseen) event ids in ``seq`` to
        their template text, enabling the matching step."""
        mapped = self._map_sequence(seq, templates)
        if self.seq.is_anomalous(mapped):
            return True
        counts: dict[str, float] = {}
        for e in mapped:
            counts[e] = counts.get(e, 0.0) + 1.0
        for e, c in counts.items():
            mu, sd = self._count_mu.get(e), self._count_sd.get(e)
            if mu is None:
                continue
            if abs(c - mu) > Z_K * max(sd, 0.5):
                return True
        return False

    def predict(self, sequences: Iterable[Sequence[str]],
                templates: Mapping[str, str] | None = None) -> list[int]:
        return [int(self.is_anomalous(s, templates)) for s in sequences]
