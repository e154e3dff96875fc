"""LogRobust-style detection via semantic vectorization (Zhang et al.,
ESEC/FSE'19).

LogRobust answers log instability by encoding each template as a
fixed-length *semantic vector* built from its tokens, so a new or
modified template embeds without resizing the model, then classifies the
sequence with an attention-based Bi-LSTM trained *supervised* (their
datasets are ~50% anomalous).

Substitution (DESIGN.md S10): token embeddings are deterministic random
projections (random indexing — a standard drop-in when no pretrained
word vectors are available), template vectors are TF-IDF-weighted token
means, a session is the concatenation of mean- and max-pooled template
vectors, and the classifier is L2-regularised logistic regression
(:data:`L2`), trained by :data:`EPOCHS` full-batch gradient steps of
size :data:`LR`. The
representation (token-level semantics, fixed dimension, supervised
sequence classification) is the property under test in T1/T2/T4.

The anomaly-free regime of §III experiment 1 is representable: ``fit``
with single-class labels yields the degenerate always-that-class
classifier, quantifying the paper's concern that supervised approaches
need anomalies in training.
"""
from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
L2 = 1e-3  # logistic regression's L2 penalty
LR = 0.5  # gradient step size
EPOCHS = 300  # full-batch gradient steps


def _subtokens(token: str) -> list[str]:
    """Split a template token into word units (camelCase, punctuation),
    drop pure numbers and wildcards — LogRobust's token normalisation."""
    token = token.replace("<*>", " ")
    token = _CAMEL.sub(" ", token)
    parts = re.split(r"[^A-Za-z]+", token)
    return [p.lower() for p in parts if p and not p.isdigit()]


def token_vector(token: str, d: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector for a word (seeded by a
    stable hash, so driver and executors agree)."""
    seed = int.from_bytes(hashlib.sha1(token.encode()).digest()[:4], "little")
    g = np.random.default_rng(seed)
    v = g.standard_normal(d)
    return v / (np.linalg.norm(v) + 1e-12)


class SemanticVectorizer:
    """Template -> fixed-length vector via TF-IDF-weighted token vectors."""

    def __init__(self, d: int = 32) -> None:
        self.d = d
        self._idf: dict[str, float] = {}
        self._n_docs = 0
        self._cache: dict[str, np.ndarray] = {}

    def fit(self, templates: Iterable[str]) -> "SemanticVectorizer":
        """Learn the IDF weights, forgetting every earlier template vector."""
        docs = [set(w for t in tpl.split() for w in _subtokens(t)) for tpl in templates]
        self._n_docs = len(docs)
        df = Counter(w for doc in docs for w in doc)
        self._idf = {w: math.log((1 + self._n_docs) / (1 + c)) + 1.0 for w, c in df.items()}
        self._cache = {}
        return self

    def transform(self, template: str) -> np.ndarray:
        cached = self._cache.get(template)
        if cached is not None:
            return cached
        words = [w for t in template.split() for w in _subtokens(t)]
        if not words:
            v = np.zeros(self.d)
        else:
            tf = Counter(words)
            # out-of-vocabulary words carry no trained semantics (their
            # projection is noise), so they get the *minimum* weight — this
            # is what makes the representation robust to junk tokens from
            # parsing errors and twisted statements (§III instability)
            default_idf = 1.0
            acc = np.zeros(self.d)
            for w, c in tf.items():
                acc += (c / len(words)) * self._idf.get(w, default_idf) * token_vector(w, self.d)
            n = np.linalg.norm(acc)
            v = acc / n if n > 1e-12 else acc
        self._cache[template] = v
        return v


def _session_features(seq_templates: Sequence[str], vec: SemanticVectorizer) -> np.ndarray:
    """Session representation standing in for the attention Bi-LSTM:
    mean/max/sum-pooled template vectors, mean-pooled *bigram* vectors
    (order sensitivity) and the sequence length. Dimension ``4d + 1``."""
    d = vec.d
    if not seq_templates:
        return np.zeros(4 * d + 1)
    M = np.stack([vec.transform(t) for t in seq_templates])
    if len(seq_templates) > 1:
        # bigram vector = elementwise product of consecutive template
        # vectors; its mean shifts whenever an unusual transition appears
        B = (M[:-1] * M[1:]).mean(axis=0)
    else:
        B = np.zeros(d)
    return np.concatenate([
        M.mean(axis=0), M.max(axis=0), M.sum(axis=0) / 10.0, B,
        np.array([float(len(seq_templates))]),
    ])


class SemanticDetector:
    """Supervised sequence classifier over semantic session features."""

    def __init__(self, *, d: int = 32) -> None:
        self.vec = SemanticVectorizer(d)
        self.w: np.ndarray | None = None
        self.b = 0.0
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None
        self.single_class: int | None = None

    def _featurize(self, sequences: Sequence[Sequence[str]]) -> np.ndarray:
        return np.stack([_session_features(s, self.vec) for s in sequences])

    def fit(self, sequences: Sequence[Sequence[str]], labels: Sequence[int]) -> "SemanticDetector":
        """``sequences`` are per-session *template text* sequences;
        ``labels`` 1 = anomalous. A single-class training set (the
        anomaly-free regime) produces the degenerate constant model. A
        refit replaces every learned value."""
        y = np.asarray(labels, dtype=np.float64)
        self.vec.fit({t for s in sequences for t in s})
        self.w, self.b, self._mu, self._sigma, self.single_class = None, 0.0, None, None, None
        if len(set(y.tolist())) < 2:
            self.single_class = int(y[0]) if len(y) else 0
            return self
        X = self._featurize(sequences)
        self._mu = X.mean(axis=0)
        # floor the per-feature scale at 10% of the global feature scale:
        # a feature that is near-constant in training would otherwise turn
        # any test-time perturbation (junk tokens from parse errors) into
        # a many-sigma shift and flip the decision
        self._sigma = np.maximum(X.std(axis=0), 0.1 * float(X.std()) + 1e-9)
        Xn = (X - self._mu) / self._sigma
        n, d = Xn.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(EPOCHS):  # full-batch gradient descent
            z = Xn @ w + b
            p = 1.0 / (1.0 + np.exp(-z))
            gw = Xn.T @ (p - y) / n + L2 * w
            gb = float(np.mean(p - y))
            w -= LR * gw
            b -= LR * gb
        self.w, self.b = w, b
        return self

    def decision(self, seq_templates: Sequence[str]) -> float:
        if self.single_class is not None:
            return 1.0 if self.single_class == 1 else -1.0
        x = _session_features(seq_templates, self.vec)
        xn = (x - self._mu) / self._sigma
        return float(xn @ self.w + self.b)

    def predict(self, sequences: Iterable[Sequence[str]]) -> list[int]:
        return [int(self.decision(s) > 0) for s in sequences]
