"""LogClustering (Lin et al., ICSE-C'16) — the paper's third
counter-based baseline (§III).

Normal sessions' TF-IDF count vectors are clustered (greedy online
agglomeration under a cosine-distance threshold, the knowledge-base
construction of the original system); a test session is anomalous when
its distance to the nearest cluster representative exceeds the
threshold — i.e. it resembles no known normal behaviour.
"""
from __future__ import annotations

import numpy as np

from repro.detect.sequences import idf


def _cosine_dist(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0 if na < 1e-12 and nb < 1e-12 else 1.0
    return 1.0 - float(a @ b) / float(na * nb)


class LogClusterDetector:
    def __init__(self, *, threshold: float = 0.1) -> None:
        if not 0 < threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold
        self._idf: np.ndarray | None = None
        self.centroids: list[np.ndarray] = []
        self._sizes: list[int] = []

    def fit(self, X: np.ndarray) -> "LogClusterDetector":
        """Build the normal-behaviour knowledge base from normal counts,
        replacing the IDF weights and clusters of any earlier fit."""
        self._idf = idf(X)
        self.centroids, self._sizes = [], []
        for x in X * self._idf:
            best, best_d = -1, np.inf
            for c, cent in enumerate(self.centroids):
                dist = _cosine_dist(x, cent)
                if dist < best_d:
                    best, best_d = c, dist
            if best >= 0 and best_d <= self.threshold:
                n = self._sizes[best]
                self.centroids[best] = (self.centroids[best] * n + x) / (n + 1)
                self._sizes[best] = n + 1
            else:
                self.centroids.append(x.copy())
                self._sizes.append(1)
        return self

    def scores(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for r, x in enumerate(X * self._idf):
            out[r] = min((_cosine_dist(x, c) for c in self.centroids), default=1.0)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.scores(X) > self.threshold).astype(np.int64)
