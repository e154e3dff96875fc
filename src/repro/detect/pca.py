"""PCA-based anomaly detection over event-count vectors (Xu et al.,
SOSP'09) — the paper's first counter-based baseline (§III).

Sessions become TF-IDF-weighted event-count vectors; PCA on *normal*
training vectors yields a principal subspace capturing :data:`VARIANCE`
of the energy; a session is anomalous when the squared norm of its
residual projection (the Q-statistic / SPE) exceeds a threshold set at
the :data:`Q_QUANTILE` of training residuals (the classical
chi-square-like calibration, made distribution-free).
"""
from __future__ import annotations

import numpy as np

from repro.detect.sequences import idf

VARIANCE = 0.95  # share of the training energy the principal subspace keeps
Q_QUANTILE = 0.995  # training residual quantile that sets the threshold


class PCADetector:
    def __init__(self) -> None:
        self._idf: np.ndarray | None = None
        self._mu: np.ndarray | None = None
        self._P: np.ndarray | None = None  # principal components (d x k)
        self.threshold: float = 0.0

    def fit(self, X: np.ndarray) -> "PCADetector":
        """``X``: normal-session count matrix (n x d, fixed vocabulary).
        Every learned value, the IDF weights included, is replaced."""
        self._idf = idf(X)
        Xw = X * self._idf
        self._mu = Xw.mean(axis=0)
        # SVD of the centred matrix; keep components reaching VARIANCE
        _, s, Vt = np.linalg.svd(Xw - self._mu, full_matrices=False)
        energy = np.cumsum(s**2) / max(float((s**2).sum()), 1e-12)
        k = min(int(np.searchsorted(energy, VARIANCE) + 1), Vt.shape[0])
        self._P = Vt[:k].T
        self.threshold = float(np.quantile(self.scores(X), Q_QUANTILE)) + 1e-9
        return self

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Each row's squared residual off the principal subspace (SPE)."""
        Z = X * self._idf - self._mu
        R = Z - Z @ self._P @ self._P.T
        return (R * R).sum(axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.scores(X) > self.threshold).astype(np.int64)
