"""Invariant Mining (Lou et al., USENIX ATC'10) — the paper's second
counter-based baseline (§III).

Program flows impose linear relations among event counts: every
"Receiving block" is followed by one "Received block", so
``c(receive) - c(received) = 0`` holds in every normal session. The
miner searches sparse integer invariants over event-count columns:

* pairwise: ``a*c_i - b*c_j = 0`` with small integer ratio a:b,
* constant: ``c_i = k`` whenever an event occurs a fixed count.

Only events seen in at least :data:`MIN_OCCURRENCES` normal sessions are
mined; an invariant is kept when it holds in at least :data:`SUPPORT` of
the normal sessions where either event occurs. A test session is anomalous
iff it violates any mined invariant — order-insensitive, which is why
§III expects the counter family to resist multi-source mixing (T3).
"""
from __future__ import annotations

import dataclasses
from itertools import combinations

import numpy as np

_RATIOS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
SUPPORT = 0.98  # share of the sessions with either event a pair must hold in
MIN_OCCURRENCES = 5  # fewest sessions with the event(s) to mine from
TOL_QUANTILE = 0.995  # normal-session residual quantile a pair tolerates


@dataclasses.dataclass(frozen=True)
class Invariant:
    kind: str           # "pair" or "const"
    i: int              # event column
    j: int = -1         # second event column ("pair")
    a: int = 1
    b: int = 1
    k: float = 0.0      # constant value ("const")
    tol: float = 0.0    # max |residual| seen in normal training sessions

    def holds(self, x: np.ndarray) -> bool:
        if self.kind == "pair":
            if x[self.i] == 0 and x[self.j] == 0:
                return True  # vacuous: neither event occurred
            return abs(self.a * x[self.i] - self.b * x[self.j]) <= self.tol
        if x[self.i] == 0:
            return True
        return abs(x[self.i] - self.k) <= self.tol


class InvariantMiner:
    def __init__(self) -> None:
        self.invariants: list[Invariant] = []

    def fit(self, X: np.ndarray) -> "InvariantMiner":
        """Mine invariants from normal-session counts (n x d)."""
        n, d = X.shape
        self.invariants = []
        occurs = X > 0
        for i in range(d):
            rows = occurs[:, i]
            if rows.sum() < MIN_OCCURRENCES:
                continue
            vals = np.unique(X[rows, i])
            if len(vals) == 1:
                self.invariants.append(Invariant("const", i, k=float(vals[0])))
        for i, j in combinations(range(d), 2):
            rows = occurs[:, i] | occurs[:, j]
            m = int(rows.sum())
            if m < MIN_OCCURRENCES:
                continue
            xi, xj = X[rows, i], X[rows, j]
            for a, b in _RATIOS:
                resid = np.abs(a * xi - b * xj)
                ok = float((resid == 0).mean())
                if ok >= SUPPORT:
                    # tolerance = residual bound covering TOL_QUANTILE of
                    # *normal* sessions (benign rare flows, e.g. retries,
                    # must mostly not alarm; true deviations exceed it)
                    tol = float(np.quantile(resid, TOL_QUANTILE))
                    self.invariants.append(
                        Invariant("pair", i, j, a=a, b=b, tol=tol))
                    break
        return self

    def violations(self, x: np.ndarray) -> int:
        return sum(0 if inv.holds(x) else 1 for inv in self.invariants)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray([int(self.violations(x) > 0) for x in X], dtype=np.int64)
