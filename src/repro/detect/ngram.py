"""DeepLog-style sequential anomaly detection (Du et al., CCS'17).

DeepLog trains an LSTM on *normal* execution only and flags a window
whose actual next event is not among the model's top-``g`` predicted
candidates. The substitution here (DESIGN.md S8: no DL framework in the
container) keeps that exact detection rule and training regime but
replaces the LSTM with a backoff **n-gram next-event model**: the
conditional next-event distribution given the last ``h`` events, falling
back to shorter histories when unseen. On workflow-generated logs the
conditional distribution *is* the flow graph, so the model class is
sufficient for every trend the paper's experiments probe.

Vocabulary is closed-world (the §III critique this paper levels at
DeepLog): an event id never seen in training has no history entry and is
flagged through the backoff miss — which is precisely why instability
(T4) and parsing errors (T2) hurt this detector.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Iterator, Sequence

BOS = "<s>"
EOS = "</s>"


class NGramDetector:
    """Backoff n-gram next-event predictor with DeepLog's top-g rule.

    Every session ends with an end-of-session marker (EOS), so that a
    *silently truncated* flow (session ends mid-flow with no error logged)
    is caught: the model expects the flow's continuation, sees EOS instead.
    """

    def __init__(self, *, h: int = 4, g: int = 9) -> None:
        if h < 1:
            raise ValueError("history length h must be >= 1")
        if g < 1:
            raise ValueError("candidate count g must be >= 1")
        self.h = h
        self.g = g
        # order k history tuple -> its top-g next events, built by fit
        self._top: list[dict[tuple, list[str]]] = [{} for _ in range(h)]
        self.vocab: set[str] = set()

    # -- training ---------------------------------------------------------
    def fit(self, sequences: Iterable[Sequence[str]]) -> "NGramDetector":
        """Train on normal sequences only (the anomaly-free regime of the
        paper's §III experiment 1), replacing any earlier fit. The counts
        are ranked once, so the model keeps only each known history's
        top-g candidates and scoring only looks them up."""
        # order k history tuple -> Counter of next events, for k in 1..h
        tables: list[dict[tuple, Counter]] = [defaultdict(Counter) for _ in range(self.h)]
        vocab: set[str] = set()
        for seq in sequences:
            padded = [BOS] * self.h + list(seq) + [EOS]
            vocab.update(seq)
            vocab.add(EOS)
            for i in range(self.h, len(padded)):
                nxt = padded[i]
                for k in range(1, self.h + 1):
                    hist = tuple(padded[i - k:i])
                    tables[k - 1][hist][nxt] += 1
        self._top = [{hist: [e for e, _ in counter.most_common(self.g)]
                      for hist, counter in table.items()} for table in tables]
        self.vocab = vocab
        return self

    # -- scoring ----------------------------------------------------------
    def _top_g(self, hist: tuple) -> list[str] | None:
        """Top-g candidates for the longest known history suffix; None if
        even the unigram context is unknown."""
        for k in range(len(hist), 0, -1):
            cands = self._top[k - 1].get(hist[-k:])
            if cands:
                return cands
        return None

    def _flags(self, seq: Sequence[str]) -> Iterator[bool]:
        padded = [BOS] * self.h + list(seq) + [EOS]
        for i in range(self.h, len(padded)):
            nxt = padded[i]
            if nxt not in self.vocab:
                yield True  # unseen event id: outside the model's world
                continue
            cands = self._top_g(tuple(padded[i - self.h:i]))
            yield cands is None or nxt not in cands

    def is_anomalous(self, seq: Sequence[str]) -> bool:
        """DeepLog's session rule: anomalous iff any window is flagged; it
        stops at the first flagged window."""
        return any(self._flags(seq))

    def predict(self, sequences: Iterable[Sequence[str]]) -> list[int]:
        return [int(self.is_anomalous(s)) for s in sequences]
