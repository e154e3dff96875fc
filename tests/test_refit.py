"""A refit replaces every learned value: each baseline and MoniLog model,
fitted on one training set and used, then fitted on another, predicts and
scores as a fresh fit on the second."""
import numpy as np
import pytest

from repro.detect.invariants import InvariantMiner
from repro.detect.logcluster import LogClusterDetector
from repro.detect.loganomaly import LogAnomalyDetector
from repro.detect.ngram import NGramDetector
from repro.detect.pca import PCADetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.semantic import SemanticDetector


def _counts(seed, shapes):
    """200 session count vectors, each one of ``shapes``."""
    g = np.random.default_rng(seed)
    return np.asarray([shapes[i] for i in g.integers(0, len(shapes), 200)], dtype=float)


COUNTS_A = _counts(1, [[0, 1, 1, 0, 2], [3, 0, 1, 1, 0]])
COUNTS_B = _counts(2, [[1, 3, 3, 3, 1], [1, 2, 2, 2, 0]])
PROBE_COUNTS = np.vstack([COUNTS_A[:5], COUNTS_B[:5],
                          [[1, 3, 0, 3, 1], [1, 3, 3, 4, 1], [0, 0, 0, 0, 50]]])

NORMAL = [["Opening link", "Sending data ok", "Closing link"]] * 40
ANOM = [["Opening link", "Failure writing data", "Closing link"]] * 40
PROBE_TEXTS = [ANOM[0], NORMAL[0], ["Opening link", "Failure writing records", "Closing link"]]

IDS_A = {"a.open": "Opening connection to <*>", "a.send": "Sending <*> bytes to <*>",
         "a.close": "Closing connection to <*>"}
IDS_B = {"e.open": "Opening connection to <*>", "e.send": "Sending <*> bytes to <*>",
         "e.close": "Closing connection to <*>"}
TWIST = {"x.send": "Dispatching <*> bytes to <*>"}  # matches a.send, then e.send


def _counter_probe(m, X):
    return m.predict(X), m.scores(X)


# (model factory, training set A, its probe, training set B, its probe, probe)
CASES = {
    "pca": (PCADetector, (COUNTS_A,), PROBE_COUNTS, (COUNTS_B,), PROBE_COUNTS, _counter_probe),
    "logcluster": (LogClusterDetector, (COUNTS_A,), PROBE_COUNTS, (COUNTS_B,), PROBE_COUNTS,
                   _counter_probe),
    "invariants": (InvariantMiner, (COUNTS_A,), PROBE_COUNTS, (COUNTS_B,), PROBE_COUNTS,
                   lambda m, X: (m.predict(X), [m.violations(x) for x in X])),
    "semantic": (lambda: SemanticDetector(d=16), (NORMAL, [0] * 40), PROBE_TEXTS,
                 (NORMAL + ANOM, [0] * 40 + [1] * 40), PROBE_TEXTS,
                 lambda m, seqs: (m.predict(seqs), [m.decision(s) for s in seqs])),
    "loganomaly": (LogAnomalyDetector,
                   ([["a.open", "a.send", "a.close"]] * 50, IDS_A),
                   ([["a.open", "x.send", "a.close"]], {**IDS_A, **TWIST}),
                   ([["e.open", "e.send", "e.send", "e.close"]] * 50, IDS_B),
                   ([["e.open", "x.send", "e.send", "e.close"], ["e.open", "e.close"],
                     ["e.open"] + ["e.send"] * 40 + ["e.close"]], {**IDS_B, **TWIST}),
                   lambda m, probe: m.predict(*probe)),
    "ngram": (NGramDetector, ([["a", "b", "c"]] * 10,), [["a", "b", "c"]],
              ([["x", "y"], ["x", "z", "y"]] * 5,), [["x", "y"], ["a", "b", "c"], ["x"]],
              lambda m, seqs: [m.window_flags(s) for s in seqs]),
    "value_range": (ValueRangeDetector, ([("t", ["5"])] * 10,), [("t", ["5"])],
                    ([("t", [str(100 + i)]) for i in range(10)],),
                    [("t", ["5"]), ("t", ["104"]), ("t", ["5000"])],
                    lambda m, lines: [m.line_flag(e, v) for e, v in lines]),
}


@pytest.mark.parametrize("case", CASES)
def test_refit_equals_fresh_fit(case):
    make, train_a, probe_a, train_b, probe_b, probe = CASES[case]
    refit = make().fit(*train_a)
    probe(refit, probe_a)  # fill any cache the model keeps between calls
    refit.fit(*train_b)
    np.testing.assert_equal(probe(refit, probe_b), probe(make().fit(*train_b), probe_b))
