"""Unit tests for the counter-based baselines (PCA, IM, LogClustering)."""
import numpy as np
import pytest

from repro.detect.invariants import Invariant, InvariantMiner
from repro.detect.logcluster import LogClusterDetector, _cosine_dist
from repro.detect.pca import PCADetector


def _normal_counts(n=200, seed=0):
    """Sessions of two flow shapes: [1,3,3,3,1] and [1,2,2,2,0] counts."""
    g = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        if g.random() < 0.5:
            rows.append([1, 3, 3, 3, 1])
        else:
            rows.append([1, 2, 2, 2, 0])
    return np.asarray(rows, dtype=float)


# ---- PCA -----------------------------------------------------------------

def test_pca_normal_not_flagged():
    X = _normal_counts()
    det = PCADetector().fit(X)
    assert det.predict(X[:20]).sum() == 0


def test_pca_flags_structural_break():
    X = _normal_counts()
    det = PCADetector().fit(X)
    broken = np.array([[1, 3, 0, 3, 1]], dtype=float)  # missing acks
    assert det.predict(broken)[0] == 1


def test_pca_scores_monotone_in_deviation():
    X = _normal_counts()
    det = PCADetector().fit(X)
    mild = np.array([[1, 3, 2, 3, 1]], dtype=float)
    wild = np.array([[1, 3, 0, 9, 1]], dtype=float)
    assert det.scores(wild)[0] > det.scores(mild)[0]


# ---- Invariant Mining ----------------------------------------------------

def test_im_finds_equality_invariants():
    X = _normal_counts()
    miner = InvariantMiner().fit(X)
    pairs = {(i.i, i.j) for i in miner.invariants if i.kind == "pair"}
    # columns 1,2,3 are always pairwise equal
    assert (1, 2) in pairs and (2, 3) in pairs


def test_im_normal_sessions_pass():
    X = _normal_counts()
    miner = InvariantMiner().fit(X)
    assert miner.predict(X[:30]).sum() == 0


def test_im_violation_flagged():
    X = _normal_counts()
    miner = InvariantMiner().fit(X)
    assert miner.predict(np.array([[1, 3, 1, 3, 1]], dtype=float))[0] == 1


def test_im_vacuous_pair_holds():
    inv = Invariant("pair", 0, 1, a=1, b=1, tol=0)
    assert inv.holds(np.array([0.0, 0.0]))
    assert not inv.holds(np.array([2.0, 0.0]))


def test_im_const_invariant():
    X = np.tile([4.0, 1.0], (30, 1))
    X[:, 1] = np.arange(30) % 3 + 1
    miner = InvariantMiner().fit(X)
    consts = [i for i in miner.invariants if i.kind == "const"]
    assert any(i.i == 0 and i.k == 4.0 for i in consts)
    assert miner.violations(np.array([9.0, 1.0])) > 0


def test_im_tolerance_absorbs_rare_residuals():
    # 1% of training rows deviate by 1 -> quantile tolerance keeps the
    # invariant usable without flagging that deviation
    X = np.tile([2.0, 2.0], (200, 1))
    X[:2, 0] = 3.0
    miner = InvariantMiner().fit(X)
    assert miner.predict(np.array([[3.0, 2.0]], dtype=float))[0] == 0
    assert miner.predict(np.array([[6.0, 2.0]], dtype=float))[0] == 1


# ---- LogClustering -------------------------------------------------------

def test_lc_validation():
    with pytest.raises(ValueError):
        LogClusterDetector(threshold=0.0)
    with pytest.raises(ValueError):
        LogClusterDetector(threshold=1.0)


def test_cosine_dist_edges():
    z = np.zeros(3)
    v = np.array([1.0, 0, 0])
    assert _cosine_dist(z, z) == 0.0
    assert _cosine_dist(z, v) == 1.0
    assert _cosine_dist(v, v) == pytest.approx(0.0)
    assert _cosine_dist(v, np.array([0, 1.0, 0])) == pytest.approx(1.0)


def test_lc_builds_knowledge_base():
    X = _normal_counts()
    det = LogClusterDetector().fit(X)
    assert det.n_clusters() >= 1
    assert det.predict(X[:30]).sum() == 0


def test_lc_flags_far_vector():
    X = _normal_counts()
    det = LogClusterDetector().fit(X)
    weird = np.array([[0, 0, 0, 0, 50]], dtype=float)
    assert det.predict(weird)[0] == 1


def test_lc_threshold_sensitivity():
    X = _normal_counts()
    mild = np.array([[1, 3, 3, 4, 1]], dtype=float)
    loose = LogClusterDetector(threshold=0.5).fit(X)
    tight = LogClusterDetector(threshold=0.001).fit(X)
    assert loose.predict(mild)[0] == 0
    assert tight.predict(mild)[0] == 1


def test_lc_centroid_update():
    det = LogClusterDetector(threshold=0.3)
    det.fit(np.array([[1.0, 0.0], [1.0, 0.1]]))
    assert det.n_clusters() == 1
    assert det._sizes[0] == 2
