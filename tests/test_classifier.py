"""Unit tests for the §V passively-trained classifier (classify.classifier)."""
from repro.classify.classifier import AnomalyClassifier, IncrementalNB
from repro.classify.pools import DEFAULT_POOL, PoolSystem, make_report


def test_nb_empty_predicts_default():
    nb = IncrementalNB()
    assert nb.predict(["x"], default="d") == "d"
    assert nb.predict(["x"]) is None


def test_nb_learns_simple_split():
    nb = IncrementalNB()
    for _ in range(5):
        nb.observe(["net", "timeout"], "network")
        nb.observe(["disk", "full"], "storage")
    assert nb.predict(["net", "timeout"]) == "network"
    assert nb.predict(["disk"]) == "storage"


def test_nb_incremental_updates_shift_prediction():
    nb = IncrementalNB()
    nb.observe(["tok"], "a")
    assert nb.predict(["tok"]) == "a"
    for _ in range(5):
        nb.observe(["tok"], "b")
    assert nb.predict(["tok"]) == "b"


def test_nb_posteriors_are_finite_logs():
    nb = IncrementalNB()
    nb.observe(["a"], "x")
    lps = nb.log_posteriors(["a", "never-seen"])
    assert all(lp < 0 for lp in lps.values())


def test_nb_tie_break_deterministic():
    nb = IncrementalNB()
    nb.observe(["t"], "b")
    nb.observe(["t"], "a")
    assert nb.predict(["t"]) == nb.predict(["t"])


def _net_report(i):
    return make_report(f"n{i}", "net", ["net.4"], ["ERROR"], "seq")


def _sto_report(i):
    return make_report(f"s{i}", "sto", ["sto.4"], ["ERROR"], "seq")


def test_classifier_defaults_before_feedback():
    clf = AnomalyClassifier()
    pool, level = clf.classify(_net_report(0))
    assert pool == DEFAULT_POOL and level == "low"


def test_classifier_learns_from_pool_moves():
    clf = AnomalyClassifier()
    pools = PoolSystem()
    pools.create_pool("network")
    pools.create_pool("storage")
    for i in range(5):
        r = _net_report(i)
        clf.register(r)
        pools.add(r)
        clf.learn_from(pools.move(r.report_id, "network"))
        r2 = _sto_report(i)
        clf.register(r2)
        pools.add(r2)
        clf.learn_from(pools.move(r2.report_id, "storage"))
    assert clf.classify(_net_report(99))[0] == "network"
    assert clf.classify(_sto_report(99))[0] == "storage"


def test_classifier_learns_criticality_edits():
    clf = AnomalyClassifier()
    pools = PoolSystem()
    for i in range(5):
        r = _net_report(i)
        clf.register(r)
        pools.add(r)
        clf.learn_from(pools.set_criticality(r.report_id, "high"))
    assert clf.classify(_net_report(99))[1] == "high"


def test_unregistered_action_ignored():
    clf = AnomalyClassifier()
    pools = PoolSystem()
    r = _net_report(0)
    pools.add(r)
    clf.learn_from(pools.set_criticality(r.report_id, "high"))  # not registered
    assert clf.classify(_net_report(1))[1] == "low"


def test_ingest_routes_by_prediction():
    clf = AnomalyClassifier()
    pools = PoolSystem()
    r = _net_report(0)
    pool, level = clf.ingest(pools, r)
    assert pool == DEFAULT_POOL
    assert pools.location(r.report_id) == DEFAULT_POOL
