"""Small-scale runs of every table runner (evaluation.tables): each table
must produce its expected rows/columns and the paper's directional claims
must hold even at test scale."""
import pytest

from repro.evaluation import tables as T


@pytest.fixture(scope="module")
def t1(spark):
    return T.run_table1(spark, n_train=400, n_test=200, n_sup=300, seed=900)


def test_table1_shape(t1):
    assert set(t1["protocol"]) == {"sequential", "seq+quant"}
    assert {"model", "training", "precision", "recall", "f1"} <= set(t1.columns)
    assert len(t1) == 16  # 8 model rows x 2 protocols


def test_table1_anomaly_free_logrobust_cannot_learn(t1):
    row = t1[(t1["model"] == "LogRobust (semantic)") &
             (t1["training"] == "anomaly-free")]
    assert (row["recall"] == 0.0).all()  # the paper's §III concern


def test_table1_monilog_catches_quant(t1):
    mixed = t1[t1["protocol"] == "seq+quant"].set_index("model")
    core = mixed.loc["MoniLog core (seq+quant)"]
    seq_only = mixed.loc["DeepLog-seq (n-gram)"]
    assert core["recall"] > seq_only["recall"]


def test_table1_sequence_models_competitive(t1):
    seq = t1[t1["protocol"] == "sequential"]
    best_seq = seq[seq["model"] == "DeepLog-seq (n-gram)"]["f1"].iloc[0]
    assert best_seq >= 0.85


@pytest.fixture(scope="module")
def t2(spark):
    return T.run_table2(spark, n_train=400, n_test=200, n_sup=300,
                        rates=(0.0, 0.2), seed=901)


def test_table2_shape(t2):
    assert set(t2["noise_rate"]) == {0.0, 0.2}
    assert len(t2) == 6


def test_table2_parse_noise_hurts_deeplog_most(t2):
    d = t2[t2["model"] == "DeepLog-seq (n-gram)"].set_index("noise_rate")["f1"]
    assert d[0.2] < d[0.0]  # closed-vocabulary fragility (§III exp. 2)
    drop_deeplog = d[0.0] - d[0.2]
    r = t2[t2["model"] == "LogRobust (semantic)"].set_index("noise_rate")["f1"]
    drop_logrobust = r[0.0] - r[0.2]
    assert drop_deeplog > drop_logrobust


@pytest.fixture(scope="module")
def t3(spark):
    return T.run_table3(spark, n_train=600, n_test=300, seed=902)


def test_table3_shape(t3):
    assert set(t3["structuring"]) == {"session", "window"}
    assert set(t3["n_sources"]) == {1, 8}
    assert len(t3) == 16


def test_table3_windowed_mixing_degrades_vs_sessionization(t3):
    # replacing session identity by time windows over the interleaved
    # stream must cost accuracy for the sequence model (the §III concern)
    d = t3[t3["model"] == "DeepLog-seq (n-gram)"]
    sess8 = d[(d["structuring"] == "session") & (d["n_sources"] == 8)]["f1"].iloc[0]
    win8 = d[(d["structuring"] == "window") & (d["n_sources"] == 8)]["f1"].iloc[0]
    assert win8 <= sess8


def test_table3_invariant_mining_collapses_without_sessions(t3):
    # measured finding (EXPERIMENTS.md T3): count invariants do not exist
    # over mixed time windows, so IM loses most of its signal there
    im = t3[t3["model"] == "Invariant Mining"]
    sess8 = im[(im["structuring"] == "session") & (im["n_sources"] == 8)]["f1"].iloc[0]
    win8 = im[(im["structuring"] == "window") & (im["n_sources"] == 8)]["f1"].iloc[0]
    assert win8 < sess8


@pytest.fixture(scope="module")
def t4(spark):
    return T.run_table4(spark, n_train=400, n_test=200, n_sup=300,
                        ratios=(0.0, 0.2), seed=903)


def test_table4_shape(t4):
    assert set(t4["instability"]) == {0.0, 0.2}
    assert t4["model"].nunique() == 6


def test_table4_instability_hurts_deeplog(t4):
    d = t4[t4["model"] == "DeepLog-seq (n-gram)"].set_index("instability")["f1"]
    assert d[0.2] < d[0.0]


def test_table4_loganomaly_matching_helps(t4):
    at20 = t4[t4["instability"] == 0.2].set_index("model")["f1"]
    assert at20["LogAnomaly"] >= at20["DeepLog-seq (n-gram)"]


@pytest.fixture(scope="module")
def t5(spark):
    return T.run_table5(spark, n_sessions=80, seed=904, spell_max_lines=400)


def test_table5_shape(t5):
    assert set(t5["preprocessing"]) == {"none", "structured", "structured+mask"}
    assert len(t5) == 15  # 5 parsers x 3 preprocessing settings


def test_table5_metrics_in_range(t5):
    for col in ("grouping_acc", "eq1_token_acc", "eq1_strict"):
        assert ((0 <= t5[col]) & (t5[col] <= 1)).all()
    assert (t5["templates"] > 0).all()


def test_table5_st_parameter_sensitivity(t5):
    # the §IV automation limit: st materially changes the template count
    sub = t5[t5["preprocessing"] == "structured"].set_index("parser")
    assert (sub.loc["Drain st=0.3", "templates"]
            != sub.loc["Drain st=0.7", "templates"])


def test_table5_structured_extraction_helps_grouping(t5):
    drain_none = t5[(t5["preprocessing"] == "none") &
                    (t5["parser"] == "Drain st=0.5")]["grouping_acc"].iloc[0]
    drain_s = t5[(t5["preprocessing"] == "structured") &
                 (t5["parser"] == "Drain st=0.5")]["grouping_acc"].iloc[0]
    assert drain_s >= drain_none


def test_table5_distributed_drain_competitive(t5):
    sub = t5[t5["preprocessing"] == "structured"].set_index("parser")
    assert (sub.loc["Distributed Drain st=0.5", "grouping_acc"]
            >= sub.loc["Drain st=0.5", "grouping_acc"] - 0.05)


@pytest.fixture(scope="module")
def t6(spark):
    return T.run_table6(spark, n_sessions=60, seed=905)


def test_table6_shape(t6):
    assert set(t6["json_extraction"]) == {False, True}


def test_table6_extraction_shortens_and_helps(t6):
    off = t6[~t6["json_extraction"]].iloc[0]
    on = t6[t6["json_extraction"]].iloc[0]
    assert on["mean_tokens"] < off["mean_tokens"]
    assert on["grouping_acc"] >= off["grouping_acc"]
    assert on["templates_found"] <= off["templates_found"]
    assert 0.3 <= on["structured_token_share"] <= 0.8  # the ~60% §IV claim


@pytest.fixture(scope="module")
def t7(spark):
    return T.run_table7(spark, n_sessions=1200, feedback_counts=(0, 50, 200),
                        seed=906)


def test_table7_shape(t7):
    assert list(t7["feedback_actions"]) == [0, 50, 200]


def test_table7_feedback_improves_accuracy(t7):
    acc = t7.set_index("feedback_actions")
    assert acc.loc[200, "pool_accuracy"] > acc.loc[0, "pool_accuracy"]
    assert acc.loc[200, "pool_accuracy"] >= 0.9
    assert acc.loc[200, "criticality_accuracy"] > acc.loc[0, "criticality_accuracy"]
