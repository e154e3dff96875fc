"""Spark tests for the distributed Drain (parsing.distributed)."""
import pytest

from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.parsing import distributed, metrics
from repro.parsing.distributed import (learn_templates, merge_templates, parse_distributed,
                                       parse_single_node)
from repro.parsing.preprocess import mask_variables, preprocess


@pytest.fixture(scope="module")
def stream():
    return generate(StreamSpec(n_sessions=150, n_sources=4, anomaly_rate=0.05,
                               seed=55))


@pytest.fixture(scope="module")
def parsed(spark, stream):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
    out, mapping = parse_distributed(sdf)
    return out.toPandas().sort_values("line_id").reset_index(drop=True), mapping


def test_every_line_parsed(parsed, stream):
    got, _ = parsed
    assert len(got) == len(stream)
    assert got["cluster_id"].notna().all()
    assert got["template"].notna().all()


def test_grouping_matches_single_node_quality(spark, parsed, stream):
    got, _ = parsed
    ga_dist = metrics.grouping_accuracy(stream["event_id"].tolist(),
                                        got["cluster_id"].tolist())
    single, _ = parse_single_node(spark.createDataFrame(stream[["line_id", "message"]]))
    single = single.sort_values("line_id").reset_index(drop=True)
    ga_single = metrics.grouping_accuracy(stream["event_id"].tolist(),
                                          single["cluster_id"].tolist())
    # the merge must not cost more than a few points of grouping accuracy
    assert ga_dist >= ga_single - 0.05
    assert ga_dist >= 0.9


def test_mapping_covers_all_local_templates(parsed):
    got, mapping = parsed
    global_ids = {gid for gid, _ in mapping.values()}
    assert set(got["cluster_id"]) <= global_ids


def test_mapping_templates_nonempty(parsed):
    _, mapping = parsed
    for tpl, (gid, gtpl) in mapping.items():
        assert isinstance(gid, int) and gtpl != ""


def test_global_template_count_near_gt(parsed, stream):
    got, mapping = parsed
    n_gt = stream["event_id"].nunique()
    n_global = len({gid for gid, _ in mapping.values()})
    assert n_gt <= n_global <= n_gt * 1.5


def test_deterministic_across_runs(spark, stream):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
    a, _ = parse_distributed(sdf)
    b, _ = parse_distributed(sdf)
    pa = a.toPandas().sort_values("line_id")["template"].tolist()
    pb = b.toPandas().sort_values("line_id")["template"].tolist()
    assert pa == pb


def test_single_partition_equals_single_node(spark, stream):
    # with one partition the distributed path degenerates to plain Drain
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).coalesce(1)
    dist, _ = parse_distributed(sdf)
    dist = dist.toPandas().sort_values("line_id").reset_index(drop=True)
    single, _ = parse_single_node(spark.createDataFrame(stream[["line_id", "message"]]))
    single = single.sort_values("line_id").reset_index(drop=True)
    ga = metrics.grouping_accuracy(single["cluster_id"].tolist(),
                                   dist["cluster_id"].tolist())
    assert ga == 1.0


def test_gt_template_column_replaced(spark, stream):
    # a pre-existing ground-truth `template` column must not leak through
    sdf = spark.createDataFrame(stream)  # includes GT template column
    out, _ = parse_distributed(sdf)
    assert len([c for c in out.columns if c == "template"]) == 1


def test_mask_option_runs(spark, stream):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(4)
    out, mapping = parse_distributed(sdf, preprocess=lambda m: mask_variables(preprocess(m)))
    assert out.count() == len(stream)


def test_more_partitions_than_rows(spark, stream):
    # most partitions are empty and must yield nothing, not fail
    sdf = spark.createDataFrame(stream[["line_id", "message"]].head(5)).repartition(16)
    out, _ = parse_distributed(sdf)
    assert sorted(r["line_id"] for r in out.collect()) == stream["line_id"].head(5).tolist()


def test_duplicate_line_ids_conserve_rows(spark, stream):
    dup, counts = instability.inject(stream, 0.2, kinds=("dup",), seed=5)
    assert counts["dup"] > 0 and dup["line_id"].duplicated().any()
    sdf = spark.createDataFrame(dup[["line_id", "message"]]).repartition(8)
    out, _ = parse_distributed(sdf)
    got = sorted(r["line_id"] for r in out.select("line_id").collect())
    assert got == sorted(dup["line_id"])


def test_local_templates_independent_of_arrow_batch_size(spark, stream):
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)

    def run():
        out, mapping = parse_distributed(sdf)
        pdf = out.select("line_id", "template").toPandas().sort_values("line_id")
        return set(mapping), pdf["template"].tolist()

    default = run()
    old = spark.conf.get(key)
    try:
        spark.conf.set(key, "64")
        small = run()
    finally:
        spark.conf.set(key, old)
    assert small[0] == default[0]
    assert small[1] == default[1]


@pytest.fixture
def local_parses(spark, monkeypatch):
    """An accumulator of the lines the partition-local Drain step parses."""
    parsed_lines = spark.sparkContext.accumulator(0)
    factory = distributed._local_parse_factory

    def counting_factory(*args, **kwargs):
        local_parse = factory(*args, **kwargs)

        def counted(batches):
            for pdf in local_parse(batches):
                parsed_lines.add(len(pdf))
                yield pdf

        return counted

    monkeypatch.setattr(distributed, "_local_parse_factory", counting_factory)
    return parsed_lines


def test_local_pass_parses_each_line_once(spark, stream, local_parses):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
    out, _ = parse_distributed(sdf)
    assert len(out.toPandas()) == len(stream)
    assert local_parses.value == len(stream)


def test_learning_pass_parses_each_line_once(spark, stream, local_parses):
    learn_templates(spark.createDataFrame(stream[["line_id", "message"]]).repartition(8))
    assert local_parses.value == len(stream)


def _sliced(spark, pdf, partitions):
    """``pdf``'s line ids and messages in ``partitions`` slices by position.
    A round-robin ``repartition`` would place rows by their projected
    content, so reading fewer columns could move a row to another
    partition; slicing keeps the partitions of every projection equal."""
    rows = list(zip(pdf["line_id"].tolist(), pdf["message"].tolist()))
    return spark.createDataFrame(spark.sparkContext.parallelize(rows, partitions),
                                 "line_id long, message string")


@pytest.mark.parametrize("case, partitions",
                         [("all", 1), ("all", 4), ("all", 16), ("ten", 16), ("dup", 8)])
def test_learn_templates_equals_parse_distributed_fold(spark, stream, case, partitions):
    # "ten" has more partitions than rows; "dup" repeats lines with their line_id
    dup, counts = instability.inject(stream, 0.2, kinds=("dup",), seed=5)
    assert counts["dup"] > 0
    sdf = _sliced(spark, {"all": stream, "ten": stream.head(10), "dup": dup}[case], partitions)
    tree, mapping = learn_templates(sdf)
    ref_tree, ref_mapping = merge_templates(sorted(parse_distributed(sdf)[1]))
    assert mapping == ref_mapping
    assert ([(c.cluster_id, c.template) for c in tree.clusters]
            == [(c.cluster_id, c.template) for c in ref_tree.clusters])
