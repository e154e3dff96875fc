"""Unit tests for the Drain parser (parsing.drain)."""
import numpy as np
import pytest

from repro.loggen.generator import StreamSpec, generate
from repro.parsing.drain import (WILDCARD, Cluster, Drain, extract_variables,
                                 tokenize, _similarity)


def test_tokenize_collapses_spaces():
    assert tokenize("a  b c ") == ["a", "b", "c"]


@pytest.mark.parametrize("tmpl,toks,expect", [
    (["a", "b"], ["a", "b"], 1.0),
    (["a", "b"], ["a", "c"], 0.5),
    (["a", WILDCARD], ["a", "zzz"], 1.0),
    (["a"], ["a", "b"], 0.0),      # length mismatch
    ([], [], 1.0),
])
def test_similarity(tmpl, toks, expect):
    assert _similarity(tmpl, toks) == expect


def test_constructor_validation():
    with pytest.raises(ValueError):
        Drain(depth=2)
    with pytest.raises(ValueError):
        Drain(st=0.0)
    with pytest.raises(ValueError):
        Drain(st=1.5)


def test_same_template_same_cluster():
    d = Drain()
    c1, _ = d.parse("Sending 138 bytes src: 10.0.0.1 dest: /10.0.0.2")
    c2, _ = d.parse("Sending 999 bytes src: 10.0.0.3 dest: /10.0.0.4")
    assert c1 == c2
    assert d.n_templates() == 1


def test_merge_generalises_to_wildcard():
    d = Drain()
    d.parse("Sending 138 bytes src: a dest: b")
    _, tpl = d.parse("Sending 999 bytes src: a dest: b")
    assert tpl == "Sending <*> bytes src: a dest: b"


def test_different_length_messages_never_merge():
    d = Drain()
    c1, _ = d.parse("a b c")
    c2, _ = d.parse("a b c d")
    assert c1 != c2


def test_distinct_messages_make_distinct_clusters():
    d = Drain(st=0.5)
    c1, _ = d.parse("Opening connection to host one")
    c2, _ = d.parse("Closing something else entirely now")
    assert c1 != c2
    assert d.n_templates() == 2


def test_digit_tokens_route_to_wildcard_branch():
    d = Drain()
    # first token contains digits in one message only; both must still
    # land somewhere deterministic without crashing
    d.parse("42 units left")
    d.parse("43 units left")
    assert d.n_templates() == 1


def test_parse_many_matches_parse():
    msgs = [f"job {i} done in {i * 3} ms" for i in range(20)]
    d1, d2 = Drain(), Drain()
    many = d1.parse_many(msgs)
    single = [d2.parse(m) for m in msgs]
    assert [c for c, _ in many] == [c for c, _ in single]


def test_parse_many_returns_final_templates():
    # the first line is parsed before its cluster generalises
    d = Drain()
    many = d.parse_many(["job 1 done", "job 2 done", "other line here now"])
    final = {c.cluster_id: c.template for c in d.clusters}
    assert many == [(c, final[c]) for c, _ in many]
    assert many[0][1] == f"job {WILDCARD} done"


def test_cluster_sizes_accumulate():
    d = Drain()
    for i in range(5):
        d.parse(f"tick {i}")
    assert d.clusters[0].size == 5


def test_preprocess_hook_applied():
    calls = []

    def prep(m):
        calls.append(m)
        return m.upper()

    d = Drain(preprocess=prep)
    _, tpl = d.parse("abc def")
    assert tpl == "ABC DEF"
    assert calls == ["abc def"]


def test_match_only_does_not_mutate():
    d = Drain()
    cid, _ = d.parse("error in module alpha code 5")
    n = d.n_templates()
    hit = d.match_only("error in module alpha code 9")
    assert hit is not None and hit[0] == cid
    assert d.n_templates() == n
    assert d.match_only("completely unrelated words here now") is None


def test_empty_message():
    d = Drain()
    cid, tpl = d.parse("")
    assert tpl == ""
    cid2, _ = d.parse("")
    assert cid == cid2


def test_groups_generated_stream_templates():
    # every ground-truth template of a jsonless stream maps to exactly one
    # drain cluster (digit-free static parts -> clean grouping)
    pdf = generate(StreamSpec(n_sessions=150, n_sources=4, seed=21))
    d = Drain()
    res = d.parse_many(pdf["message"].tolist())
    by_gt = {}
    for gt, (cid, _) in zip(pdf["event_id"], res):
        by_gt.setdefault(gt, set()).add(cid)
    over_split = [g for g, cids in by_gt.items() if len(cids) > 1]
    assert not over_split


@pytest.mark.parametrize("template,message,expect", [
    ("a <*> c", "a b c", ["b"]),
    ("<*> <*>", "x y", ["x", "y"]),
    ("a b", "a b", []),
    ("a <*>", "a b c", ["a", "b", "c"]),  # defensive length mismatch
])
def test_extract_variables(template, message, expect):
    assert extract_variables(template, message) == expect


def test_st_sensitivity_changes_template_count():
    # the §IV point: the st hyper-parameter materially changes the result
    msgs = [f"task {i} state {s} on node n{i%3}" for i, s in
            enumerate(["ok", "ok", "slow", "fail"] * 25)]
    low = Drain(st=0.3)
    high = Drain(st=0.9)
    low.parse_many(msgs)
    high.parse_many(msgs)
    assert low.n_templates() < high.n_templates()


def test_deep_tree_routes_consistently():
    d = Drain(depth=6)
    msgs = ["alpha beta gamma delta 1", "alpha beta gamma delta 2"]
    c1, _ = d.parse(msgs[0])
    c2, _ = d.parse(msgs[1])
    assert c1 == c2
