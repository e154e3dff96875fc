"""Spark-free tests of line tagging (parsing.distributed.tag_lines): one
tokenization per line must tag exactly as the per-line reference,
``Drain.match_only`` + ``extract_variables``."""
import pandas as pd
import pytest

from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.parsing.distributed import _drain, _final_templates, merge_templates, tag_lines
from repro.parsing.drain import Drain, extract_variables, tokenize
from repro.parsing.preprocess import preprocess


def _reference(messages, tree):
    """Tag each line on its own: preprocess, match, re-tokenize."""
    templates, variables = [], []
    for m in messages:
        text = preprocess(m)
        hit = tree.match_only(text)
        templates.append(hit[1] if hit else " ".join(tokenize(text)))
        variables.append(extract_variables(hit[1], text) if hit else [])
    return templates, variables


def _assert_tags_as_reference(messages, tree):
    tagged = tag_lines(pd.DataFrame({"message": messages}), tree)
    templates, variables = _reference(messages, tree)
    assert tagged["template"].tolist() == templates
    assert tagged["variables"].tolist() == variables
    return tagged


@pytest.fixture(scope="module")
def fitted_tree():
    """The tree ``MoniLog.fit`` learns from one partition of a clean stream."""
    train = generate(StreamSpec(n_sessions=300, n_sources=8, seed=80))
    local = _drain(4, 0.5, True, False)
    ids = [cid for cid, _ in local.parse_many(train["message"])]
    tree, _ = merge_templates(sorted(set(_final_templates(local, ids))), depth=4, st=0.5)
    return tree


def test_unstable_stream_tags_as_reference(fitted_tree):
    test = generate(StreamSpec(n_sessions=200, n_sources=8, anomaly_rate=0.1, seed=81))
    unstable, counts = instability.inject(test, 0.2, kinds=instability.KINDS, seed=3)
    assert all(counts[k] > 0 for k in instability.KINDS)
    tagged = _assert_tags_as_reference(unstable["message"].tolist(), fitted_tree)
    known = {c.template for c in fitted_tree.clusters}
    # misses (parse errors, twisted wording) and hits with variables both occur
    assert (~tagged["template"].isin(known)).sum() > 0
    assert tagged["variables"].map(len).sum() > 0


def test_non_ascii_digit_routes_as_digit():
    tree = Drain()
    tree.parse("disk ² full on node")
    tagged = _assert_tags_as_reference(["disk ٣ full on node", "disk ² full on node",
                                        "disk x full on node"], tree)
    # "٣" and "²" are digits to str.isdigit: both route to the <*> branch
    assert tagged["template"].tolist()[:2] == ["disk ² full on node"] * 2
    assert tagged["template"][2] == "disk x full on node"


def test_full_child_dict_falls_back_to_wildcard():
    tree = Drain(depth=3)
    words = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(101)]
    for w in words:
        tree.parse(f"{w} started job now")
    # the 101st first token found the child dict full: it joined <*>
    assert tree.match_only("unseenword started job now") is not None
    _assert_tags_as_reference(["unseenword started job now", f"{words[0]} started job now",
                               f"{words[-1]} started job soon"], tree)


def test_empty_message():
    tree = Drain()
    tree.parse("")
    tree.parse("a b c")
    tagged = _assert_tags_as_reference(["", "   ", "a b c"], tree)
    assert tagged["template"].tolist() == ["", "", "a b c"]
    _assert_tags_as_reference([""], Drain())


def test_structured_tails():
    tree = Drain()
    for m in ("request served {}", "login ok", "login ok"):
        tree.parse(preprocess(m))
    tagged = _assert_tags_as_reference(
        ["request served {}",                       # JSON tail, no key/values: kept
         "login ok <user>bob</user>",               # XML tail: stripped
         "login ok {user_id=7, name=x}"],           # JSON tail: stripped
        tree)
    assert tagged["template"].tolist() == ["request served {}", "login ok", "login ok"]
