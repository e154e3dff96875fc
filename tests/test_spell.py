"""Unit tests for the Spell parser (parsing.spell)."""
import pytest

from repro.parsing.spell import Spell, _lcs, _template_from_lcs
from repro.parsing.drain import WILDCARD


@pytest.mark.parametrize("a,b,expect", [
    (["a", "b", "c"], ["a", "c"], ["a", "c"]),
    (["a", "b"], ["c", "d"], []),
    (["x"], ["x"], ["x"]),
    ([], ["x"], []),
    (["a", "b", "c", "d"], ["b", "d"], ["b", "d"]),
])
def test_lcs(a, b, expect):
    assert _lcs(a, b) == expect


def test_template_from_lcs_marks_gaps():
    toks = ["send", "42", "bytes", "to", "host"]
    lcs = ["send", "bytes", "to", "host"]
    assert _template_from_lcs(lcs, toks) == ["send", WILDCARD, "bytes", "to", "host"]


def test_template_from_lcs_collapses_adjacent_gaps():
    toks = ["a", "x", "y", "b"]
    assert _template_from_lcs(["a", "b"], toks) == ["a", WILDCARD, "b"]


def test_same_shape_messages_merge():
    s = Spell()
    c1, _ = s.parse("Sending 138 bytes src: a dest: b")
    c2, tpl = s.parse("Sending 999 bytes src: c dest: b")
    assert c1 == c2
    assert WILDCARD in tpl


def test_unrelated_messages_split():
    s = Spell()
    c1, _ = s.parse("alpha beta gamma delta")
    c2, _ = s.parse("one two three four")
    assert c1 != c2
    assert s.n_templates() == 2


def test_template_refines_towards_lcs():
    s = Spell()
    s.parse("job 1 finished ok")
    _, tpl = s.parse("job 2 finished ok")
    assert tpl == f"job {WILDCARD} finished ok"


def test_parse_many_and_sizes():
    s = Spell()
    s.parse_many([f"tick {i}" for i in range(10)])
    assert s.n_templates() == 1
    assert s.clusters[0].size == 10


def test_parse_many_returns_final_templates():
    # the first line is parsed before its object's template is refined
    s = Spell()
    many = s.parse_many(["job 1 finished ok", "job 2 finished ok", "alpha beta gamma"])
    final = {c.cluster_id: c.template for c in s.clusters}
    assert many == [(c, final[c]) for c, _ in many]
    assert many[0][1] == f"job {WILDCARD} finished ok"


def test_preprocess_hook():
    s = Spell(preprocess=lambda m: m.replace("XX", ""))
    _, tpl = s.parse("XX hello world")
    assert tpl.strip() == "hello world"


def test_deterministic():
    msgs = [f"m {i} of {i+1}" for i in range(30)] + ["other kind of line"] * 5
    a = Spell().parse_many(msgs)
    b = Spell().parse_many(msgs)
    assert [c for c, _ in a] == [c for c, _ in b]
