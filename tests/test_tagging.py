"""Spark-free tests of line tagging (parsing.distributed.tag_lines): one
tokenization per line must tag exactly as the per-line reference,
``Drain.match_only`` + ``extract_variables``."""
import re

import numpy as np
import pyarrow as pa
import pytest

from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.parsing.distributed import merge_templates, tag_lines
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
    """Tag ``messages`` (a list, or an Arrow array) as the reference does;
    returns the templates and variables as lists."""
    array = messages if isinstance(messages, pa.Array) else pa.array(messages, pa.string())
    templates, variables = (a.to_pylist() for a in tag_lines(array, tree))
    assert (templates, variables) == _reference(array.to_pylist(), tree)
    return templates, variables


# whitespace and control characters (\v and \x1c-\x1f are whitespace to
# Python's str methods, \x85, \xa0 and \u3000 too), non-ASCII letters and
# digits, and a newline that ends a token
_ODD = ["\t", "\v", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000",
        "\u0663", "\u00b2", "\u00e9"]
# structured tails: non-ASCII keys and values, odd separators and ends
_ODD_TAILS = [" {cl\u00e9=1}", " <cl\u00e9>v</cl\u00e9>", " {k=\u00e9}", "\t{user_id=\u0663}",
              " <a>1</a>\v", "\v{k=1}", " {k=1}\n", " {k=1}\x85", "\xa0{k=1}",
              " {\u00e9t\u00e9=1, k=2}", " <k>\u00e9</k>\n "]


def _perturbed(messages, seed):
    """``messages`` with one to three seeded oddities each: an odd
    character inserted anywhere, in place of a space or in place of every
    ASCII digit, or an odd structured tail appended."""
    g = np.random.default_rng(seed)
    out = []
    for m in messages:
        for _ in range(int(g.integers(1, 4))):
            odd = _ODD[int(g.integers(len(_ODD)))]
            kind = g.random()
            if kind < 0.2:
                m += _ODD_TAILS[int(g.integers(len(_ODD_TAILS)))]
            elif kind < 0.3:
                m = re.sub("[0-9]", odd, m)
            elif kind < 0.5:
                m = m.replace(" ", odd, 1)
            else:
                i = int(g.integers(len(m) + 1))
                m = m[:i] + odd + m[i:]
        out.append(m)
    return out


@pytest.fixture(scope="module")
def fitted_tree():
    """The tree ``MoniLog.fit`` learns from one partition of a clean stream."""
    train = generate(StreamSpec(n_sessions=300, n_sources=8, seed=80))
    local = Drain(preprocess=preprocess).parse_many(train["message"])
    tree, _ = merge_templates(sorted({tpl for _, tpl in local}))
    return tree


def test_unstable_stream_tags_as_reference(fitted_tree):
    test = generate(StreamSpec(n_sessions=200, n_sources=8, anomaly_rate=0.1, seed=81))
    unstable, counts = instability.inject(test, 0.2, kinds=instability.KINDS, seed=3)
    assert all(counts[k] > 0 for k in instability.KINDS)
    known = {c.template for c in fitted_tree.clusters}
    for messages in (unstable["message"].tolist(), _perturbed(unstable["message"], seed=8)):
        templates, variables = _assert_tags_as_reference(messages, fitted_tree)
        # misses (parse errors, twisted wording, oddities) and hits with
        # variables both occur
        assert set(templates) - known
        assert any(variables)


def test_sliced_input_tags_as_reference(fitted_tree):
    # a slice starts at a non-zero offset into its buffers; the structured
    # tails on both sides of the cut must be found where the slice has them
    msgs = generate(StreamSpec(n_sessions=40, n_sources=8, seed=82))["message"].tolist()
    k = len(msgs) // 3
    for i in (1, k - 2, k, k + 3, len(msgs) - 1):
        msgs[i] = msgs[i].replace(" ", " tâche ", 1)
    for i in (0, k - 1, k + 1, len(msgs) - 2):
        msgs[i] += " {user_id=7}"
    for lines in (msgs, [m for m in msgs if m.isascii()], _perturbed(msgs, seed=7)):
        cut = len(lines) // 3
        sliced = pa.array(lines, pa.string()).slice(cut)
        assert sliced.offset == cut
        _assert_tags_as_reference(sliced, fitted_tree)


def test_null_message_rejected(fitted_tree):
    with pytest.raises(ValueError, match="1 of 3 log lines have no message"):
        tag_lines(pa.array(["a b", None, "c"], pa.string()), fitted_tree)


def test_non_ascii_digit_is_a_plain_token():
    tree = Drain()
    tree.parse("disk \u00b2 full on node")
    tree.parse("disk 7 full on node")
    templates, _ = _assert_tags_as_reference(
        ["disk \u0663 full on node", "disk \u00b2 full on node", "disk 3 full on node",
         "disk x full on node"], tree)
    # a digit is ASCII 0-9: only "3" routes to the <*> branch, and "\u0663"
    # and "\u00b2" route as themselves
    assert templates == ["disk \u0663 full on node", "disk \u00b2 full on node",
                         "disk 7 full on node", "disk x full on node"]


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
    templates, _ = _assert_tags_as_reference(["", "   ", "a b c"], tree)
    assert templates == ["", "", "a b c"]
    _assert_tags_as_reference([""], Drain())


def test_structured_tails():
    tree = Drain()
    for m in ("request served {}", "login ok", "login ok"):
        tree.parse(preprocess(m))
    templates, _ = _assert_tags_as_reference(
        ["request served {}",                       # JSON tail, no key/values: kept
         "login ok <user>bob</user>",               # XML tail: stripped
         "login ok {user_id=7, name=x}"],           # JSON tail: stripped
        tree)
    assert templates == ["request served {}", "login ok", "login ok"]


def test_spaces_tabs_and_control_characters():
    tree = Drain()
    for m in ("disk x full on node", "a b c", "job 12 done", "job 14 done"):
        tree.parse(m)
    templates, variables = _assert_tags_as_reference(
        ["  disk   x full  on node  ",     # runs of spaces, leading and trailing
         "disk\tx full on node",           # a tab inside a token
         "\x1cdisk x full on node\x1c",    # \x1c stays in its tokens: a miss
         " \x1f a b c\x1e",
         "job 13 done",
         "job 13 done and then some more tokens than any template has"],
        tree)
    assert templates[:4] == ["disk x full on node", "disk\tx full on node",
                             "\x1cdisk x full on node\x1c", "\x1f a b c\x1e"]
    assert variables[4:] == [["13"], []]


def test_tie_in_similarity_goes_to_first_cluster():
    tree = Drain(st=0.7)
    for m in ("a b c d e", "a b x y z", "a b c d q", "a b k l m"):
        tree.parse(m)
    leaf = tree.leaf([5, "a", "b"])
    assert [c.template for c in leaf] == ["a b c d <*>", "a b x y z", "a b k l m"]
    templates, variables = _assert_tags_as_reference(
        ["a b c y z",    # 4/5 with the first two clusters (the <*> counts): the first wins
         "a b c l m",    # 4/5 with the first and the third
         "a b k y z",    # 4/5 with the second only
         "a b q q z",    # a 3/5 tie below st: a miss
         "a b q r s t"], tree)
    assert templates[:4] == ["a b c d <*>", "a b c d <*>", "a b x y z", "a b q q z"]
    assert variables[:4] == [["z"], ["m"], [], []]


def test_structured_tail_edge_cases():
    tree = Drain()
    for m in ("a {x} b", "x trailing", "x <a>1</a> mid", "a", "x", "login ok"):
        tree.parse(m)
    _assert_tags_as_reference(
        ["a {x} b {k=1}",             # the leftmost " {" starts the tail
         "x {k=v} trailing",          # not at the end: kept
         "x <a>1</a> mid <b>2</b>",   # XML tail from the first " <"
         "{k=1}",                     # no space before the tail: kept
         "a {}  ",                    # JSON tail without key/values: kept
         "a {x} <t>v</t>",            # XML tail after a JSON-like token
         "a <t>v</t> {}",             # neither tail has data at the end
         "x {k=1}<b>2</b>",
         "login ok   {user_id=7}   ",
         "login ok {'a': 1, \"b\": \"c\"}",
         "login ok <a></a>",
         "login ok <a>x</a><b>y</b> ",
         "login ok {k=1} {}"],
        tree)
