"""Spark-free tests of line tagging (parsing.distributed.tag_lines): one
tokenization per line must tag exactly as the per-line reference,
``Drain.match_only`` + ``extract_variables``."""
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
    templates, variables = _assert_tags_as_reference(unstable["message"].tolist(), fitted_tree)
    known = {c.template for c in fitted_tree.clusters}
    # misses (parse errors, twisted wording) and hits with variables both occur
    assert set(templates) - known
    assert any(variables)


def test_sliced_input_tags_as_reference(fitted_tree):
    # a slice starts at a non-zero offset into its buffers; the non-ASCII
    # and structured-tail lines on both sides of the cut must be found
    # where the slice has them
    msgs = generate(StreamSpec(n_sessions=40, n_sources=8, seed=82))["message"].tolist()
    k = len(msgs) // 3
    for i in (1, k - 2, k, k + 3, len(msgs) - 1):
        msgs[i] = msgs[i].replace(" ", " tâche ", 1)
    for i in (0, k - 1, k + 1, len(msgs) - 2):
        msgs[i] += " {user_id=7}"
    for lines in (msgs, [m for m in msgs if m.isascii()]):
        cut = len(lines) // 3
        sliced = pa.array(lines, pa.string()).slice(cut)
        assert sliced.offset == cut
        _assert_tags_as_reference(sliced, fitted_tree)


def test_non_ascii_digit_routes_as_digit():
    tree = Drain()
    tree.parse("disk ² full on node")
    templates, _ = _assert_tags_as_reference(["disk ٣ full on node", "disk ² full on node",
                                              "disk x full on node"], tree)
    # "٣" and "²" are digits to str.isdigit: both route to the <*> branch
    assert templates == ["disk ² full on node"] * 2 + ["disk x full on node"]


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
         "\x1cdisk x full on node\x1c",    # str.strip() removes \x1c, Arrow's trim would not
         " \x1f a b c\x1e",
         "job 13 done",
         "job 13 done and then some more tokens than any template has"],
        tree)
    assert templates[:3] == ["disk x full on node", "disk\tx full on node",
                             "disk x full on node"]
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
