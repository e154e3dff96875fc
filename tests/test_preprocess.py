"""Unit tests for §IV preprocessing (parsing.preprocess)."""
import pytest

from repro.parsing import preprocess as P


def test_extract_structured_paper_example():
    msg = "Send 42 bytes to 121.13.4.26 {user_id=125, service_name=dart_vader}"
    stripped, data = P.extract_structured(msg)
    assert stripped == "Send 42 bytes to 121.13.4.26"
    assert data == {"user_id": "125", "service_name": "dart_vader"}


def test_extract_structured_json_style():
    msg = 'done {"a": "1", "b": "x"}'
    stripped, data = P.extract_structured(msg)
    assert stripped == "done"
    assert data == {"a": "1", "b": "x"}


def test_extract_structured_xml_tail():
    msg = "event ok <user>bob</user><id>7</id>"
    stripped, data = P.extract_structured(msg)
    assert stripped == "event ok"
    assert data == {"user": "bob", "id": "7"}


def test_extract_structured_no_tail_is_identity():
    msg = "plain message without data"
    stripped, data = P.extract_structured(msg)
    assert stripped == msg and data == {}


def test_extract_structured_mid_message_braces_kept():
    # only a *trailing* blob is structured data
    msg = "set {x} then done"
    stripped, _ = P.extract_structured(msg)
    assert stripped.startswith("set")


@pytest.mark.parametrize("msg,expect", [
    ("line one\nline two {a=1}", ("line one\nline two", {"a": "1"})),
    ("a {b} c {d=2}", ("a", {"d": "2"})),     # the leftmost tail is cut
    ("x\t<k>v</k>\n", ("x", {"k": "v"})),
    ("x {a=1}\ny", ("x {a=1}\ny", {})),     # a tail ends the message
])
def test_extract_structured_cuts_the_leftmost_tail_across_lines(msg, expect):
    assert P.extract_structured(msg) == expect


@pytest.mark.parametrize("msg,expect", [
    ("ip 10.250.11.53 ok", "ip <*> ok"),
    ("ip 10.250.11.53:8080 ok", "ip <*> ok"),
    ("hex 0xdeadBEEF ok", "hex <*> ok"),
    ("n 138 bytes", "n <*> bytes"),
    ("mixed 10.0.0.1 and 42 and 0xff", "mixed <*> and <*> and <*>"),
    ("no variables here", "no variables here"),
])
def test_mask_variables(msg, expect):
    assert P.mask_variables(msg) == expect


def test_preprocess_chain_order():
    msg = "Send 42 bytes {user_id=125}"
    assert P.mask_variables(P.preprocess(msg)) == "Send <*> bytes"
    assert P.preprocess(msg) == "Send 42 bytes"


def test_structured_token_share_empty():
    assert P.structured_token_share([]) == 0.0


def test_structured_token_share_all_plain():
    assert P.structured_token_share(["a b c", "d e"]) == 0.0


def test_structured_token_share_counts_tail_tokens():
    msgs = ["go {a=1, b=2}"]  # 3 total tokens, 2 in the tail
    assert P.structured_token_share(msgs) == pytest.approx(2 / 3)
