"""Log preprocessing: structured-data extraction, masking.

§IV of the paper recommends a "preliminary step to extract potential data
coming from a structured format" because ~60% of message tokens in
API-style services are JSON/XML-formatted; removing them shortens
messages and raises the template-discovery rate. Optional regex
*masking* of common variables (IPs, numbers) is the human-crafted
preprocessing the paper notes most parsers rely on — kept separate so T5
can measure parsers with and without it.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# {...} / <...>...</...> tails; both the paper's "{user_id=125, ...}" style
# and strict JSON parse with the same regexes. Each is written once, in the
# syntax Python's re and RE2 share, and serves both the per-line and the
# column path: the lazy head ends where the leftmost tail starts. The
# classes are explicit ASCII, as the engines' \s and \w differ ([ \t\n\f\r]
# is RE2's \s; Python's also matches \v and, on str, non-ASCII).
_JSON_TAIL_RE = re.compile(r"^(?P<head>(?s:.)*?)[ \t\n\f\r](?P<tail>\{.*\})[ \t\n\f\r]*$")
_XML_TAIL_RE = re.compile(r"^(?P<head>(?s:.)*?)[ \t\n\f\r]"
                          r"(?P<tail><[A-Za-z][^>]*>.*</[A-Za-z][^>]*>)[ \t\n\f\r]*$")
_KV_RE = re.compile(r'["\']?([A-Za-z_][A-Za-z0-9_.]*)["\']?[ \t\n\f\r]*[:=]'
                    r'[ \t\n\f\r]*["\']?([^,"\'{}]+)["\']?')
_XML_KV_RE = re.compile(r"<([A-Za-z][A-Za-z0-9_.]*)>([^<]*)</")
_TAILS = ((_JSON_TAIL_RE, _KV_RE), (_XML_TAIL_RE, _XML_KV_RE))

_IP_RE = re.compile(r"\b\d{1,3}(?:\.\d{1,3}){3}(?::\d+)?\b")
_HEX_RE = re.compile(r"\b0x[0-9a-fA-F]+\b")
_NUM_RE = re.compile(r"\b\d+\b")


def extract_structured(message: str) -> tuple[str, dict[str, str]]:
    """Strip a trailing JSON/XML blob; return (shortened message, data).

    The extracted key/values are structured data (already parsed), so the
    free-text parser never sees them — the paper's §IV recommendation.
    """
    for (tail_re, data_re), opening in zip(_TAILS, "{<"):
        # each tail regex needs its opening character; most messages have neither
        m = tail_re.match(message) if opening in message else None
        data = dict(data_re.findall(m["tail"])) if m else None
        if data:
            return m["head"].rstrip(" "), data
    return message, {}


def extract_structured_column(messages: pa.Array) -> pa.Array:
    """:func:`extract_structured`'s shortened messages for a column of
    messages, in a fixed number of Arrow calls: a JSON tail holding
    key/values is cut, else such an XML tail."""
    out, done = messages, np.zeros(len(messages), bool)
    for tail_re, data_re in _TAILS:
        parts = pc.extract_regex(messages, tail_re.pattern)
        cut = (parts.is_valid().to_numpy(zero_copy_only=False) & ~done
               & pc.match_substring_regex(parts.field("tail"), data_re.pattern)
               .fill_null(False).to_numpy(zero_copy_only=False))
        if cut.any():
            mask = pa.array(cut)
            out = pc.replace_with_mask(out, mask, pc.utf8_rtrim(
                parts.field("head").filter(mask), characters=" "))
            done |= cut
    return out


def mask_variables(message: str) -> str:
    """Human-crafted regex masking of common variables (IPs, hex, ints).

    This is the expert-dependent preprocessing whose influence on parser
    accuracy T5 quantifies; masked tokens become ``<*>``.
    """
    message = _IP_RE.sub("<*>", message)
    message = _HEX_RE.sub("<*>", message)
    message = _NUM_RE.sub("<*>", message)
    return message


def preprocess(message: str) -> str:
    """A MESSAGE field without its structured-data tail (§IV); T5 adds
    :func:`mask_variables` on top for its masked row."""
    return extract_structured(message)[0]


def structured_token_share(messages: list[str]) -> float:
    """Share of message tokens that belong to a JSON/XML tail — the §IV
    'almost 60% of the tokens' observation, measured (T6)."""
    total = 0
    struct_toks = 0
    for msg in messages:
        toks = len(msg.split())
        stripped, data = extract_structured(msg)
        total += toks
        if data:
            struct_toks += toks - len(stripped.split())
    return struct_toks / total if total else 0.0
