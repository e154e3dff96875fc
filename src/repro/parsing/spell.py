"""Spell: streaming log parsing via longest common subsequence (Du & Li,
ICDM'16) — the second online parser of the paper's §IV benchmark (T5).

Each discovered *LCSObject* holds a template (token list with ``<*>``
gaps). A new line first tries an exact prefix-tree lookup, then searches
the LCS map: it joins the object with the longest LCS whose length is at
least half the line's token count (the paper's threshold, :data:`TAU`);
the object's template is refined to the LCS (gaps become ``<*>``).
Otherwise the line founds a new object.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.parsing.drain import WILDCARD, tokenize

TAU = 0.5  # a line joins an object whose LCS covers this share of its tokens


def _lcs(a: list[str], b: list[str]) -> list[str]:
    """Longest common subsequence of two token lists (classic DP)."""
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        for j in range(lb - 1, -1, -1):
            if a[i] == b[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    out: list[str] = []
    i = j = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return out


def _template_from_lcs(lcs: list[str], toks: list[str]) -> list[str]:
    """Rebuild a template: LCS tokens stay, skipped stretches become one
    ``<*>`` per gap position (Spell's template refinement)."""
    out: list[str] = []
    i = 0
    for tok in toks:
        if i < len(lcs) and tok == lcs[i]:
            out.append(tok)
            i += 1
        else:
            if not out or out[-1] != WILDCARD:
                out.append(WILDCARD)
    return out


@dataclasses.dataclass
class LCSObject:
    cluster_id: int
    tokens: list[str]
    size: int = 0

    @property
    def template(self) -> str:
        return " ".join(self.tokens)


class Spell:
    """Streaming Spell parser. ``parse(msg)`` -> (cluster_id, template)."""

    def __init__(self, *, preprocess=None) -> None:
        self.preprocess = preprocess
        self._objects: dict[int, LCSObject] = {}
        self._next_id = 0

    def parse(self, message: str) -> tuple[int, str]:
        if self.preprocess is not None:
            message = self.preprocess(message)
        toks = tokenize(message)
        content = [t for t in toks if t != WILDCARD]
        best: LCSObject | None = None
        best_len = -1
        for obj in self._objects.values():
            base = [t for t in obj.tokens if t != WILDCARD]
            # cheap upper bound prune before the O(n*m) DP
            if min(len(base), len(content)) <= best_len:
                continue
            lcs_len = len(_lcs(base, content))
            if lcs_len > best_len:
                best, best_len = obj, lcs_len

        if best is not None and best_len >= TAU * len(content) and content:
            base = [t for t in best.tokens if t != WILDCARD]
            lcs = _lcs(base, content)
            best.tokens = _template_from_lcs(lcs, toks)
            best.size += 1
            return best.cluster_id, best.template
        obj = LCSObject(self._next_id, list(toks), size=1)
        self._next_id += 1
        self._objects[obj.cluster_id] = obj
        return obj.cluster_id, obj.template

    def parse_many(self, messages: Iterable[str]) -> list[tuple[int, str]]:
        """:meth:`parse` each message; returns each line's cluster id and
        the template its object holds after the last line."""
        ids = [self.parse(m)[0] for m in messages]
        final = {c: cl.template for c, cl in self._objects.items()}
        return [(c, final[c]) for c in ids]

    def n_templates(self) -> int:
        return len(self._objects)

    @property
    def clusters(self) -> list[LCSObject]:
        return list(self._objects.values())
