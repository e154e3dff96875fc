"""Drain: online log parsing with a fixed-depth tree (He et al., ICWS'17).

The paper (§IV) identifies Drain as the most accurate online parser but
notes two automation limits it plans to study: sensitivity to the
similarity threshold ``st`` and tree ``depth`` hyper-parameters, and
dependence on preprocessing. T5 sweeps ``st`` and the ``preprocess``
hook; every other caller runs Drain at its published ``depth=4, st=0.5``.

Structure: level 0 groups by token count, levels 1..depth-1 route by the
first ``depth-1`` tokens (a token containing digits routes to the ``<*>``
child, Drain's built-in heuristic), leaves hold clusters. Tokens and
digits are byte-wise: a message's tokens are its non-empty pieces between
single spaces, and a digit is ASCII ``0``-``9``, so the column kernel
(:func:`repro.parsing.distributed.tag_lines`) reads every UTF-8 line the
same way. A new line joins
the most similar leaf cluster (token-equality similarity >= ``st``,
``<*>`` positions excluded from the numerator) or starts a new cluster;
joining merges mismatching positions to ``<*>``.
"""
from __future__ import annotations

import dataclasses
import re
from typing import Iterable

WILDCARD = "<*>"
_MAX_CHILDREN = 100
DIGIT = "[0-9]"  # a token with a match routes to <*>; tag_lines matches it too
_DIGIT_RE = re.compile(DIGIT)


def tokenize(message: str) -> list[str]:
    return [t for t in message.split(" ") if t]


def _has_digit(tok: str) -> bool:
    return _DIGIT_RE.search(tok) is not None


@dataclasses.dataclass
class Cluster:
    """A leaf log group: the current template plus member line count."""

    cluster_id: int
    tokens: list[str]
    size: int = 0

    @property
    def template(self) -> str:
        return " ".join(self.tokens)


def _similarity(tmpl: list[str], toks: list[str]) -> float:
    """Drain's simSeq: fraction of positions where tokens match exactly;
    ``<*>`` counts as matching any token (per the reference impl)."""
    if len(tmpl) != len(toks):
        return 0.0
    if not tmpl:
        return 1.0
    same = sum(1 for a, b in zip(tmpl, toks) if a == b or a == WILDCARD)
    return same / len(tmpl)


class Drain:
    """Streaming Drain parser. ``parse(msg)`` -> (cluster_id, template)."""

    def __init__(self, *, depth: int = 4, st: float = 0.5,
                 preprocess=None) -> None:
        if depth < 3:
            raise ValueError("depth must be >= 3 (root + length + 1 token level)")
        if not 0 < st <= 1:
            raise ValueError("st must be in (0, 1]")
        self.depth = depth
        self.st = st
        self.preprocess = preprocess
        self._root: dict = {}
        self._clusters: dict[int, Cluster] = {}
        self._next_id = 0

    # -- tree helpers -----------------------------------------------------
    def _route(self, toks: list[str], create: bool) -> list[Cluster] | None:
        """Walk root -> length node -> ``depth-2`` token nodes -> leaf list."""
        keys: list[object] = [len(toks)]
        keys += [WILDCARD if _has_digit(tok) else tok for tok in toks[:self.depth - 2]]
        return self.leaf(keys, create)

    def leaf(self, keys: list[object], create: bool = False) -> list[Cluster] | None:
        """The leaf list at routing ``keys``: the token count, then the
        first ``depth-2`` tokens with digit tokens as ``<*>``. Every line
        with the same keys reaches the same leaf, so a column of lines can
        be routed once per distinct key."""
        node = self._root
        for key in keys[:-1]:
            if key not in node:
                if not create:
                    return None
                node[key] = {}
            node = node[key]
        last = keys[-1]
        if last not in node:
            # full child dicts fall back to the wildcard branch (Drain's
            # maxChild rule) so token cardinality cannot explode the tree
            if last != WILDCARD and len(node) >= _MAX_CHILDREN:
                last = WILDCARD
            if last not in node:
                if not create:
                    return None
                node[last] = []
        leaf = node[last]
        return leaf

    def _tokens(self, message: str) -> list[str]:
        if self.preprocess is not None:
            message = self.preprocess(message)
        return tokenize(message)

    def _best_match(self, leaf: list[Cluster], toks: list[str]) -> Cluster | None:
        """The most similar leaf cluster (first one on ties), if it reaches ``st``."""
        best, best_sim = None, -1.0
        for cl in leaf:
            sim = _similarity(cl.tokens, toks)
            if sim > best_sim:
                best, best_sim = cl, sim
        return best if best_sim >= self.st else None

    # -- public API -------------------------------------------------------
    def parse(self, message: str) -> tuple[int, str]:
        """Assign ``message`` to a cluster, updating the tree; returns the
        cluster id and the cluster's (possibly just-generalised) template."""
        toks = self._tokens(message)
        leaf = self._route(toks, create=True)
        best = self._best_match(leaf, toks)
        if best is not None:
            # merge: mismatching positions become wildcards
            best.tokens = [a if (a == b or a == WILDCARD) else WILDCARD
                           for a, b in zip(best.tokens, toks)]
            best.size += 1
            return best.cluster_id, best.template
        cl = Cluster(self._next_id, list(toks), size=1)
        self._next_id += 1
        leaf.append(cl)
        self._clusters[cl.cluster_id] = cl
        return cl.cluster_id, cl.template

    def parse_many(self, messages: Iterable[str]) -> list[tuple[int, str]]:
        """:meth:`parse` each message; returns each line's cluster id and
        the template its cluster holds after the last line, not the
        snapshot at its own parse, so every member of a cluster gets one
        text."""
        ids = [self.parse(m)[0] for m in messages]
        final = {c: cl.template for c, cl in self._clusters.items()}
        return [(c, final[c]) for c in ids]

    @property
    def clusters(self) -> list[Cluster]:
        return list(self._clusters.values())

    def n_templates(self) -> int:
        return len(self._clusters)

    def match_only(self, message: str) -> tuple[int, str] | None:
        """The id and template of the cluster ``parse`` would join given
        ``message``, None if it would start one; the tree is not changed.
        The per-line reference of :func:`repro.parsing.distributed.tag_lines`."""
        toks = self._tokens(message)
        best = self._best_match(self._route(toks, create=False) or [], toks)
        return None if best is None else (best.cluster_id, best.template)


def extract_variables(template: str, message: str) -> list[str]:
    """Variable values of ``message`` under ``template`` (position-wise:
    the tokens at ``<*>`` slots). Token-count mismatch returns the raw
    tokens (defensive: caller produced an inconsistent pair)."""
    t_toks = tokenize(template)
    m_toks = tokenize(message)
    if len(t_toks) != len(m_toks):
        return m_toks
    return [m for t, m in zip(t_toks, m_toks) if t == WILDCARD]
