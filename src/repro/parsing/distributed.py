"""Distributed Drain — the paper's planned §IV contribution.

Drain keeps one mutable parse tree, so it does not distribute as-is. The
scheme here ("distributed version of research tree-based log parsing
method") makes one parse pass over a Spark DataFrame of messages:

1. **Partition-local parse** (``mapInPandas``): each partition grows one
   Drain tree over all of its rows and tags every row with its cluster's
   *final* local template. Embarrassingly parallel; no shared state; the
   result does not depend on how Arrow batches the partition.
2. **Driver-side template merge**: the distinct local templates (tiny —
   hundreds of strings, not millions of lines) are folded, in sorted
   order, into a single global Drain tree by re-parsing the *templates*;
   each local template maps to a global cluster id.

:func:`learn_templates` stops there: its local pass reads only the
``message`` column and yields each partition's distinct local templates,
not one row per line, so learning the tree is one Spark job with no
shuffle. :func:`parse_distributed` also keeps the tagged rows, with all
of their columns: it materialises the local parse once
(``localCheckpoint``), so the catalogue and the caller read the same
parse, and one broadcast join on the local template string then gives
every row its global id and merged template. There is no join back on
``line_id``, so every input row, duplicates included, yields exactly one
output row.

Merging templates instead of lines preserves Drain's clustering
semantics (two local templates merge iff Drain itself would put them in
one leaf cluster) while touching the driver with O(templates), not
O(lines) — the scalability property §II requires of every MoniLog
component. ``MoniLog.fit`` learns the global tree once with
:func:`learn_templates`; every later line is tagged against that fixed
tree by :func:`tag_lines`, either in :func:`match_fitted`'s narrow pass
or inside ``MoniLog.detect``'s fused tag-and-score pass.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark import Broadcast
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.parsing.drain import WILDCARD, Drain, tokenize
from repro.parsing.preprocess import extract_structured_column, preprocess


def _local_parse_factory(structured: bool, mask: bool):
    """The partition-local Drain step both :func:`learn_templates` and
    :func:`parse_distributed` run: the partition's rows, each with its
    cluster's final ``local_template``."""
    def local_parse(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(batches)
        if not parts:  # an empty partition gets no batch
            return
        pdf = pd.concat(parts, ignore_index=True)
        parser = Drain(preprocess=lambda m: preprocess(m, structured=structured, mask=mask))
        pdf["local_template"] = [tpl for _, tpl in parser.parse_many(pdf["message"])]
        yield pdf

    return local_parse


def merge_templates(catalogue: list[str]) -> tuple[Drain, dict[str, tuple[int, str]]]:
    """Fold sorted local templates into one global tree at Drain's
    defaults, deterministically; returns it and the local template ->
    (global id, template) mapping."""
    merger = Drain()
    return merger, dict(zip(catalogue, merger.parse_many(catalogue)))


def learn_templates(df: DataFrame) -> tuple[Drain, dict[str, tuple[int, str]]]:
    """Learn the global template tree from ``df``'s ``message`` column with
    distributed Drain at its defaults and §IV structured-data extraction.
    Returns what :func:`merge_templates` returns for the sorted catalogue
    of final local templates, which is the catalogue
    :func:`parse_distributed` folds over the same partitions. One Spark
    job: each partition sends the driver only its distinct templates.
    Partitions by position (files, in-memory frames) are the same for
    every projection; a round-robin ``repartition`` places rows by their
    projected content, so reading ``message`` alone can move rows."""
    local_parse = _local_parse_factory(structured=True, mask=False)

    def local_catalogue(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in local_parse(batches):
            yield pdf[["local_template"]].drop_duplicates()

    rows = (df.select("message")
            .mapInPandas(local_catalogue, schema="local_template string").collect())
    return merge_templates(sorted({r["local_template"] for r in rows}))


def parse_distributed(df: DataFrame, *, structured: bool = True,
                      mask: bool = False) -> tuple[DataFrame, dict[str, tuple[int, str]]]:
    """Parse ``df`` (with at least a ``message`` column) with distributed
    Drain at its defaults. Returns ``(parsed_df, mapping)`` where
    ``parsed_df`` is ``df`` row for row plus ``cluster_id``/``template``
    columns and ``mapping`` is the local template -> (global id, global
    template) fold. The merge tree parses template strings, so ``<*>``
    tokens in a local template match anything in the global tree.
    """
    # parser output *replaces* any pre-existing cluster_id/template
    # column (e.g. the generator's ground-truth template column)
    base = df.drop("cluster_id", "template")
    schema = T.StructType(base.schema.fields
                          + [T.StructField("local_template", T.StringType())])
    # eager: the catalogue below and the caller read this one parse; Spark
    # frees the checkpoint once the returned frame is unreachable
    local = base.mapInPandas(_local_parse_factory(structured, mask),
                             schema=schema).localCheckpoint()
    catalogue = sorted(r["local_template"] for r in  # deterministic merge order
                       local.select("local_template").distinct().collect())
    _, mapping = merge_templates(catalogue)
    map_df = df.sparkSession.createDataFrame(
        [(tpl, gid, gtpl) for tpl, (gid, gtpl) in mapping.items()],
        schema="local_template string, cluster_id long, template string",
    )
    out = (local.join(F.broadcast(map_df), on="local_template", how="left")
           .select(*base.columns, "cluster_id", "template"))
    return out, mapping


_WILD = -2  # the code of a <*> route key or template position; tokens are >= 0


def _lines_with(messages: pa.Array, byte_test) -> np.ndarray:
    """Which ``messages`` hold a UTF-8 byte for which ``byte_test`` holds."""
    _, offs, data = messages.buffers()
    offsets = np.frombuffer(offs, np.int32)[messages.offset:messages.offset + len(messages) + 1]
    found = np.zeros(len(messages), bool)
    if data is not None and len(messages):
        raw = np.frombuffer(data, np.uint8)[offsets[0]:offsets[-1]]
        at = np.flatnonzero(byte_test(raw)) + offsets[0]
        found[np.searchsorted(offsets, at, side="right") - 1] = True
    return found


def _tag_each(messages: list[str], tree: Drain) -> tuple[list[str], list[list[str]]]:
    """The per-line reference: preprocess, tokenize and match each line on
    its own; a hit's variables are its tokens at the cluster's ``<*>``s."""
    templates, variables = [], []
    for message in messages:
        toks = tokenize(preprocess(message))
        hit = tree.match_tokens(toks)
        templates.append(" ".join(toks) if hit is None else hit.template)
        variables.append([] if hit is None else
                         [t for t, c in zip(toks, hit.tokens) if c == WILDCARD])
    return templates, variables


def _tag_column(messages: pa.Array, tree: Drain) -> tuple[pa.Array, pa.Array]:
    """:func:`_tag_each` of printable-ASCII ``messages``, column-wise: one
    tokenization of the whole column, one tree walk per distinct routing
    key, and one similarity matrix per key over the lines' token codes."""
    n_lines = len(messages)
    tails = _lines_with(messages, lambda b: (b == ord("{")) | (b == ord("<")))
    if tails.any():  # §IV structured tails need an opening brace or bracket
        mask = pa.array(tails)
        messages = pc.replace_with_mask(messages, mask,
                                        extract_structured_column(messages.filter(mask)))
    split = pc.split_pattern(messages, " ")
    pieces = split.flatten()
    counts = pc.list_value_length(split).to_numpy().astype(np.int64)
    keep = pc.binary_length(pieces).to_numpy() > 0  # runs of spaces leave empty pieces
    if not keep.all():
        pieces = pieces.filter(pa.array(keep))
        counts = np.bincount(pc.list_parent_indices(split).to_numpy()[keep],
                             minlength=n_lines)
    starts = np.zeros(n_lines + 1, np.int64)
    np.cumsum(counts, out=starts[1:])
    encoded = pc.dictionary_encode(pieces)
    codes, vocab = encoded.indices.to_numpy(), encoded.dictionary
    # each template token's code in this column; -1 if no line has it
    tree_vocab = sorted({t for c in tree.clusters for t in c.tokens} - {WILDCARD})
    code_of = dict(zip(tree_vocab, pc.index_in(pa.array(tree_vocab, pa.string()),
                                               value_set=vocab).fill_null(-1).to_numpy()))
    code_of[WILDCARD] = _WILD

    # routing key: the token count, then the first depth-2 tokens (digits: <*>)
    digit = pc.match_substring_regex(vocab, "[0-9]").to_numpy(zero_copy_only=False)
    route = np.full((n_lines, tree.depth - 1), -1, np.int64)
    route[:, 0] = counts
    group = counts
    for j in range(1, tree.depth - 1):
        has = counts >= j
        c = codes[starts[:-1][has] + j - 1]
        route[has, j] = np.where(digit[c], _WILD, c)
        _, group = np.unique(group * (len(vocab) + 2) + route[:, j] + 2, return_inverse=True)
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group))

    line_cluster = np.full(n_lines, -1, np.int64)  # the matched cluster's id
    for lo, hi in zip(np.concatenate([[0], bounds[:-1]]), bounds):
        rows = order[lo:hi]
        n, *key = route[rows[0]]
        leaf = tree.leaf([int(n), *(WILDCARD if r == _WILD else vocab[int(r)].as_py()
                                    for r in key if r != -1)])
        clusters = [c for c in leaf or () if len(c.tokens) == n]
        if not clusters:
            continue
        tmpl = np.array([[code_of[t] for t in c.tokens] for c in clusters],
                        np.int64).reshape(len(clusters), n)
        toks = codes[starts[rows][:, None] + np.arange(n)]
        # Drain's simSeq: matching positions over length; <*> matches any token
        same = ((toks[None] == tmpl[:, None]) | (tmpl == _WILD)[:, None]).sum(2)
        sim = same / n if n else np.ones(same.shape)
        best = sim.argmax(0)  # the first cluster wins ties
        ok = sim[best, np.arange(len(rows))] >= tree.st
        line_cluster[rows[ok]] = np.array([c.cluster_id for c in clusters])[best[ok]]

    # a hit's variables: its tokens at the cluster's <*> positions
    hit = line_cluster >= 0
    ids, line_hit = np.unique(line_cluster[hit], return_inverse=True)
    by_id = {c.cluster_id: c for c in tree.clusters}
    hits = [by_id[i] for i in ids.tolist()]
    wild = [np.flatnonzero(np.array(c.tokens, dtype=object) == WILDCARD) for c in hits]
    n_vars = np.zeros(n_lines, np.int64)
    n_vars[hit] = np.array([len(w) for w in wild], np.int64)[line_hit]
    var_starts = np.zeros(n_lines + 1, np.int64)
    np.cumsum(n_vars, out=var_starts[1:])
    take = np.empty(var_starts[-1], np.int64)
    hit_rows = np.flatnonzero(hit)
    for i, w in enumerate(wild):
        if len(w):
            rows = hit_rows[line_hit == i]
            take[var_starts[rows][:, None] + np.arange(len(w))] = starts[rows][:, None] + w
    variables = pa.ListArray.from_arrays(pa.array(var_starts, pa.int32()), pieces.take(take))

    line_template = np.zeros(n_lines, np.int64)
    line_template[hit] = line_hit
    templates = pa.array([c.template for c in hits] or [""], pa.string()).take(line_template)
    if not hit.all():  # a miss keeps its own tokens, as a new cluster would
        miss = pa.array(~hit)
        lists = pa.ListArray.from_arrays(pa.array(starts, pa.int32()), pieces)
        templates = pc.replace_with_mask(templates, miss,
                                         pc.binary_join(lists.filter(miss), " "))
    return templates, variables


def tag_lines(messages: pa.Array, tree: Drain) -> tuple[pa.Array, pa.Array]:
    """Tag each of ``messages`` against the unchanging global tree: it is
    preprocessed (with §IV structured-data extraction), tokenized and
    matched; a hit's variables are its tokens at the cluster's ``<*>``
    positions (what :func:`~repro.parsing.drain.extract_variables`
    gives). A miss keeps its own tokens, as a new Drain cluster's first
    line would, and has no variables. Returns the ``template`` (string)
    and ``variables`` (list of string) arrays, one entry per message.

    Printable-ASCII lines are tagged column-wise (:func:`_tag_column`);
    any other line goes through the per-line reference
    ``Drain.match_tokens``, which gives the same result by definition."""
    messages = messages.cast(pa.string())  # _lines_with reads 32-bit offsets
    # within printable ASCII, str.strip/split(" ")/isdigit and Arrow's
    # byte-wise split and [0-9] agree, so the column kernel is exact there
    exact = ~_lines_with(messages, lambda b: (b < 0x20) | (b > 0x7e))
    if messages.null_count:
        exact &= messages.is_valid().to_numpy(zero_copy_only=False)
    if exact.all():
        return _tag_column(messages, tree)
    inside, outside = np.flatnonzero(exact), np.flatnonzero(~exact)
    col_t, col_v = _tag_column(messages.take(inside), tree)
    each_t, each_v = _tag_each(messages.take(outside).to_pylist(), tree)
    pos = np.empty(len(exact), np.int64)
    pos[inside], pos[outside] = np.arange(len(inside)), len(inside) + np.arange(len(outside))
    return (pa.concat_arrays([col_t, pa.array(each_t, pa.string())]).take(pos),
            pa.concat_arrays([col_v, pa.array(each_v, col_v.type)]).take(pos))


def match_fitted(df: DataFrame, b_parser: Broadcast) -> DataFrame:
    """Add ``template``/``variables`` to ``df`` in one narrow
    ``mapInArrow`` pass: each Arrow batch's ``message`` column is tagged
    by :func:`tag_lines` against the broadcast tree ``b_parser``."""
    base = df.drop("cluster_id", "template", "variables")
    schema = T.StructType(base.schema.fields + [
        T.StructField("template", T.StringType()),
        T.StructField("variables", T.ArrayType(T.StringType())),
    ])

    def tag(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for batch in batches:
            templates, variables = tag_lines(batch.column("message"), b_parser.value)
            yield batch.append_column("template", templates).append_column("variables",
                                                                            variables)

    return base.mapInArrow(tag, schema=schema)


def parse_single_node(df: DataFrame) -> tuple[pd.DataFrame, Drain]:
    """Reference single-node parse of the same frame (collect + one tree at
    Drain's defaults, §IV structured-data extraction): the baseline T8 and
    perfbench time the distributed variant's throughput against."""
    pdf = df.select("line_id", "message").toPandas()
    parser = Drain(preprocess=preprocess)
    parsed = parser.parse_many(pdf["message"])
    pdf["cluster_id"] = [cid for cid, _ in parsed]
    pdf["template"] = [tpl for _, tpl in parsed]
    return pdf, parser
