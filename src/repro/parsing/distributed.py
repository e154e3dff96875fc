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

import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.parsing.drain import WILDCARD, Drain, tokenize
from repro.parsing.preprocess import preprocess


def _drain(depth: int, st: float, structured: bool, mask: bool) -> Drain:
    return Drain(depth=depth, st=st,
                 preprocess=lambda m: preprocess(m, structured=structured, mask=mask))


def _final_templates(parser: Drain, ids) -> list[str]:
    """The template of each id's cluster after the last parse, not the
    snapshot at parse time, so every member of a cluster gets one text."""
    final = {c.cluster_id: c.template for c in parser.clusters}
    return [final[c] for c in ids]


def _local_parse_factory(depth: int, st: float, structured: bool, mask: bool):
    """The partition-local Drain step both :func:`learn_templates` and
    :func:`parse_distributed` run: the partition's rows, each with its
    cluster's final ``local_template``."""
    def local_parse(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(batches)
        if not parts:  # an empty partition gets no batch
            return
        pdf = pd.concat(parts, ignore_index=True)
        parser = _drain(depth, st, structured, mask)
        ids = [cid for cid, _ in parser.parse_many(pdf["message"])]
        pdf["local_template"] = _final_templates(parser, ids)
        yield pdf

    return local_parse


def merge_templates(catalogue: list[str], *, depth: int = 4,
                    st: float = 0.5) -> tuple[Drain, dict[str, tuple[int, str]]]:
    """Fold sorted local templates into one global tree, deterministically;
    returns it and the local template -> (global id, template) mapping."""
    merger = Drain(depth=depth, st=st)
    gids = [gid for gid, _ in merger.parse_many(catalogue)]
    return merger, dict(zip(catalogue, zip(gids, _final_templates(merger, gids))))


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
    local_parse = _local_parse_factory(depth=4, st=0.5, structured=True, mask=False)

    def local_catalogue(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in local_parse(batches):
            yield pdf[["local_template"]].drop_duplicates()

    rows = (df.select("message")
            .mapInPandas(local_catalogue, schema="local_template string").collect())
    return merge_templates(sorted({r["local_template"] for r in rows}))


def parse_distributed(df: DataFrame, *, depth: int = 4, st: float = 0.5,
                      structured: bool = True,
                      mask: bool = False) -> tuple[DataFrame, dict[str, tuple[int, str]]]:
    """Parse ``df`` (with at least a ``message`` column) with distributed
    Drain. Returns ``(parsed_df, mapping)`` where ``parsed_df`` is ``df``
    row for row plus ``cluster_id``/``template`` columns and ``mapping``
    is the local template -> (global id, global template) fold. The merge
    tree uses the same ``st``; it parses template strings, so ``<*>``
    tokens in a local template match anything in the global tree.
    """
    # parser output *replaces* any pre-existing cluster_id/template
    # column (e.g. the generator's ground-truth template column)
    base = df.drop("cluster_id", "template")
    schema = T.StructType(base.schema.fields
                          + [T.StructField("local_template", T.StringType())])
    # eager: the catalogue below and the caller read this one parse; Spark
    # frees the checkpoint once the returned frame is unreachable
    local = base.mapInPandas(_local_parse_factory(depth, st, structured, mask),
                             schema=schema).localCheckpoint()
    catalogue = sorted(r["local_template"] for r in  # deterministic merge order
                       local.select("local_template").distinct().collect())
    _, mapping = merge_templates(catalogue, depth=depth, st=st)
    map_df = df.sparkSession.createDataFrame(
        [(tpl, gid, gtpl) for tpl, (gid, gtpl) in mapping.items()],
        schema="local_template string, cluster_id long, template string",
    )
    out = (local.join(F.broadcast(map_df), on="local_template", how="left")
           .select(*base.columns, "cluster_id", "template"))
    return out, mapping


def tag_lines(pdf: pd.DataFrame, tree: Drain) -> pd.DataFrame:
    """Add ``template``/``variables`` to ``pdf``: each message is
    preprocessed (with §IV structured-data extraction) and tokenized once
    and matched against the unchanging global tree; a hit's variables are
    its tokens at the cluster's ``<*>`` positions (what
    :func:`~repro.parsing.drain.extract_variables` gives). A miss keeps
    its own tokens, as a new Drain cluster's first line would, and has no
    variables."""
    slots = {c.cluster_id: (c.template, [i for i, t in enumerate(c.tokens) if t == WILDCARD])
             for c in tree.clusters}
    templates, variables = [], []
    for message in pdf["message"]:
        toks = tokenize(preprocess(message))
        hit = tree.match_tokens(toks)
        if hit is None:
            templates.append(" ".join(toks))
            variables.append([])
        else:
            template, wild = slots[hit.cluster_id]
            templates.append(template)
            variables.append([toks[i] for i in wild])
    pdf["template"] = templates
    pdf["variables"] = variables
    return pdf


def match_fitted(df: DataFrame, b_parser: Broadcast) -> DataFrame:
    """Add ``template``/``variables`` to ``df`` in one narrow pass of
    :func:`tag_lines` against the broadcast tree ``b_parser``."""
    base = df.drop("cluster_id", "template", "variables")
    schema = T.StructType(base.schema.fields + [
        T.StructField("template", T.StringType()),
        T.StructField("variables", T.ArrayType(T.StringType())),
    ])

    def tag(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            yield tag_lines(pdf, b_parser.value)

    return base.mapInPandas(tag, schema=schema)


def parse_single_node(df: DataFrame, *, depth: int = 4, st: float = 0.5,
                      structured: bool = True, mask: bool = False) -> tuple[pd.DataFrame, Drain]:
    """Reference single-node parse of the same frame (collect + one tree);
    the baseline T8 compares the distributed variant's throughput against."""
    pdf = df.select("line_id", "message").toPandas()
    parser = _drain(depth, st, structured, mask)
    pdf["cluster_id"] = [cid for cid, _ in parser.parse_many(pdf["message"])]
    pdf["template"] = _final_templates(parser, pdf["cluster_id"])
    return pdf, parser
