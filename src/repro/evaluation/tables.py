"""Experiment runners — one function per table of EXPERIMENTS.md.

The paper reports no result tables (PhD-symposium design paper); each
runner here executes one of the experiments it *plans* (§III bullets, the
§IV parser benchmark with Eq. 1, the §V feedback-trained classifier) and
returns a pandas frame shaped like the table EXPERIMENTS.md records.

Sizing: every runner takes explicit stream sizes so unit tests run them
small (seconds) and benchmarks run them at the documented scale.
Structuring (sessionization, time windows) always goes through Spark
(:mod:`repro.detect.sequences`); model math runs on the driver; scoring
of the MoniLog core row is distributed (broadcast + ``mapInPandas``).
"""
from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.classify.classifier import AnomalyClassifier
from repro.classify.pools import PoolSystem, make_report
from repro.detect.invariants import InvariantMiner
from repro.detect.logcluster import LogClusterDetector
from repro.detect.loganomaly import LogAnomalyDetector
from repro.detect.ngram import NGramDetector
from repro.detect.pca import PCADetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.semantic import SemanticDetector
from repro.detect.sequences import (count_matrix, session_sequences,
                                    time_window_sequences)
from repro.evaluation.labels import gt_criticality, gt_pool, prf
from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate


# -- shared plumbing -------------------------------------------------------

def structure(spark: SparkSession, pdf: pd.DataFrame, *, by: str = "session",
              window: str = "30 seconds") -> pd.DataFrame:
    """Structure a generated stream into sequences via Spark."""
    df = spark.createDataFrame(pdf)
    if by == "session":
        seq = session_sequences(df)
    elif by == "window":
        seq = time_window_sequences(df, window=window)
    else:
        raise ValueError(f"unknown structuring {by!r}")
    out = seq.toPandas().sort_values("session_id").reset_index(drop=True)
    out["events"] = out["events"].apply(list)
    return out


def template_map(*streams: pd.DataFrame) -> dict[str, str]:
    """Ground-truth event id -> template text over the given streams."""
    out: dict[str, str] = {}
    for pdf in streams:
        for eid, tpl in zip(pdf["event_id"], pdf["template"]):
            out.setdefault(eid, tpl)
    return out


def value_rows(pdf: pd.DataFrame):
    for r in pdf.itertuples():
        yield r.event_id, (r.values.split("\x1f") if r.values else [])


def _counts(train_seq: pd.DataFrame, test_seq: pd.DataFrame):
    Xtr, vocab, _, _ = count_matrix(train_seq, unknown_bucket=True)
    Xte, _, yte, _ = count_matrix(test_seq, vocab, unknown_bucket=True)
    return Xtr, Xte, yte


# -- Table 1: anomaly-free training comparison (§III experiment 1) ---------

def run_table1(spark: SparkSession, *, n_train: int = 1500, n_test: int = 600,
               n_sup: int = 1200, anomaly_rate: float = 0.06,
               seed: int = 100) -> pd.DataFrame:
    """P/R/F1 of every §III approach, trained anomaly-free (except the
    supervised LogRobust rows), under two protocols: sequential-only
    anomalies (the cited HDFS-style protocol) and the paper's full
    sequential+quantitative mix."""
    rows = []
    for protocol, quant_share in (("sequential", 0.0), ("seq+quant", 0.4)):
        train = generate(StreamSpec(n_sessions=n_train, anomaly_rate=0.0, seed=seed))
        test = generate(StreamSpec(n_sessions=n_test, anomaly_rate=anomaly_rate,
                                   quant_share=quant_share, seed=seed + 1))
        sup = generate(StreamSpec(n_sessions=n_sup, anomaly_rate=0.5,
                                  quant_share=quant_share, seed=seed + 2))
        strain = structure(spark, train)
        stest = structure(spark, test)
        ssup = structure(spark, sup)
        y = stest["label"].tolist()
        tmap = template_map(train, test, sup)

        def add(model_name: str, preds, trained_on: str):
            r = prf(y, preds)
            rows.append({"protocol": protocol, "model": model_name,
                         "training": trained_on, **r.row()})

        ng = NGramDetector().fit(strain["events"])
        p_seq = ng.predict(stest["events"])
        add("DeepLog-seq (n-gram)", p_seq, "anomaly-free")

        qm = ValueRangeDetector().fit(value_rows(train))
        qflags = {sid: qm.session_flag(value_rows(sess))
                  for sid, sess in test.groupby("session_id")}
        p_full = [int(a or qflags[s])
                  for a, s in zip(p_seq, stest["session_id"])]
        add("MoniLog core (seq+quant)", p_full, "anomaly-free")

        la = LogAnomalyDetector().fit(list(strain["events"]), tmap)
        add("LogAnomaly", la.predict(stest["events"], tmap), "anomaly-free")

        tseq = [[tmap[e] for e in s] for s in stest["events"]]
        sem_sup = SemanticDetector().fit(
            [[tmap[e] for e in s] for s in ssup["events"]], ssup["label"].tolist())
        add("LogRobust (semantic)", sem_sup.predict(tseq), "supervised 50%")
        sem_free = SemanticDetector().fit(
            [[tmap[e] for e in s] for s in strain["events"]], strain["label"].tolist())
        add("LogRobust (semantic)", sem_free.predict(tseq), "anomaly-free")

        Xtr, Xte, _ = _counts(strain, stest)
        add("PCA", PCADetector().fit(Xtr).predict(Xte), "anomaly-free")
        add("Invariant Mining", InvariantMiner().fit(Xtr).predict(Xte), "anomaly-free")
        add("LogClustering", LogClusterDetector().fit(Xtr).predict(Xte), "anomaly-free")
    return pd.DataFrame(rows)


# -- Table 2: robustness to parsing errors (§III experiment 2) -------------

def run_table2(spark: SparkSession, *, n_train: int = 1500, n_test: int = 600,
               n_sup: int = 1200, anomaly_rate: float = 0.06,
               rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
               seed: int = 200) -> pd.DataFrame:
    """F1 of the sequence detectors vs the rate of parser-splitting errors
    injected into *test* event ids (one true template seen as several)."""
    train = generate(StreamSpec(n_sessions=n_train, anomaly_rate=0.0, seed=seed))
    test = generate(StreamSpec(n_sessions=n_test, anomaly_rate=anomaly_rate,
                               quant_share=0.0, seed=seed + 1))
    sup = generate(StreamSpec(n_sessions=n_sup, anomaly_rate=0.5,
                              quant_share=0.0, seed=seed + 2))
    strain, stest, ssup = (structure(spark, s) for s in (train, test, sup))
    y = stest["label"].tolist()
    tmap = template_map(train, test, sup)

    ng = NGramDetector().fit(strain["events"])
    la = LogAnomalyDetector().fit(list(strain["events"]), tmap)
    sem = SemanticDetector().fit(
        [[tmap[e] for e in s] for s in ssup["events"]], ssup["label"].tolist())

    rows = []
    for rate in rates:
        noisy = instability.sequence_parse_noise(
            dict(zip(stest["session_id"], stest["events"])), rate, seed=seed + 7)
        seqs = [noisy[s] for s in stest["session_id"]]
        # a split id keeps nearly the full template text plus a junk token,
        # which is what an over-split parser cluster looks like
        noisy_tmap = dict(tmap)
        for s in seqs:
            for e in s:
                if e not in noisy_tmap and "#pe" in e:
                    base = e.split("#pe")[0]
                    noisy_tmap[e] = tmap.get(base, "") + f" pe{e.rsplit('#pe', 1)[1]}"
        rows.append({"noise_rate": rate, "model": "DeepLog-seq (n-gram)",
                     **prf(y, ng.predict(seqs)).row()})
        rows.append({"noise_rate": rate, "model": "LogAnomaly",
                     **prf(y, la.predict(seqs, noisy_tmap)).row()})
        tseqs = [[noisy_tmap[e] for e in s] for s in seqs]
        rows.append({"noise_rate": rate, "model": "LogRobust (semantic)",
                     **prf(y, sem.predict(tseqs)).row()})
    return pd.DataFrame(rows)


# -- Table 3: multi-source mixing (§III experiment 3) ----------------------

def run_table3(spark: SparkSession, *, n_train: int = 2000, n_test: int = 800,
               anomaly_rate: float = 0.06, window: str = "30 seconds",
               source_counts: tuple[int, ...] = (1, 8),
               seed: int = 300) -> pd.DataFrame:
    """Sequence learner (DeepLog-style) vs the counter family (PCA, IM,
    LogClustering) as source flows mix: per-session structuring vs
    fixed time windows over the interleaved stream."""
    rows = []
    for n_sources in source_counts:
        spread = 120.0 * n_sources  # keep per-window mixing comparable
        train = generate(StreamSpec(n_sessions=n_train, n_sources=n_sources,
                                    anomaly_rate=0.0, session_spread_s=spread,
                                    jitter_s=0.5, seed=seed))
        test = generate(StreamSpec(n_sessions=n_test, n_sources=n_sources,
                                   anomaly_rate=anomaly_rate, quant_share=0.0,
                                   session_spread_s=spread * n_test / n_train,
                                   jitter_s=0.5, seed=seed + 1))
        for by in ("session", "window"):
            strain = structure(spark, train, by=by, window=window)
            stest = structure(spark, test, by=by, window=window)
            y = stest["label"].tolist()

            ng = NGramDetector().fit(strain["events"])
            rows.append({"n_sources": n_sources, "structuring": by,
                         "model": "DeepLog-seq (n-gram)",
                         **prf(y, ng.predict(stest["events"])).row()})
            Xtr, Xte, _ = _counts(strain, stest)
            for name, det in (("PCA", PCADetector()),
                              ("Invariant Mining", InvariantMiner()),
                              ("LogClustering", LogClusterDetector())):
                rows.append({"n_sources": n_sources, "structuring": by,
                             "model": name,
                             **prf(y, det.fit(Xtr).predict(Xte)).row()})
    return pd.DataFrame(rows)


# -- Table 4: log instability (LogRobust protocol, §III) -------------------

def run_table4(spark: SparkSession, *, n_train: int = 1500, n_test: int = 600,
               n_sup: int = 1200, anomaly_rate: float = 0.06,
               ratios: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20),
               seed: int = 400) -> pd.DataFrame:
    """F1 vs proportion of unstable log events (twisted statements,
    parse errors, duplicates, shuffles) injected into the test stream."""
    train = generate(StreamSpec(n_sessions=n_train, anomaly_rate=0.0, seed=seed))
    test = generate(StreamSpec(n_sessions=n_test, anomaly_rate=anomaly_rate,
                               quant_share=0.0, seed=seed + 1))
    sup = generate(StreamSpec(n_sessions=n_sup, anomaly_rate=0.5,
                              quant_share=0.0, seed=seed + 2))
    strain, ssup = structure(spark, train), structure(spark, sup)
    tmap_train = template_map(train, sup)

    ng = NGramDetector().fit(strain["events"])
    la = LogAnomalyDetector().fit(list(strain["events"]), tmap_train)
    sem = SemanticDetector().fit(
        [[tmap_train[e] for e in s] for s in ssup["events"]], ssup["label"].tolist())
    Xtr, vocab, _, _ = count_matrix(strain, unknown_bucket=True)
    counter = {"PCA": PCADetector().fit(Xtr),
               "Invariant Mining": InvariantMiner().fit(Xtr),
               "LogClustering": LogClusterDetector().fit(Xtr)}

    rows = []
    for ratio in ratios:
        altered, _ = instability.inject(test, ratio, seed=seed + 5)
        stest = structure(spark, altered)
        y = stest["label"].tolist()
        tmap = dict(tmap_train)
        tmap.update(template_map(altered))
        rows.append({"instability": ratio, "model": "DeepLog-seq (n-gram)",
                     **prf(y, ng.predict(stest["events"])).row()})
        rows.append({"instability": ratio, "model": "LogAnomaly",
                     **prf(y, la.predict(stest["events"], tmap)).row()})
        tseqs = [[tmap.get(e, e) for e in s] for s in stest["events"]]
        rows.append({"instability": ratio, "model": "LogRobust (semantic)",
                     **prf(y, sem.predict(tseqs)).row()})
        Xte, _, _, _ = count_matrix(stest, vocab, unknown_bucket=True)
        for name, det in counter.items():
            rows.append({"instability": ratio, "model": name,
                         **prf(y, det.predict(Xte)).row()})
    return pd.DataFrame(rows)


# -- Table 5: online parser benchmark (§IV) --------------------------------

def run_table5(spark: SparkSession, *, n_sessions: int = 600, n_sources: int = 8,
               seed: int = 500, spell_max_lines: int | None = None) -> pd.DataFrame:
    """Grouping accuracy, Eq. 1 token accuracy (literal and strict),
    template counts and throughput for Drain (3 settings of st — the §IV
    parameter-sensitivity point), Spell, and distributed Drain; each with
    and without §IV preprocessing (structured-data extraction, masking)."""
    import time

    from repro.parsing import metrics
    from repro.parsing.distributed import parse_distributed
    from repro.parsing.drain import Drain
    from repro.parsing.preprocess import preprocess
    from repro.parsing.spell import Spell

    stream = generate(StreamSpec(n_sessions=n_sessions, n_sources=n_sources,
                                 anomaly_rate=0.02, seed=seed))
    messages = stream["message"].tolist()
    gt_ids = stream["event_id"].tolist()

    def eq1_rows(pred_templates, prep):
        return [(pred_templates[i], prep(stream["message"].iloc[i]),
                 stream["template"].iloc[i],
                 stream["values"].iloc[i].split("\x1f") if stream["values"].iloc[i] else [])
                for i in range(len(stream))]

    preps = {
        "none": lambda m: m,
        "structured": lambda m: preprocess(m, structured=True),
        "structured+mask": lambda m: preprocess(m, structured=True, mask=True),
    }
    rows = []
    for prep_name, prep in preps.items():
        parsers = {
            "Drain st=0.3": Drain(st=0.3, preprocess=prep),
            "Drain st=0.5": Drain(st=0.5, preprocess=prep),
            "Drain st=0.7": Drain(st=0.7, preprocess=prep),
            "Spell tau=0.5": Spell(tau=0.5, preprocess=prep),
        }
        for name, parser in parsers.items():
            msgs = messages
            ids = gt_ids
            if name.startswith("Spell") and spell_max_lines:
                msgs, ids = messages[:spell_max_lines], gt_ids[:spell_max_lines]
            t0 = time.perf_counter()
            res = parser.parse_many(msgs)
            dt = time.perf_counter() - t0
            final = {c.cluster_id: c.template for c in parser.clusters}
            pred = [cid for cid, _ in res]
            pred_tpl = [final[c] for c in pred]
            sub = stream.iloc[: len(msgs)]
            eq1 = [(pred_tpl[i], prep(sub["message"].iloc[i]), sub["template"].iloc[i],
                    sub["values"].iloc[i].split("\x1f") if sub["values"].iloc[i] else [])
                   for i in range(len(sub))]
            rows.append({
                "preprocessing": prep_name, "parser": name,
                "grouping_acc": round(metrics.grouping_accuracy(ids, pred), 3),
                "eq1_token_acc": round(metrics.token_accuracy(eq1), 3),
                "eq1_strict": round(metrics.token_accuracy(eq1, strict=True), 3),
                "templates": parser.n_templates(),
                "tpl_per_gt": round(metrics.templates_per_gt(ids, pred), 2),
                "lines_per_s": int(len(msgs) / dt) if dt > 0 else 0,
            })
        # distributed Drain (structured flag handled inside; mask via flag)
        sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
        t0 = time.perf_counter()
        parsed, mapping = parse_distributed(
            sdf, st=0.5, structured=(prep_name != "none"),
            mask=(prep_name == "structured+mask"))
        got = parsed.select("line_id", "cluster_id", "template").toPandas()
        dt = time.perf_counter() - t0
        got = got.set_index("line_id").loc[stream["line_id"]]
        pred = got["cluster_id"].tolist()
        pred_tpl = got["template"].tolist()
        eq1 = eq1_rows(pred_tpl, prep)
        n_glob = len({gid for gid, _ in mapping.values()})
        rows.append({
            "preprocessing": prep_name, "parser": "Distributed Drain st=0.5",
            "grouping_acc": round(metrics.grouping_accuracy(gt_ids, pred), 3),
            "eq1_token_acc": round(metrics.token_accuracy(eq1), 3),
            "eq1_strict": round(metrics.token_accuracy(eq1, strict=True), 3),
            "templates": n_glob,
            "tpl_per_gt": round(metrics.templates_per_gt(gt_ids, pred), 2),
            "lines_per_s": int(len(messages) / dt) if dt > 0 else 0,
        })
    return pd.DataFrame(rows)


# -- Table 6: structured-data extraction (§IV JSON observation) ------------

def run_table6(spark: SparkSession, *, n_sessions: int = 400,
               seed: int = 600) -> pd.DataFrame:
    """The §IV JSON study on an API-style source: share of tokens in the
    structured tail, and Drain discovery quality with/without extraction."""
    from repro.parsing import metrics
    from repro.parsing.drain import Drain
    from repro.parsing.preprocess import preprocess, structured_token_share

    # api profile only: index 4 in the catalogue -> use 5 sources and filter
    stream = generate(StreamSpec(n_sessions=n_sessions * 5, n_sources=5,
                                 anomaly_rate=0.0, seed=seed))
    api = stream[stream["source"] == "api"].reset_index(drop=True)
    share = structured_token_share(api["message"].tolist())
    rows = []
    for extract in (False, True):
        prep = (lambda m: preprocess(m, structured=True)) if extract else (lambda m: m)
        parser = Drain(st=0.5, preprocess=prep)
        res = parser.parse_many(api["message"].tolist())
        pred = [cid for cid, _ in res]
        final = {c.cluster_id: c.template for c in parser.clusters}
        eq1 = [(final[pred[i]], prep(api["message"].iloc[i]), api["template"].iloc[i],
                api["values"].iloc[i].split("\x1f") if api["values"].iloc[i] else [])
               for i in range(len(api))]
        rows.append({
            "json_extraction": extract,
            "structured_token_share": round(share, 3),
            "grouping_acc": round(metrics.grouping_accuracy(api["event_id"].tolist(), pred), 3),
            "templates_found": parser.n_templates(),
            "gt_templates": api["event_id"].nunique(),
            "eq1_token_acc": round(metrics.token_accuracy(eq1), 3),
            "mean_tokens": round(float(np.mean([len(prep(m).split()) for m in api["message"]])), 1),
        })
    return pd.DataFrame(rows)


# -- Table 7: feedback-trained classifier (§V) -----------------------------

def run_table7(spark: SparkSession, *, n_sessions: int = 4000,
               anomaly_rate: float = 0.25,
               feedback_counts: tuple[int, ...] = (0, 25, 50, 100, 200, 400),
               seed: int = 700) -> pd.DataFrame:
    """Classifier accuracy (pool and criticality) vs the number of
    administrator actions observed — §V's passive-training loop."""
    stream = generate(StreamSpec(n_sessions=n_sessions, n_sources=8,
                                 anomaly_rate=anomaly_rate, seed=seed))
    anom = stream[stream["is_anomaly"]].sort_values(["session_id", "ts", "line_id"])
    reports = []
    for sid, sess in anom.groupby("session_id", sort=True):
        detector = "quant" if (sess["anomaly_type"] == "quant").any() else "seq"
        reports.append(make_report(sid, sess["source"].iloc[0],
                                   sess["event_id"].tolist(),
                                   sess["level"].tolist(), detector))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(reports))
    max_fb = max(feedback_counts)
    train_reports = [reports[i] for i in order[:max_fb]]
    test_reports = [reports[i] for i in order[max_fb:]]
    if not test_reports:
        raise ValueError("not enough anomaly reports for a held-out set")

    rows = []
    for k in feedback_counts:
        clf = AnomalyClassifier()
        pools = PoolSystem()
        for pool in sorted(set(gt_pool(r) for r in reports)):
            pools.create_pool(pool)
        for rep in train_reports[:k]:
            # the report lands in the default pool; the admin moves it and
            # fixes its criticality — two passive training signals
            clf.register(rep)
            pools.add(rep)
            clf.learn_from(pools.move(rep.report_id, gt_pool(rep)))
            clf.learn_from(pools.set_criticality(rep.report_id, gt_criticality(rep)))
        pool_hits = sum(clf.classify(r)[0] == gt_pool(r) for r in test_reports)
        level_hits = sum(clf.classify(r)[1] == gt_criticality(r) for r in test_reports)
        rows.append({"feedback_actions": k,
                     "pool_accuracy": round(pool_hits / len(test_reports), 3),
                     "criticality_accuracy": round(level_hits / len(test_reports), 3),
                     "n_test_reports": len(test_reports)})
    return pd.DataFrame(rows)


# -- Table 8: distribution & streaming throughput (§II scalability) --------

def run_table8(spark: SparkSession, *, n_sessions: int = 2000,
               parse_copies: int = 16,
               partitions: tuple[int, ...] = (1, 4, 16),
               stream_sessions: int = 300, stream_files: int = 4,
               shuffle_partitions: tuple[int, ...] = (4, 16),
               seed: int = 800) -> pd.DataFrame:
    """§II requires every component to be distributable. Two measurements:
    single-node vs partition-parallel Drain parse throughput, and the
    end-to-end Structured Streaming pipeline's throughput at different
    shuffle-partition settings."""
    import os
    import shutil
    import tempfile
    import time

    from repro.core.monilog import MoniLog
    from repro.parsing.distributed import parse_distributed, parse_single_node
    from repro.streaming.pipeline import StreamingMoniLog, write_stream_files

    rows = []
    stream = generate(StreamSpec(n_sessions=n_sessions, n_sources=8,
                                 anomaly_rate=0.02, seed=seed))
    # tile the stream to parse-benchmark volume (template discovery cost
    # is identical; per-line matching work is what throughput measures)
    tiles = []
    for i in range(parse_copies):
        t = stream[["line_id", "message"]].copy()
        t["line_id"] = t["line_id"] + i * len(stream)
        tiles.append(t)
    parse_pdf = pd.concat(tiles, ignore_index=True)
    n_lines = len(parse_pdf)
    base = spark.createDataFrame(parse_pdf)

    t0 = time.perf_counter()
    parse_single_node(base)
    dt = time.perf_counter() - t0
    rows.append({"stage": "parse (single-node Drain)", "partitions": 1,
                 "lines": n_lines, "seconds": round(dt, 2),
                 "lines_per_s": int(n_lines / dt)})
    for p in partitions:
        sdf = base.repartition(p)
        t0 = time.perf_counter()
        out, _ = parse_distributed(sdf)
        out.count()
        dt = time.perf_counter() - t0
        rows.append({"stage": "parse (distributed Drain)", "partitions": p,
                     "lines": n_lines, "seconds": round(dt, 2),
                     "lines_per_s": int(n_lines / dt)})

    train = generate(StreamSpec(n_sessions=600, n_sources=8,
                                anomaly_rate=0.0, seed=seed + 1))
    ml = MoniLog(spark).fit(spark.createDataFrame(train))
    test = generate(StreamSpec(n_sessions=stream_sessions, n_sources=8,
                               anomaly_rate=0.05, session_spread_s=400.0,
                               seed=seed + 2))
    old_parts = spark.conf.get("spark.sql.shuffle.partitions")
    try:
        for p in shuffle_partitions:
            spark.conf.set("spark.sql.shuffle.partitions", str(p))
            work = tempfile.mkdtemp(prefix="monilog-t8-")
            try:
                inp = os.path.join(work, "input")
                write_stream_files(test, inp, n_files=stream_files)
                sm = StreamingMoniLog(ml, work, session_gap="30 seconds",
                                      watermark="5 seconds")
                t0 = time.perf_counter()
                qp, qd = sm.start(inp, max_files_per_trigger=1)
                try:
                    sm.drain(qp, qd, rounds=6)
                finally:
                    qp.stop()
                    qd.stop()
                dt = time.perf_counter() - t0
                rows.append({"stage": "streaming end-to-end",
                             "partitions": p, "lines": len(test),
                             "seconds": round(dt, 2),
                             "lines_per_s": int(len(test) / dt)})
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old_parts)
    return pd.DataFrame(rows)
