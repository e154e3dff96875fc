"""Experiment runners — one function per table of EXPERIMENTS.md.

The paper reports no result tables (PhD-symposium design paper); each
runner here executes one of the experiments it *plans* (§III bullets, the
§IV parser benchmark with Eq. 1, the §V feedback-trained classifier) and
returns a pandas frame shaped like the table EXPERIMENTS.md records.

T1, T2 and T4 share one §III suite (:func:`_suite`, :func:`_fit_suite`):
a clean training stream, a test stream at :data:`ANOMALY_RATE` and a
50%-anomalous supervised stream, with DeepLog (n-gram) and LogAnomaly
trained anomaly-free and LogRobust supervised. T1, T3 and T4 fit the
counter family (PCA, IM, LogClustering) through :func:`_fit_counters`.

Sizing: every runner but T8 takes explicit stream sizes so unit tests run
them small (seconds) and benchmarks run them at the documented scale; T8
alone has no sizing options. Structuring (sessionization, time windows)
always goes through Spark (:mod:`repro.detect.sequences`); model math runs
on the driver, and T1's MoniLog core row is scored by MoniLog's own
:func:`~repro.detect.scoring.score_sessions`.
"""
from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import SparkSession

from repro.classify.classifier import AnomalyClassifier
from repro.classify.pools import PoolSystem, make_report
from repro.core.monilog import MoniLog
from repro.detect.invariants import InvariantMiner
from repro.detect.logcluster import LogClusterDetector
from repro.detect.loganomaly import LogAnomalyDetector
from repro.detect.ngram import NGramDetector
from repro.detect.pca import PCADetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import score_sessions
from repro.detect.semantic import SemanticDetector
from repro.detect.sequences import (count_matrix, session_sequences,
                                    time_window_sequences)
from repro.evaluation.labels import gt_criticality, gt_pool, prf
from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.parsing import metrics
from repro.parsing.distributed import parse_distributed, parse_single_node
from repro.parsing.drain import Drain
from repro.parsing.preprocess import preprocess, structured_token_share
from repro.parsing.spell import Spell
from repro.streaming.pipeline import StreamingMoniLog, write_stream_files

ANOMALY_RATE = 0.06  # share of anomalous sessions in a §III test stream (T1–T4)


# -- shared plumbing -------------------------------------------------------

def structure(spark: SparkSession, pdf: pd.DataFrame, *, by: str = "session") -> pd.DataFrame:
    """Structure a generated stream into sequences via Spark."""
    df = spark.createDataFrame(pdf)
    if by == "session":
        seq = session_sequences(df)
    elif by == "window":
        seq = time_window_sequences(df)
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
    """(ground-truth event id, variable values) of each line."""
    return zip(pdf["event_id"], (v.split("\x1f") if v else [] for v in pdf["values"]))


def _gt_lines(pdf: pd.DataFrame) -> pa.Table:
    """A generated stream as the flat tagged lines
    :func:`~repro.detect.scoring.score_sessions` reads, tagged with its
    ground truth: the event id is the template, the values the variables."""
    return pa.table({**{c: pdf[c] for c in ("session_id", "ts", "line_id", "source", "level")},
                     "template": pdf["event_id"],
                     "variables": pa.array([v for _, v in value_rows(pdf)],
                                           pa.list_(pa.string()))})


def _texts(sequences, tmap: dict[str, str]) -> list[list[str]]:
    """Event-id sequences as template-text sequences (LogRobust's input)."""
    return [[tmap[e] for e in s] for s in sequences]


def _eq1_rows(frame: pd.DataFrame, templates: list[str], prep) -> list[tuple]:
    """Eq. 1 rows for each line of a generated ``frame``: (parsed
    template, preprocessed message, ground-truth template and values)."""
    return [(tpl, prep(msg), gt, values)
            for tpl, msg, gt, (_, values) in zip(templates, frame["message"], frame["template"],
                                                 value_rows(frame), strict=True)]


def _suite(spark: SparkSession, *, n_train: int, n_test: int, n_sup: int, seed: int,
           quant_share: float = 0.0) -> tuple[list[pd.DataFrame], list[pd.DataFrame]]:
    """The §III streams: a clean training stream, a test stream at
    :data:`ANOMALY_RATE` and a 50%-anomalous supervised stream (seeds
    ``seed``, ``seed + 1`` and ``seed + 2``). Returns the generated streams
    and their Spark sessionizations, in that order."""
    streams = [generate(StreamSpec(n_sessions=n_train, anomaly_rate=0.0, seed=seed)),
               generate(StreamSpec(n_sessions=n_test, anomaly_rate=ANOMALY_RATE,
                                   quant_share=quant_share, seed=seed + 1)),
               generate(StreamSpec(n_sessions=n_sup, anomaly_rate=0.5,
                                   quant_share=quant_share, seed=seed + 2))]
    return streams, [structure(spark, s) for s in streams]


def _fit_suite(strain: pd.DataFrame, ssup: pd.DataFrame, tmap: dict[str, str]):
    """DeepLog (n-gram) and LogAnomaly trained anomaly-free on ``strain``,
    and LogRobust trained supervised on ``ssup``."""
    return (NGramDetector().fit(strain["events"]),
            LogAnomalyDetector().fit(list(strain["events"]), tmap),
            SemanticDetector().fit(_texts(ssup["events"], tmap), ssup["label"].tolist()))


def _fit_counters(strain: pd.DataFrame):
    """PCA, Invariant Mining and LogClustering fitted on ``strain``'s count
    matrix. Returns a function from a structured test frame to each
    model's predictions, by model name."""
    X, vocab, _, _ = count_matrix(strain)
    models = {"PCA": PCADetector().fit(X), "Invariant Mining": InvariantMiner().fit(X),
              "LogClustering": LogClusterDetector().fit(X)}

    def predict(stest: pd.DataFrame) -> dict[str, list[int]]:
        X_test = count_matrix(stest, vocab)[0]
        return {name: m.predict(X_test) for name, m in models.items()}

    return predict


# -- Table 1: anomaly-free training comparison (§III experiment 1) ---------

def run_table1(spark: SparkSession, *, n_train: int = 1500, n_test: int = 600,
               n_sup: int = 1200, seed: int = 100) -> pd.DataFrame:
    """P/R/F1 of every §III approach, trained anomaly-free (except the
    supervised LogRobust rows), under two protocols: sequential-only
    anomalies (the cited HDFS-style protocol) and the paper's full
    sequential+quantitative mix."""
    rows = []
    for protocol, quant_share in (("sequential", 0.0), ("seq+quant", 0.4)):
        (train, test, sup), (strain, stest, ssup) = _suite(
            spark, n_train=n_train, n_test=n_test, n_sup=n_sup, seed=seed,
            quant_share=quant_share)
        tmap = template_map(train, test, sup)
        ng, la, sem = _fit_suite(strain, ssup, tmap)
        core = score_sessions(_gt_lines(test), ng, ValueRangeDetector().fit(value_rows(train)))
        tseq = _texts(stest["events"], tmap)
        sem_free = SemanticDetector().fit(_texts(strain["events"], tmap),
                                          strain["label"].tolist())
        preds = {
            ("DeepLog-seq (n-gram)", "anomaly-free"): ng.predict(stest["events"]),
            ("MoniLog core (seq+quant)", "anomaly-free"):
                core.set_index("session_id")["pred"].loc[stest["session_id"]],
            ("LogAnomaly", "anomaly-free"): la.predict(stest["events"], tmap),
            ("LogRobust (semantic)", "supervised 50%"): sem.predict(tseq),
            ("LogRobust (semantic)", "anomaly-free"): sem_free.predict(tseq),
            **{(name, "anomaly-free"): p for name, p in _fit_counters(strain)(stest).items()},
        }
        rows += [{"protocol": protocol, "model": model, "training": training,
                  **prf(stest["label"], p).row()} for (model, training), p in preds.items()]
    return pd.DataFrame(rows)


# -- Table 2: robustness to parsing errors (§III experiment 2) -------------

def run_table2(spark: SparkSession, *, n_train: int = 1500, n_test: int = 600,
               n_sup: int = 1200, rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
               seed: int = 200) -> pd.DataFrame:
    """F1 of the sequence detectors vs the rate of parser-splitting errors
    injected into *test* event ids (one true template seen as several)."""
    (train, test, sup), (strain, stest, ssup) = _suite(
        spark, n_train=n_train, n_test=n_test, n_sup=n_sup, seed=seed)
    tmap = template_map(train, test, sup)
    ng, la, sem = _fit_suite(strain, ssup, tmap)

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
        preds = {"DeepLog-seq (n-gram)": ng.predict(seqs),
                 "LogAnomaly": la.predict(seqs, noisy_tmap),
                 "LogRobust (semantic)": sem.predict(_texts(seqs, noisy_tmap))}
        rows += [{"noise_rate": rate, "model": model, **prf(stest["label"], p).row()}
                 for model, p in preds.items()]
    return pd.DataFrame(rows)


# -- Table 3: multi-source mixing (§III experiment 3) ----------------------

def run_table3(spark: SparkSession, *, n_train: int = 2000, n_test: int = 800,
               seed: int = 300) -> pd.DataFrame:
    """Sequence learner (DeepLog-style) vs the counter family (PCA, IM,
    LogClustering) as source flows mix: per-session structuring vs
    fixed time windows over the interleaved stream."""
    rows = []
    for n_sources in (1, 8):
        spread = 120.0 * n_sources  # keep per-window mixing comparable
        train = generate(StreamSpec(n_sessions=n_train, n_sources=n_sources,
                                    anomaly_rate=0.0, session_spread_s=spread,
                                    jitter_s=0.5, seed=seed))
        test = generate(StreamSpec(n_sessions=n_test, n_sources=n_sources,
                                   anomaly_rate=ANOMALY_RATE, quant_share=0.0,
                                   session_spread_s=spread * n_test / n_train,
                                   jitter_s=0.5, seed=seed + 1))
        for by in ("session", "window"):
            strain = structure(spark, train, by=by)
            stest = structure(spark, test, by=by)
            preds = {"DeepLog-seq (n-gram)":
                         NGramDetector().fit(strain["events"]).predict(stest["events"]),
                     **_fit_counters(strain)(stest)}
            rows += [{"n_sources": n_sources, "structuring": by, "model": model,
                      **prf(stest["label"], p).row()} for model, p in preds.items()]
    return pd.DataFrame(rows)


# -- Table 4: log instability (LogRobust protocol, §III) -------------------

def run_table4(spark: SparkSession, *, n_train: int = 1500, n_test: int = 600,
               n_sup: int = 1200, ratios: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20),
               seed: int = 400) -> pd.DataFrame:
    """F1 vs proportion of unstable log events (twisted statements,
    parse errors, duplicates, shuffles) injected into the test stream."""
    (train, test, sup), (strain, _, ssup) = _suite(
        spark, n_train=n_train, n_test=n_test, n_sup=n_sup, seed=seed)
    tmap_train = template_map(train, sup)  # the altered test templates stay unseen
    ng, la, sem = _fit_suite(strain, ssup, tmap_train)
    counters = _fit_counters(strain)

    rows = []
    for ratio in ratios:
        altered, _ = instability.inject(test, ratio, seed=seed + 5)
        stest = structure(spark, altered)
        tmap = {**tmap_train, **template_map(altered)}
        preds = {"DeepLog-seq (n-gram)": ng.predict(stest["events"]),
                 "LogAnomaly": la.predict(stest["events"], tmap),
                 "LogRobust (semantic)": sem.predict(_texts(stest["events"], tmap)),
                 **counters(stest)}
        rows += [{"instability": ratio, "model": model, **prf(stest["label"], p).row()}
                 for model, p in preds.items()]
    return pd.DataFrame(rows)


# -- Table 5: online parser benchmark (§IV) --------------------------------

def _parser_row(frame: pd.DataFrame, prep, pred: list, templates: list[str],
                n_templates: int, seconds: float) -> dict:
    """T5's metric columns for one parse of ``frame``'s messages, given
    each line's cluster id and template, the parser's template count and
    the seconds the parse took."""
    ids = frame["event_id"].tolist()
    eq1 = _eq1_rows(frame, templates, prep)
    return {"grouping_acc": round(metrics.grouping_accuracy(ids, pred), 3),
            "eq1_token_acc": round(metrics.token_accuracy(eq1), 3),
            "eq1_strict": round(metrics.token_accuracy(eq1, strict=True), 3),
            "templates": n_templates,
            "tpl_per_gt": round(metrics.templates_per_gt(ids, pred), 2),
            "lines_per_s": int(len(frame) / seconds) if seconds > 0 else 0}


def run_table5(spark: SparkSession, *, n_sessions: int = 600, seed: int = 500,
               spell_max_lines: int | None = None) -> pd.DataFrame:
    """Grouping accuracy, Eq. 1 token accuracy (literal and strict),
    template counts and throughput for Drain (3 settings of st — the §IV
    parameter-sensitivity point), Spell, and distributed Drain; each with
    and without §IV preprocessing (structured-data extraction, masking)."""
    stream = generate(StreamSpec(n_sessions=n_sessions, n_sources=8,
                                 anomaly_rate=0.02, seed=seed))
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
            "Spell tau=0.5": Spell(preprocess=prep),
        }
        for name, parser in parsers.items():
            frame = stream.iloc[:spell_max_lines] if name.startswith("Spell") else stream
            t0 = time.perf_counter()
            res = parser.parse_many(frame["message"].tolist())
            dt = time.perf_counter() - t0
            rows.append({"preprocessing": prep_name, "parser": name,
                         **_parser_row(frame, prep, [cid for cid, _ in res],
                                       [tpl for _, tpl in res], parser.n_templates(), dt)})
        # distributed Drain runs the same prep inside its partitions
        sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
        t0 = time.perf_counter()
        parsed, mapping = parse_distributed(sdf, preprocess=prep)
        got = parsed.select("line_id", "cluster_id", "template").toPandas()
        dt = time.perf_counter() - t0
        got = got.set_index("line_id").loc[stream["line_id"]]
        rows.append({"preprocessing": prep_name, "parser": "Distributed Drain st=0.5",
                     **_parser_row(stream, prep, got["cluster_id"].tolist(),
                                   got["template"].tolist(),
                                   len({gid for gid, _ in mapping.values()}), dt)})
    return pd.DataFrame(rows)


# -- Table 6: structured-data extraction (§IV JSON observation) ------------

def run_table6(spark: SparkSession, *, n_sessions: int = 400,
               seed: int = 600) -> pd.DataFrame:
    """The §IV JSON study on an API-style source: share of tokens in the
    structured tail, and Drain discovery quality with/without extraction."""
    # api profile only: index 4 in the catalogue -> use 5 sources and filter
    stream = generate(StreamSpec(n_sessions=n_sessions * 5, n_sources=5,
                                 anomaly_rate=0.0, seed=seed))
    api = stream[stream["source"] == "api"].reset_index(drop=True)
    share = structured_token_share(api["message"].tolist())
    rows = []
    for extract in (False, True):
        prep = (lambda m: preprocess(m, structured=True)) if extract else (lambda m: m)
        parser = Drain(preprocess=prep)
        res = parser.parse_many(api["message"].tolist())
        pred = [cid for cid, _ in res]
        eq1 = _eq1_rows(api, [tpl for _, tpl in res], prep)
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
               feedback_counts: tuple[int, ...] = (0, 25, 50, 100, 200, 400),
               seed: int = 700) -> pd.DataFrame:
    """Classifier accuracy (pool and criticality) vs the number of
    administrator actions observed — §V's passive-training loop."""
    stream = generate(StreamSpec(n_sessions=n_sessions, n_sources=8,
                                 anomaly_rate=0.25, seed=seed))
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

def run_table8(spark: SparkSession) -> pd.DataFrame:
    """§II requires every component to be distributable. Two measurements:
    single-node vs partition-parallel Drain parse throughput, and the
    end-to-end Structured Streaming pipeline's throughput at different
    shuffle-partition settings."""
    rows = []
    stream = generate(StreamSpec(n_sessions=2000, n_sources=8, anomaly_rate=0.02, seed=800))
    # tile the stream to parse-benchmark volume (template discovery cost
    # is identical; per-line matching work is what throughput measures)
    tiles = []
    for i in range(16):
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
    for p in (1, 4, 16):
        sdf = base.repartition(p)
        t0 = time.perf_counter()
        out, _ = parse_distributed(sdf)
        out.count()
        dt = time.perf_counter() - t0
        rows.append({"stage": "parse (distributed Drain)", "partitions": p,
                     "lines": n_lines, "seconds": round(dt, 2),
                     "lines_per_s": int(n_lines / dt)})

    train = generate(StreamSpec(n_sessions=600, n_sources=8, anomaly_rate=0.0, seed=801))
    ml = MoniLog(spark).fit(spark.createDataFrame(train))
    test = generate(StreamSpec(n_sessions=300, n_sources=8, anomaly_rate=0.05,
                               session_spread_s=400.0, seed=802))
    old_parts = spark.conf.get("spark.sql.shuffle.partitions")
    try:
        for p in (4, 16):
            spark.conf.set("spark.sql.shuffle.partitions", str(p))
            work = tempfile.mkdtemp(prefix="monilog-t8-")
            try:
                inp = os.path.join(work, "input")
                write_stream_files(test, inp, n_files=4)
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
