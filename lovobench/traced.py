"""The traced run: per-layer time and Spark work, measured at layer boundaries.

Each layer is timed by calling its public function from here and forcing
the lazy DataFrame it returns, in the order ``LOVO.build`` and
``LOVO.query`` use. Every span runs under a fresh Spark job group, so
the jobs, stages and tasks read back from ``sc.statusTracker()`` belong
to that span alone (a reused group id would add up across calls).

Every per-layer metric is measured on every workload: besides the
workload's own query path, each query also probes the search layers the
workload does not use (and rerank, on a workload without it), so a
layer's figures can be read on any corpus. Only the workload's own path
enters ``core.pipeline.other_s`` and ``trace.overhead_s``, which are
paired per query against an untraced ``LOVO.query`` of the same query.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import functions as F

from harness import AnswerChecker, Corpus, Reference, Workload, config, drain_listener, median
from repro.core import LOVO
from repro.core.rerank import rerank_frames
from repro.core.summary import encode_patches, keyframe_patches
from repro.index.hnsw import search_hnsw
from repro.index.ivf import build_index
from repro.index.search_bf import search_bf
from repro.index.search_ivfpq import search_ivfpq
from repro.video.generator import frames_df
from repro.video.keyframe import select_keyframes


@dataclass(frozen=True)
class Span:
    time_s: float
    jobs: int
    stages: int
    tasks: int


class Tracer:
    """Times a call and counts the Spark jobs, stages and tasks it launched."""

    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self._n = 0

    def span(self, fn):
        self._n += 1
        group = f"lovobench-span-{self._n}"
        self.sc.setJobGroup(group, group)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - t0
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        drain_listener(self.spark)
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stage_ids = set()
        for j in jobs:
            info = st.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
        stages = tasks = 0
        for s in stage_ids:  # skipped stages (shuffle output reused) ran no task
            info = st.getStageInfo(s)
            ran = info.numCompletedTasks + info.numFailedTasks if info else 0
            if ran:
                stages += 1
                tasks += ran
        return out, Span(dt, len(jobs), stages, tasks)


def _persisted(df):
    df = df.persist()
    return df, df.count()


class _Samples(dict):
    def add(self, name: str, value: float) -> None:
        self.setdefault(name, []).append(float(value))


def run(spark, wl: Workload, corpus: Corpus, *, seconds: float) -> dict:
    cfg = config()
    tr = Tracer(spark)
    out: dict[str, float] = {}

    # -- build, layer by layer (LOVO.build order) --------------------------
    frames = frames_df(corpus.patches)
    n_frames = frames.count()
    (kfs, n_kf), s = tr.span(lambda: _persisted(select_keyframes(
        frames, threshold=cfg.kf_threshold, interval=cfg.kf_interval)))
    out["video.keyframe.time_s"] = s.time_s
    out["video.keyframe.ratio"] = n_kf / n_frames
    (encoded, n_vec), s = tr.span(lambda: _persisted(
        encode_patches(keyframe_patches(corpus.patches, kfs), cfg)))
    out["core.summary.time_s"] = s.time_s
    out["core.summary.vectors"] = n_vec
    out["core.summary.tasks"] = s.tasks
    (quant, store), s = tr.span(lambda: build_index(
        encoded, n_subspaces=cfg.n_subspaces, k_coarse=cfg.k_coarse,
        k_residual=cfg.k_residual, train_sample=cfg.train_sample, seed=cfg.seed,
        cache=False))
    out["index.ivf.time_s"] = s.time_s
    _, s = tr.span(store.cache)
    out["index.store.cache_time_s"] = s.time_s
    out["index.store.tasks"] = s.tasks
    component_rows = store.components.count()
    out["index.store.component_rows"] = component_rows

    system = LOVO(spark, cfg)
    system.quant, system.store = quant, store  # the outputs LOVO.build sets
    shards, s = tr.span(system.hnsw_shards)
    out["index.hnsw.build_time_s"] = s.time_s
    out["index.hnsw.graph_bytes"] = shards.select(F.sum(F.length("blob"))).first()[0]

    # -- funnel tables, once per run ---------------------------------------
    postings = np.zeros((quant.n_subspaces, quant.coarse.shape[1]))
    for r in store.components.groupBy("p", "cluster").count().collect():
        postings[r["p"], r["cluster"]] = r["count"]
    ref = Reference(store)
    check = AnswerChecker(wl, corpus, system, ref)
    failures: list[str] = []

    def rerank(q, hits):
        frame_keys = sorted({(r["video_id"], r["frame_idx"]) for r in hits})
        cand = spark.createDataFrame(frame_keys, "video_id int, frame_idx int")
        frame_patches = store.meta.join(F.broadcast(cand), ["video_id", "frame_idx"])
        ranked, s = tr.span(lambda: (
            rerank_frames(frame_patches, q, cfg)
            .orderBy(F.desc("rerank_score"), F.asc("video_id"), F.asc("frame_idx"))
            .limit(cfg.n if cfg.n else len(frame_keys))
            .collect()))
        return ranked, s, frame_keys

    def search(variant, qv, k):
        if variant == "ivfpq":
            return tr.span(lambda: search_ivfpq(
                store, quant, qv, top_a=cfg.top_a, k=k, cost=cfg.cost()).collect())
        if variant == "bf":
            return tr.span(lambda: search_bf(store, qv, k=k, cost=cfg.cost()).collect())
        return tr.span(lambda: search_hnsw(
            shards, store.meta, qv, k=k, ef=cfg.hnsw_ef).collect())

    def traced_query(q, samples: _Samples) -> float:
        """All layers for one query; returns the wall time of the own path."""
        k = corpus.k[q.qid]
        t0 = time.perf_counter()
        qv = system.encode_query(q)
        hits, own_search = search(wl.variant, qv, k)
        own_spans = own_search.time_s
        if wl.rerank:
            _, rr, frame_keys = rerank(q, hits)
            own_spans += rr.time_s
        own_wall = time.perf_counter() - t0
        samples.add("own_spans_s", own_spans)

        # probes of the layers outside the workload's own path
        if not wl.rerank:
            _, rr, frame_keys = rerank(q, hits)
        found = {wl.variant: (hits, own_search)}
        for v in ("ivfpq", "bf", "hnsw"):
            if v != wl.variant:
                found[v] = search(v, qv, k)
        (clut, _), lut = tr.span(lambda: (quant.coarse_lut(qv), quant.residual_lut(qv)))

        a = min(cfg.top_a, clut.shape[1])
        visited = sum(postings[p, np.argsort(-clut[p])[:a]].sum() for p in range(len(clut)))
        recall = {v: ref.recall(qv, k, [r["patch_id"] for r in h]) for v, (h, _) in found.items()}
        samples.add("index.pq.lut_time_s", lut.time_s)
        for prefix, v, key in (("index.search_ivfpq.", "ivfpq", ""),
                               ("index.search_bf.", "bf", ""),
                               ("index.hnsw.", "hnsw", "search_")):
            sp = found[v][1]
            samples.add(f"{prefix}{key}time_s", sp.time_s)
            samples.add(f"{prefix}{key}jobs", sp.jobs)
            samples.add(f"{prefix}{key}stages", sp.stages)
            samples.add(f"{prefix}{key}tasks", sp.tasks)
        samples.add("index.search_ivfpq.postings_visited", visited)
        samples.add("index.search_ivfpq.scan_fraction", visited / component_rows)
        samples.add("index.search_ivfpq.recall_at_k", recall["ivfpq"])
        samples.add("index.search_bf.vectors_scored", len(ref.ids))
        samples.add("index.hnsw.recall_at_k", recall["hnsw"])
        samples.add("core.rerank.time_s", rr.time_s)
        samples.add("core.rerank.jobs", rr.jobs)
        samples.add("core.rerank.stages", rr.stages)
        samples.add("core.rerank.tasks", rr.tasks)
        samples.add("core.rerank.frames", len(frame_keys))
        samples.add("core.rerank.patch_rows", sum(ref.frame_rows[f] for f in frame_keys))
        return own_wall

    def untraced(q) -> float | None:
        t0 = time.perf_counter()
        try:
            res = system.query(q, variant=wl.variant, use_rerank=wl.rerank, k=corpus.k[q.qid])
        except Exception as e:  # a failed query is counted, never dropped
            failures.append(f"{q.qid}: raised {type(e).__name__}: {e}")
            return None
        dt = time.perf_counter() - t0
        problems = check(q, res.results)
        if problems:
            failures.append(f"{q.qid}: " + "; ".join(problems))
        return dt

    for q in corpus.queries:  # untimed warm-up round of the plain query path
        system.query(q, variant=wl.variant, use_rerank=wl.rerank, k=corpus.k[q.qid])
    traced_query(corpus.queries[0], _Samples())  # and of the traced layer calls

    samples = _Samples()
    n_q, done = len(corpus.queries), 0
    t_start = time.perf_counter()
    while done % n_q or done == 0 or time.perf_counter() - t_start < seconds:
        q = corpus.queries[done % n_q]
        done += 1
        plain = untraced(q)
        if plain is None:
            continue
        traced = traced_query(q, samples)
        samples.add("latency_s", plain)
        samples.add("core.pipeline.other_s", plain - samples["own_spans_s"][-1])
        samples.add("trace.overhead_s", traced - plain)

    system.close()
    encoded.unpersist()
    kfs.unpersist()
    for name, values in samples.items():
        if name not in ("latency_s", "own_spans_s"):
            out[name] = median(values)
    return {
        "metrics": out,
        "detail": {
            "attempted": done,
            "failed": len(failures),
            "failures": failures,
            "untraced_latency_p50_s": median(samples["latency_s"]),
            "own_path_spans_p50_s": median(samples["own_spans_s"]),
            "samples": dict(samples),
        },
    }
