"""The untraced run: set-up, then one client querying in a closed loop.

Reports the eight end-to-end metrics of a workload. Nothing here sets a
Spark job group or reads the status tracker, so the timed queries run
exactly as a user's would.
"""
from __future__ import annotations

import time

from harness import (
    AnswerChecker, Corpus, Reference, Workload, config, drain_listener, median,
    storage_bytes, tail,
)
from repro.core import LOVO
from repro.video.groundtruth import evaluate_ranking

#: Seconds of untimed whole queries before timing starts.
WARMUP_S = 5.0


def setup(spark, wl: Workload, corpus: Corpus, reps: int):
    """Build the system ``reps`` times from the cached corpus; keep the last.

    Each earlier build is closed first, so every repetition does the
    whole build rather than finding its tables already cached.
    """
    before = set(storage_bytes(spark))
    times, system = [], None
    for _ in range(reps):
        if system is not None:
            system.close()
        system = LOVO(spark, config())
        t0 = time.perf_counter()
        system.build(corpus.patches)
        if wl.variant == "hnsw":
            system.hnsw_shards()
        times.append(time.perf_counter() - t0)
    drain_listener(spark)
    index_bytes = sum(b for i, b in storage_bytes(spark).items() if i not in before)
    return system, times, index_bytes


def run(spark, wl: Workload, corpus: Corpus, *, seconds: float, setup_reps: int,
        inject_fault: bool = False) -> dict:
    t_setup = time.perf_counter()
    system, setup_times, index_bytes = setup(spark, wl, corpus, setup_reps)
    t_warm = time.perf_counter()
    ref = Reference(system.store)
    check = AnswerChecker(wl, corpus, system, ref)

    def ask(q):
        return system.query(q, variant=wl.variant, use_rerank=wl.rerank, k=corpus.k[q.qid])

    # untimed warm-up: every query's fast search, collected exactly as
    # LOVO.query collects it (its ids give recall@k), then whole queries
    # for WARMUP_S, since the JVM keeps speeding up over its first queries
    recall = {}
    for q in corpus.queries:
        k = corpus.k[q.qid]
        hits = system.fast_search(q, variant=wl.variant, k=k).collect()
        recall[q.qid] = ref.recall(system.encode_query(q), k, [r["patch_id"] for r in hits])
    t_warm_queries = time.perf_counter()
    n_warm = 0
    while n_warm == 0 or time.perf_counter() - t_warm_queries < WARMUP_S:
        ask(corpus.queries[n_warm % len(corpus.queries)])
        n_warm += 1
    t_start = time.perf_counter()

    latencies: list[float] = []
    failures: list[str] = []
    attempted = 0
    n_q = len(corpus.queries)
    # closed loop over whole rounds of the workload's queries, so every run
    # has the same query mix; at least one round, so every query is scored
    while attempted % n_q or attempted == 0 or time.perf_counter() - t_start < seconds:
        q = corpus.queries[attempted % n_q]
        attempted += 1
        t0 = time.perf_counter()
        try:
            results = ask(q).results
        except Exception as e:  # a failed query is counted, never dropped
            failures.append(f"{q.qid}: raised {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        if inject_fault and attempted == 1:
            results = results[::-1]  # self-test: a corrupted answer must be caught
        problems = check(q, results)
        if problems:
            failures.append(f"{q.qid}: " + "; ".join(problems))
            continue
        latencies.append(dt)
    elapsed = time.perf_counter() - t_start
    phases = {"setup_s": t_warm - t_setup, "warmup_s": t_start - t_warm, "warmup_queries": n_warm,
              "timed_s": elapsed}
    system.close()

    aveps = {qid: evaluate_ranking(res, corpus.gt[qid]).avep for qid, res in check.answers.items()}
    metrics, detail = {}, {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "error_rate": len(failures) / attempted,
        "setup_samples_s": setup_times,
        "latency_samples_s": latencies,
        "avep_per_query": aveps,
        "recall_per_query": recall,
        "k_per_query": corpus.k,
        "phases": phases,
    }
    metrics["setup_s"] = median(setup_times)
    if latencies:
        value, pct, n = tail(latencies)
        metrics["latency_p50_s"] = median(latencies)
        metrics["latency_tail_s"] = value
        detail["latency_tail"] = {"percentile": pct, "n": n}
        metrics["throughput_qps"] = len(latencies) / elapsed
    if aveps:
        metrics["avep"] = sum(aveps.values()) / len(aveps)
    metrics["recall_at_k"] = sum(recall.values()) / len(recall)
    metrics["index_mem_mb"] = index_bytes / 2**20
    return {"metrics": metrics, "detail": detail}
