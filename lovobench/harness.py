"""Shared pieces of the LOVO benchmark: workloads, corpus, reference, checks.

Everything here calls the program only through its public functions
(``generate_dataset``, ``gt_objects_pdf``, ``LOVO``, ``VectorStore``
tables) so the benchmark measures the system as a user would drive it.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import LOVOConfig
from repro.experiments.tables import job_config
from repro.queries.workload import Query, query_by_id
from repro.video.generator import generate_dataset
from repro.video.groundtruth import gt_objects_pdf
from repro.video.scenes import profile

#: Corpus scale factor of every workload (8,892 Bellevue key-frame vectors at seed 0).
BENCH_SF = 0.35


@dataclass(frozen=True)
class Workload:
    """One closed-loop query workload: a corpus and the path its queries take.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    dataset: str
    qids: tuple[str, ...]
    variant: str
    rerank: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lovo-ivfpq", "bellevue", ("Q2.1", "Q2.2", "Q2.3", "Q2.4"), "ivfpq", True),
        Workload("bf-scan", "bellevue", ("Q2.1", "Q2.2", "Q2.3", "Q2.4"), "bf", False),
        # runs by name only: a third workload does not fit the run-time budget
        # (lovobench/README.md); its layers are measured in every traced run
        Workload("hnsw-rerank", "cityscapes", ("Q1.1", "Q1.2", "Q1.3", "Q1.4"), "hnsw", True),
    )
}


def config() -> LOVOConfig:
    """The table jobs' LOVO config (cost_scale=0: pure dataflow cost)."""
    return job_config(0.0)


@dataclass
class Corpus:
    """A generated, cached corpus plus the per-query ground truth and k."""

    patches: object  # persisted DataFrame
    queries: list[Query]
    gt: dict[str, object]  # qid -> gt_objects_pdf frame
    k: dict[str, int]
    frames: set[tuple[int, int]]
    n_patches: int
    generate_s: float


def make_corpus(spark, wl: Workload, *, seed: int, sf: float) -> Corpus:
    t0 = time.perf_counter()
    patches = generate_dataset(spark, profile(wl.dataset, sf), seed=seed).persist()
    n = patches.count()
    generate_s = time.perf_counter() - t0
    queries = [query_by_id(q) for q in wl.qids]
    gt, k = {}, {}
    for q in queries:
        g = gt_objects_pdf(patches, q)
        gt[q.qid] = g
        # §VII-A: retrieve 10×|GT| results, as jobs/run_query.py does
        k[q.qid] = max(10, min(10 * g["track_id"].nunique(), 150))
    frames = {
        (r["video_id"], r["frame_idx"])
        for r in patches.select("video_id", "frame_idx").distinct().collect()
    }
    return Corpus(patches, queries, gt, k, frames, n, generate_s)


class Reference:
    """Exact numpy top-k over the collected ``store.vectors``, ties by patch_id."""

    def __init__(self, store):
        vec = store.vectors.toPandas()
        self.ids = vec["patch_id"].to_numpy()
        self.X = np.stack(vec["embedding"].to_numpy())
        meta = store.meta.select("patch_id", "video_id", "frame_idx", "pred_bbox").toPandas()
        self.meta = {
            int(p): (int(v), int(f), tuple(b))
            for p, v, f, b in zip(meta["patch_id"], meta["video_id"],
                                  meta["frame_idx"], meta["pred_bbox"])
        }
        self.frame_rows: dict[tuple[int, int], int] = {}
        for v, f, _ in self.meta.values():
            self.frame_rows[(v, f)] = self.frame_rows.get((v, f), 0) + 1

    def topk(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        s = self.X @ np.asarray(q, dtype=np.float64)
        order = np.lexsort((self.ids, -s))[:k]
        return self.ids[order], s[order]

    def recall(self, q: np.ndarray, k: int, found_ids) -> float:
        exact, _ = self.topk(q, k)
        return len(set(exact.tolist()) & {int(i) for i in found_ids}) / k

    def expected_bf(self, q: np.ndarray, k: int) -> list[tuple]:
        """What an exact scan must return: (video_id, frame_idx, bbox, score) rows."""
        ids, scores = self.topk(q, k)
        return [(*self.meta[int(p)], float(s)) for p, s in zip(ids, scores)]


def check_answer(results, *, k: int, frames: set, expected=None) -> list[str]:
    """Problems with one query's ranked results; an empty list means it passed."""
    problems = []
    if not results:
        problems.append("empty result")
    if len(results) > k:
        problems.append(f"{len(results)} results > k={k}")
    scores = [r.score for r in results]
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("scores not non-increasing")
    missing = [(r.video_id, r.frame_idx) for r in results
               if (r.video_id, r.frame_idx) not in frames]
    if missing:
        problems.append(f"{len(missing)} results name frames not in the corpus, e.g. {missing[0]}")
    if expected is not None:
        got = [(r.video_id, r.frame_idx, tuple(r.bbox), r.score) for r in results]
        if len(got) != len(expected):
            problems.append(f"{len(got)} results, exact top-k has {len(expected)}")
        for rank, (g, e) in enumerate(zip(got, expected)):
            if g[:3] != e[:3] or abs(g[3] - e[3]) > 1e-9:
                problems.append(f"rank {rank}: got {g[:2]} score {g[3]!r}, "
                                f"exact top-k has {e[:2]} score {e[3]!r}")
                break
    return problems


class AnswerChecker:
    """Checks every answer of a run; remembers the first answer per query.

    A repeated query must return exactly its first answer. On the BF
    path the answer must also equal the exact numpy top-k.
    """

    def __init__(self, wl: Workload, corpus: Corpus, system, ref: Reference):
        self.corpus = corpus
        self.expected = {
            q.qid: ref.expected_bf(system.encode_query(q), corpus.k[q.qid])
            for q in corpus.queries
        } if wl.variant == "bf" else {}
        self.answers: dict[str, list] = {}

    def __call__(self, q: Query, results) -> list[str]:
        problems = check_answer(results, k=self.corpus.k[q.qid], frames=self.corpus.frames,
                                expected=self.expected.get(q.qid))
        if q.qid in self.answers and self.answers[q.qid] != results:
            problems.append("differs from an earlier answer to the same query")
        if not problems:
            self.answers.setdefault(q.qid, results)
        return problems


def drain_listener(spark) -> None:
    """Wait until Spark's listener bus has delivered every pending event.

    The status store (storage sizes, job and stage counts) is filled
    asynchronously; reading it before the bus is empty under-counts.
    """
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()


def storage_bytes(spark) -> dict[int, int]:
    """Executor storage memory per cached RDD id (``SparkContext.getRDDStorageInfo``)."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return {int(i.id()): int(i.memSize()) for i in infos}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples above it.

    With 10 or fewer samples no such percentile exists; the maximum is
    reported at percentile 100 so the value is still a measured time.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    j = n - 11  # s[j] has exactly 10 samples above it
    return s[j], 100.0 * (j + 1) / n, n


def median(xs) -> float:
    return float(statistics.median(xs))
