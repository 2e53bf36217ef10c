"""Brute-force exact search (Table V's LOVO(BF), and the w/o-ANNS ablation).

Scores every stored vector against the query — the full-database scan
that Algorithm 1 avoids — as one Arrow read of ``vectors`` and one
matrix-vector product in driver numpy, then ranks and attaches the
relational metadata with ``top_hits`` (one ``meta`` read): two Spark
jobs and no Python worker.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.index.store import top_hits


def search_bf(store, q: np.ndarray, *, k: int = 50, cost=None) -> DataFrame:
    """Exact top-k hits with metadata attached, sorted by descending score.

    Score ties are broken by ascending ``patch_id``, as in the IVF-PQ and
    HNSW paths, so the answer does not depend on partitioning.
    ``cost`` (a :class:`repro.vocab.encoders.CostModel`) burns
    ``ann_scan_vector`` units on the driver, one per vector scored, so a
    full scan pays for every vector it touches while the indexed path
    pays only for its candidates — the latency asymmetry behind the
    paper's w/o-ANNS ablation, which Spark overhead alone would mask at
    small scale.
    """
    q = np.asarray(q, dtype=np.float64)
    vec = store.vectors.select("patch_id", "embedding").toArrow()
    if cost is not None:
        cost.burn("ann_scan_vector", vec.num_rows)
    emb = vec.column("embedding").combine_chunks()
    X = emb.flatten().to_numpy().reshape(vec.num_rows, q.size)
    return top_hits(store.meta, vec.column("patch_id").to_numpy(), X @ q, k)
