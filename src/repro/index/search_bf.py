"""Brute-force exact search (Table V's LOVO(BF), and the w/o-ANNS ablation).

Scores every stored vector against the query — the full-database scan
that Algorithm 1 avoids — with ``scan`` (one Arrow read of ``vectors``
and one matrix-vector product in driver numpy), then ranks and attaches
the relational metadata with ``top_hits`` (one ``meta`` read): two Spark
jobs and no Python worker.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.index.store import scan, top_hits


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
    patch_id, score = scan(store.vectors, q)
    if cost is not None:
        cost.burn("ann_scan_vector", len(patch_id))
    return top_hits(store.meta, patch_id, score, k)
