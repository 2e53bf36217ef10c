"""Brute-force exact search (Table V's LOVO(BF), and the w/o-ANNS ablation).

Scores every stored vector against the query — the full-database scan
that Algorithm 1 avoids — with ``scan`` (one Arrow read of ``vectors``,
whose rows carry each hit's frame key and box, and one matrix-vector
product in driver numpy), then ranks on the driver with ``top_hits``:
one Spark job and no Python worker.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.index.store import scan, top_hits


def search_bf(store, q: np.ndarray, *, k: int = 50, cost=None) -> DataFrame:
    """Exact top-k hits (``HIT_COLUMNS`` plus ``score``), by descending score.

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
    hits = scan(store.vectors, q)
    if cost is not None:
        cost.burn("ann_scan_vector", hits.num_rows)
    return top_hits(hits, k)
