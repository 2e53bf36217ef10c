"""Brute-force exact search (Table V's LOVO(BF), and the w/o-ANNS ablation).

Scores every stored vector against the query with a distributed
dot-product scan, takes the global top-k, and joins the relational
metadata — the full-database-scan path that Algorithm 1 avoids.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

_SCORE_SCHEMA = T.StructType(
    [
        T.StructField("patch_id", T.LongType()),
        T.StructField("score", T.DoubleType()),
    ]
)


def score_vectors(vectors: DataFrame, q: np.ndarray, cost=None) -> DataFrame:
    """(patch_id, score) with score = q·embedding, computed in Arrow batches.

    ``cost`` (a :class:`repro.vocab.encoders.CostModel`) burns
    ``ann_scan_vector`` units per vector scored, so a full scan pays for
    every vector it touches while the indexed path pays only for its
    candidates — the latency asymmetry behind the paper's w/o-ANNS
    ablation, which Spark overhead alone would mask at small scale.
    """
    qv = np.asarray(q, dtype=np.float64)  # ships with the task closure

    def _score(batches):
        for pdf in batches:
            if not len(pdf):
                continue
            if cost is not None:
                cost.burn("ann_scan_vector", len(pdf))
            X = np.stack(pdf["embedding"].to_numpy())
            yield pd.DataFrame(
                {"patch_id": pdf["patch_id"].to_numpy(), "score": X @ qv}
            )

    return vectors.select("patch_id", "embedding").mapInPandas(
        _score, schema=_SCORE_SCHEMA
    )


def search_bf(store, q: np.ndarray, *, k: int = 50, cost=None) -> DataFrame:
    """Exact top-k hits with metadata attached, sorted by descending score.

    Score ties are broken by ascending ``patch_id``, as in the IVF-PQ and
    HNSW paths, so the answer does not depend on partitioning.
    """
    order = [F.desc("score"), F.asc("patch_id")]
    topk = score_vectors(store.vectors, q, cost).orderBy(*order).limit(k)
    return topk.join(store.meta, "patch_id").orderBy(*order)
