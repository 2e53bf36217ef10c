"""Vector-database storage layout (§V-B).

Three tables, mirroring the paper's split between the vector database
and the relational metadata store linked by the shared patch id:

* ``components`` — the inverted multi-index in long form: one row per
  (patch, subspace) with its coarse cluster and residual code. Filtering
  on ``(p, cluster)`` is the inverted-list lookup.
* ``vectors``    — original embeddings (centroid + residual recovers the
  original, so keeping the vector is the paper's stored-residual
  equivalent); used for the exact rescore step and brute-force search.
* ``meta``       — the "relational database": key-frame identity, tags
  (the rerank stage's token source) and the predicted bounding box.

All three are Spark DataFrames; ``save``/``load`` round-trip through
Parquet so the index is a persistent on-disk artefact, as in Milvus.
A query reads them through ``isin``, one SQL ``IN`` filter per read;
BF and IVF-PQ score ``vectors`` rows with ``scan``, and all three
searches end in ``top_hits``: their driver-side scores ranked, then the
winners' ``meta`` rows read.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T


def isin(col: str, values: list) -> Column:
    """``col IN (values)`` as one parsed SQL expression.

    ``Column.isin`` makes one py4j call per literal, this makes one. A
    tuple renders as the struct literal ``(v, f)``, matching a column
    list such as ``"(video_id, frame_idx)"``. No values match no row.
    """
    if not values:
        return F.lit(False)
    lits = (f"({','.join(map(str, v))})" if isinstance(v, tuple) else str(v) for v in values)
    return F.expr(f"{col} IN ({','.join(lits)})")


def scan(vectors: DataFrame, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(patch_id, q·x)`` of every row of ``vectors``: one Arrow read, one ``X @ q``."""
    vec = vectors.select("patch_id", "embedding").toArrow()
    emb = vec.column("embedding").combine_chunks()
    X = emb.flatten().to_numpy().reshape(vec.num_rows, q.size)
    return vec.column("patch_id").to_numpy(), X @ q


def top_hits(meta: DataFrame, patch_id: np.ndarray, score: np.ndarray, k: int) -> DataFrame:
    """The ``k`` best scored patches with their ``meta`` rows, best first.

    Ranks by descending ``score``, ties by ascending ``patch_id``, in
    numpy; reads the winners' rows with one ``patch_id IN`` filter and
    returns a local DataFrame of the meta columns plus ``score``.
    """
    best = np.lexsort((patch_id, -score))[:k]
    ranked = pd.DataFrame({"patch_id": patch_id[best], "score": score[best]})
    rows = meta.filter(isin("patch_id", ranked["patch_id"].tolist())).toPandas()
    hits = ranked.merge(rows, on="patch_id")  # an inner merge keeps the ranked order
    schema = T.StructType(meta.schema.fields + [T.StructField("score", T.DoubleType())])
    return meta.sparkSession.createDataFrame(hits[schema.names], schema)


@dataclass
class VectorStore:
    """Handle to the three index tables."""

    components: DataFrame
    vectors: DataFrame
    meta: DataFrame

    def cache(self) -> "VectorStore":
        """Materialise all tables in executor memory (index is reused per query)."""
        for df in (self.components, self.vectors, self.meta):
            df.persist()
        # force materialisation so query latency measures search, not build
        self.components.count(), self.vectors.count(), self.meta.count()
        return self

    def unpersist(self) -> None:
        for df in (self.components, self.vectors, self.meta):
            df.unpersist()

    def n_vectors(self) -> int:
        return self.vectors.count()

    def save(self, path: str) -> None:
        """Write the index to Parquet; components partitioned by subspace."""
        self.components.write.mode("overwrite").partitionBy("p").parquet(
            os.path.join(path, "components")
        )
        self.vectors.write.mode("overwrite").parquet(os.path.join(path, "vectors"))
        self.meta.write.mode("overwrite").parquet(os.path.join(path, "meta"))

    @classmethod
    def load(cls, spark: SparkSession, path: str) -> "VectorStore":
        return cls(
            components=spark.read.parquet(os.path.join(path, "components")),
            vectors=spark.read.parquet(os.path.join(path, "vectors")),
            meta=spark.read.parquet(os.path.join(path, "meta")),
        )
