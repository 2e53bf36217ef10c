"""Vector-database storage layout (§V-B).

Three tables, mirroring the paper's split between the vector database
and the relational metadata store linked by the shared patch id:

* ``components`` — the inverted multi-index in long form: one row per
  (patch, subspace) with its coarse cluster and residual code. Filtering
  on ``(p, cluster)`` is the inverted-list lookup.
* ``vectors``    — original embeddings (centroid + residual recovers the
  original, so keeping the vector is the paper's stored-residual
  equivalent), used for the exact rescore step and brute-force search,
  stored with each hit's frame key and predicted box (``HIT_COLUMNS``),
  the stored scalar fields a vector database returns with a hit.
* ``meta``       — the "relational database": key-frame identity, tags
  (the rerank stage's token source) and the predicted bounding box.

All three are Spark DataFrames; ``save``/``load`` round-trip through
Parquet so the index is a persistent on-disk artefact, as in Milvus.
A query reads them through ``isin``, one SQL ``IN`` filter per read;
BF and IVF-PQ score ``vectors`` rows with ``scan``, one Arrow read that
returns the hits whole, and all three searches end in ``top_hits``,
which ranks them on the driver without reading anything.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

#: What a search returns per hit besides ``score``, stored in ``vectors``.
HIT_COLUMNS = ("patch_id", "video_id", "frame_idx", "pred_bbox")


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


def scan(vectors: DataFrame, q: np.ndarray) -> pa.Table:
    """``HIT_COLUMNS`` of every row of ``vectors`` plus ``score = q·x``.

    One Arrow read and one ``X @ q`` in driver numpy.
    """
    tbl = vectors.select(*HIT_COLUMNS, "embedding").toArrow()
    emb = tbl.column("embedding").combine_chunks()
    X = emb.flatten().to_numpy().reshape(tbl.num_rows, q.size)
    return tbl.drop_columns("embedding").append_column("score", pa.array(X @ q))


def top_hits(hits: pa.Table, k: int) -> DataFrame:
    """The ``k`` best of ``hits`` (``HIT_COLUMNS`` plus ``score``), best first.

    Ranks by descending ``score``, ties by ascending ``patch_id``, in
    numpy, and returns the winners as a local DataFrame: no Spark job.
    """
    best = np.lexsort((hits.column("patch_id").to_numpy(), -hits.column("score").to_numpy()))
    return SparkSession.active().createDataFrame(hits.take(best[:k]))


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
