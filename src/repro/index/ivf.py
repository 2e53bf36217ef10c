"""Inverted multi-index construction as a Spark batch job (§V-B).

Input: an *encoded* patches DataFrame with ``patch_id``, ``embedding``
(array<double>, unit norm), plus metadata columns. Steps:

1. train the two-level product quantizer (`repro.index.pq`) on the
   ``train_sample`` rows with the smallest seeded ``xxhash64(seed,
   patch_id)``, a driver-side sample that no partitioning changes
   (Milvus and faiss train codebooks on a sample too);
2. broadcast the codebooks and assign every vector's per-subspace
   ``(cluster, rcode)`` pair with a ``mapInPandas`` pass;
3. explode to component rows — the inverted lists — and split metadata
   into the relational side table, keeping each vector's frame key and
   box (``HIT_COLUMNS``) beside it so that a search reads no metadata.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.index.pq import PQQuantizer, train_quantizer
from repro.index.store import HIT_COLUMNS, VectorStore

_CODES_SCHEMA = T.StructType(
    [
        T.StructField("patch_id", T.LongType()),
        T.StructField("p", T.IntegerType()),
        T.StructField("cluster", T.IntegerType()),
        T.StructField("rcode", T.IntegerType()),
    ]
)


def assign_components(encoded: DataFrame, quant: PQQuantizer) -> DataFrame:
    """Distributed code assignment → long-form inverted-index rows."""
    spark = encoded.sparkSession
    bc = spark.sparkContext.broadcast((quant.coarse, quant.residual))

    def _assign(batches):
        coarse, residual = bc.value
        q = PQQuantizer(coarse=coarse, residual=residual)
        for pdf in batches:
            if not len(pdf):
                continue
            X = np.stack(pdf["embedding"].to_numpy())
            clusters, rcodes = q.encode(X)
            n, P = clusters.shape
            yield pd.DataFrame(
                {
                    "patch_id": np.repeat(pdf["patch_id"].to_numpy(), P),
                    "p": np.tile(np.arange(P, dtype=np.int32), n),
                    "cluster": clusters.reshape(-1),
                    "rcode": rcodes.reshape(-1),
                }
            )

    return encoded.select("patch_id", "embedding").mapInPandas(
        _assign, schema=_CODES_SCHEMA
    )


def build_index(
    encoded: DataFrame,
    *,
    n_subspaces: int = 8,
    k_coarse: int = 32,
    k_residual: int = 32,
    train_sample: int = 4096,
    seed: int = 0,
    cache: bool = True,
) -> tuple[PQQuantizer, VectorStore]:
    """Train the quantizer and materialise the three index tables."""
    sample = (
        encoded.orderBy(F.xxhash64(F.lit(seed), "patch_id"), "patch_id")
        .select("embedding")
        .limit(train_sample)
        .toPandas()
    )
    X = np.stack(sample["embedding"].to_numpy())
    quant = train_quantizer(
        X,
        n_subspaces=n_subspaces,
        k_coarse=k_coarse,
        k_residual=k_residual,
        seed=seed,
    )
    store = VectorStore(
        components=assign_components(encoded, quant),
        vectors=encoded.select(*HIT_COLUMNS, "embedding"),
        meta=encoded.drop("embedding"),
    )
    if cache:
        store.cache()
    return quant, store
