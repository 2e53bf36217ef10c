"""Graph-based ANN variant for Table V: sharded HNSW.

A compact HNSW (hierarchical navigable small world) implementation in
numpy: geometric level assignment, greedy descent through upper layers,
beam search (``ef``) at each layer, simple nearest-M neighbour
selection with degree pruning that spares a node's last incoming
layer-0 edge. Unit-norm vectors, cosine distance ``1 − q·x``.

Distributed deployment follows the standard sharded pattern (a single
global graph cannot be built data-parallel): vectors are hash-
partitioned into shards and one graph per shard is built in a Spark task
from a seeded shuffle of ``patch_id`` order (never the order the rows
arrive in) and serialised into a cached table. A query reads the shard
blobs in one Spark job, searches every graph on the driver, reads the
k best candidates' frame keys and boxes with one ``patch_id IN`` read of
``meta`` and ranks them with ``top_hits``, so it runs two Spark jobs and
no Python worker. This preserves HNSW's cost/recall
profile while fitting the Spark execution model.
"""
from __future__ import annotations

import heapq
import math
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.index.store import HIT_COLUMNS, isin, top_hits


class HNSWGraph:
    """In-memory HNSW over unit vectors (cosine distance)."""

    def __init__(self, *, m: int = 8, ef_construction: int = 64, seed: int = 0):
        self.m = m
        self.m_max0 = 2 * m
        self.mult = 1.0 / math.log(m)
        self.ef_construction = ef_construction
        self.rng = np.random.default_rng(seed)
        self.vecs: list[np.ndarray] = []
        self.ids: list[int] = []
        self.levels: list[int] = []
        self.neighbors: list[list[list[int]]] = []  # node → level → neighbour nodes
        self.in_degree0: list[int] = []  # node → lists holding it at layer 0
        self.entry = -1
        self.max_level = -1

    # -- internals --------------------------------------------------------
    def _dist(self, q: np.ndarray, node: int) -> float:
        return 1.0 - float(q @ self.vecs[node])

    def _search_layer(
        self, q: np.ndarray, entries: list[int], ef: int, level: int
    ) -> list[tuple[float, int]]:
        """Beam search one layer; returns up to ``ef`` (dist, node) sorted asc."""
        visited = set(entries)
        cand = [(self._dist(q, e), e) for e in entries]
        heapq.heapify(cand)  # min-heap on distance (expand closest first)
        best = [(-d, e) for d, e in cand]  # max-heap of current ef best
        heapq.heapify(best)
        while cand:
            d, node = heapq.heappop(cand)
            if best and d > -best[0][0] and len(best) >= ef:
                break
            for nb in self.neighbors[node][level]:
                if nb in visited:
                    continue
                visited.add(nb)
                dn = self._dist(q, nb)
                if len(best) < ef or dn < -best[0][0]:
                    heapq.heappush(cand, (dn, nb))
                    heapq.heappush(best, (-dn, nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-nd, e) for nd, e in best)

    # -- public API -------------------------------------------------------
    def add(self, ext_id: int, vec: np.ndarray) -> None:
        """Insert one vector with its external id."""
        node = len(self.vecs)
        level = int(-math.log(max(self.rng.random(), 1e-12)) * self.mult)
        self.vecs.append(np.asarray(vec, dtype=np.float64))
        self.ids.append(int(ext_id))
        self.levels.append(level)
        self.neighbors.append([[] for _ in range(level + 1)])
        self.in_degree0.append(0)
        if self.entry < 0:
            self.entry = node
            self.max_level = level
            return
        ep = [self.entry]
        for lv in range(self.max_level, level, -1):
            ep = [self._search_layer(vec, ep, 1, lv)[0][1]]
        for lv in range(min(level, self.max_level), -1, -1):
            cands = self._search_layer(vec, ep, self.ef_construction, lv)
            m_max = self.m_max0 if lv == 0 else self.m
            chosen = self.neighbors[node][lv] = [e for _, e in cands[: self.m]]
            for nb in chosen:
                lst = self.neighbors[nb][lv]
                lst.append(node)
                if lv == 0:  # the edges node → nb and nb → node
                    self.in_degree0[nb] += 1
                    self.in_degree0[node] += 1
                if len(lst) > m_max:  # drop the farthest, sparing a last layer-0 in-edge
                    lst.sort(key=lambda o: 1.0 - float(self.vecs[nb] @ self.vecs[o]))
                    drop = lst[-1]
                    if lv == 0:
                        drop = next((o for o in reversed(lst) if self.in_degree0[o] > 1), drop)
                        self.in_degree0[drop] -= 1
                    lst.remove(drop)
            ep = [e for _, e in cands]
        if level > self.max_level:
            self.max_level = level
            self.entry = node

    def search(self, q: np.ndarray, k: int, *, ef: int = 64) -> list[tuple[int, float]]:
        """Top-k (external_id, similarity) by beam search."""
        if self.entry < 0:
            return []
        q = np.asarray(q, dtype=np.float64)
        ep = [self.entry]
        for lv in range(self.max_level, 0, -1):
            ep = [self._search_layer(q, ep, 1, lv)[0][1]]
        found = self._search_layer(q, ep, max(ef, k), 0)
        return [(self.ids[e], 1.0 - d) for d, e in found[:k]]


def build_graph(ids: np.ndarray, X: np.ndarray, *, m: int = 8,
                ef_construction: int = 64, seed: int = 0) -> HNSWGraph:
    """Build one shard graph from id/vector arrays."""
    g = HNSWGraph(m=m, ef_construction=ef_construction, seed=seed)
    for i, v in zip(ids, X):
        g.add(int(i), v)
    return g


_SHARD_SCHEMA = T.StructType(
    [T.StructField("shard", T.IntegerType()), T.StructField("blob", T.BinaryType())]
)


def build_hnsw_shards(
    vectors: DataFrame, *, n_shards: int = 8, m: int = 8,
    ef_construction: int = 64, seed: int = 0,
) -> DataFrame:
    """One HNSW graph per hash shard, serialised into a small DataFrame.

    Only ``patch_id`` and ``embedding`` of ``vectors`` reach the Python
    worker.
    """

    def _build(key, pdf):
        # Not plain patch_id order (a track's patches in a row strand more nodes in
        # pruning), nor default_rng(seed + shard): it would replay the level stream.
        pdf = pdf.sort_values("patch_id").sample(frac=1.0, random_state=seed + int(key[0]))
        ids = pdf["patch_id"].to_numpy()
        X = np.stack(pdf["embedding"].to_numpy())
        g = build_graph(ids, X, m=m, ef_construction=ef_construction,
                        seed=seed + int(key[0]))
        return pd.DataFrame({"shard": [int(key[0])], "blob": [pickle.dumps(g)]})

    sharded = vectors.select("patch_id", "embedding").withColumn(
        "shard", (F.pmod(F.col("patch_id"), F.lit(n_shards))).cast("int")
    )
    return sharded.groupBy("shard").applyInPandas(_build, schema=_SHARD_SCHEMA)


def search_hnsw(
    shards: DataFrame, meta: DataFrame, q: np.ndarray, *, k: int = 50, ef: int = 64
) -> DataFrame:
    """Search every shard graph on the driver, merge, attach the hit columns."""
    qv = np.asarray(q, dtype=np.float64)
    found = dict(
        h
        for r in shards.select("blob").collect()
        for h in pickle.loads(r["blob"]).search(qv, k, ef=ef)
    )
    ids = np.fromiter(found, dtype=np.int64, count=len(found))
    sims = np.fromiter(found.values(), dtype=np.float64, count=len(found))
    best = ids[np.lexsort((ids, -sims))[:k]].tolist()
    rows = meta.select(*HIT_COLUMNS).filter(isin("patch_id", best)).toArrow()
    score = pa.array([found[p] for p in rows.column("patch_id").to_pylist()], pa.float64())
    return top_hits(rows.append_column("score", score), k)
