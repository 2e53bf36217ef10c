"""Tests for the three ANN search paths (BF, IVF-PQ / Algorithm 1, HNSW)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.index.hnsw import build_hnsw_shards, search_hnsw
from repro.index.search_bf import score_vectors, search_bf
from repro.index.search_ivfpq import _lut_frames, search_ivfpq
from repro.index.store import VectorStore
from repro.oracle import assert_equivalent
from repro.queries.workload import query_by_id
from tests.conftest import TEST_CFG


@pytest.fixture(scope="module")
def system(lovo_built):
    return lovo_built[0]


@pytest.fixture(scope="module")
def qvec(system):
    return system.encode_query(query_by_id("Q2.1"))


class TestScoreVectors:
    def test_matches_numpy(self, system, qvec):
        got = (
            score_vectors(system.store.vectors, qvec)
            .orderBy("patch_id")
            .limit(100)
            .toPandas()
        )
        sample = (
            system.store.vectors.orderBy("patch_id").limit(100).toPandas()
        )
        X = np.stack(sample["embedding"].to_numpy())
        np.testing.assert_allclose(got["score"].to_numpy(), X @ qvec, atol=1e-9)

    def test_score_bounded_by_unit_norms(self, system, qvec):
        mm = score_vectors(system.store.vectors, qvec).agg(
            F.min("score"), F.max("score")
        ).collect()[0]
        assert -1.001 <= mm[0] <= mm[1] <= 1.001


class TestBruteForce:
    def test_topk_matches_global_argsort(self, system, qvec):
        k = 25
        got = [r["patch_id"] for r in search_bf(system.store, qvec, k=k).collect()]
        allscores = score_vectors(system.store.vectors, qvec).toPandas()
        want = set(
            allscores.sort_values("score", ascending=False).head(k)["patch_id"]
        )
        assert len(got) == k
        # ties at the cutoff may swap membership of the last entry
        assert len(set(got) & want) >= k - 1

    def test_sorted_descending(self, system, qvec):
        scores = [r["score"] for r in search_bf(system.store, qvec, k=30).collect()]
        assert scores == sorted(scores, reverse=True)

    def test_metadata_attached(self, system, qvec):
        row = search_bf(system.store, qvec, k=5).collect()[0]
        for col in ("video_id", "frame_idx", "tags", "pred_bbox"):
            assert col in row.asDict()

    @pytest.mark.parametrize("partitions", [1, 8])
    def test_score_ties_broken_by_patch_id(self, spark, partitions):
        """Identical embeddings rank lower patch_id first, however Spark partitions."""
        tied = list(range(40, 0, -1))  # input order is the reverse of the answer
        rows = [(i, [1.0, 0.0]) for i in tied] + [(100, [0.6, 0.8]), (0, [0.0, 1.0])]
        store = VectorStore(
            components=None,
            vectors=spark.createDataFrame(rows, "patch_id long, embedding array<double>")
            .repartition(4),
            meta=spark.createDataFrame([(r[0], 0) for r in rows], "patch_id long, video_id int"),
        )
        saved = spark.conf.get("spark.sql.shuffle.partitions")
        spark.conf.set("spark.sql.shuffle.partitions", str(partitions))
        try:
            got = [r["patch_id"] for r in search_bf(store, np.array([1.0, 0.0]), k=10).collect()]
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", saved)
        assert got == list(range(1, 11))


class TestIVFPQ:
    def test_lut_frames_shapes(self, system, qvec):
        top_a, rlut = _lut_frames(system.quant, qvec, top_a=6)
        P = system.quant.n_subspaces
        assert len(top_a) == P * 6
        assert len(rlut) == P * TEST_CFG.k_residual
        assert set(top_a.columns) == {"p", "cluster", "cscore"}

    def test_top_a_selects_best_clusters(self, system, qvec):
        top_a, _ = _lut_frames(system.quant, qvec, top_a=4)
        clut = system.quant.coarse_lut(qvec)
        for p in range(system.quant.n_subspaces):
            sel = top_a[top_a["p"] == p]["cscore"].min()
            unsel = np.sort(clut[p])[:-4]
            assert (unsel <= sel + 1e-12).all()

    def test_returns_k_sorted_hits(self, system, qvec):
        hits = search_ivfpq(system.store, system.quant, qvec, top_a=6, k=30).collect()
        assert len(hits) == 30
        scores = [r["score"] for r in hits]
        assert scores == sorted(scores, reverse=True)

    def test_votes_positive_and_bounded(self, system, qvec):
        hits = search_ivfpq(system.store, system.quant, qvec, top_a=6, k=30).collect()
        for r in hits:
            assert 1 <= r["votes"] <= system.quant.n_subspaces

    def test_recall_vs_bruteforce(self, system, qvec):
        """ANNS must recover most of the exact top-k (the paper's premise)."""
        k = 30
        exact = {r["patch_id"] for r in search_bf(system.store, qvec, k=k).collect()}
        approx = {
            r["patch_id"]
            for r in search_ivfpq(
                system.store, system.quant, qvec, top_a=TEST_CFG.k_coarse, k=k
            ).collect()
        }
        assert len(exact & approx) / k >= 0.5

    def test_more_clusters_no_worse_recall(self, system, qvec):
        k = 20
        exact = {r["patch_id"] for r in search_bf(system.store, qvec, k=k).collect()}
        lo = {
            r["patch_id"]
            for r in search_ivfpq(system.store, system.quant, qvec, top_a=2, k=k).collect()
        }
        hi = {
            r["patch_id"]
            for r in search_ivfpq(
                system.store, system.quant, qvec, top_a=TEST_CFG.k_coarse, k=k
            ).collect()
        }
        assert len(exact & hi) >= len(exact & lo)

    def test_exact_rescore_matches_dot(self, system, qvec):
        hits = search_ivfpq(system.store, system.quant, qvec, top_a=6, k=10).collect()
        pids = [r["patch_id"] for r in hits]
        vecs = (
            system.store.vectors.filter(F.col("patch_id").isin(pids))
            .toPandas()
            .set_index("patch_id")["embedding"]
        )
        for r in hits:
            assert r["score"] == pytest.approx(
                float(np.asarray(vecs[r["patch_id"]]) @ qvec), abs=1e-9
            )

    def test_vote_aggregation_oracle(self, spark, system, qvec):
        """GroupBy votes/sums (Alg. 1 line 16) checked against DuckDB."""
        top_a, rlut = _lut_frames(system.quant, qvec, top_a=4)
        cand = (
            system.store.components.join(
                F.broadcast(spark.createDataFrame(top_a)), ["p", "cluster"]
            )
            .join(F.broadcast(spark.createDataFrame(rlut)), ["p", "rcode"])
            .withColumn("approx", F.col("cscore") + F.col("rscore"))
            .select("patch_id", "p", "approx")
        )
        got = cand.groupBy("patch_id").agg(
            F.count("*").alias("votes"),
            F.round(F.sum("approx"), 6).alias("approx_sum"),
        )
        assert_equivalent(
            got,
            "SELECT patch_id, count(*) AS votes, round(sum(approx), 6) AS approx_sum "
            "FROM cand GROUP BY patch_id",
            cand=cand,
        )


class TestHNSWSpark:
    @pytest.fixture(scope="class")
    def shards(self, system):
        df = build_hnsw_shards(
            system.store.vectors, n_shards=4, m=8, ef_construction=48, seed=0
        ).persist()
        df.count()
        yield df
        df.unpersist()

    def test_one_graph_per_shard(self, shards):
        assert shards.count() == 4
        assert {r["shard"] for r in shards.select("shard").collect()} == {0, 1, 2, 3}

    def test_search_returns_sorted(self, system, shards, qvec):
        hits = search_hnsw(shards, system.store.meta, qvec, k=20).collect()
        assert 0 < len(hits) <= 20
        scores = [r["score"] for r in hits]
        assert scores == sorted(scores, reverse=True)

    def test_recall_vs_bruteforce(self, system, shards, qvec):
        k = 20
        exact = {r["patch_id"] for r in search_bf(system.store, qvec, k=k).collect()}
        got = {
            r["patch_id"]
            for r in search_hnsw(shards, system.store.meta, qvec, k=k, ef=96).collect()
        }
        assert len(exact & got) / k >= 0.5

    def test_metadata_attached(self, system, shards, qvec):
        row = search_hnsw(shards, system.store.meta, qvec, k=5).collect()[0]
        assert "tags" in row.asDict() and "pred_bbox" in row.asDict()
