"""Tests for index construction and the vector store (Spark layer)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.index.ivf import build_index
from repro.index.store import VectorStore
from repro.oracle import assert_equivalent
from tests.conftest import TEST_CFG


@pytest.fixture(scope="module")
def built(lovo_built):
    system, report = lovo_built
    return system.quant, system.store, report


class TestAssignComponents:
    def test_row_count(self, built):
        quant, store, report = built
        assert store.components.count() == report.n_vectors * TEST_CFG.n_subspaces

    def test_matches_driver_encode(self, spark, built):
        """Distributed assignment must equal driver-side quant.encode."""
        quant, store, _ = built
        sample = store.vectors.orderBy("patch_id").limit(50).toPandas()
        X = np.stack(sample["embedding"].to_numpy())
        cl, rc = quant.encode(X)
        comp = (
            store.components.join(
                spark.createDataFrame(sample[["patch_id"]]), "patch_id"
            )
            .orderBy("patch_id", "p")
            .collect()
        )
        got = {(r["patch_id"], r["p"]): (r["cluster"], r["rcode"]) for r in comp}
        for i, pid in enumerate(sample["patch_id"]):
            for p in range(quant.n_subspaces):
                assert got[(pid, p)] == (cl[i, p], rc[i, p])

    def test_cluster_ranges(self, built):
        quant, store, _ = built
        agg = store.components.agg(
            F.min("cluster"), F.max("cluster"), F.min("rcode"), F.max("rcode")
        ).collect()[0]
        assert agg[0] >= 0 and agg[1] < TEST_CFG.k_coarse
        assert agg[2] >= 0 and agg[3] < TEST_CFG.k_residual

    def test_inverted_lists_cover_all_vectors_oracle(self, built):
        """Each patch contributes exactly one component per subspace."""
        quant, store, _ = built
        got = store.components.groupBy("patch_id").agg(
            F.count("*").alias("n"), F.countDistinct("p").alias("np")
        )
        assert_equivalent(
            got,
            "SELECT patch_id, count(*) AS n, count(DISTINCT p) AS np "
            "FROM comp GROUP BY patch_id",
            comp=store.components,
        )
        bad = got.filter(
            (F.col("n") != TEST_CFG.n_subspaces) | (F.col("np") != TEST_CFG.n_subspaces)
        ).count()
        assert bad == 0


class TestStore:
    def test_meta_vector_alignment(self, built):
        _, store, report = built
        assert store.meta.count() == store.vectors.count() == report.n_vectors
        only_meta = store.meta.join(store.vectors, "patch_id", "left_anti").count()
        assert only_meta == 0

    def test_vectors_hold_meta_hit_columns(self, built):
        """Each vector's frame key and box are exactly its ``meta`` row's."""
        _, store, _ = built
        cols = ["patch_id", "video_id", "frame_idx", "pred_bbox"]
        vec, meta = store.vectors.select(*cols), store.meta.select(*cols)
        assert vec.exceptAll(meta).count() == 0
        assert meta.exceptAll(vec).count() == 0

    def test_embeddings_unit_norm(self, built):
        _, store, _ = built
        sample = store.vectors.limit(20).toPandas()
        for e in sample["embedding"]:
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-6)

    def test_save_load_roundtrip(self, spark, built, tmp_path):
        _, store, _ = built
        path = str(tmp_path / "index")
        store.save(path)
        loaded = VectorStore.load(spark, path)
        assert loaded.components.count() == store.components.count()
        assert loaded.vectors.count() == store.vectors.count()
        assert loaded.meta.count() == store.meta.count()
        assert set(loaded.components.columns) == set(store.components.columns)


class TestBuildIndex:
    def test_small_fresh_build(self, spark):
        """build_index on a toy DataFrame trains and assigns end to end."""
        import pandas as pd

        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 16))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        pdf = pd.DataFrame(
            {
                "patch_id": np.arange(200),
                "video_id": 0,
                "frame_idx": np.arange(200) // 10,
                "pred_bbox": [[0.0, 0.0, 1.0, 1.0]] * 200,
                "embedding": [list(x) for x in X],
            }
        )
        quant, store = build_index(
            spark.createDataFrame(pdf), n_subspaces=4, k_coarse=8, k_residual=8,
            train_sample=100, cache=False,
        )
        assert quant.coarse.shape == (4, 8, 4)
        assert store.components.count() == 800
        assert "embedding" not in store.meta.columns

    @pytest.mark.parametrize("partitions", [1, 3, 7])
    def test_codebooks_independent_of_input_partitions(self, built, partitions):
        """The PQ sample is chosen by a seeded hash of ``patch_id``, not per partition."""
        quant, store, _ = built
        got, _ = build_index(
            store.vectors.repartition(partitions),
            n_subspaces=TEST_CFG.n_subspaces, k_coarse=TEST_CFG.k_coarse,
            k_residual=TEST_CFG.k_residual, train_sample=TEST_CFG.train_sample,
            seed=TEST_CFG.seed, cache=False,
        )
        np.testing.assert_array_equal(got.coarse, quant.coarse)
        np.testing.assert_array_equal(got.residual, quant.residual)
