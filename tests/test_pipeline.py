"""End-to-end tests for the LOVO pipeline (build + two-stage query)."""
import dataclasses

import numpy as np
import pytest

from repro.core import LOVO
from repro.core.metrics import RankedResult, top_ranked
from repro.core.rerank import score_frames
from repro.index.store import VectorStore, isin
from repro.queries.workload import query_by_id
from repro.video.generator import generate_dataset
from repro.video.groundtruth import evaluate_ranking, gt_objects_pdf
from repro.video.scenes import profile
from tests.conftest import TEST_CFG, cached_rdds, spark_jobs


@pytest.fixture(scope="module")
def system(lovo_built):
    return lovo_built[0]


@pytest.fixture(scope="module")
def report(lovo_built):
    return lovo_built[1]


class TestBuild:
    def test_counts_consistent(self, report, bellevue_profile):
        assert report.n_frames == bellevue_profile.n_frames
        assert 0 < report.n_keyframes < report.n_frames
        assert report.n_vectors == report.n_keyframes * bellevue_profile.patches_per_frame

    def test_timings_positive(self, report):
        assert report.processing_time > 0
        assert report.index_time > 0
        assert report.total_time == pytest.approx(
            report.processing_time + report.index_time
        )

    def test_store_materialised(self, system, report):
        assert system.store.n_vectors() == report.n_vectors

    def test_keyframe_build_at_most_23_spark_jobs(self, lovo_built_jobs):
        """Releasing ``encoded`` before the store tables are built re-encodes: 45 jobs."""
        assert len(lovo_built_jobs[2]) <= 23

    def test_corpus_without_patches_raises_and_caches_nothing(self, spark, bellevue_patches):
        before = cached_rdds(spark)
        with pytest.raises(ValueError, match="no patches"):
            LOVO(spark, TEST_CFG).build(bellevue_patches.limit(0))
        assert cached_rdds(spark).keys() <= before.keys()

    def test_query_before_build_raises(self, spark):
        with pytest.raises(RuntimeError):
            LOVO(spark, TEST_CFG).fast_search(query_by_id("Q2.1"))

    def test_unknown_variant_raises(self, system):
        with pytest.raises(ValueError):
            system.fast_search(query_by_id("Q2.1"), variant="faiss")


class TestQuery:
    @pytest.mark.parametrize("variant", ["bf", "ivfpq", "hnsw"])
    def test_variant_end_to_end(self, system, variant):
        res = system.query(query_by_id("Q2.3"), variant=variant, k=20)
        assert res.results
        scores = [r.score for r in res.results]
        assert scores == sorted(scores, reverse=True)
        assert res.fast_time > 0 and res.rerank_time > 0

    def test_no_rerank_skips_stage2(self, system):
        res = system.query(query_by_id("Q2.3"), use_rerank=False, k=20)
        assert res.rerank_time == 0.0
        assert len(res.results) == 20
        assert res.search_time == pytest.approx(res.fast_time)

    def test_rerank_one_result_per_frame(self, system):
        res = system.query(query_by_id("Q2.3"), k=30)
        frames = [(r.video_id, r.frame_idx) for r in res.results]
        assert len(frames) == len(set(frames))

    def test_query_deterministic(self, system):
        q = query_by_id("Q2.1")
        a = [(r.video_id, r.frame_idx) for r in system.query(q, k=20).results]
        b = [(r.video_id, r.frame_idx) for r in system.query(q, k=20).results]
        assert a == b

    def test_finds_planted_objects(self, system, bellevue_patches):
        """The headline claim: LOVO retrieves the right objects."""
        q = query_by_id("Q2.3")
        gt = gt_objects_pdf(bellevue_patches, q)
        k = min(10 * gt["track_id"].nunique(), 120)
        ev = evaluate_ranking(system.query(q, k=k).results, gt)
        assert ev.avep > 0.5

    def test_rerank_helps_relation_query(self, system, bellevue_patches):
        """Table IV's core shape: rerank improves complex queries."""
        q = query_by_id("Q2.2")
        gt = gt_objects_pdf(bellevue_patches, q)
        k = min(10 * gt["track_id"].nunique(), 120)
        with_rr = evaluate_ranking(system.query(q, k=k).results, gt).avep
        without = evaluate_ranking(
            system.query(q, use_rerank=False, k=k).results, gt
        ).avep
        assert with_rr >= without

    def test_query_embedding_unit_norm(self, system):
        q = system.encode_query(query_by_id("Q1.1"))
        assert np.linalg.norm(q) == pytest.approx(1.0)


class TestQueryEdges:
    @pytest.mark.parametrize("use_rerank", [True, False], ids=["rerank", "fast-only"])
    def test_empty_store_returns_empty_result(self, spark, system, use_rerank):
        empty = LOVO(spark, TEST_CFG)
        s = system.store
        empty.quant = system.quant
        empty.store = VectorStore(s.components.limit(0), s.vectors.limit(0), s.meta.limit(0))
        res = empty.query(query_by_id("Q2.1"), use_rerank=use_rerank)
        assert res.qid == "Q2.1" and res.results == []

    def test_same_answer_at_any_shuffle_partitions(self, spark, system):
        q = query_by_id("Q2.2")
        saved = spark.conf.get("spark.sql.shuffle.partitions")
        got = []
        try:
            for partitions in (1, 64):
                spark.conf.set("spark.sql.shuffle.partitions", str(partitions))
                got.append(system.query(q, variant="ivfpq").results)
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", saved)
        assert got[0] and got[0] == got[1]

    def test_ivfpq_with_rerank_at_most_three_spark_jobs(self, spark, system):
        """Two search reads and one rerank read; the ranking runs on the driver."""
        jobs = spark_jobs(spark, lambda: system.query(query_by_id("Q2.2"), variant="ivfpq"))
        assert 1 <= len(jobs) <= 3

    def test_bf_with_rerank_at_most_two_spark_jobs(self, spark, system):
        """One vectors read and one rerank read; the ranking runs on the driver."""
        jobs = spark_jobs(spark, lambda: system.query(query_by_id("Q2.2"), variant="bf"))
        assert 1 <= len(jobs) <= 2

    @pytest.mark.parametrize("use_rerank", [True, False], ids=["rerank", "fast-only"])
    @pytest.mark.parametrize("variant", ["bf", "ivfpq", "hnsw"])
    @pytest.mark.parametrize("qid", ["Q2.1", "Q2.2", "Q2.3", "Q2.4"])
    def test_same_answer_as_hits_joined_to_meta(self, system, qid, variant, use_rerank):
        """The frame keys and boxes stored in ``vectors`` give the answers ``meta`` gives."""
        q = query_by_id(qid)
        got = system.query(q, variant=variant, use_rerank=use_rerank).results
        assert got and got == _query_via_meta(system, q, variant, use_rerank)


def _query_via_meta(system, query, variant, use_rerank):
    """``LOVO.query`` with each hit's frame key and box read from ``meta``.

    The reference for the hit columns stored in ``vectors``: the fast
    search's ranked ``(patch_id, score)`` list is merged with the rows of
    one ``patch_id IN`` read of ``meta``, and the rerank reads the frames
    this gives.
    """
    ranked = system.fast_search(query, variant=variant).select("patch_id", "score").toPandas()
    rows = system.store.meta.filter(isin("patch_id", ranked["patch_id"].tolist())).toPandas()
    hits = ranked.merge(rows, on="patch_id")  # an inner merge keeps the ranked order
    if not use_rerank:
        return [
            RankedResult(int(v), int(f), tuple(b), float(s))
            for v, f, b, s in zip(hits["video_id"], hits["frame_idx"], hits["pred_bbox"],
                                  hits["score"])
        ]
    frames = sorted({(int(v), int(f)) for v, f in zip(hits["video_id"], hits["frame_idx"])})
    frame_patches = system.store.meta.filter(isin("(video_id, frame_idx)", frames))
    return top_ranked(score_frames(frame_patches, query, system.cfg),
                      system.cfg.n or len(frames), score="rerank_score")


class TestAblations:
    def test_no_keyframe_indexes_more_vectors(self, spark, bellevue_patches, report):
        """Also checks what the build leaves cached, and the Spark work it runs.

        The build keeps exactly the three store tables, and ``close()``
        frees them. Its Spark jobs are capped at the count the build ran
        when it also kept ``encoded`` cached, less the two jobs the
        hash-chosen PQ sample saves: releasing that cache must add no job.
        (Its task count is not compared: with the same code it moves by a
        few tasks between runs.)
        """
        cfg = dataclasses.replace(TEST_CFG, use_keyframes=False)
        system = LOVO(spark, cfg)
        before = cached_rdds(spark)
        built = []
        jobs = spark_jobs(spark, lambda: built.append(system.build(bellevue_patches)))
        try:
            full = built[0]
            assert full.n_vectors > report.n_vectors
            assert full.n_keyframes == full.n_frames
            added = cached_rdds(spark).keys() - before.keys()
            tables = (system.store.components, system.store.vectors, system.store.meta)
            assert len(added) == 3
            assert all(df.storageLevel.useMemory for df in tables)
            assert len(jobs) <= 19
        finally:
            system.close()
        assert not added & cached_rdds(spark).keys()

    def test_hnsw_shards_lazy_and_cached(self, system):
        a = system.hnsw_shards()
        b = system.hnsw_shards()
        assert a is b
        assert a.count() == TEST_CFG.hnsw_shards


class TestCorpusWithoutObjects:
    """A corpus of background patches only: no track, so no ground truth."""

    @pytest.fixture(scope="class")
    def built(self, spark):
        prof = dataclasses.replace(profile("bellevue", 0.05), track_specs=())
        patches = generate_dataset(spark, prof).persist()
        system = LOVO(spark, TEST_CFG)
        report = system.build(patches)
        yield system, report
        system.close()
        patches.unpersist()

    def test_builds_background_only(self, built):
        _, report = built
        assert 0 < report.n_keyframes < report.n_frames
        assert report.n_vectors > 0

    @pytest.mark.parametrize("variant", ["bf", "ivfpq", "hnsw"])
    def test_every_variant_answers(self, built, variant):
        system, _ = built
        res = system.query(query_by_id("Q2.3"), variant=variant, k=20)
        assert res.results
        scores = [r.score for r in res.results]
        assert scores == sorted(scores, reverse=True)
