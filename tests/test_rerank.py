"""Tests for the cross-modality rerank stage."""
import zlib

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.rerank import (
    RERANK_SCHEMA,
    _normalize,
    _softmax,
    decode_best_patch,
    enhance,
    rerank_frames,
)
from repro.index.store import isin
from repro.queries.workload import queries_for_dataset, query_by_id
from repro.vocab.encoders import FineTextEncoder, perceived_track_tags, track_perturbation
from repro.vocab.vocabulary import Vocabulary
from tests.conftest import TEST_CFG, spark_jobs


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary(dim=64, seed=7)


def _tok(vocab, tag, rng, noise=0.4):
    d = rng.standard_normal(64)
    d *= noise / np.linalg.norm(d)
    v = vocab.vec(tag) + d
    return v / np.linalg.norm(v)


def _decode_best_patch_loop(S, owners):
    """Reference decoder: the original per-owner Python loop (first seen wins ties)."""
    best_patch, best_score = owners[0], -np.inf
    for pid in dict.fromkeys(owners):  # preserves first-seen order
        rows = [i for i, o in enumerate(owners) if o == pid]
        s = float(S[rows].max(axis=0).mean())
        if s > best_score:
            best_patch, best_score = pid, s
    return best_patch


def _rerank_grouped(frame_patches, query, cfg):
    """Reference rerank: the original ``applyInPandas`` grouped by frame."""
    cost = cfg.cost()
    qtags = list(query.tags)

    def _rerank(key, pdf):
        vocab = Vocabulary(dim=cfg.dim, seed=cfg.vocab_seed)
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        cost.burn("lovo_rerank_frame", 1.0)
        rows, owners = [], []
        for pid, track_id, tags in zip(pdf["patch_id"], pdf["track_id"], pdf["tags"]):
            rng = np.random.default_rng([cfg.seed, 1, int(pid)])
            seen = perceived_track_tags(
                list(tags), seed=cfg.seed, track_id=int(track_id),
                dropout=cfg.attr_dropout, rel_dropout=cfg.rel_dropout,
            )
            for t in seen:
                d = rng.standard_normal(cfg.dim)
                d *= cfg.token_noise / max(np.linalg.norm(d), 1e-12)
                persistent = track_perturbation(
                    cfg.dim, cfg.token_track_noise, seed=cfg.seed,
                    track_id=int(track_id), salt=zlib.crc32(t.encode()),
                )
                v = vocab.vec(t) + persistent + d
                rows.append(v / max(np.linalg.norm(v), 1e-12))
                owners.append(int(pid))
        if rows:
            X_I = np.stack(rows)
            S = enhance(X_I, X_T)
            score = float(S.max(axis=0).mean())
            best_pid = decode_best_patch(S, owners)
        else:
            score = -1.0
            best_pid = int(pdf["patch_id"].iloc[0])
        best_box = list(pdf.loc[pdf["patch_id"] == best_pid, "pred_bbox"].iloc[0])
        return pd.DataFrame(
            {
                "video_id": [int(key[0])],
                "frame_idx": [int(key[1])],
                "rerank_score": [score],
                "bbox": [best_box],
                "patch_id": [best_pid],
            }
        )

    return frame_patches.groupBy("video_id", "frame_idx").applyInPandas(
        _rerank, schema=RERANK_SCHEMA
    )


def _candidate_patches(system, query, **search):
    """The meta rows of every frame among ``query``'s fast-search hits."""
    hits = system.fast_search(query, **search).collect()
    frames = sorted({(r["video_id"], r["frame_idx"]) for r in hits})
    return system.store.meta.filter(isin("(video_id, frame_idx)", frames)), frames


def _rows(df):
    return sorted(tuple(r) for r in df.collect())


def _frame_tokens(vocab, obj_tags_list, seed=0, n_bg=20):
    rng = np.random.default_rng(seed)
    rows, owners = [], []
    for i in range(n_bg):
        rows.append(_tok(vocab, "bg:road", rng))
        owners.append(i)
    for j, tags in enumerate(obj_tags_list):
        for t in tags:
            rows.append(_tok(vocab, t, rng))
            owners.append(1000 + j)
    return np.stack(rows), owners


class TestNumerics:
    def test_softmax_rows_sum_to_one(self):
        s = _softmax(np.random.default_rng(0).standard_normal((5, 7)))
        np.testing.assert_allclose(s.sum(axis=1), 1.0)

    def test_normalize_unit_rows(self):
        x = _normalize(np.random.default_rng(0).standard_normal((4, 8)))
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0)

    def test_normalize_handles_zero(self):
        assert np.all(np.isfinite(_normalize(np.zeros((2, 4)))))


class TestEnhance:
    def test_shape(self, vocab):
        X_I, _ = _frame_tokens(vocab, [["class:bus"]])
        X_T = FineTextEncoder(vocab).encode_tokens(["class:bus", "attr:green"])
        assert enhance(X_I, X_T).shape == (len(X_I), 2)

    @pytest.mark.parametrize(
        "qtags",
        [
            ["class:bus", "attr:green"],
            ["class:car", "attr:red", "rel:center_of_road"],
            ["class:person", "attr:walking"],
        ],
        ids=["attrs", "rels", "simple"],
    )
    def test_exact_match_beats_partial_and_unrelated(self, vocab, qtags):
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        exact, _ = _frame_tokens(vocab, [list(qtags)], seed=1)
        partial, _ = _frame_tokens(vocab, [list(qtags[:1])], seed=2)
        unrelated, _ = _frame_tokens(vocab, [["class:dog"]], seed=3)
        s_exact = enhance(exact, X_T).max(axis=0).mean()
        s_partial = enhance(partial, X_T).max(axis=0).mean()
        s_unrel = enhance(unrelated, X_T).max(axis=0).mean()
        assert s_exact > s_partial > s_unrel

    def test_missing_relation_demoted(self, vocab):
        """The ablation mechanism: rerank sees relations fast search cannot."""
        qtags = ["class:car", "attr:red", "rel:side_by_side"]
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        with_rel, _ = _frame_tokens(vocab, [qtags], seed=4)
        without_rel, _ = _frame_tokens(vocab, [["class:car", "attr:red"]], seed=5)
        assert (
            enhance(with_rel, X_T).max(axis=0).mean()
            > enhance(without_rel, X_T).max(axis=0).mean()
        )


class TestDecodeBestPatch:
    def test_picks_covering_patch(self, vocab):
        """The patch matching the whole query wins over a hotter single token."""
        qtags = ["class:bus", "attr:green", "attr:white_roof"]
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        X_I, owners = _frame_tokens(
            vocab, [qtags, ["class:bus"]], seed=6, n_bg=10
        )
        S = enhance(X_I, X_T)
        assert decode_best_patch(S, owners) == 1000  # the full-match object

    def test_synthetic_matrix(self):
        S = np.array([[0.9, 0.0], [0.1, 0.1], [0.5, 0.6]])
        owners = [7, 7, 8]
        # patch 7: per-text best (0.9, 0.1) mean 0.5; patch 8: (0.5,0.6) mean 0.55
        assert decode_best_patch(S, owners) == 8

    def test_matches_loop_reference(self):
        """Random frames on a coarse value grid, so exact ties between patches occur."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_tok, n_txt = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            S = rng.integers(0, 4, size=(n_tok, n_txt)) / 4
            owners = [int(o) for o in rng.choice([3, 9, 41, 7, 1000], size=n_tok)]
            assert decode_best_patch(S, owners) == _decode_best_patch_loop(S, owners)

    def test_tie_goes_to_first_seen_patch(self):
        S = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.1]])
        assert decode_best_patch(S, [9, 3, 9]) == 9
        assert decode_best_patch(S, [3, 9, 9]) == 3


class TestRerankFrames:
    @pytest.fixture(scope="class")
    def ranked(self, lovo_built):
        system, _ = lovo_built
        q = query_by_id("Q2.1")
        fp, frames = _candidate_patches(system, q, variant="bf", k=30)
        return rerank_frames(fp, q, TEST_CFG).collect(), frames

    def test_one_row_per_frame(self, ranked):
        rows, frames = ranked
        assert len(rows) == len(frames)
        assert {(r["video_id"], r["frame_idx"]) for r in rows} == set(frames)

    def test_scores_finite(self, ranked):
        rows, _ = ranked
        assert all(np.isfinite(r["rerank_score"]) for r in rows)

    def test_bbox_valid(self, ranked):
        rows, _ = ranked
        for r in rows:
            b = r["bbox"]
            assert 0 <= b[0] <= b[2] <= 1 and 0 <= b[1] <= b[3] <= 1

    def test_patch_belongs_to_frame(self, ranked, lovo_built):
        rows, _ = ranked
        system, _ = lovo_built
        meta = {
            r["patch_id"]: (r["video_id"], r["frame_idx"])
            for r in system.store.meta.select("patch_id", "video_id", "frame_idx").collect()
        }
        for r in rows:
            assert meta[r["patch_id"]] == (r["video_id"], r["frame_idx"])

    def test_deterministic(self, lovo_built):
        system, _ = lovo_built
        q = query_by_id("Q2.3")
        fp, _ = _candidate_patches(system, q, variant="bf", k=10)
        assert _rows(rerank_frames(fp, q, TEST_CFG)) == _rows(rerank_frames(fp, q, TEST_CFG))

    @pytest.mark.parametrize(
        "qid, k",
        [
            pytest.param(q.qid, k, id=q.qid if k is None else f"{q.qid}-k{k}")
            for q in queries_for_dataset("bellevue")
            for k in (None, 150)
        ],
    )
    def test_matches_grouped_reference(self, lovo_built, qid, k):
        """Same score, box and patch per frame as the grouped ``applyInPandas`` plan.

        At the config's own ``k`` and at k = 150, the benchmark's largest.
        """
        system, _ = lovo_built
        q = query_by_id(qid)
        fp, frames = _candidate_patches(system, q, k=k)
        got = _rows(rerank_frames(fp, q, TEST_CFG))
        assert len(got) == len(frames)
        assert got == _rows(_rerank_grouped(fp, q, TEST_CFG))

    def test_one_spark_job(self, spark, lovo_built):
        """One read of the candidate patches; the scoring runs on the driver."""
        system, _ = lovo_built
        q = query_by_id("Q2.2")
        fp, _ = _candidate_patches(system, q)
        jobs = spark_jobs(spark, lambda: rerank_frames(fp, q, TEST_CFG).collect())
        assert len(jobs) == 1


class TestRerankEdges:
    def test_no_frames_returns_empty_frame_with_schema(self, lovo_built):
        system, _ = lovo_built
        got = rerank_frames(system.store.meta.limit(0), query_by_id("Q2.1"), TEST_CFG)
        assert got.schema == RERANK_SCHEMA
        assert got.collect() == []

    def test_frame_without_tokens_scores_minus_one_at_first_patch(self, lovo_built):
        """A frame whose tags all drop out ranks last, boxed by its lowest patch id."""
        system, _ = lovo_built
        q = query_by_id("Q2.1")
        fp, frames = _candidate_patches(system, q, variant="bf", k=10)
        untagged = isin("(video_id, frame_idx)", frames[:1])
        fp = fp.withColumn(
            "tags", F.when(untagged, F.array().cast("array<string>")).otherwise(F.col("tags"))
        )
        first = fp.filter(untagged).orderBy("patch_id").first()
        got = {(r["video_id"], r["frame_idx"]): r for r in rerank_frames(fp, q, TEST_CFG).collect()}
        assert len(got) == len(frames) > 1
        row = got.pop(frames[0])
        assert row["rerank_score"] == -1.0
        assert (row["patch_id"], row["bbox"]) == (first["patch_id"], first["pred_bbox"])
        assert all(r["rerank_score"] > -1.0 for r in got.values())
