"""LOVO end-to-end pipeline (Fig. 3): summary → index → two-stage query.

``build`` is the offline, query-agnostic phase (key-frame extraction,
one-time feature extraction, inverted multi-index construction);
``query`` is Algorithm 2 — fast ANN search for top-k candidate patches,
then cross-modality rerank of their frames. Ablation flags reproduce
Table IV (``use_keyframes`` at build, ``use_rerank``/``variant`` at
query) and Table V's ANN variants (``bf`` / ``ivfpq`` / ``hnsw``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.config import LOVOConfig
from repro.core.metrics import QueryResult, RankedResult, top_ranked
from repro.core.rerank import score_frames
from repro.core.summary import encode_patches, keyframe_patches
from repro.index.hnsw import build_hnsw_shards, search_hnsw
from repro.index.ivf import build_index
from repro.index.search_bf import search_bf
from repro.index.search_ivfpq import search_ivfpq
from repro.index.store import isin
from repro.queries.workload import Query
from repro.video.generator import frames_df
from repro.video.keyframe import select_keyframes
from repro.vocab.encoders import CoarseTextEncoder
from repro.vocab.vocabulary import Vocabulary

VARIANTS = ("bf", "ivfpq", "hnsw")


@dataclass
class BuildReport:
    """Offline-phase outcome: sizes and phase timings (seconds)."""

    n_frames: int
    n_keyframes: int
    n_vectors: int
    processing_time: float
    index_time: float

    @property
    def total_time(self) -> float:
        return self.processing_time + self.index_time


class LOVO:
    """The system under test. One instance = one built video database."""

    def __init__(self, spark: SparkSession, cfg: LOVOConfig | None = None):
        self.spark = spark
        self.cfg = cfg or LOVOConfig()
        self.vocab = Vocabulary(dim=self.cfg.dim, seed=self.cfg.vocab_seed)
        self.coarse = CoarseTextEncoder(self.vocab)
        self.quant = None
        self.store = None
        self._hnsw_shards: DataFrame | None = None

    # -- offline ----------------------------------------------------------
    def build(self, patches: DataFrame) -> BuildReport:
        """Video summary + database storage (one-time, query-agnostic)."""
        cfg = self.cfg
        frames = frames_df(patches)
        n_frames = frames.count()
        t0 = time.perf_counter()
        if cfg.use_keyframes:
            kfs = select_keyframes(
                frames, threshold=cfg.kf_threshold, interval=cfg.kf_interval
            )
            selected = keyframe_patches(patches, kfs)
        else:
            selected = patches
        encoded = encode_patches(selected, cfg).persist()
        n_vectors = encoded.count()  # materialise: this is the processing phase
        if not n_vectors:
            encoded.unpersist()
            raise ValueError("the corpus has no patches: nothing to train the index on")
        t1 = time.perf_counter()
        self.quant, self.store = build_index(
            encoded,
            n_subspaces=cfg.n_subspaces,
            k_coarse=cfg.k_coarse,
            k_residual=cfg.k_residual,
            train_sample=cfg.train_sample,
            seed=cfg.seed,
        )
        t2 = time.perf_counter()
        self._hnsw_shards = None
        n_keyframes = self.store.meta.select("video_id", "frame_idx").distinct().count()
        encoded.unpersist()  # the cached store tables are now the one copy
        return BuildReport(
            n_frames=n_frames,
            n_keyframes=n_keyframes,
            n_vectors=n_vectors,
            processing_time=t1 - t0,
            index_time=t2 - t1,
        )

    def hnsw_shards(self) -> DataFrame:
        """Lazily build + cache the sharded HNSW graphs (Table V variant)."""
        if self._hnsw_shards is None:
            cfg = self.cfg
            shards = build_hnsw_shards(
                self.store.vectors,
                n_shards=cfg.hnsw_shards,
                m=cfg.hnsw_m,
                ef_construction=cfg.hnsw_ef,
                seed=cfg.seed,
            ).persist()
            shards.count()
            self._hnsw_shards = shards
        return self._hnsw_shards

    # -- online -----------------------------------------------------------
    def encode_query(self, query: Query) -> np.ndarray:
        """Coarse single-vector query embedding (drops relations, §VI-A)."""
        return self.coarse.encode(list(query.tags))

    def fast_search(
        self, query: Query, *, variant: str = "ivfpq", k: int | None = None
    ) -> DataFrame:
        """Stage 1: top-k candidate patches with metadata."""
        if self.store is None:
            raise RuntimeError("call build() first")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        k = k or self.cfg.k
        q = self.encode_query(query)
        cost = self.cfg.cost()
        if variant == "bf":
            return search_bf(self.store, q, k=k, cost=cost)
        if variant == "hnsw":
            return search_hnsw(
                self.hnsw_shards(), self.store.meta, q, k=k, ef=self.cfg.hnsw_ef
            )
        return search_ivfpq(
            self.store, self.quant, q, top_a=self.cfg.top_a, k=k, cost=cost
        )

    def query(
        self,
        query: Query,
        *,
        variant: str = "ivfpq",
        use_rerank: bool = True,
        k: int | None = None,
    ) -> QueryResult:
        """Algorithm 2: fast search, then cross-modality rerank."""
        t0 = time.perf_counter()
        hits = self.fast_search(query, variant=variant, k=k).collect()
        t1 = time.perf_counter()
        if not use_rerank:
            results = [
                RankedResult(
                    video_id=r["video_id"],
                    frame_idx=r["frame_idx"],
                    bbox=tuple(r["pred_bbox"]),
                    score=float(r["score"]),
                )
                for r in hits
            ]
            return QueryResult(query.qid, results, fast_time=t1 - t0)

        frames = sorted({(r["video_id"], r["frame_idx"]) for r in hits})
        if not frames:
            return QueryResult(query.qid, [], fast_time=t1 - t0)
        frame_patches = self.store.meta.filter(isin("(video_id, frame_idx)", frames))
        results = top_ranked(
            score_frames(frame_patches, query, self.cfg),
            self.cfg.n or len(frames),
            score="rerank_score",
        )
        t2 = time.perf_counter()
        return QueryResult(
            query.qid, results, fast_time=t1 - t0, rerank_time=t2 - t1
        )

    def close(self) -> None:
        """Release cached index state."""
        if self.store is not None:
            self.store.unpersist()
        if self._hnsw_shards is not None:
            self._hnsw_shards.unpersist()
