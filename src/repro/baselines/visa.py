"""VISA — LLM-based video reasoning segmentation baseline (§VII-A, [48]).

A vision encoder runs over every frame at ingest, then query answering
drives a large language model *sequentially* across frames (single
partition, per-frame token generation — by far the largest calibrated
cost, matching Table III where VISA is 5–10× slower than everything).

The LLM reasons well about relations and attributes — on footage that
looks like its training data. On traffic-camera scenes its grounding
degrades sharply (the paper: "performs poorly on the other traffic
scenes datasets"), modelled as a much higher tag-perception dropout
out of domain.
"""
from __future__ import annotations

import time
import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.base import HIT_SCHEMA, Baseline
from repro.core.metrics import QueryResult, top_ranked
from repro.queries.workload import Query
from repro.vocab.encoders import _stable_rng


def _llm_sees(tag: str, track_id: int, qsalt: int, *, daily: bool, seed: int) -> bool:
    """Domain-dependent grounding: is ``tag`` perceived by the LLM?

    Module-level (not a method) so Spark closures never capture the
    baseline object, whose SparkSession is unpicklable.
    """
    p = 0.05 if daily else 0.45
    if tag.startswith("class:"):
        p = p / 3  # classes are easier than attributes/relations
    u = _stable_rng(seed, 17, qsalt, track_id, zlib.crc32(tag.encode())).random()
    return u >= p


class Visa(Baseline):
    name = "visa"

    def __init__(self, spark, cfg=None, *, daily_life: bool = False):
        super().__init__(spark, cfg)
        self.daily_life = daily_life

    def process(self, patches: DataFrame) -> float:
        t0 = time.perf_counter()
        cost = self.cost

        def _encode(batches):
            for pdf in batches:
                if not len(pdf):
                    continue
                cost.burn(
                    "visa_encode_frame",
                    pdf[["video_id", "frame_idx"]].drop_duplicates().shape[0],
                )
                yield pdf[["video_id"]].head(0).assign(n=0)[["n"]]

        patches.select("patch_id", "video_id", "frame_idx").mapInPandas(
            _encode, schema="n int"
        ).count()
        self.patches = patches
        self.processing_time = time.perf_counter() - t0
        return self.processing_time

    def query(self, query: Query, *, k: int = 50) -> QueryResult:
        t0 = time.perf_counter()
        cost = self.cost
        qtags = list(query.tags)
        qsalt = zlib.crc32(query.qid.encode())
        seed = self.cfg.seed
        bbox_noise = self.cfg.bbox_noise
        daily = self.daily_life

        def sees(tag, track_id, _qsalt):
            return _llm_sees(tag, track_id, _qsalt, daily=daily, seed=seed)

        def _reason(batches):
            for pdf in batches:
                if not len(pdf):
                    continue
                cost.burn(
                    "visa_search_frame",
                    pdf[["video_id", "frame_idx"]].drop_duplicates().shape[0],
                )
                out = []
                objs = pdf[pdf["is_object"]]
                for pid, vid, fid, tid, tags, bbox in zip(
                    objs["patch_id"], objs["video_id"], objs["frame_idx"],
                    objs["track_id"], objs["tags"], objs["bbox"],
                ):
                    tset = set(tags)
                    seen = [t for t in qtags if t in tset and sees(t, int(tid), qsalt)]
                    if not any(t.startswith("class:") for t in seen):
                        continue
                    frac = len(seen) / len(qtags)
                    rng = np.random.default_rng([seed, qsalt, int(pid)])
                    box = np.asarray(list(bbox))
                    w, h = box[2] - box[0], box[3] - box[1]
                    box = np.clip(
                        box + rng.standard_normal(4) * 2 * bbox_noise * np.array([w, h, w, h]),
                        0, 1,
                    )
                    out.append(
                        (int(vid), int(fid), [float(b) for b in box],
                         frac + 0.05 * rng.random())
                    )
                if out:
                    yield pd.DataFrame(out, columns=["video_id", "frame_idx", "bbox", "score"])

        hits = (
            self.patches.select(
                "patch_id", "video_id", "frame_idx", "track_id", "is_object", "tags", "bbox"
            )
            .coalesce(1)  # sequential LLM token generation: one instance
            .mapInPandas(_reason, schema=HIT_SCHEMA)
        )
        return QueryResult(query.qid, top_ranked(hits.toPandas(), k), time.perf_counter() - t0)
