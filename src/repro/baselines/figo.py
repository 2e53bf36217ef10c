"""FiGO — QD-search baseline (§VII-A, [17]).

Fine-grained query optimisation with a model ensemble: a cheap proxy
model filters all frames first (fraction of the full detector cost,
imperfect recall), then the accurate detector runs only on surviving
frames. No per-query training setup (unlike MIRIS), so it is faster,
but it still rescans the video for every query and cannot ground
relations.
"""
from __future__ import annotations

import time

from pyspark.sql import functions as F

from repro.baselines.base import Baseline
from repro.baselines.qdscan import qd_scan
from repro.core.metrics import QueryResult, top_ranked
from repro.queries.workload import Query


class Figo(Baseline):
    name = "figo"

    #: cheap-proxy cost relative to the full detector, and its frame recall
    proxy_cost = 0.25
    proxy_recall = 0.9

    def query(self, query: Query, *, k: int = 50) -> QueryResult:
        t0 = time.perf_counter()
        # stage 1: cheap proxy over every frame — selects candidate frames
        class_tags = [F.lit(t) for t in query.class_tags]
        frames_with_class = (
            self.patches.filter("is_object")
            .filter(F.size(F.array_intersect("tags", F.array(*class_tags))) > 0)
            .select("video_id", "frame_idx")
            .distinct()
        )
        # proxy recall: drop a deterministic fraction of candidate frames
        cand = frames_with_class.withColumn(
            "u", F.pmod(F.xxhash64("video_id", "frame_idx"), F.lit(1000)) / 1000.0
        ).filter(F.col("u") < self.proxy_recall).drop("u")
        n_all = self.patches.select("video_id", "frame_idx").distinct().count()
        self.cost.burn("detector_frame", self.proxy_cost * n_all)
        # stage 2: accurate detector on candidate frames only
        selected = self.patches.join(cand, ["video_id", "frame_idx"], "left_semi")
        hits = qd_scan(
            selected, query, self.cost, p_det=0.9, attr_recall=0.8, seed=self.cfg.seed + 1
        )
        return QueryResult(query.qid, top_ranked(hits.toPandas(), k), time.perf_counter() - t0)
