"""MIRIS — QD-search baseline (§VII-A, [24]).

Object-track queries driven by per-query planning: before the scan,
MIRIS tunes/trains its detector for the query (the paper attributes its
dominant cost to "manual plan and model parameter adjustments" — a large
fixed per-query setup burn here), then traverses the entire video with
the tuned tracker. The detector matches classes and, imperfectly,
appearance attributes; relations are out of vocabulary.
"""
from __future__ import annotations

import time

from repro.baselines.base import Baseline
from repro.baselines.qdscan import qd_scan
from repro.core.metrics import QueryResult, top_ranked
from repro.queries.workload import Query


class Miris(Baseline):
    name = "miris"

    def query(self, query: Query, *, k: int = 50) -> QueryResult:
        t0 = time.perf_counter()
        self.cost.burn("detector_setup", 1.0)  # per-query plan + tuning
        hits = qd_scan(
            self.patches, query, self.cost, p_det=0.85, attr_recall=0.7, seed=self.cfg.seed
        )
        return QueryResult(query.qid, top_ranked(hits.toPandas(), k), time.perf_counter() - t0)
