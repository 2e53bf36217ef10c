"""Query results and evaluation metrics: IoU and Average Precision (§VII-A).

A retrieved box is a positive match when its intersection-over-union
with a ground-truth box exceeds 0.5 (MSCOCO convention); AveP is the
area under the precision–recall curve computed over the ranked result
list, i.e. the mean of precision@rank over true-positive ranks, divided
by the number of ground-truth objects.

Every system, LOVO and each baseline, answers a query with one
``QueryResult``: its ``RankedResult`` list and the phase latencies.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import pandas as pd


@dataclass(frozen=True)
class RankedResult:
    """One retrieved detection: frame identity, predicted box, score."""

    video_id: int
    frame_idx: int
    bbox: tuple[float, float, float, float]
    score: float


@dataclass
class QueryResult:
    """Ranked detections plus per-phase latency for one query.

    A baseline has a single phase and reports its whole query time as
    ``fast_time``.
    """

    qid: str
    results: list[RankedResult]
    fast_time: float
    rerank_time: float = 0.0

    @property
    def search_time(self) -> float:
        return self.fast_time + self.rerank_time


def top_ranked(hits: pd.DataFrame, k: int, *, score: str = "score") -> list[RankedResult]:
    """The ``k`` best ``hits`` rows by ``score`` as ranked results.

    ``hits`` holds driver-local rows with ``video_id``, ``frame_idx``,
    ``bbox`` and the score column; ties are broken by
    ``(video_id, frame_idx)``.
    """
    top = hits.sort_values(
        [score, "video_id", "frame_idx"], ascending=[False, True, True]
    ).head(k)
    return [
        RankedResult(int(v), int(f), tuple(map(float, b)), float(s))
        for v, f, b, s in zip(top["video_id"], top["frame_idx"], top["bbox"], top[score])
    ]


@dataclass(frozen=True)
class EvalReport:
    """AveP plus the per-rank TP flags that produced it.

    ``tp_flags`` covers non-ignored ranks only; ``n_ignored`` counts
    re-detections of already-matched tracks (skipped, per detection-
    benchmark convention).
    """

    avep: float
    n_gt: int
    n_results: int
    tp_flags: tuple[bool, ...]
    n_ignored: int = 0

    @property
    def recall(self) -> float:
        return sum(self.tp_flags) / self.n_gt if self.n_gt else 0.0


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union of two ``[x1, y1, x2, y2]`` boxes."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def average_precision(is_positive: Sequence[bool], n_gt: int) -> float:
    """AP of a ranked list given per-rank TP flags and the GT count.

    ``is_positive[i]`` says whether the result at rank ``i`` (0-based)
    was a true positive. AP = Σ_TP precision@rank / n_gt. Returns 0.0
    when there is no ground truth.
    """
    if n_gt <= 0:
        return 0.0
    tp = 0
    ap = 0.0
    for i, pos in enumerate(is_positive):
        if pos:
            tp += 1
            ap += tp / (i + 1)
    return ap / n_gt
