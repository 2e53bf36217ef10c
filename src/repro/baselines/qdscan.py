"""Query-dependent full-video detector scan, shared by MIRIS and FiGO.

QD-search systems run detection models over the (whole) video *at query
time*. The simulated detector:

* detects each object instance with probability ``p_det`` (deterministic
  per patch + query, so repeated runs agree);
* recognises the query's head class and, with per-attribute recall
  ``attr_recall``, its appearance attributes;
* is blind to spatial/behavioural relations (§II: "struggle with
  queries that require spatial relationships") — relation tags do not
  contribute to the score;
* burns one ``detector_frame`` unit per frame scanned, so query latency grows
  with video length — the QD-search scalability failure (Fig. 10).

Ranking score = matched-attribute fraction + detector confidence noise.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.base import HIT_SCHEMA
from repro.queries.workload import Query
from repro.vocab.encoders import CostModel


def qd_scan(
    patches: DataFrame,
    query: Query,
    cost: CostModel,
    *,
    p_det: float = 0.85,
    attr_recall: float = 0.8,
    seed: int = 0,
) -> DataFrame:
    """Scan every frame with the per-query detector; emit scored detections."""
    class_tags = set(query.class_tags)
    attr_tags = set(query.attr_tags)
    qsalt = zlib.crc32(query.qid.encode())

    def _scan(batches):
        for pdf in batches:
            if not len(pdf):
                continue
            n_frames = pdf[["video_id", "frame_idx"]].drop_duplicates().shape[0]
            cost.burn("detector_frame", n_frames)
            out = []
            objs = pdf[pdf["is_object"]]
            for pid, vid, fid, tags, bbox in zip(
                objs["patch_id"], objs["video_id"], objs["frame_idx"],
                objs["tags"], objs["bbox"],
            ):
                rng = np.random.default_rng([seed, qsalt, int(pid)])
                if rng.random() > p_det:
                    continue  # detector missed this instance
                tset = set(tags)
                if not (class_tags & tset):
                    continue
                matched = sum(
                    1 for t in attr_tags if t in tset and rng.random() < attr_recall
                )
                frac = matched / len(attr_tags) if attr_tags else 1.0
                out.append((int(vid), int(fid), list(bbox), frac + 0.3 * rng.random()))
            if out:
                yield pd.DataFrame(out, columns=["video_id", "frame_idx", "bbox", "score"])

    return patches.select(
        "patch_id", "video_id", "frame_idx", "is_object", "tags", "bbox"
    ).mapInPandas(_scan, schema=HIT_SCHEMA)
