"""Video Summary stage (§IV): key frames → per-patch embeddings + boxes.

A distributed ``mapInPandas`` pass plays the decoupled ViT encoder +
OWL-ViT heads: every key-frame patch gets a noisy class embedding from
its tag set (objects) or scene context (background), and object patches
get a refined predicted box (true box + localisation noise). Per-frame
encoder FLOPs are burned so processing time scales linearly with key
frames, reproducing Fig. 11(a)'s ~constant per-frame cost.

Randomness is seeded per ``patch_id`` so the encoding is deterministic
regardless of Spark partitioning.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.config import LOVOConfig
from repro.vocab.encoders import (
    VisualEncoderSim,
    perceived_track_tags,
    rng_from_state,
    seed_states,
    track_perturbation,
)
from repro.vocab.vocabulary import Vocabulary

ENCODED_SCHEMA = T.StructType(
    [
        T.StructField("patch_id", T.LongType()),
        T.StructField("video_id", T.IntegerType()),
        T.StructField("frame_idx", T.IntegerType()),
        T.StructField("is_object", T.BooleanType()),
        T.StructField("track_id", T.LongType()),
        T.StructField("tags", T.ArrayType(T.StringType())),
        T.StructField("pred_bbox", T.ArrayType(T.DoubleType())),
        T.StructField("embedding", T.ArrayType(T.DoubleType())),
    ]
)


def encode_patches(patches: DataFrame, cfg: LOVOConfig) -> DataFrame:
    """Encode raw patch rows into the paper's vector collection (§IV-D)."""
    cost = cfg.cost()

    def _encode(batches):
        vocab = Vocabulary(dim=cfg.dim, seed=cfg.vocab_seed)
        enc = VisualEncoderSim(
            vocab, noise=cfg.visual_noise, bbox_noise=cfg.bbox_noise
        )
        for pdf in batches:
            if not len(pdf):
                continue
            cost.burn(
                "lovo_encode_frame",
                pdf[["video_id", "frame_idx"]].drop_duplicates().shape[0],
            )
            embs, boxes = [], []
            # default_rng([seed, patch_id]) per patch, hashed once per batch
            states = seed_states((cfg.seed,), pdf["patch_id"].to_numpy())
            for state, is_obj, track_id, tags, bbox in zip(
                states, pdf["is_object"], pdf["track_id"], pdf["tags"], pdf["bbox"]
            ):
                rng = rng_from_state(state)
                tags = list(tags)
                box = np.asarray(list(bbox), dtype=np.float64)
                if is_obj:
                    seen = perceived_track_tags(
                        tags, seed=cfg.seed, track_id=int(track_id),
                        dropout=cfg.attr_dropout, rel_dropout=cfg.rel_dropout,
                    )
                    offset = track_perturbation(
                        cfg.dim, cfg.track_noise, seed=cfg.seed, track_id=int(track_id)
                    )
                    embs.append(enc.encode_object(seen, rng, offset=offset))
                    boxes.append(enc.localize(box, rng))
                else:
                    embs.append(enc.encode_background(tags, rng))
                    boxes.append(box)
            yield pd.DataFrame(
                {
                    "patch_id": pdf["patch_id"],
                    "video_id": pdf["video_id"],
                    "frame_idx": pdf["frame_idx"],
                    "is_object": pdf["is_object"],
                    "track_id": pdf["track_id"],
                    "tags": pdf["tags"],
                    "pred_bbox": [list(b) for b in boxes],
                    "embedding": [list(e) for e in embs],
                }
            )

    cols = [f.name for f in ENCODED_SCHEMA.fields if f.name not in ("pred_bbox", "embedding")]
    return patches.select(*cols, "bbox").mapInPandas(_encode, schema=ENCODED_SCHEMA)


def keyframe_patches(patches: DataFrame, keyframes: DataFrame) -> DataFrame:
    """Restrict patch rows to the selected key frames (semi join)."""
    return patches.join(
        keyframes.select("video_id", "frame_idx"), ["video_id", "frame_idx"], "left_semi"
    )
