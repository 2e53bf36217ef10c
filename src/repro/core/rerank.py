"""Cross-Modality Rerank (§VI-B, Algorithm 2 stage 2).

For every candidate frame from fast search, a token-level cross-
attention pass re-scores the frame against the *full* query — including
the relation tags the coarse fast-search encoder dropped:

* image tokens ``X_I``: one noisy vector per (patch, tag) over all
  patches of the frame (the simulated BERT/ViT token features);
* text tokens ``X_T``: one vector per query tag (FineTextEncoder);
* feature enhancer: bidirectional residual cross-attention,
  ``X_I ← norm(X_I + softmax(X_I·X_Tᵀ/√d)·X_T)`` and symmetrically for
  ``X_T`` — the paper's image↔text attention layers;
* frame score ``l_s``: mean over text tokens of the best-matching image
  token similarity (every queried concept must be found *somewhere* in
  the frame — this is what demotes missing-relation distractors);
* decoder: the best image token's patch provides the output bounding
  box, reproducing "outputs the frames with the bounding boxes".

Runs on the driver: one Spark read of the candidate frames' patch
rows, then the image tokens of every candidate patch as one matrix
(seeds hashed for all patches at once, one noise draw per patch,
per-track prototypes computed once per query), then the per-frame
maths in numpy over that matrix's row slices, at most k frames,
burning calibrated cross-modal-transformer FLOPs per frame. Tokens are
built per query, so nothing is stored or cached across queries.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core.config import LOVOConfig
from repro.queries.workload import Query
from repro.vocab.encoders import (
    FineTextEncoder,
    perceived_track_tags,
    rng_from_state,
    seed_states,
    track_perturbation,
)
from repro.vocab.vocabulary import Vocabulary

RERANK_SCHEMA = T.StructType(
    [
        T.StructField("video_id", T.IntegerType()),
        T.StructField("frame_idx", T.IntegerType()),
        T.StructField("rerank_score", T.DoubleType()),
        T.StructField("bbox", T.ArrayType(T.DoubleType())),
        T.StructField("patch_id", T.LongType()),
    ]
)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _normalize(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(n, 1e-12)


def enhance(
    X_I: np.ndarray, X_T: np.ndarray, *, mix: float = 0.5, temp: float = 12.0
) -> np.ndarray:
    """Feature enhancer: bidirectional cross-attention → similarity matrix S.

    ``mix`` weights the attended residual against the original token
    (the enhancer's residual connection keeps identity dominant).
    ``temp`` sharpens attention: our tokens are raw unit vectors whose
    dot products span only ±1, so the transformer convention of dividing
    logits by √d would make attention near-uniform — every token would
    absorb the same text mix and background tokens would outscore real
    matches. A learned Q/K projection provides this sharpening in a real
    model; ``temp`` stands in for it, concentrating each token's
    attention on its genuinely matching counterparts.
    """
    att_i = _softmax(X_I @ X_T.T * temp) @ X_T  # image-to-text attention
    att_t = _softmax(X_T @ X_I.T * temp) @ X_I  # text-to-image attention
    Xi = _normalize(X_I + mix * att_i)
    Xt = _normalize(X_T + mix * att_t)
    return Xi @ Xt.T  # (n_image_tokens, n_text_tokens)


def decode_best_patch(S: np.ndarray, owners: list[int] | np.ndarray) -> int:
    """Decoder (§VI-B): the patch whose tokens best cover the query.

    Per patch, each text token is matched to that patch's best token and
    the matches are averaged — so the output box comes from the object
    that satisfies the *whole* query, not from whichever single token is
    globally hottest (a frame can contain a better-matching token on the
    wrong object). Ties go to the patch seen first in ``owners``.
    """
    ids, first, inv = np.unique(owners, return_index=True, return_inverse=True)
    best = np.full((len(ids), S.shape[1]), -np.inf)
    np.maximum.at(best, inv, S)  # per-owner max over its token rows
    seen = np.argsort(first)  # owners in first-seen order
    return int(ids[seen[np.argmax(best.mean(axis=1)[seen])]])


def rerank_frames(
    frame_patches: DataFrame, query: Query, cfg: LOVOConfig
) -> DataFrame:
    """``score_frames`` as a local DataFrame with ``RERANK_SCHEMA``."""
    return frame_patches.sparkSession.createDataFrame(
        score_frames(frame_patches, query, cfg), RERANK_SCHEMA
    )


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, bit for bit: ``sqrt(r @ r)`` per row.

    A 1-D norm is one BLAS ``ddot``; ``norm(axis=1)`` and ``einsum`` sum
    in another order and can move the last ulp of a token.
    """
    return np.sqrt(np.fromiter(map(np.dot, X, X), np.float64, count=len(X)))


def _image_tokens(
    patch_ids: np.ndarray,
    track_ids: np.ndarray,
    tags: list[list[str]],
    cfg: LOVOConfig,
    vocab: Vocabulary,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit token matrix ``X_I`` of the given patches, and each patch's token count.

    Each tag a patch's track perceives gives one token: its vocabulary
    vector plus the track's persistent perturbation, plus noise of norm
    ``token_noise`` drawn from the patch's own ``[seed, 1, patch_id]``
    stream, normalised. Tokens come in patch order, then tag order.
    """
    states = seed_states((cfg.seed, 1), patch_ids)
    seen_of: dict[tuple, list[str]] = {}
    base_of: dict[tuple, np.ndarray] = {}
    bases, draws = [], []
    counts = np.zeros(len(patch_ids), np.int64)
    for i, (track_id, patch_tags) in enumerate(zip(track_ids.tolist(), tags)):
        # the reranker looks at the same pixels the encoder did: an
        # attribute the perception misses is missed here too
        key = (track_id, tuple(patch_tags))
        seen = seen_of.get(key)
        if seen is None:
            seen = seen_of[key] = perceived_track_tags(
                patch_tags, seed=cfg.seed, track_id=track_id,
                dropout=cfg.attr_dropout, rel_dropout=cfg.rel_dropout,
            )
        if not seen:
            continue
        for t in seen:
            base = base_of.get((track_id, t))
            if base is None:
                base = base_of[(track_id, t)] = vocab.vec(t) + track_perturbation(
                    cfg.dim, cfg.token_track_noise, seed=cfg.seed,
                    track_id=track_id, salt=zlib.crc32(t.encode()),
                )
            bases.append(base)
        # one (n, dim) draw is the same stream as n successive (dim,) draws
        draws.append(rng_from_state(states[i]).standard_normal((len(seen), cfg.dim)))
        counts[i] = len(seen)
    if not draws:
        return np.zeros((0, cfg.dim)), counts
    D = np.concatenate(draws)
    D *= (cfg.token_noise / np.maximum(_row_norms(D), 1e-12))[:, None]
    V = np.stack(bases) + D  # noises are norms
    return V / np.maximum(_row_norms(V), 1e-12)[:, None], counts


def score_frames(
    frame_patches: DataFrame, query: Query, cfg: LOVOConfig
) -> pd.DataFrame:
    """Re-score candidate frames; one output row per frame.

    ``frame_patches`` holds the *metadata* rows (patch_id, track_id,
    tags, pred_bbox) of every patch belonging to a candidate frame. They
    are read in one Spark job; the tokens of every patch are built as
    one matrix, and each frame is scored over its rows on the driver,
    patches in ascending ``patch_id`` order. The result is a pandas
    frame with ``RERANK_SCHEMA``'s columns.
    """
    cost = cfg.cost()
    vocab = Vocabulary(dim=cfg.dim, seed=cfg.vocab_seed)
    X_T = FineTextEncoder(vocab).encode_tokens(list(query.tags))
    keys = ["video_id", "frame_idx", "patch_id"]
    tbl = (
        frame_patches.select(*keys, "track_id", "tags", "pred_bbox")
        .toArrow()
        .sort_by([(c, "ascending") for c in keys])
    )
    video, frame, pid, track = (tbl.column(c).to_numpy() for c in keys + ["track_id"])
    X_I, counts = _image_tokens(pid, track, tbl.column("tags").to_pylist(), cfg, vocab)
    owners = np.repeat(pid, counts)
    tok_end = np.cumsum(counts)
    new_frame = np.ones(len(pid), bool)
    new_frame[1:] = (video[1:] != video[:-1]) | (frame[1:] != frame[:-1])
    starts = np.flatnonzero(new_frame)
    out = []
    for s, e in zip(starts, np.r_[starts[1:], len(pid)]):
        cost.burn("lovo_rerank_frame", 1.0)
        a, b = tok_end[s] - counts[s], tok_end[e - 1]
        if b > a:
            S = enhance(X_I[a:b], X_T)
            score = float(S.max(axis=0).mean())
            best_pid = decode_best_patch(S, owners[a:b])
        else:  # every token dropped: score the frame as irrelevant
            score = -1.0
            best_pid = int(pid[s])
        best_box = tbl.column("pred_bbox")[s + int(np.searchsorted(pid[s:e], best_pid))].as_py()
        out.append((int(video[s]), int(frame[s]), score, best_box, best_pid))
    return pd.DataFrame(out, columns=RERANK_SCHEMA.names)
