"""Simulated encoders + calibrated compute-cost model.

``VisualEncoderSim`` plays the role of the decoupled ViT-B/32 + OWL-ViT
heads (§IV-B/C): it turns an object's tag set into a noisy class
embedding and a noisy bounding box. ``CoarseTextEncoder`` is the fast-
search text transformer (§VI-A): it embeds only key-phrase tags (class +
attributes + background), *dropping relation tags* — the paper's stated
design ("omits intricate relationships"). ``FineTextEncoder`` produces
token-level features over *all* tags for the cross-modality reranker.

``CostModel`` burns real CPU (numpy matmuls) proportional to each
simulated model's FLOPs so that *measured* wall-clock preserves the
paper's cost ordering (ViT patch encode ≪ cross-modal rerank ≪ LLM pass)
without a GPU. Absolute seconds are not expected to match the paper.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vocab.vocabulary import TagKind, Vocabulary, tag_kind

# One burn "unit" multiplies two _BURN_N x _BURN_N matrices (~2·N^3 flops).
_BURN_N = 96
_BURN_A: np.ndarray | None = None

import zlib

from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)


def _stable_rng(*keys: int) -> np.random.Generator:
    """Deterministic RNG from integer keys (order-sensitive)."""
    return np.random.default_rng([int(k) % (2**63) for k in keys])


def seed_states(prefix: tuple[int, ...], ids) -> np.ndarray:
    """``SeedSequence([*prefix, id]).generate_state(4, np.uint64)`` per id.

    Runs numpy's documented ``SeedSequence`` hash (a pool of 4 uint32
    words) in vectorised uint32 arithmetic over entropy rows
    ``[*prefix, lo32(id), hi32(id)]``. numpy coerces an id below 2**32 to
    one word and pads a short pool with ``hashmix(0)``, so the zero high
    word hashes exactly like that padding: the row is numpy's own
    entropy for every id in [0, 2**63). Prefix words must be single
    uint32 words, and at most two, so a row never outgrows the pool.
    Returns an ``(len(ids), 4)`` uint64 array; see :func:`rng_from_state`.
    """
    if len(prefix) > 2 or any(not 0 <= int(w) <= _M32 for w in prefix):
        raise ValueError(f"prefix must be at most two words in [0, 2**32): {prefix!r}")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if (ids < 0).any():
        raise ValueError("ids must be non-negative")
    u = ids.astype(np.uint64)
    n = len(u)
    entropy = [np.full(n, int(w), np.uint32) for w in prefix]
    entropy += [(u & np.uint64(_M32)).astype(np.uint32), (u >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SHIFT)

    pool = [hashmix(e) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = r ^ (r >> _SHIFT)

    words, hash_const = [], _INIT_B
    for i in range(8):  # 4 uint64 = 8 uint32 words, cycling the pool
        w = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        w = w * np.uint32(hash_const)
        words.append((w ^ (w >> _SHIFT)).astype(np.uint64))
    lo, hi = np.stack(words[0::2], axis=1), np.stack(words[1::2], axis=1)
    return lo | (hi << np.uint64(32))  # little-endian word pairs, as numpy's view


class _PresetSeed(ISeedSequence):
    """Hands a bit generator one precomputed ``generate_state(4, uint64)``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset seed holds exactly 4 uint64 words")
        return self.state


def rng_from_state(state: np.ndarray) -> np.random.Generator:
    """``np.random.default_rng(entropy)`` from a row of :func:`seed_states`.

    The same PCG64 stream, without hashing the entropy per generator.
    """
    return np.random.Generator(np.random.PCG64(_PresetSeed(state)))


def perceived_track_tags(
    tags: list[str],
    *,
    seed: int,
    track_id: int,
    dropout: float,
    rel_dropout: float | None = None,
) -> list[str]:
    """Tags a perception model 'sees' for one object *track*.

    Misses are correlated across a track's frames — an attribute that is
    visually weak (occluded, low-contrast) is weak in every appearance —
    so the decision is seeded by ``(seed, track_id, tag)``, not by
    frame. Both the visual encoder and the reranker share this view:
    they look at the same pixels. Class tags are never dropped, and
    spatial/behavioural relations (``rel:``) use the separate, higher
    ``rel_dropout``: relational context ("side by side", "center of the
    road") is genuinely harder to ground than appearance attributes,
    which is what makes the paper's complex queries complex.
    Background patches (track_id < 0) keep everything.
    """
    if (dropout <= 0 and not rel_dropout) or track_id < 0:
        return list(tags)
    rel_p = dropout if rel_dropout is None else rel_dropout
    out = []
    for t in tags:
        kind = tag_kind(t)
        if kind == TagKind.CLASS:
            out.append(t)
            continue
        p = rel_p if kind == TagKind.REL else dropout
        if _stable_rng(seed, 11, track_id, zlib.crc32(t.encode())).random() >= p:
            out.append(t)
    return out


def track_perturbation(
    dim: int, norm: float, *, seed: int, track_id: int, salt: int = 0
) -> np.ndarray:
    """A fixed random direction of length ``norm`` per track.

    Models instance appearance: the *same* object deviates from its
    tag-set prototype the same way in every frame, so a genuinely
    query-like distractor stays query-like across the video (heavy-tail
    failure mode that per-frame noise cannot produce).
    """
    if norm <= 0 or track_id < 0:
        return np.zeros(dim)
    d = _stable_rng(seed, 13 + salt, track_id).standard_normal(dim)
    return d * (norm / max(np.linalg.norm(d), 1e-12))


def _burn(units: float) -> None:
    """Spend ~``units`` matmul-units of CPU; deterministic, allocation-free."""
    global _BURN_A
    if units <= 0:
        return
    if _BURN_A is None:
        _BURN_A = np.random.default_rng(0).standard_normal((_BURN_N, _BURN_N))
    whole, frac = int(units), units - int(units)
    for _ in range(whole):
        _BURN_A @ _BURN_A
    if frac > 0:
        n = max(2, int(_BURN_N * frac ** (1 / 3)))
        _BURN_A[:n, :n] @ _BURN_A[:n, :n]


@dataclass(frozen=True)
class CostModel:
    """Per-item compute cost (in matmul units) of each simulated model.

    Ratios follow the paper's measurements: LOVO processes a key frame in
    ~0.08 s and reranks one in ~1 s (§VII-D), VISA's LLM pass dominates
    everything (Table III), UMT is cheap at ingest but heavy at query.
    ``scale`` rescales everything; tests use ``scale=0`` to skip burning.
    """

    scale: float = 1.0
    lovo_encode_frame: float = 1.0  # ViT patch encode + heads, per key frame
    lovo_rerank_frame: float = 12.0  # cross-modality transformer, per frame
    zelda_encode_frame: float = 2.5  # CLIP global embed, per frame
    umt_encode_frame: float = 0.25  # light clip features at ingest
    # UMT runs its multi-modal transformer over EVERY clip per query, at
    # the same per-frame transformer cost LOVO pays only for its top-k
    # rerank candidates (~12 units/frame × 8 frames/clip) — this is the
    # asymmetry behind Table III's UMT-search ≫ LOVO-search.
    umt_search_clip: float = 96.0
    visa_encode_frame: float = 3.0  # vision encoder for LLM, per frame
    visa_search_frame: float = 12.0  # sequential LLM tokens, per frame
    detector_frame: float = 0.8  # QD-search detector inference, per frame
    detector_setup: float = 40.0  # MIRIS-style per-query tuning/training setup
    ann_scan_vector: float = 1.0  # similarity computation, per vector scored

    def burn(self, field: str, items: float = 1.0) -> None:
        """Burn CPU for ``items`` applications of the model named ``field``."""
        _burn(self.scale * getattr(self, field) * items)


class VisualEncoderSim:
    """Decoupled visual encoder: tag set → class embedding, box → noisy box.

    ``noise`` is the std-dev of Gaussian perturbation added before
    re-normalisation; it controls how imperfect retrieval is (real
    encoders do not embed two instances of the same object identically).
    """

    def __init__(
        self,
        vocab: Vocabulary,
        *,
        noise: float = 0.25,
        bbox_noise: float = 0.015,
    ):
        self.vocab = vocab
        self.noise = float(noise)
        self.bbox_noise = float(bbox_noise)

    @staticmethod
    def _perturb(base: np.ndarray, mag: float, rng: np.random.Generator) -> np.ndarray:
        """Add a random direction of norm ``mag`` and re-normalise.

        ``mag`` is the total perturbation norm (not per-dimension std), so
        the signal-to-noise ratio is dimension-independent: similarity to
        the clean embedding ≈ 1/√(1+mag²).
        """
        d = rng.standard_normal(base.shape)
        d *= mag / max(np.linalg.norm(d), 1e-12)
        v = base + d
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    def encode_object(
        self,
        tags: list[str],
        rng: np.random.Generator,
        offset: np.ndarray | None = None,
    ) -> np.ndarray:
        """Noisy unit-norm class embedding c_jk for one object instance.

        ``offset`` is an optional persistent appearance component (see
        :func:`track_perturbation`) added before the per-frame noise.
        """
        base = self.vocab.embed_tags(tags)
        if offset is not None:
            base = base + offset
            n = np.linalg.norm(base)
            base = base / n if n > 0 else base
        return self._perturb(base, self.noise, rng)

    def encode_background(self, bg_tags: list[str], rng: np.random.Generator) -> np.ndarray:
        """Embedding for a patch with no object (scene context only)."""
        return self._perturb(
            self.vocab.embed_tags(bg_tags or ["bg:empty"]), 2.0 * self.noise, rng
        )

    def localize(self, bbox: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """OWL-ViT-style box head: true box + anchor-refinement noise.

        Boxes are ``[x1, y1, x2, y2]`` in normalised frame coordinates;
        the output stays a valid box clipped to [0, 1].
        """
        w = bbox[2] - bbox[0]
        h = bbox[3] - bbox[1]
        jitter = rng.standard_normal(4) * self.bbox_noise * np.array([w, h, w, h])
        out = np.clip(bbox + jitter, 0.0, 1.0)
        out[2] = max(out[2], out[0] + 1e-4)
        out[3] = max(out[3], out[1] + 1e-4)
        return out


class CoarseTextEncoder:
    """Fast-search text encoder: key-phrase vector, single embedding (§VI-A).

    The paper's fast-search encoder "prioritizes extracting key phrases
    …, while ignoring finer relationships between them": phrase *words*
    survive (so "center of the road" still contributes road/center
    content) but the relational *structure* is lost. We model this by
    down-weighting relation tags to ``rel_weight`` instead of dropping
    them — fast search gets partial credit for relational context (the
    paper's w/o-rerank ablation retains moderate AveP on relation
    queries) while full relational discrimination is left to the rerank.
    """

    def __init__(self, vocab: Vocabulary, *, rel_weight: float = 0.8):
        self.vocab = vocab
        self.rel_weight = float(rel_weight)

    def encode(self, tags: list[str]) -> np.ndarray:
        """Unit query vector q from the query's key-phrase tags."""
        weights = {
            t: self.rel_weight for t in tags if tag_kind(t) == TagKind.REL
        }
        return self.vocab.embed_tags(list(tags), weights or None)


class FineTextEncoder:
    """Rerank-stage text encoder: one token vector per tag, all kinds."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    def encode_tokens(self, tags: list[str]) -> np.ndarray:
        """Token matrix X_T, shape ``(n_tags, dim)`` — includes relations."""
        return self.vocab.token_matrix(tags)
