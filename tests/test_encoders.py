"""Unit tests for the simulated encoders and the compute-cost model."""
import time

import numpy as np
import pytest

from repro.vocab.encoders import (
    CoarseTextEncoder,
    CostModel,
    FineTextEncoder,
    VisualEncoderSim,
    perceived_track_tags,
    rng_from_state,
    seed_states,
    track_perturbation,
)
from repro.vocab.vocabulary import Vocabulary


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary(dim=64, seed=7)


class TestVisualEncoder:
    def test_object_embedding_unit_norm(self, vocab):
        enc = VisualEncoderSim(vocab, noise=0.4)
        e = enc.encode_object(["class:car", "attr:red"], np.random.default_rng(0))
        assert np.linalg.norm(e) == pytest.approx(1.0)

    def test_noise_zero_recovers_prototype(self, vocab):
        enc = VisualEncoderSim(vocab, noise=0.0)
        e = enc.encode_object(["class:car"], np.random.default_rng(0))
        np.testing.assert_allclose(e, vocab.embed_tags(["class:car"]))

    @pytest.mark.parametrize("noise", [0.2, 0.5, 0.8])
    def test_noise_controls_similarity(self, vocab, noise):
        """Similarity to the clean prototype ≈ 1/√(1+noise²)."""
        enc = VisualEncoderSim(vocab, noise=noise)
        base = vocab.embed_tags(["class:car", "attr:red"])
        sims = [
            float(base @ enc.encode_object(["class:car", "attr:red"], np.random.default_rng(i)))
            for i in range(50)
        ]
        expected = 1.0 / np.sqrt(1 + noise**2)
        assert np.mean(sims) == pytest.approx(expected, abs=0.05)

    def test_offset_shifts_embedding(self, vocab):
        enc = VisualEncoderSim(vocab, noise=0.0)
        off = track_perturbation(64, 0.5, seed=0, track_id=3)
        a = enc.encode_object(["class:car"], np.random.default_rng(0))
        b = enc.encode_object(["class:car"], np.random.default_rng(0), offset=off)
        assert not np.allclose(a, b)
        assert np.linalg.norm(b) == pytest.approx(1.0)

    def test_background_noisier_than_object(self, vocab):
        enc = VisualEncoderSim(vocab, noise=0.3)
        base = vocab.embed_tags(["bg:road"])
        sims_bg = [
            float(base @ enc.encode_background(["bg:road"], np.random.default_rng(i)))
            for i in range(30)
        ]
        base_o = vocab.embed_tags(["class:car"])
        sims_o = [
            float(base_o @ enc.encode_object(["class:car"], np.random.default_rng(i)))
            for i in range(30)
        ]
        assert np.mean(sims_bg) < np.mean(sims_o)

    def test_localize_stays_valid_box(self, vocab):
        enc = VisualEncoderSim(vocab, bbox_noise=0.2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = enc.localize(np.array([0.4, 0.4, 0.6, 0.6]), rng)
            assert 0 <= b[0] < b[2] <= 1 and 0 <= b[1] < b[3] <= 1

    def test_localize_zero_noise_identity(self, vocab):
        enc = VisualEncoderSim(vocab, bbox_noise=0.0)
        b = enc.localize(np.array([0.1, 0.2, 0.3, 0.4]), np.random.default_rng(0))
        np.testing.assert_allclose(b, [0.1, 0.2, 0.3, 0.4])


#: Ids at the edges of numpy's uint32-word coercion of an int.
EDGE_IDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63 - 1]
PREFIXES = [(s, 1) for s in (0, 7)] + [(s,) for s in (0, 7)]


def _numpy_states(prefix, ids):
    return np.stack(
        [np.random.SeedSequence([*prefix, int(i)]).generate_state(4, np.uint64) for i in ids]
    )


class TestSeedStates:
    """``seed_states`` must be numpy's own ``SeedSequence`` hash, word for word."""

    @pytest.fixture(scope="class")
    def corpus_ids(self, bellevue_patches):
        return bellevue_patches.select("patch_id").toArrow().column("patch_id").to_numpy()

    @pytest.mark.parametrize("prefix", PREFIXES, ids=str)
    def test_matches_seed_sequence_on_corpus_ids(self, corpus_ids, prefix):
        got = seed_states(prefix, corpus_ids)
        assert got.dtype == np.uint64 and got.shape == (len(corpus_ids), 4)
        np.testing.assert_array_equal(got, _numpy_states(prefix, corpus_ids))

    @pytest.mark.parametrize("prefix", PREFIXES, ids=str)
    def test_matches_seed_sequence_on_word_edges(self, prefix):
        np.testing.assert_array_equal(
            seed_states(prefix, EDGE_IDS), _numpy_states(prefix, EDGE_IDS)
        )

    @pytest.mark.parametrize("prefix", PREFIXES, ids=str)
    def test_generator_reproduces_default_rng_stream(self, prefix):
        for i, state in zip(EDGE_IDS, seed_states(prefix, EDGE_IDS)):
            got, ref = rng_from_state(state), np.random.default_rng([*prefix, i])
            assert got.bit_generator.random_raw(8).tobytes() == ref.bit_generator.random_raw(8).tobytes()
            assert got.standard_normal(40).tobytes() == ref.standard_normal(40).tobytes()

    def test_block_draw_equals_successive_draws(self):
        (state,) = seed_states((0, 1), [12345])
        block = rng_from_state(state).standard_normal((7, 32))
        rng = np.random.default_rng([0, 1, 12345])
        rows = np.stack([rng.standard_normal(32) for _ in range(7)])
        assert block.tobytes() == rows.tobytes()

    def test_negative_id_raises(self):
        with pytest.raises(ValueError):
            seed_states((0, 1), [3, -1])

    @pytest.mark.parametrize("prefix", [(2**32, 1), (0, 2**32), (0, 1, 2)], ids=str)
    def test_prefix_beyond_one_word_each_or_two_words_raises(self, prefix):
        with pytest.raises(ValueError):
            seed_states(prefix, [3])


class TestPerceivedTags:
    TAGS = ["class:car", "attr:red", "attr:large", "rel:center_of_road"]

    def test_no_dropout_keeps_all(self):
        assert perceived_track_tags(self.TAGS, seed=0, track_id=5, dropout=0.0) == self.TAGS

    def test_background_track_keeps_all(self):
        out = perceived_track_tags(self.TAGS, seed=0, track_id=-1, dropout=0.9)
        assert out == self.TAGS

    def test_class_never_dropped(self):
        for t in range(50):
            out = perceived_track_tags(self.TAGS, seed=0, track_id=t, dropout=0.99)
            assert "class:car" in out

    def test_deterministic_per_track(self):
        a = perceived_track_tags(self.TAGS, seed=1, track_id=9, dropout=0.5)
        b = perceived_track_tags(self.TAGS, seed=1, track_id=9, dropout=0.5)
        assert a == b

    def test_varies_across_tracks(self):
        outs = {
            tuple(perceived_track_tags(self.TAGS, seed=1, track_id=t, dropout=0.5))
            for t in range(40)
        }
        assert len(outs) > 1

    def test_rel_dropout_higher_rate(self):
        """rel tags dropped more often than attrs when rel_dropout is higher."""
        attr_kept = rel_kept = 0
        for t in range(300):
            out = perceived_track_tags(
                self.TAGS, seed=2, track_id=t, dropout=0.1, rel_dropout=0.6
            )
            attr_kept += "attr:red" in out
            rel_kept += "rel:center_of_road" in out
        assert rel_kept < attr_kept
        assert 0.25 < rel_kept / 300 < 0.55  # ≈ 1−0.6
        assert 0.8 < attr_kept / 300 < 0.98  # ≈ 1−0.1


class TestTrackPerturbation:
    def test_norm(self):
        v = track_perturbation(64, 0.5, seed=0, track_id=3)
        assert np.linalg.norm(v) == pytest.approx(0.5)

    def test_deterministic(self):
        np.testing.assert_allclose(
            track_perturbation(64, 0.5, seed=0, track_id=3),
            track_perturbation(64, 0.5, seed=0, track_id=3),
        )

    def test_track_specific(self):
        a = track_perturbation(64, 0.5, seed=0, track_id=3)
        b = track_perturbation(64, 0.5, seed=0, track_id=4)
        assert not np.allclose(a, b)

    def test_salt_varies(self):
        a = track_perturbation(64, 0.5, seed=0, track_id=3, salt=1)
        b = track_perturbation(64, 0.5, seed=0, track_id=3, salt=2)
        assert not np.allclose(a, b)

    def test_background_zero(self):
        assert np.linalg.norm(track_perturbation(64, 0.5, seed=0, track_id=-1)) == 0.0


class TestTextEncoders:
    def test_coarse_unit_norm(self, vocab):
        q = CoarseTextEncoder(vocab).encode(["class:car", "attr:red", "rel:side_by_side"])
        assert np.linalg.norm(q) == pytest.approx(1.0)

    def test_coarse_downweights_relations(self, vocab):
        tags = ["class:car", "rel:side_by_side"]
        coarse = CoarseTextEncoder(vocab, rel_weight=0.2).encode(tags)
        full = vocab.embed_tags(tags)
        rel = vocab.vec("rel:side_by_side")
        assert float(coarse @ rel) < float(full @ rel)

    def test_coarse_rel_weight_one_matches_full(self, vocab):
        tags = ["class:car", "rel:side_by_side"]
        np.testing.assert_allclose(
            CoarseTextEncoder(vocab, rel_weight=1.0).encode(tags),
            vocab.embed_tags(tags),
        )

    def test_fine_token_shape(self, vocab):
        m = FineTextEncoder(vocab).encode_tokens(["class:car", "attr:red", "rel:x_y"])
        assert m.shape == (3, 64)


class TestCostModel:
    def test_scale_zero_is_free(self):
        c = CostModel(scale=0.0)
        t0 = time.perf_counter()
        c.burn("visa_search_frame", 1000)
        assert time.perf_counter() - t0 < 0.05

    def test_burn_takes_time(self):
        c = CostModel(scale=1.0)
        t0 = time.perf_counter()
        c.burn("detector_setup", 20)  # 800 matmul units
        assert time.perf_counter() - t0 > 0.001

    def test_cost_ordering_matches_paper(self):
        """Rerank ≫ encode; query-time transformers ≫ their ingest cost."""
        c = CostModel()
        assert c.lovo_rerank_frame > c.lovo_encode_frame
        assert c.umt_search_clip > c.umt_encode_frame
        assert c.visa_search_frame > c.visa_encode_frame
        # UMT's per-clip transformer ≈ LOVO's per-frame rerank × clip length
        assert c.umt_search_clip == pytest.approx(8 * c.lovo_rerank_frame)
        assert c.detector_setup > c.detector_frame

    def test_fractional_units(self):
        CostModel(scale=1.0).burn("lovo_encode_frame", 0.5)  # must not raise
