"""Unit tests for IoU and Average Precision."""
import pandas as pd
import pytest

from repro.core.metrics import RankedResult, average_precision, iou, top_ranked


class TestIoU:
    def test_identical(self):
        assert iou([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou([0, 0, 0.4, 0.4], [0.5, 0.5, 1, 1]) == 0.0

    def test_touching_edges(self):
        assert iou([0, 0, 0.5, 1], [0.5, 0, 1, 1]) == 0.0

    def test_half_overlap(self):
        # [0,0,2,1] vs [1,0,3,1]: inter=1, union=3
        assert iou([0, 0, 2, 1], [1, 0, 3, 1]) == pytest.approx(1 / 3)

    def test_contained(self):
        # quarter-area box inside unit box
        assert iou([0, 0, 1, 1], [0.25, 0.25, 0.75, 0.75]) == pytest.approx(0.25)

    def test_symmetry(self):
        a, b = [0.1, 0.2, 0.6, 0.9], [0.3, 0.1, 0.8, 0.5]
        assert iou(a, b) == pytest.approx(iou(b, a))

    def test_degenerate_zero_area(self):
        assert iou([0.5, 0.5, 0.5, 0.5], [0, 0, 1, 1]) == 0.0

    def test_both_degenerate(self):
        assert iou([0, 0, 0, 0], [0, 0, 0, 0]) == 0.0

    @pytest.mark.parametrize("shift", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_monotone_in_shift(self, shift):
        """IoU decreases as a same-size box slides away."""
        base = [0.0, 0.0, 0.5, 0.5]
        moved = [shift, 0.0, 0.5 + shift, 0.5]
        nxt = [shift + 0.05, 0.0, 0.55 + shift, 0.5]
        assert iou(base, moved) >= iou(base, nxt)

    def test_range(self):
        v = iou([0.1, 0.1, 0.7, 0.8], [0.2, 0.0, 0.9, 0.6])
        assert 0.0 <= v <= 1.0


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([True, True, True], 3) == pytest.approx(1.0)

    def test_all_false(self):
        assert average_precision([False] * 5, 3) == 0.0

    def test_empty_results(self):
        assert average_precision([], 3) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([True, True], 0) == 0.0

    def test_known_value(self):
        # TP at ranks 1 and 3 (1-based): AP = (1/1 + 2/3)/2
        assert average_precision([True, False, True], 2) == pytest.approx(
            (1.0 + 2 / 3) / 2
        )

    def test_late_hits_score_less(self):
        early = average_precision([True, False, False, False], 1)
        late = average_precision([False, False, False, True], 1)
        assert early > late

    def test_partial_recall_caps_ap(self):
        # only 1 of 4 GT found, perfectly ranked: AP = 1/4
        assert average_precision([True], 4) == pytest.approx(0.25)

    @pytest.mark.parametrize("n_gt", [1, 2, 5, 10])
    def test_perfect_prefix(self, n_gt):
        flags = [True] * n_gt + [False] * 5
        assert average_precision(flags, n_gt) == pytest.approx(1.0)

    def test_monotone_in_extra_tp(self):
        base = average_precision([True, False, False], 2)
        more = average_precision([True, False, True], 2)
        assert more > base

    def test_bounded(self):
        assert 0.0 <= average_precision([True, False, True, True], 5) <= 1.0


class TestTopRanked:
    def test_best_k_by_score_then_frame(self):
        hits = pd.DataFrame({
            "video_id": [1, 0, 0, 2],
            "frame_idx": [5, 9, 3, 0],
            "bbox": [[0.0, 0.0, 0.5, 0.5]] * 4,
            "rerank_score": [0.5, 0.9, 0.5, 0.1],
        })
        got = top_ranked(hits, 3, score="rerank_score")
        box = (0.0, 0.0, 0.5, 0.5)
        assert got == [RankedResult(0, 9, box, 0.9), RankedResult(0, 3, box, 0.5),
                       RankedResult(1, 5, box, 0.5)]

    def test_no_hits(self):
        hits = pd.DataFrame(columns=["video_id", "frame_idx", "bbox", "score"])
        assert top_ranked(hits, 5) == []
