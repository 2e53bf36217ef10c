"""Shape tests for the table-reproduction harnesses (tiny scale).

Tables I and VII run without the modelled compute burn; Tables IV and V
run at their jobs' ``cost_scale=25``, since their latency orderings are
the shapes under test.

These assert each table's *structure* and its paper-critical orderings;
the full-scale numbers live in EXPERIMENTS.md (regenerated by jobs/).
"""
import math

import pytest
from pyspark import StorageLevel

from repro.core import LOVO
from repro.experiments import (
    format_rows,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table7,
)
from repro.video.generator import generate_dataset
from repro.video.scenes import profile
from tests.conftest import cached_rdds


class TestTable2:
    def test_sixteen_rows(self):
        rows = run_table2()
        assert len(rows) == 16
        assert {r["Dataset"] for r in rows} == {
            "cityscapes", "bellevue", "qvhighlights", "beach"
        }

    def test_extension_rows(self):
        rows = run_table2(extension=True)
        assert [r["Query ID"] for r in rows] == ["EQ1", "EQ2", "EQ3", "EQ4"]

    def test_format_rows_renders(self):
        text = format_rows(run_table2())
        assert "Q2.2" in text and "side by side" in text

    def test_format_empty(self):
        assert format_rows([]) == "(no rows)"


@pytest.mark.slow
class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return run_table1(spark, sf=0.25, cost_scale=0.0)

    def test_three_capability_rows(self, rows):
        assert [r["Capability"] for r in rows] == [
            "Predefined Classes", "Simple Descriptions", "Complex Queries"
        ]

    def test_all_families_answer_predefined(self, rows):
        pre = rows[0]
        assert all(pre[f].startswith("Yes") for f in ("QA-index", "QD-search", "Vision-based"))

    def test_qa_index_fails_descriptions(self, rows):
        assert rows[1]["QA-index"].startswith("No")
        assert rows[2]["QA-index"].startswith("No")

    def test_qd_search_fails_complex(self, rows):
        assert rows[1]["QD-search"].startswith("Yes")
        assert rows[2]["QD-search"].startswith("No")


@pytest.mark.slow
class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return run_table4(spark, sf=0.3, cost_scale=25.0, qids=("Q2.1", "Q2.2"))

    def _metric(self, rows, variant, metric):
        return next(r for r in rows if r["Variant"] == variant and r["Metric"] == metric)

    def test_twelve_rows(self, rows):
        assert len(rows) == 12

    def test_rerank_improves_complex_query(self, rows):
        full = self._metric(rows, "LOVO", "AveP")
        norr = self._metric(rows, "w/o Rerank", "AveP")
        assert full["Q2.2"] >= norr["Q2.2"]

    def test_no_anns_slower_fast_search(self, rows):
        full = self._metric(rows, "LOVO", "Fast Search")
        bf = self._metric(rows, "w/o ANNS", "Fast Search")
        assert (bf["Q2.1"] + bf["Q2.2"]) > 0.5 * (full["Q2.1"] + full["Q2.2"])

    def test_no_rerank_has_no_rerank_time(self, rows):
        r = self._metric(rows, "w/o Rerank", "Rerank")
        assert math.isnan(r["Q2.1"])

    def test_aveps_in_range(self, rows):
        for variant in ("LOVO", "w/o Rerank", "w/o ANNS", "w/o Key frame"):
            r = self._metric(rows, variant, "AveP")
            assert 0.0 <= r["Q2.1"] <= 1.0 and 0.0 <= r["Q2.2"] <= 1.0


@pytest.mark.slow
class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return run_table5(spark, sf=0.25, cost_scale=25.0, qids=("Q1.1", "Q1.2"))

    def test_nine_rows(self, rows):
        assert len(rows) == 9
        assert {r["Variant"] for r in rows} == {"LOVO(BF)", "LOVO(IVF-PQ)", "LOVO(HNSW)"}

    def test_total_exceeds_search(self, rows):
        for r in rows:
            if r["Metric"] == "Search":
                tot = next(
                    x for x in rows if x["Variant"] == r["Variant"] and x["Metric"] == "Total"
                )
                assert tot["Q1.1"] > r["Q1.1"]

    def test_all_variants_find_something(self, rows):
        for r in rows:
            if r["Metric"] == "AveP":
                assert r["Q1.1"] > 0.0


@pytest.mark.slow
class TestTable7:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return run_table7(spark, sf=0.3)

    def test_three_rows_four_queries(self, rows):
        assert len(rows) == 3
        for r in rows:
            for qid in ("EQ1", "EQ2", "EQ3", "EQ4"):
                assert qid in r

    def test_finds_extension_objects(self, rows):
        ap = next(r for r in rows if r["Metric"] == "AveP")
        aveps = [ap[q] for q in ("EQ1", "EQ2", "EQ3", "EQ4")]
        assert sum(aveps) / 4 > 0.3
        assert min(aveps) > 0.0  # every extension query is answered


@pytest.mark.slow
class TestTableReleases:
    """A table run releases what it cached, and only that."""

    SF = 0.1

    def test_keeps_another_holders_cache(self, spark):
        holder = generate_dataset(spark, profile("activitynet", self.SF)).persist()
        holder.count()
        before = cached_rdds(spark)
        try:
            run_table7(spark, sf=self.SF, cost_scale=0.0)
            assert holder.storageLevel != StorageLevel.NONE
            assert cached_rdds(spark).keys() == before.keys()
        finally:
            holder.unpersist()

    @pytest.mark.parametrize("run_table", [run_table1, run_table3], ids=["table1", "table3"])
    def test_releases_the_baselines_caches(self, spark, run_table):
        """VOCAL's index, UMT's clips and ZELDA's frames are released with the dataset."""
        before = cached_rdds(spark)
        run_table(spark, sf=self.SF, cost_scale=0.0)
        assert cached_rdds(spark).keys() == before.keys()

    def test_releases_everything_when_a_query_raises(self, spark, monkeypatch):
        def fail(self, query, **kw):
            raise RuntimeError("query failed")

        monkeypatch.setattr(LOVO, "query", fail)
        before = cached_rdds(spark)
        with pytest.raises(RuntimeError, match="query failed"):
            run_table7(spark, sf=self.SF, cost_scale=0.0)
        assert cached_rdds(spark) == before
