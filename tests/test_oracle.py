"""Self-checks of the DuckDB oracle on LOVO's own index tables.

Every oracle-backed test in this suite trusts ``assert_equivalent``: it
must accept a correct Spark result and reject a wrong one, or a broken
oracle would silently void them all.
"""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

POSTINGS_SQL = (
    "SELECT c.p, m.video_id, count(*) AS n, count(DISTINCT m.frame_idx) AS frames "
    "FROM components c JOIN meta m ON c.patch_id = m.patch_id "
    "GROUP BY c.p, m.video_id"
)


@pytest.fixture(scope="module")
def tables(lovo_built):
    store = lovo_built[0].store
    return {
        "components": store.components,
        "meta": store.meta.select("patch_id", "video_id", "frame_idx"),
    }


@pytest.fixture(scope="module")
def postings(tables):
    """Posting rows and key frames per (subspace, video): a shuffle join + groupBy."""
    return (
        tables["components"]
        .join(tables["meta"], "patch_id")
        .groupBy("p", "video_id")
        .agg(F.count("*").alias("n"), F.countDistinct("frame_idx").alias("frames"))
    )


def test_join_groupby_matches(postings, tables):
    assert_equivalent(postings, POSTINGS_SQL, **tables)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda df: df.exceptAll(df.limit(1)),
        lambda df: df.withColumn(
            "n",
            F.when((F.col("p") == 0) & (F.col("video_id") == 0), F.col("n") + 1)
            .otherwise(F.col("n")),
        ),
    ],
    ids=["row_dropped", "count_off_by_one"],
)
def test_wrong_result_rejected(postings, tables, corrupt):
    with pytest.raises(AssertionError):
        assert_equivalent(corrupt(postings), POSTINGS_SQL, **tables)
