"""Shared fixtures: tiny built datasets + LOVO instances, session-scoped.

The expensive artefacts (generated dataset, built index) are built once
per session and shared across test modules; individual tests only run
queries or inspect tables against them.
"""
from __future__ import annotations

import itertools

import pytest

from repro.core import LOVO, LOVOConfig
from repro.video.generator import generate_dataset
from repro.video.scenes import profile

#: Test-scale LOVO config: small embedding space, no cost burning.
TEST_CFG = LOVOConfig(
    dim=32,
    n_subspaces=4,
    k_coarse=16,
    k_residual=16,
    train_sample=2048,
    k=40,
    n=0,
    hnsw_shards=4,
    cost_scale=0.0,
)


_job_groups = itertools.count()


def spark_jobs(spark, fn) -> list[int]:
    """Run ``fn`` under a job group of its own; the ids of the Spark jobs it ran.

    The group is cleared even if ``fn`` raises, and the listener bus is
    drained first so that no finished job is missed.
    """
    sc = spark.sparkContext
    group = f"spark-jobs-{next(_job_groups)}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc._jsc.clearJobGroup()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return list(sc.statusTracker().getJobIdsForGroup(group))


def cached_rdds(spark) -> dict[int, int]:
    """Executor storage memory in bytes per cached RDD id.

    The listener bus is drained first, so storage filled by a job that
    just finished is counted.
    """
    sc = spark.sparkContext._jsc.sc()
    sc.listenerBus().waitUntilEmpty()
    return {int(i.id()): int(i.memSize()) for i in sc.getRDDStorageInfo()}


@pytest.fixture(scope="session")
def bellevue_profile():
    return profile("bellevue", 0.25)


@pytest.fixture(scope="session")
def bellevue_patches(spark, bellevue_profile):
    # Checkpointed, not cached: Spark uncaches by plan, and `run_table1`'s
    # unpersist of its own Bellevue sf 0.25 set would drop a cached copy here
    # too, so every later test regenerated it.
    return generate_dataset(spark, bellevue_profile).localCheckpoint()


@pytest.fixture(scope="session")
def lovo_built_jobs(spark, bellevue_patches):
    """A LOVO system built over the tiny Bellevue set, its report and its build's Spark jobs."""
    system = LOVO(spark, TEST_CFG)
    built = []
    jobs = spark_jobs(spark, lambda: built.append(system.build(bellevue_patches)))
    yield system, built[0], jobs
    system.close()


@pytest.fixture(scope="session")
def lovo_built(lovo_built_jobs):
    """A LOVO system with its index built over the tiny Bellevue set, and its report."""
    return lovo_built_jobs[:2]


@pytest.fixture(scope="session")
def qvh_patches(spark):
    df = generate_dataset(spark, profile("qvhighlights", 0.15)).persist()
    df.count()
    yield df
    df.unpersist()
