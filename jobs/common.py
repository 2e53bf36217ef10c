"""Shared spark-submit plumbing for the jobs.

Each job runs standalone (``spark-submit jobs/table.py 3 --sf 0.5``); the
tests drive the same harnesses through ``repro.experiments``.
"""
from repro.spark import get_spark  # noqa: F401  (re-exported for the jobs)
