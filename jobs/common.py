"""Shared spark-submit plumbing for table jobs.

Each job can run standalone (``spark-submit jobs/tableN.py --sf 0.5``)
or be driven programmatically from tests via the functions
in ``repro.experiments``.
"""
from __future__ import annotations

import argparse
import os

from repro.spark import get_spark  # noqa: F401  (re-exported for the jobs)


def table_args(description: str, *, sf: float, cost_scale: float) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--sf", type=float, default=float(os.environ.get("REPRO_SF", sf)),
                   help="dataset scale factor (1.0 = profile default)")
    p.add_argument("--cost-scale", type=float,
                   default=float(os.environ.get("REPRO_COST_SCALE", cost_scale)),
                   help="calibrated model-compute burn scale (0 = off)")
    return p.parse_args()
