"""LOVO core: video summary → vector index → two-stage query (Alg. 2)."""
from repro.core.config import LOVOConfig
from repro.core.metrics import iou, average_precision, RankedResult, EvalReport, QueryResult
from repro.core.pipeline import LOVO

__all__ = [
    "LOVOConfig",
    "iou",
    "average_precision",
    "RankedResult",
    "EvalReport",
    "LOVO",
    "QueryResult",
]
