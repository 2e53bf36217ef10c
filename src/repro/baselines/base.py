"""Shared baseline scaffolding."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.config import LOVOConfig
from repro.core.metrics import QueryResult
from repro.vocab.encoders import CostModel
from repro.vocab.vocabulary import Vocabulary

#: The one schema of a baseline's scored hits, the rows ``top_ranked`` ranks.
HIT_SCHEMA = "video_id int, frame_idx int, bbox array<double>, score double"


class Baseline:
    """Interface all baselines implement.

    ``process`` is the offline/ingest phase (may be a no-op for pure
    QD-search systems) and returns its wall-clock seconds, and ``close``
    releases what it cached; ``query`` answers one workload query with a
    ``QueryResult`` whose ``fast_time`` is the whole query time.
    Baselines reuse LOVOConfig's noise parameters so every system
    perceives the same synthetic world, and its ``cost_scale`` so
    measured times are comparable.
    """

    name: str = "base"

    def __init__(self, spark: SparkSession, cfg: LOVOConfig | None = None):
        self.spark = spark
        self.cfg = cfg or LOVOConfig()
        self.vocab = Vocabulary(dim=self.cfg.dim, seed=self.cfg.vocab_seed)
        self.cost: CostModel = self.cfg.cost()
        self.processing_time: float = 0.0

    def process(self, patches: DataFrame) -> float:
        """Offline phase; default no-op (QD-search baselines)."""
        self.patches = patches
        return 0.0

    def query(self, query, *, k: int = 50) -> QueryResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``process`` cached; default no-op (nothing cached)."""
