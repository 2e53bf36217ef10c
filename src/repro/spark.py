"""The one SparkSession builder shared by the jobs, the tests and the benchmark."""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Get or create the session with the repo's SQL settings.

    Master and driver memory are read at JVM launch, so they come from
    ``spark-submit`` or ``PYSPARK_SUBMIT_ARGS``, not from here; shuffle
    partitions follow the core count. Broadcast joins are disabled so the
    join plans exercise the shuffle path; a query that wants a broadcast
    join asks for one with ``F.broadcast``.
    """
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.conf.set("spark.sql.shuffle.partitions", str(s.sparkContext.defaultParallelism))
    s.sparkContext.setLogLevel("ERROR")
    return s
