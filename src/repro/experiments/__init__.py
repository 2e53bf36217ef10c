"""Table-reproduction harnesses (one function per paper table)."""
from repro.experiments.tables import (
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table7,
    format_rows,
    score_query,
)

__all__ = [
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table7",
    "format_rows",
    "score_query",
]
