"""Reproduce one table of the paper's evaluation (§VII) and print it.

Usage: spark-submit jobs/table.py N [--sf X] [--cost-scale Y]

Tables II and VI print the query workloads and start no Spark session.
Each other table runs at its ``run_tableN`` defaults unless a flag is given.
"""
import argparse
import sys, pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from common import get_spark

from repro.experiments import (
    format_rows,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table7,
)

#: Table number → (title, harness); Tables II and VI need no harness run.
TABLES = {
    1: ("Table I — capability matrix (AveP in parentheses; Yes = AveP > 0.3)", run_table1),
    2: ("Table II — workload queries", None),
    3: ("Table III — execution time (seconds) per method × dataset", run_table3),
    4: ("Table IV — ablation: AveP and latency (s) on Q1.1/Q1.2/Q2.1/Q2.2", run_table4),
    5: ("Table V — ANN variants on Cityscapes (Q1.1–Q1.4)", run_table5),
    6: ("Table VI — extension queries", None),
    7: ("Table VII — LOVO on ActivityNet-QA (EQ1–EQ4)", run_table7),
}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("table", type=int, choices=sorted(TABLES), help="paper table number")
    p.add_argument("--sf", type=float,
                   help="dataset scale factor (1.0 = profile default; default: the table's)")
    p.add_argument("--cost-scale", type=float,
                   help="calibrated model-compute burn scale (0 = off; default: the table's)")
    args = p.parse_args()
    title, run = TABLES[args.table]
    given = {k: v for k, v in (("sf", args.sf), ("cost_scale", args.cost_scale))
             if v is not None}
    if run is None:
        if given:
            p.error(f"table {args.table} runs no dataset: it takes no --sf or --cost-scale")
        rows = run_table2(extension=args.table == 6)
    else:
        spark = get_spark(f"table{args.table}")
        try:
            rows = run(spark, **given)
        finally:
            spark.stop()
    print(f"\n{title}\n")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
