"""Generic entrypoint: build a LOVO index for one dataset, save to Parquet.

Usage: spark-submit jobs/build_index.py --dataset bellevue --sf 0.5 --out /tmp/lovo_index
"""
import argparse
import sys, pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from common import get_spark

from repro.core import LOVO
from repro.experiments.tables import job_config
from repro.video.generator import generate_dataset
from repro.video.scenes import profile


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dataset", default="bellevue")
    p.add_argument("--sf", type=float, default=0.5)
    p.add_argument("--out", default="/tmp/lovo_index")
    args = p.parse_args()
    spark = get_spark("build_index")
    patches = generate_dataset(spark, profile(args.dataset, args.sf)).persist()
    system = LOVO(spark, job_config())
    rep = system.build(patches)
    system.store.save(args.out)
    print(
        f"built index for {args.dataset} (sf={args.sf}): "
        f"{rep.n_keyframes}/{rep.n_frames} key frames, {rep.n_vectors} vectors, "
        f"processing {rep.processing_time:.1f}s + indexing {rep.index_time:.1f}s "
        f"→ saved to {args.out}"
    )
    spark.stop()


if __name__ == "__main__":
    main()
