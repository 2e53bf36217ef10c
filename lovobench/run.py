"""LOVO benchmark: one closed-loop query workload per run.

Usage, from the root of a checkout:

    python3 lovobench/run.py --workload lovo-ivfpq --seed 0 --seconds 20 --trace 0

``--trace 0`` sets the system up several times, then runs one client
that sends each query after the previous answer arrives, for
``--seconds`` (at least one round of the workload's queries), and
reports the end-to-end metrics. ``--trace 1`` instead builds and queries
layer by layer and reports the per-layer metrics. Metric names and
units come from ``BENCHMARK.json``. Every answer is checked; the last
line of standard output is one JSON object with the result.

The program is imported from ``src/`` of the same checkout, and the
Spark session comes from the jobs' own builder, ``jobs/common.get_spark``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPARK_DRIVER_MEM = "2g"
MAX_CORES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, default=None,
                   help="corpus scale factor (default: the benchmark's)")
    p.add_argument("--setup-reps", type=int, default=3,
                   help="set-ups per run; setup_s is their median")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first answer (self-test of the answer check)")
    return p.parse_args(argv)


def source_digest() -> str:
    """sha256 over the program's sources, for runs outside a git checkout."""
    h = hashlib.sha256()
    for f in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "jobs").glob("*.py")]):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or None


def configure_spark_env(tmp: Path) -> int:
    """Master, driver memory and scratch dirs, set before the JVM starts.

    Mirrors the root ``conftest.py``: master and driver memory go through
    ``PYSPARK_SUBMIT_ARGS``. Shuffle partitions are set to the core count
    through ``SPARK_SHUFFLE_PARTITIONS``, the knob ``get_spark`` reads.
    Spark's and Python's scratch files stay inside the checkout.
    """
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(cores)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_<user>
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {SPARK_DRIVER_MEM} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={tmp} --driver-java-options -Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )
    return cores


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "pipeline.py").is_file() or not (
        ROOT / "jobs" / "common.py"
    ).is_file():
        print(f"lovobench: no program sources under {ROOT} (src/repro, jobs/)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]

    import harness  # noqa: E402  (needs src/ on the path)

    if args.workload not in harness.WORKLOADS:
        print(f"lovobench: unknown workload {args.workload!r}; "
              f"pick from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    sf = args.sf if args.sf is not None else harness.BENCH_SF

    tmp = ROOT / ".lovobench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cores = configure_spark_env(tmp)
    try:
        return measure(args, spec, wl, sf, cores)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, spec, wl, sf: float, cores: int) -> int:
    import numpy
    import pyspark

    import e2e
    import harness
    import traced
    from common import get_spark

    t0 = time.perf_counter()
    spark = get_spark("lovobench")
    session_s = time.perf_counter() - t0
    try:
        t1 = time.perf_counter()
        corpus = harness.make_corpus(spark, wl, seed=args.seed, sf=sf)
        corpus_s = time.perf_counter() - t1
        if args.trace:
            out = traced.run(spark, wl, corpus, seconds=args.seconds)
            out["metrics"]["spark.session_s"] = session_s
            out["metrics"]["video.generate_s"] = corpus.generate_s
        else:
            out = e2e.run(spark, wl, corpus, seconds=args.seconds,
                          setup_reps=args.setup_reps, inject_fault=args.inject_fault)
            out["detail"]["context"] = {"spark.session_s": session_s,
                                        "video.generate_s": corpus.generate_s,
                                        "corpus_s": corpus_s}
        corpus.patches.unpersist()
        cfg = harness.config()
        out["provenance"] = {
            "workload": wl.name, "trace": args.trace, "seed": args.seed,
            "seconds": args.seconds, "sf": sf, "cost_scale": cfg.cost_scale,
            "corpus_patches": corpus.n_patches,
            "commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cores_used": cores,
            "master": spark.sparkContext.master,
            "spark.sql.shuffle.partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "spark.driver.memory": spark.sparkContext.getConf().get("spark.driver.memory"),
            "python": platform.python_version(), "pyspark": pyspark.__version__,
            "numpy": numpy.__version__,
        }
    finally:
        stop_spark(spark)

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    detail = out["detail"]
    missing = [m["name"] for m in section if m["name"] not in out["metrics"]]
    if missing:
        detail["failures"].append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
        for m in section if m["name"] in out["metrics"]
    }
    for f in detail["failures"]:
        print(f"FAILED {f}")
    if not args.trace:
        tail = detail.get("latency_tail", {})
        print(f"error_rate {detail['error_rate']:.4f} ({detail['failed']}/{detail['attempted']}); "
              f"latency_tail at p{tail.get('percentile', 0):.1f} of n={tail.get('n', 0)}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps({"provenance": out["provenance"], **detail}, default=float))
    print(json.dumps({
        "correct": not detail["failures"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0 if not missing else 1


if __name__ == "__main__":
    sys.exit(main())
