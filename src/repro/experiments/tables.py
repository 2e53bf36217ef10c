"""Harnesses reproducing each table of the paper's evaluation (§VII).

Every ``run_tableN`` builds the needed synthetic datasets, runs the
systems, and returns a list of dict rows mirroring the paper's table
layout, so jobs can print them and tests can assert on their shape.
``sf`` scales dataset size (1.0 ≈ the profile defaults, ~1200 frames
per dataset); ``cost_scale`` drives the calibrated model-compute burns
(0 disables them — shape-only runs for tests).
"""
from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from pyspark.sql import SparkSession

from repro.baselines import Figo, Miris, Umt, Visa, Vocal, Zelda
from repro.core import LOVO, LOVOConfig
from repro.queries.workload import (
    ALL_QUERIES,
    EXTENSION_QUERIES,
    Query,
    queries_for_dataset,
    query_by_id,
)
from repro.video.generator import generate_dataset
from repro.video.groundtruth import evaluate_ranking, gt_objects_pdf
from repro.video.scenes import profile

#: Paper-default LOVO config for table jobs (dim, PQ sizes per §V/§VII).
def job_config(cost_scale: float = 0.0) -> LOVOConfig:
    return LOVOConfig(k=60, n=0, cost_scale=cost_scale)


def _dataset(spark: SparkSession, name: str, sf: float):
    prof = profile(name, sf)
    patches = generate_dataset(spark, prof).persist()
    patches.count()
    return prof, patches


def _k_for(patches, query: Query, cap: int = 150) -> tuple[int, object]:
    gt = gt_objects_pdf(patches, query)
    n_gt = int(gt["track_id"].nunique())
    return max(10, min(10 * n_gt, cap)), gt


def format_rows(rows: Iterable[dict], *, floatfmt: str = "{:.2f}") -> str:
    """Render dict rows as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    def cell(v):
        return floatfmt.format(v) if isinstance(v, float) else str(v)
    widths = {
        c: max(len(c), *(len(cell(r.get(c, ""))) for r in rows)) for c in cols
    }
    out = ["  ".join(c.ljust(widths[c]) for c in cols)]
    out.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        out.append("  ".join(cell(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Table I — capability matrix (§II)
# ---------------------------------------------------------------------------

def run_table1(spark: SparkSession, *, sf: float = 0.3, cost_scale: float = 0.0):
    """Measure each method family on the three query-complexity levels.

    A capability counts as "Yes" when the family's AveP on that level
    exceeds 0.3 (clearly better than noise). Families follow the paper:
    QA-index (VOCAL), QD-search (MIRIS+FiGO best-of), Vision-based
    (VISA, the large vision-language model).
    """
    prof, patches = _dataset(spark, "bellevue", sf)
    cfg = job_config(cost_scale)
    vocal = Vocal(spark, cfg); vocal.process(patches)
    miris = Miris(spark, cfg); miris.process(patches)
    figo = Figo(spark, cfg); figo.process(patches)
    visa = Visa(spark, cfg, daily_life=False); visa.process(patches)
    levels = {
        "Predefined Classes": query_by_id("Q2.3"),   # "a bus" — MSCOCO class
        "Simple Descriptions": query_by_id("Q2.4"),  # attribute description
        "Complex Queries": query_by_id("Q2.2"),      # relations / full sentence
    }
    rows = []
    avep = {}
    for level, q in levels.items():
        k, gt = _k_for(patches, q)
        def ap(b):
            return evaluate_ranking(b.query(q, k=k).results, gt).avep
        avep[level] = {
            "QA-index": ap(vocal),
            "QD-search": max(ap(miris), ap(figo)),
            "Vision-based": ap(visa),
        }
        rows.append(
            {
                "Capability": level,
                **{
                    fam: ("Yes" if v > 0.3 else "No") + f" ({v:.2f})"
                    for fam, v in avep[level].items()
                },
            }
        )
    patches.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Tables II and VI — the query workloads themselves
# ---------------------------------------------------------------------------

def run_table2(extension: bool = False):
    """The workload definitions (Table II, or Table VI with extension)."""
    qs = EXTENSION_QUERIES if extension else ALL_QUERIES
    return [
        {"Dataset": q.dataset, "Query ID": q.qid, "Query": q.text,
         "Tags": " ".join(q.tags), "Complexity": q.complexity}
        for q in qs
    ]


# ---------------------------------------------------------------------------
# Table III — ZELDA / UMT / VISA / LOVO execution time per dataset
# ---------------------------------------------------------------------------

def run_table3(
    spark: SparkSession,
    *,
    sf: float = 0.5,
    cost_scale: float = 25.0,
    datasets: tuple[str, ...] = ("cityscapes", "bellevue", "qvhighlights", "beach"),
    queries_per_dataset: int = 2,
    with_accuracy: bool = False,
):
    """Processing / Search / Total seconds for each method × dataset.

    Search time is averaged over the dataset's first
    ``queries_per_dataset`` workload queries, as the paper averages per
    query. Set ``with_accuracy`` to also record AveP per method.
    """
    rows = []
    for ds in datasets:
        prof, patches = _dataset(spark, ds, sf)
        cfg = job_config(cost_scale)
        qs = queries_for_dataset(ds)[:queries_per_dataset]

        systems = {}
        lovo = LOVO(spark, cfg)
        rep = lovo.build(patches)
        systems["LOVO"] = (lovo, rep.total_time)
        for name, b in (
            ("ZELDA", Zelda(spark, cfg)),
            ("UMT", Umt(spark, cfg, daily_life=prof.daily_life)),
            ("VISA", Visa(spark, cfg, daily_life=prof.daily_life)),
        ):
            t = b.process(patches)
            systems[name] = (b, t)
        lovo.query(qs[0], k=10)  # JIT/shuffle warm-up, not timed below

        for name in ("ZELDA", "UMT", "VISA", "LOVO"):
            sysm, ptime = systems[name]
            stimes, aveps = [], []
            for q in qs:
                k, gt = _k_for(patches, q)
                r = sysm.query(q, k=k)
                stimes.append(r.search_time)
                if with_accuracy:
                    aveps.append(evaluate_ranking(r.results, gt).avep)
            search = sum(stimes) / len(stimes)
            row = {
                "Method": name,
                "Dataset": ds,
                "Processing": ptime,
                "Search": search,
                "Total": ptime + search,
            }
            if with_accuracy:
                row["AveP"] = sum(aveps) / len(aveps)
            rows.append(row)
        lovo.close()
        patches.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Table IV — ablation study on Cityscapes + Bellevue
# ---------------------------------------------------------------------------

def run_table4(
    spark: SparkSession,
    *,
    sf: float = 0.5,
    cost_scale: float = 25.0,
    qids: tuple[str, ...] = ("Q1.1", "Q1.2", "Q2.1", "Q2.2"),
):
    """LOVO vs w/o Rerank, w/o ANNS, w/o Key frame (AveP + latency).

    Each built system answers one throwaway query first so JIT / shuffle
    warm-up is not attributed to whichever variant happens to run first.
    """
    cfg = job_config(cost_scale)
    datasets = {query_by_id(q).dataset for q in qids}
    built = {}
    for ds in datasets:
        prof, patches = _dataset(spark, ds, sf)
        full = LOVO(spark, cfg)
        full.build(patches)
        nokf = LOVO(spark, dataclasses.replace(cfg, use_keyframes=False))
        nokf.build(patches)
        warm = queries_for_dataset(ds)[0]
        for system in (full, nokf):  # steady-state every measured path
            system.query(warm, k=10)
            system.query(warm, variant="bf", k=10)
            system.query(warm, use_rerank=False, k=10)
        built[ds] = (patches, full, nokf)

    rows = []
    variants = ("LOVO", "w/o Rerank", "w/o ANNS", "w/o Key frame")
    for variant in variants:
        row_ap = {"Variant": variant, "Metric": "AveP"}
        row_fs = {"Variant": variant, "Metric": "Fast Search"}
        row_rr = {"Variant": variant, "Metric": "Rerank"}
        for qid in qids:
            q = query_by_id(qid)
            patches, full, nokf = built[q.dataset]
            k, gt = _k_for(patches, q)
            if variant == "LOVO":
                r = full.query(q, k=k)
            elif variant == "w/o Rerank":
                r = full.query(q, use_rerank=False, k=k)
            elif variant == "w/o ANNS":
                r = full.query(q, variant="bf", k=k)
            else:  # w/o Key frame
                r = nokf.query(q, k=k)
            row_ap[qid] = evaluate_ranking(r.results, gt).avep
            row_fs[qid] = r.fast_time
            row_rr[qid] = r.rerank_time if r.rerank_time else float("nan")
        rows += [row_ap, row_fs, row_rr]

    for patches, full, nokf in built.values():
        full.close(); nokf.close(); patches.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Table V — ANN variants (BF / IVF-PQ / HNSW) on Cityscapes
# ---------------------------------------------------------------------------

def run_table5(
    spark: SparkSession,
    *,
    sf: float = 0.5,
    cost_scale: float = 25.0,
    qids: tuple[str, ...] = ("Q1.1", "Q1.2", "Q1.3", "Q1.4"),
):
    """AveP / Search / Total per ANN variant (paper Table V)."""
    cfg = job_config(cost_scale)
    prof, patches = _dataset(spark, "cityscapes", sf)
    system = LOVO(spark, cfg)
    rep = system.build(patches)
    system.hnsw_shards()  # build the graph index up front, like the others
    for variant in ("bf", "ivfpq", "hnsw"):  # JIT/shuffle warm-up per path
        system.query(queries_for_dataset("cityscapes")[0], variant=variant, k=10)
    rows = []
    for variant, label in (("bf", "LOVO(BF)"), ("ivfpq", "LOVO(IVF-PQ)"), ("hnsw", "LOVO(HNSW)")):
        row_ap = {"Variant": label, "Metric": "AveP"}
        row_se = {"Variant": label, "Metric": "Search"}
        row_to = {"Variant": label, "Metric": "Total"}
        for qid in qids:
            q = query_by_id(qid)
            k, gt = _k_for(patches, q)
            r = system.query(q, variant=variant, k=k)
            row_ap[qid] = evaluate_ranking(r.results, gt).avep
            row_se[qid] = r.search_time
            row_to[qid] = rep.total_time + r.search_time
        rows += [row_ap, row_se, row_to]
    system.close()
    patches.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Table VII — LOVO on ActivityNet-QA extension queries
# ---------------------------------------------------------------------------

def run_table7(spark: SparkSession, *, sf: float = 0.5, cost_scale: float = 0.0):
    """AveP / Search / Total for EQ1–EQ4 on the ActivityNet profile."""
    cfg = job_config(cost_scale)
    prof, patches = _dataset(spark, "activitynet", sf)
    system = LOVO(spark, cfg)
    rep = system.build(patches)
    system.query(EXTENSION_QUERIES[0], k=10)  # JIT/shuffle warm-up
    row_ap = {"Method": "LOVO", "Metric": "AveP"}
    row_se = {"Method": "LOVO", "Metric": "Search"}
    row_to = {"Method": "LOVO", "Metric": "Total"}
    for q in EXTENSION_QUERIES:
        k, gt = _k_for(patches, q)
        r = system.query(q, k=k)
        row_ap[q.qid] = evaluate_ranking(r.results, gt).avep
        row_se[q.qid] = r.search_time
        row_to[q.qid] = rep.total_time + r.search_time
    system.close()
    patches.unpersist()
    return [row_ap, row_se, row_to]
