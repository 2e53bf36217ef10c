"""Algorithm 1 — Approximate Nearest Neighbor Search over the multi-index.

One fast search is two Spark reads of the cached index tables; the
maths between them runs in driver-side numpy over at most P·A inverted
lists, the IVFADC scheme of Jégou et al. (TPAMI 2011) over the inverted
multi-index of Babenko & Lempitsky (CVPR 2012):

  lines 1–7   (centroid scoring, Top-A clusters per subspace) — numpy
              over the codebooks, giving the P·A list keys
              ``p·k_coarse + cluster``;
  postings    one ``IN`` filter on that key over ``components`` reads
              only the selected lists (with more than 10 keys Spark plans
              an ``InSet``, whose generated code is reused across queries);
  lines 8–11  (residual-refined approximate scores) — the ADC lookup
              ``s ≈ s(q_p, c_coarse) + q_p·r``, two numpy gathers;
  line 12     (per-subspace top-k′) — by descending approx score, ties
              broken by ascending ``patch_id``;
  line 16     (patch-id majority vote across subspace components) — count
              and summed approx score per patch; the shortlist is ranked
              by (votes, summed score, ``patch_id``);
  lines 13–15 (exact rescore) — ``scan`` of the shortlisted
              ``vectors`` rows (one ``patch_id IN`` read, which also
              returns each hit's frame key and box), q·x in numpy;
  line 17     (final sort) — ``top_hits``, as in BF and HNSW: top-k by
              (score, ``patch_id``) on the driver.

No join, window, groupBy or global sort runs in Spark, so the answer
does not depend on how the tables are partitioned.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.index.pq import PQQuantizer
from repro.index.store import VectorStore, isin, scan, top_hits


def top_a_clusters(clut: np.ndarray, top_a: int) -> np.ndarray:
    """Lines 1–7: the ``top_a`` best coarse clusters per subspace, (P, A).

    ``top_a`` above ``k_coarse`` is clamped to every list.
    """
    return np.argsort(-clut, axis=1)[:, :top_a]


def vote(
    p: np.ndarray, patch_id: np.ndarray, approx: np.ndarray, kp: int, n: int
) -> pd.DataFrame:
    """Lines 12 and 16 over posting rows: per-subspace top-``kp``, then vote.

    Returns the ``n`` best patches by (desc votes, desc summed approx,
    asc patch_id), in that order, with columns patch_id, votes, approx_sum.
    """
    order = np.lexsort((patch_id, -approx, p))
    p, patch_id, approx = p[order], patch_id[order], approx[order]
    rank = np.arange(len(p)) - np.searchsorted(p, p)  # position within subspace
    keep = rank < kp
    ids, inv = np.unique(patch_id[keep], return_inverse=True)
    votes = np.bincount(inv, minlength=len(ids))
    sums = np.bincount(inv, weights=approx[keep], minlength=len(ids))
    best = np.lexsort((ids, -sums, -votes))[:n]
    return pd.DataFrame({"patch_id": ids[best], "votes": votes[best], "approx_sum": sums[best]})


def search_ivfpq(
    store: VectorStore,
    quant: PQQuantizer,
    q: np.ndarray,
    *,
    top_a: int = 8,
    k: int = 50,
    cost=None,
) -> DataFrame:
    """Top-k hits (``HIT_COLUMNS`` plus ``score``) via the multi-index.

    Line 12 keeps ``8·k`` components per subspace, so the union across P
    subspaces keeps enough distinct patch ids to fill the final top-k.
    The vote-ranked shortlist holds ``4·k`` patches before the exact
    rescore (lines 13–15), so approximation error in the ADC scores
    cannot evict true top-k members — the standard IVF-PQ
    candidate-oversampling refinement.
    ``cost`` charges ``ann_scan_vector`` units on the driver: 1/P of a
    vector per posting read (a doubled index, Table IV w/o key frames,
    doubles it) plus one per shortlisted vector rescored exactly.
    """
    q = np.asarray(q, dtype=np.float64)
    clut, rlut = quant.coarse_lut(q), quant.residual_lut(q)
    P, kc = clut.shape
    keys = (np.arange(P)[:, None] * kc + top_a_clusters(clut, top_a)).ravel().tolist()
    post = store.components.filter(isin(f"p * {kc} + cluster", keys)).toPandas()
    p = post["p"].to_numpy()
    approx = clut[p, post["cluster"].to_numpy()] + rlut[p, post["rcode"].to_numpy()]
    short = vote(p, post["patch_id"].to_numpy(), approx, 8 * k, 4 * k)
    if cost is not None:
        cost.burn("ann_scan_vector", len(post) / P + len(short))

    shortlist = store.vectors.filter(isin("patch_id", short["patch_id"].tolist()))
    return top_hits(scan(shortlist, q), k)
