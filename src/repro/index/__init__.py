"""Vector-database substrate: PQ, inverted multi-index, ANN search variants.

Replaces Milvus (§V) with Spark-native storage and search: codebooks are
trained on a driver-side sample (standard IVF-PQ practice), code
assignment and inverted-list construction run as DataFrame jobs, and
Algorithm 1's search reads only the top-A inverted lists (one filter)
and votes over them in driver-side numpy. Three search variants back
the paper's Table V, each as Spark reads plus driver-side numpy:
brute-force (BF), quantisation-based inverted indexing (IVF-PQ) and
sharded graph search (HNSW). All three end in ``store.top_hits`` and
return one result schema: ``store.HIT_COLUMNS`` (patch id, frame key,
predicted box) plus ``score``.
"""
from repro.index.pq import PQQuantizer, train_quantizer
from repro.index.store import VectorStore
from repro.index.ivf import build_index
from repro.index.search_bf import search_bf
from repro.index.search_ivfpq import search_ivfpq
from repro.index.hnsw import build_hnsw_shards, search_hnsw

__all__ = [
    "PQQuantizer",
    "train_quantizer",
    "VectorStore",
    "build_index",
    "search_bf",
    "search_ivfpq",
    "build_hnsw_shards",
    "search_hnsw",
]
