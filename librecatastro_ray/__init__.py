"""librecatastro_ray — a Ray-Data-native inverted-index + BM25 top-k engine.

A from-scratch replacement for the Elasticsearch search layer of the
reference crawler (josejuanmartinez/libreCatastro): index DDL, upsert-by-key
dedup, BM25 ``match``, keyword ``prefix``, ``bool.must`` conjunction, top-k
with deterministic tiebreaks, and exact ``hits.total`` counts
(reference: src/utils/elasticsearch_utils.py:20-136,
src/librecatastro/domain/cadaster_entry/cadaster_entry.py:46-77) —
re-expressed as ray.data.Dataset pipelines over zero-copy Arrow batches.
"""

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import add_documents, build_index, compact_index
from librecatastro_ray.pipelines.query import (
    QueryEngine,
    batch_search_scatter,
    delete_by_query,
    multi_match_best_fields,
    range_cache_stats,
)
from librecatastro_ray.state.manifest import delete_docs, drop_index

__all__ = [
    "IndexConfig",
    "build_index",
    "add_documents",
    "compact_index",
    "QueryEngine",
    "batch_search_scatter",
    "multi_match_best_fields",
    "range_cache_stats",
    "delete_docs",
    "delete_by_query",
    "drop_index",
]
__version__ = "0.1.0"
