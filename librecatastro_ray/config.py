"""Index configuration.

The reference declares its physical layout once at index creation
(5 shards x 1 replica, reference: src/utils/elasticsearch_utils.py:27-30) and
relies on Elasticsearch 6.3.2 BM25 defaults (k1=1.2, b=0.75, reference:
docker-compose.yml:7, requirements.txt:4).  We make every knob explicit and
persist it in the index manifest so query-time behaviour is pinned to the
build.
"""

from __future__ import annotations

import dataclasses
from typing import Any


@dataclasses.dataclass(frozen=True)
class IndexConfig:
    # BM25 similarity (Lucene/ES 6.x defaults).
    k1: float = 1.2
    b: float = 0.75

    # Analysis strategy ids (functions/analysis.py registry — the reference's
    # Parser-ABC strategy surface, parser.py:12-28).  Recorded in the
    # manifest: an index answers queries ONLY with the analyzer/scorer it was
    # built with (a mismatched explicit strategy is rejected at query time).
    analyzer: str = "code_standard_v1"
    scorer: str = "bm25_v1"

    # Term partitioning: each segment's postings are hash-partitioned into at
    # most ``num_partitions`` term partitions (the analogue of the
    # reference's 5 doc-hash shards, but partitioned by *term* so a query
    # term routes to exactly one partition per segment).  A segment gets the
    # smallest divisor d of ``num_partitions`` whose d posting row groups
    # (``hot_postings_budget`` each) hold all its postings, so a small
    # segment is one partition.
    num_partitions: int = 8

    # Skew handling: a term whose (estimated) document frequency exceeds
    # ``hot_postings_budget`` (one posting row group) is salted into
    # ``num_salts`` sub-partitions, each a contiguous doc-id range of the
    # build, so no single merge task receives the full posting list of a hot
    # term (``def``, ``return``-class keywords).  Below the budget every term
    # is one run; an index of at most that many docs salts nothing.
    num_salts: int = 4
    # Deterministic sample used to estimate df for hot-term detection:
    # docs with ``doc_id % hot_sample_mod == 0``.  Auto-tuned so the sample
    # is ~``hot_sample_target`` docs.
    hot_sample_target: int = 4096

    # Positional indexing (Lucene IndexOptions.DOCS_AND_FREQS_AND_POSITIONS
    # analogue): when True, every posting also stores the token positions of
    # the term's occurrences, as a row-aligned ``positions`` list<int32>
    # column of the posting file that only phrase reads project, so
    # doc-stream reads never pay for them.  Required by match_phrase; off by
    # default — positions add ~1-2 bytes per token occurrence to the shuffle
    # and the index, exactly Lucene's rationale for making index options an
    # opt-in.
    positions: bool = False

    # Block-max WAND granularity: a term's postings are cut into blocks of
    # ``block_size`` postings, and the engine derives each block's last doc
    # id (skip pointer) and max tf_norm (bound) from the postings at its own
    # avgdl — nothing is stored per block.
    block_size: int = 128

    # Parquet row groups of the posting files hold
    # ``blocks_row_group_size × block_size`` postings (the unit a read
    # decodes and the engine caches); the dictionary files use
    # ``blocks_row_group_size`` rows.
    blocks_row_group_size: int = 2048

    # Rows per tokenize call of the doc-id apply task (one slice of its
    # block: its dl and its flat postings). content can be 100KB+ per row,
    # so keep batches modest.
    batch_size: int = 512

    @property
    def hot_postings_budget(self) -> int:
        """Postings a term may have before it is salted: one posting row
        group."""
        return self.blocks_row_group_size * self.block_size

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "IndexConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in fields})
