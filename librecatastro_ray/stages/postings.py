"""Flat-posting emission + salted term partitioning.

map_batches stage (stateless in data, stateful in config → actor pool) that
turns doc batches into flat postings ``(term, doc_id, tf, dl, skey)`` where

    pkey = term_hash(term) % P                 (term partition — the analogue
                                                of the reference's 5 shards,
                                                reference: elasticsearch_utils.py:27-30,
                                                but term- not doc-partitioned)
    salt = min((doc_id - base) // W, S - 1)    (skew: a hot term — df over one
           if term is hot else 0                posting row group — is split
                                                into S contiguous doc-id
                                                ranges of width W of its
                                                segment, which starts at
                                                doc id ``base``)
    skey = pkey * S + salt

A hot term's salt runs are doc ranges in salt order, so a reader merges
them by concatenation.

Postings carry dl so the per-partition merge can compute exact BM25 block-max
bounds locally without a doc-stats join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from librecatastro_ray.functions.analysis import get_analyzer, term_frequencies_with
from librecatastro_ray.functions.hashing import term_hashes

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int64()),
        ("dl", pa.int64()),
        ("skey", pa.int64()),
    ]
)

# a posting's ascending token positions in its doc (positional builds only)
POSITIONS_TYPE = pa.list_(pa.int32())


def salt_range_width(n_docs: int, num_salts: int) -> int:
    """Doc ids per salt range of a segment of ``n_docs`` docs.  The last
    range also takes the rest."""
    return max(1, n_docs // num_salts)


def flat_postings(
    batch: pa.Table,
    *,
    num_partitions: int,
    num_salts: int,
    hot_terms: list[str],
    salt_width: int,
    salt_base: int = 0,
    analyzer_id: str = "code_standard_v1",
) -> pa.Table:
    """map_batches (stateless task, ``fn_kwargs``): tokenize + emit flat
    postings.  Task-based rather than an actor pool: the per-task state
    (the hot-term list, typically tens of keyword-class strings) is trivially
    small, and warm-worker reuse beats paying an actor-process startup per
    pool slot.  A genuinely large broadcast side would move to ``ray.put`` +
    an actor pool.  The analyzer travels as its registry ID (resolved here,
    inside the task)."""
    tf_table, dl = term_frequencies_with(get_analyzer(analyzer_id), batch["content"])
    rows = tf_table["row"].to_numpy()
    enc = pc.dictionary_encode(tf_table["term"].combine_chunks())
    return _postings_table(
        enc.dictionary, enc.indices.to_numpy(), batch["doc_id"].to_numpy()[rows],
        tf_table["tf"].to_numpy(), dl[rows],
        num_partitions=num_partitions, num_salts=num_salts, hot_terms=hot_terms,
        salt_width=salt_width, salt_base=salt_base,
    )


def _postings_table(
    dictionary: pa.Array,
    codes: np.ndarray,
    doc_ids: np.ndarray,
    tf: np.ndarray,
    dl: np.ndarray,
    *,
    num_partitions: int,
    num_salts: int,
    hot_terms: list[str],
    salt_width: int,
    salt_base: int,
    **extra: pa.Array,
) -> pa.Table:
    """The flat postings both emitters return, posting i being term
    ``dictionary[codes[i]]`` in doc ``doc_ids[i]``.  The term hash and the
    hot-term test run once per distinct term (a hash lookup, not a sort)
    and reach the postings through ``codes``."""
    S = num_salts
    pkey = term_hashes(dictionary) % num_partitions
    hot = pc.is_in(dictionary, value_set=pa.array(hot_terms, pa.string()))
    salt = np.where(hot.to_numpy(zero_copy_only=False)[codes],
                    np.minimum((doc_ids - salt_base) // salt_width, S - 1), 0)
    return pa.table(
        {
            "term": dictionary.take(codes),
            "doc_id": pa.array(doc_ids, pa.int64()),
            "tf": pa.array(tf, pa.int64()),
            "dl": pa.array(dl, pa.int64()),
            "skey": pa.array(pkey[codes] * S + salt, pa.int64()),
            **extra,
        }
    )


def flat_postings_positional(
    batch: pa.Table,
    *,
    num_partitions: int,
    num_salts: int,
    hot_terms: list[str],
    salt_width: int,
    salt_base: int = 0,
    analyzer_id: str = "code_standard_v1",
) -> pa.Table:
    """Positional twin of :func:`flat_postings`: each output posting also
    carries ``pos``, the term's ascending occurrence positions within the
    doc as a ``list<int32>`` cell — the shuffle and the merge move the list
    column as it is, and the merge writes it to the posting file unchanged
    (Parquet's bit-packed deltas are its codec).  Lucene analogue:
    IndexOptions.DOCS_AND_FREQS_AND_POSITIONS."""
    from librecatastro_ray.functions.tokenizer import token_positions_from

    analyzer = get_analyzer(analyzer_id)
    parent_idx, toks, dl = analyzer.tokenize_batch(batch["content"])
    pos = token_positions_from(parent_idx, dl)
    n_tok = len(toks)
    enc = pc.dictionary_encode(pa.array(toks, pa.string()))
    if n_tok:
        # group occurrences by (row, term); np.lexsort is stable, so within a
        # group the document-order (ascending) positions are preserved
        codes = enc.indices.to_numpy().astype(np.int64)
        order = np.lexsort((codes, parent_idx))
        rows_s, codes_s, pos_s = parent_idx[order], codes[order], pos[order]
        change = np.ones(n_tok, dtype=bool)
        change[1:] = (rows_s[1:] != rows_s[:-1]) | (codes_s[1:] != codes_s[:-1])
        group_starts = np.nonzero(change)[0]
        tf = np.diff(np.append(group_starts, n_tok)).astype(np.int64)
        # groups tile [0, n_tok) contiguously, so the group starts are the
        # list offsets of the (row, term)-sorted positions
        pos_col = pa.ListArray.from_arrays(
            pa.array(np.append(group_starts, n_tok), pa.int32()), pa.array(pos_s, pa.int32())
        )
        rows, term_codes = rows_s[group_starts], codes_s[group_starts]
    else:
        rows = term_codes = tf = np.zeros(0, dtype=np.int64)
        pos_col = pa.array([], POSITIONS_TYPE)
    return _postings_table(
        enc.dictionary, term_codes, batch["doc_id"].to_numpy()[rows], tf, dl[rows],
        num_partitions=num_partitions, num_salts=num_salts, hot_terms=hot_terms,
        salt_width=salt_width, salt_base=salt_base, pos=pos_col,
    )


