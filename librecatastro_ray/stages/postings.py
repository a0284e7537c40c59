"""Flat-posting emission + salted term partitioning + the block spill.

Turns an id-stamped doc block into flat postings ``(term, doc_id, tf, dl,
skey)`` — inside the doc-id apply task, from the tokens that also give the
doc store its ``dl`` — and spills them partitioned by skey, where

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

Postings carry dl so a term read can score, and derive exact block-max bounds,
without a doc-stats join.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from librecatastro_ray.functions.hashing import term_hashes
from librecatastro_ray.functions.tokenizer import term_frequencies_from

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
    tokens: tuple,
    *,
    num_partitions: int,
    num_salts: int,
    hot_terms: list[str],
    salt_width: int,
    salt_base: int = 0,
) -> pa.Table:
    """The flat postings of a doc batch with a ``doc_id`` column, whose
    content the analyzer tokenized to ``tokens`` = ``(parent_idx, terms,
    dl)`` (the doc-id apply task tokenizes once: the same tokens give the
    doc store its ``dl``)."""
    tf_table, dl = term_frequencies_from(*tokens)
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
    tokens: tuple,
    *,
    num_partitions: int,
    num_salts: int,
    hot_terms: list[str],
    salt_width: int,
    salt_base: int = 0,
) -> pa.Table:
    """Positional twin of :func:`flat_postings`: each output posting also
    carries ``pos``, the term's ascending occurrence positions within the
    doc as a ``list<int32>`` cell — the shuffle and the merge move the list
    column as it is, and the merge writes it to the posting file unchanged
    (Parquet's bit-packed deltas are its codec).  Lucene analogue:
    IndexOptions.DOCS_AND_FREQS_AND_POSITIONS."""
    from librecatastro_ray.functions.tokenizer import token_positions_from

    parent_idx, toks, dl = tokens
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




def spill_path(spill_dir: str, skey: int | str, bid: int) -> str:
    """Block ``bid``'s spill file of partition ``skey``."""
    return os.path.join(spill_dir, f"skey={skey}", f"part-{bid:06d}.parquet")


def spilled(spill_dir: str, bid: int) -> bool:
    """Whether block ``bid`` has written a spill file."""
    return bool(glob.glob(spill_path(spill_dir, "*", bid)))


def spill_block(docs: pa.Table, tokenize, bid: int, spill_dir: str, *, batch_size: int,
                positions: bool, **route) -> np.ndarray:
    """Spill the flat postings of one id-stamped doc block and return its
    docs' ``dl``: one file per partition it holds,
    ``spill_dir/skey=K/part-{bid}.parquet`` without the skey column, each
    written to a dot-named tmp file (which the merge's dataset read skips)
    and renamed.  ``tokenize`` (an analyzer's ``tokenize_batch``) runs over
    ``batch_size`` rows at a time, so the per-token Python strings of a
    block of wide rows never exist at once; each slice's tokens give its
    ``dl`` and its flat postings.  ``route`` is the salting of
    :func:`flat_postings`."""
    emit = flat_postings_positional if positions else flat_postings
    dls, flats = [], []
    for start in range(0, len(docs), batch_size):
        batch = docs.slice(start, batch_size)
        tokens = tokenize(batch["content"])
        dls.append(tokens[2])
        flats.append(emit(batch, tokens, **route))
    flat = pa.concat_tables(flats)
    skey = flat["skey"].to_numpy()
    order = np.argsort(skey, kind="stable")
    keys, starts = np.unique(skey[order], return_index=True)
    flat = flat.drop_columns("skey").take(pa.array(order))
    for k, start, end in zip(keys, starts, [*starts[1:], len(order)]):
        path = spill_path(spill_dir, int(k), bid)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.tmp")
        pq.write_table(flat.slice(start, end - start), tmp)
        os.replace(tmp, path)
    return np.concatenate(dls)
