"""Code-aware tokenizer, compatible with an ES-``standard``-analyzer-style
lowercase word segmentation specialized for source code.

Canonical definition: ``tokens(s) = re.findall('[a-z0-9_]+', s.lower())`` —
lowercase, then maximal runs of ``[a-z0-9_]``.  Underscores are kept inside
tokens (identifiers like ``my_var`` stay whole); every other character is a
separator.  The same definition is expressible in DuckDB SQL as
``list_filter(regexp_split_to_array(lower(s), '[^a-z0-9_]+'), t -> t <> '')``
which is what the driver-side oracle uses, and the pure-Python oracle
(librecatastro_ray.oracle) shares this module.

The reference's analogue is the per-record field extraction layer (the 11
Address regex extractors, reference: src/librecatastro/domain/address.py:51-192)
plus the implicit ES ``standard`` analyzer on every ``text`` field (reference:
src/utils/elasticsearch_utils.py:58-72).

Two implementations:
- ``tokenize(s)``: per-string, pure Python (oracle / query side).
- ``tokenize_batch(arr)``: vectorized pyarrow over a string column
  (build side hot path; C++ kernels only, no per-row Python).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = re.compile(r"[a-z0-9_]+")
SPLIT_PATTERN = "[^a-z0-9_]+"  # complement — used by the vectorized splitter


def tokenize(s: str | None) -> list[str]:
    """Pure-Python tokenizer (canonical definition)."""
    if s is None:
        return []
    return TOKEN_RE.findall(s.lower())


def tokenize_batch_pattern(
    arr: pa.Array | pa.ChunkedArray, split_pattern: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tokenize of a string column with an arbitrary separator
    regex (the kernel shared by every Analyzer implementation).

    Returns ``(parent_idx, terms, dl)``:
      - ``parent_idx``: int64 ndarray, row index (within ``arr``) of each token
      - ``terms``: object ndarray of the tokens, in document order
      - ``dl``: int64 ndarray of per-row token counts (len == len(arr))

    Implemented entirely with pyarrow C++ kernels (lower, regex split,
    list flatten/parent-indices, filter) + one ``np.bincount``.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    filled = pc.fill_null(arr, "")
    low = pc.utf8_lower(filled)
    parts = pc.split_pattern_regex(low, split_pattern)
    flat = pc.list_flatten(parts)
    parents = pc.list_parent_indices(parts)
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask)
    parents = parents.filter(mask)
    parent_idx = parents.to_numpy(zero_copy_only=False).astype(np.int64)
    terms = flat.to_numpy(zero_copy_only=False)
    dl = np.bincount(parent_idx, minlength=n).astype(np.int64)
    return parent_idx, terms, dl


def tokenize_batch(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized canonical tokenize (see :func:`tokenize_batch_pattern`)."""
    return tokenize_batch_pattern(arr, SPLIT_PATTERN)


def token_positions_from(parent_idx: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """Per-token position within its document (0-based token index), for a
    tokenize result in document order: token j of row r has position j.
    Vectorized: position = global token index − start of the row's run."""
    if len(parent_idx) == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(dl)[:-1]))
    return np.arange(len(parent_idx), dtype=np.int64) - starts[parent_idx]


def term_frequencies_from(
    parent_idx: np.ndarray, terms: np.ndarray, dl: np.ndarray
) -> tuple[pa.Table, np.ndarray]:
    """Fold a tokenize result into per-(row, term) frequencies.

    Returns ``(tf_table, dl)`` where ``tf_table`` has columns
    ``row (int64), term (string), tf (int64)`` (one row per distinct term per
    document) and ``dl`` is the per-row token count.  The group-by runs in
    Arrow C++.
    """
    t = pa.table(
        {
            "row": pa.array(parent_idx, pa.int64()),
            "term": pa.array(terms, pa.string()),
        }
    )
    grouped = t.group_by(["row", "term"], use_threads=False).aggregate([([], "count_all")])
    tf_table = pa.table(
        {
            "row": grouped["row"],
            "term": grouped["term"],
            "tf": grouped["count_all"].cast(pa.int64()),
        }
    )
    return tf_table, dl

