"""Stable hashing utilities.

- ``sha256_batch``: per-row content sha256 (the row invariant from
  BASELINE.json input_hint; analogue of the reference's canonical
  deterministic JSON serialization, reference:
  src/librecatastro/domain/cadaster_entry/cadaster_entry.py:37-44).
- ``term_hash``: stable 63-bit term hash used ONLY for term partitioning
  (never persisted as identity) — md5-based so it is stable across
  processes/machines (Python's builtin hash() is salted per process).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sha256_hex(s: str | bytes) -> str:
    if isinstance(s, str):
        s = s.encode("utf-8")
    return hashlib.sha256(s).hexdigest()


def sha256_batch(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """sha256 hex of each string in a column (null → sha of empty string,
    matching DuckDB's sha256(coalesce(x, '')))."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = []
    for v in arr:
        s = v.as_py()
        out.append(hashlib.sha256(("" if s is None else s).encode("utf-8")).hexdigest())
    return pa.array(out, pa.string())


_TERM_HASH_CACHE: dict[str, int] = {}


def term_hash(term: str) -> int:
    """Stable 63-bit hash of a term (md5 prefix)."""
    h = _TERM_HASH_CACHE.get(term)
    if h is None:
        h = int.from_bytes(hashlib.md5(term.encode("utf-8")).digest()[:8], "little") & 0x7FFFFFFFFFFFFFFF
        if len(_TERM_HASH_CACHE) < 1_000_000:
            _TERM_HASH_CACHE[term] = h
    return h


def term_hashes(terms: np.ndarray | pa.Array) -> np.ndarray:
    """``term_hash`` of each term in an array of strings, as int64.

    Hashes each *distinct* term once (Zipf vocabularies make distinct terms
    ≪ tokens): a hash-based Arrow dictionary encode finds them, and its
    indices broadcast the hashes back.
    """
    if not isinstance(terms, pa.Array):
        terms = pa.array(np.asarray(terms, dtype=object), pa.string())
    enc = pc.dictionary_encode(terms)
    hu = np.array([term_hash(t) for t in enc.dictionary.to_pylist()], dtype=np.int64)
    return hu[enc.indices.to_numpy()]
