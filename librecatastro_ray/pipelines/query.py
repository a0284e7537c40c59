"""Query engine — the reference's Elasticsearch query surface re-implemented
over the on-disk term-partitioned index (SURVEY.md §2.Q):

    Q1 match          BM25-scored term/OR query        (elasticsearch_utils.py:115-117,
                                                        cadaster_entry.py:66)
    Q2 prefix         keyword prefix filter + analyzed-field dictionary scan
                                                       (elasticsearch_utils.py:113-114)
    Q3 bool.must      conjunction, sum of clause scores (elasticsearch_utils.py:111-119)
    Q4 top-k          score desc, doc_id asc, from=0    (elasticsearch_utils.py:120-122)
    Q5 hits.total     exact count                       (cadaster_entry.py:68-71)

Design: a ``QueryEngine`` is cheap, stateful, file-backed — term dictionaries
are cached per (partition, salt) and double as the term → row-span table of
the posting files: the merge writes each term's ``ceil(df / block_size)``
blocks contiguously in dictionary order, and the positions sidecar is
row-aligned with them.  Each blocks/positions file is read at most once per
engine, a row group at a time into a byte-bounded LRU; a term's blocks are a
zero-copy slice of it, decoded to numpy.  Prefix, wildcard and fuzzy
expansions run over one sorted engine vocabulary.  A hot (salted) term's
per-salt runs are disjoint doc subsets (doc_id % S), so they merge by
concatenation + one argsort — the logical "second merge stage" of the salting
scheme, executed lazily at read time.

``SearchActor`` wraps the engine as an actor-pool UDF for batch query
evaluation: ``queries_ds.map_batches(SearchActor, concurrency=N)`` — the
stateful-stage pattern fixing the reference's per-record client connections
(reference: cadaster_entry.py:48,57 opens a new ES client per document).
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.bm25 import topk_indices
from librecatastro_ray.functions.codec import varbyte_decode
from librecatastro_ray.functions.hashing import term_hash
from librecatastro_ray.stages.merge import blocks_file, dict_file, positions_file
from librecatastro_ray.state.manifest import load_manifest

# columns the engine reads from each posting file (the term/block_no columns
# are implied by the dictionary's row spans)
_FILE_COLUMNS = {
    "blocks": ["n", "last_doc", "max_tfnorm", "docs", "tfs", "dls"],
    "positions": ["positions"],
}

RESULT_SCHEMA = pa.schema(
    [("rank", pa.int64()), ("doc_id", pa.int64()), ("score", pa.float64())]
)


def _result_table(ranks: np.ndarray, docs: np.ndarray, scores: np.ndarray) -> pa.Table:
    """A (rank, doc_id, score) answer whose three columns share ONE numpy
    buffer: about 2 KB of Arrow objects per answer instead of about 5.5 KB
    for three separately wrapped arrays, which adds up when a caller keeps
    thousands of answers."""
    buf = pa.py_buffer(np.concatenate([
        ranks.astype(np.int64, copy=False), docs.astype(np.int64, copy=False),
        np.ascontiguousarray(scores, dtype=np.float64).view(np.int64),
    ]))
    n = len(docs)
    cols = [pa.Array.from_buffers(f.type, n, [None, buf], offset=i * n)
            for i, f in enumerate(RESULT_SCHEMA)]
    return pa.Table.from_arrays(cols, schema=RESULT_SCHEMA)


def _empty_result() -> pa.Table:
    z = np.zeros(0, dtype=np.int64)
    return _result_table(z, z, z)


# dense per-doc accumulators are used while the doc-id space fits comfortably
# in a worker's heap (8M × 8B = 64 MB); beyond that the sparse unique/bincount
# path takes over.  At corpus scale query serving is partition-routed, so the
# relevant bound is docs-per-serving-partition, not global N.
DENSE_ACC_LIMIT = 8 << 20


def _prefix_upper_bound(value: str) -> str | None:
    """Smallest string greater than every string with prefix ``value`` under
    code-point order (bumps the last bumpable character, skipping the
    surrogate range).  None when no finite bound exists."""
    for i in range(len(value) - 1, -1, -1):
        c = ord(value[i])
        if c >= 0x10FFFF:
            continue
        nxt = 0xE000 if c + 1 == 0xD800 else c + 1
        return value[:i] + chr(nxt)
    return None


def wildcard_regex(pattern: str) -> str:
    """Anchored RE2 regex for an ES wildcard pattern: ``*`` = any run of
    token characters, ``?`` = exactly one.  Dictionary terms only contain
    ``[a-z0-9_]``, so the char class is the token alphabet.  Shared verbatim
    with the DuckDB oracle (regexp_matches) so the two sides cannot drift."""
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append("[a-z0-9_]*")
        elif ch == "?":
            parts.append("[a-z0-9_]")
        else:
            parts.append(re.escape(ch))
    return "^" + "".join(parts) + "$"


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique int64 arrays via searchsorted —
    O(min·log max), no np.isin sort."""
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    if len(a) > len(b):
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx[idx == len(b)] = len(b) - 1
    return a[b[idx] == a]


def _in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean membership mask of ``values`` in a sorted unique array."""
    if len(sorted_set) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_set, values)
    idx[idx == len(sorted_set)] = len(sorted_set) - 1
    return sorted_set[idx] == values


from librecatastro_ray.functions.codec import binary_column_payload as _binary_payload  # noqa: E402


def decode_blocks_table(bt: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decode of a set of posting blocks: one varbyte pass over the
    concatenated buffers, then a segmented cumsum to rebuild absolute doc ids
    (each block's deltas restart at an absolute first doc)."""
    n = bt["n"].to_numpy().astype(np.int64)
    if len(n) == 0 or int(n.sum()) == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    gaps = varbyte_decode(_binary_payload(bt["docs"])).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    cs = np.cumsum(gaps)
    seg_base = cs[starts] - gaps[starts]
    docs = cs - np.repeat(seg_base, n)
    tfs = varbyte_decode(_binary_payload(bt["tfs"])).astype(np.int64)
    dls = varbyte_decode(_binary_payload(bt["dls"])).astype(np.int64)
    return docs, tfs, dls


def _segment_gather(
    flat: np.ndarray, seg_starts: np.ndarray, seg_counts: np.ndarray
) -> np.ndarray:
    """Concatenate variable-length segments of ``flat`` (segment i =
    ``flat[seg_starts[i] : seg_starts[i] + seg_counts[i]]``) — one vectorized
    index build, no per-segment Python."""
    total = int(seg_counts.sum())
    out_starts = np.cumsum(seg_counts) - seg_counts
    idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_starts, seg_counts)
        + np.repeat(seg_starts, seg_counts)
    )
    return flat[idx]


def decode_positions_stream(positions_col, tfs: np.ndarray) -> np.ndarray:
    """Absolute positions of a positions-sidecar blob column, posting order.
    Posting i owns exactly ``tfs[i]`` values (the sidecar stores no lengths —
    tf IS the length); one varbyte pass + a segmented cumsum with per-posting
    restarts (the decode_blocks_table pattern)."""
    gaps = varbyte_decode(_binary_payload(positions_col)).astype(np.int64)
    total = int(tfs.sum())
    if len(gaps) != total:
        raise ValueError(
            f"positions stream has {len(gaps)} values, expected {total} "
            f"(= sum of tf) — corrupt sidecar"
        )
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
    cs = np.cumsum(gaps)
    seg_base = cs[starts] - gaps[starts]
    return cs - np.repeat(seg_base, tfs)


def _select(run: tuple, m: np.ndarray) -> tuple:
    """Postings ``m`` (bool mask) of a decoded ``(docs, tf, dl[, pos_flat])``
    run, with the positions of the kept postings regathered."""
    d, f, L = run[:3]
    out = (d[m], f[m], L[m])
    if len(run) == 4:
        out += (_segment_gather(run[3], (np.cumsum(f) - f)[m], f[m]),)
    return out


def _merge_runs(runs: list[tuple], width: int) -> tuple:
    """One doc-sorted ``(docs, tf, dl[, pos_flat])`` stream from a term's
    per-salt runs: salted runs are disjoint doc subsets, so one stable
    argsort merges the fixed-width arrays and the variable-length position
    segments are gathered with one vectorized index build."""
    if not runs:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(width))
    if len(runs) == 1:
        return runs[0]
    cols = [np.concatenate(c) for c in zip(*runs)]
    order = np.argsort(cols[0], kind="stable")
    if width == 4:
        tfs = cols[1]
        cols[3] = _segment_gather(cols[3], (np.cumsum(tfs) - tfs)[order], tfs[order])
    cols[:3] = [c[order] for c in cols[:3]]
    return tuple(cols)


def _phrase_stats(
    loaded: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phrase occurrence counts from per-term positional postings.

    ``loaded[i] = (docs, tfs, dls, pos_flat)`` for query position i (docs
    sorted; posting j owns ``tfs[j]`` positions).  Returns
    ``(cand_docs, phrase_freq, dl)`` over the docs containing ALL terms
    (freq may be 0 — terms present but never consecutive).  Vectorized:
    sorted doc intersection, then per-term occurrence keys
    ``cand_index·2³² + (pos − i)`` intersected across query positions."""
    z = np.zeros(0, dtype=np.int64)
    cand = loaded[0][0]
    for docs_t, _tf, _dl, _p in loaded[1:]:
        cand = _intersect_sorted(cand, docs_t)
    if len(cand) == 0:
        return z, z.copy(), z.copy()
    SHIFT = np.int64(1) << np.int64(32)
    keys: np.ndarray | None = None
    for i, (docs_t, tfs_t, _dl, pos_t) in enumerate(loaded):
        j = np.searchsorted(docs_t, cand)
        seg_starts = (np.cumsum(tfs_t) - tfs_t)[j]
        seg_counts = tfs_t[j]
        adj = _segment_gather(pos_t, seg_starts, seg_counts) - np.int64(i)
        kk = np.repeat(np.arange(len(cand), dtype=np.int64) * SHIFT, seg_counts) + adj
        kk = kk[adj >= 0]  # a phrase can't start before the doc
        keys = kk if keys is None else _intersect_sorted(keys, kk)
        if len(keys) == 0:
            return z, z.copy(), z.copy()
    pf = np.bincount((keys >> np.int64(32)).astype(np.int64), minlength=len(cand))
    docs0, _tf0, dls0, _p0 = loaded[0]
    dl_cand = dls0[np.searchsorted(docs0, cand)]
    return cand, pf.astype(np.int64), dl_cand


class QueryEngine:
    def __init__(self, index_dir: str, analyzer=None, scorer=None):
        """``analyzer``/``scorer`` are optional EXPLICIT strategy objects
        (functions/analysis.py protocols).  The index manifest pins the ids
        it was built with; an explicit strategy whose id differs is REJECTED
        — querying with a different tokenizer/scorer than the build silently
        returns garbage, so it is an error, not a fallback.  Default: resolve
        the manifest ids from the registry."""
        from librecatastro_ray.functions.analysis import get_analyzer, get_scorer

        self.index_dir = index_dir
        self.manifest = load_manifest(index_dir)
        self.config = IndexConfig.from_json(self.manifest["config"])
        for given, want, kind in (
            (analyzer, self.config.analyzer, "analyzer"),
            (scorer, self.config.scorer, "scorer"),
        ):
            if given is not None and getattr(given, f"{kind}_id") != want:
                raise ValueError(
                    f"index at {index_dir} was built with {kind} {want!r}; "
                    f"got {getattr(given, f'{kind}_id')!r} — rebuild the "
                    f"index or drop the explicit {kind}"
                )
        # the scorer's PARAMETERS are part of its identity, not just the id:
        # the block-max tfnorm bounds stored at build time were computed with
        # the build k1/b, so an explicit bm25_v1 with different parameters
        # would break WAND pruning (bounds no longer upper-bound) — reject it
        if scorer is not None:
            for p in ("k1", "b"):
                got = getattr(scorer, p, None)
                want_p = getattr(self.config, p)
                if got is not None and float(got) != float(want_p):
                    raise ValueError(
                        f"index at {index_dir} was built with {p}={want_p}; "
                        f"the explicit scorer has {p}={got} — the stored "
                        f"block-max bounds are only valid for the build "
                        f"parameters (rebuild, or drop the explicit scorer)"
                    )
        self.analyzer = analyzer or get_analyzer(self.config.analyzer)
        self.scorer = scorer or get_scorer(
            self.config.scorer, self.config.k1, self.config.b
        )
        # tombstoned doc ids (ES delete-by-id; Lucene-faithful: filtered from
        # every result, but N/avgdl/df keep counting them until rebuild)
        from librecatastro_ray.state.manifest import load_deleted

        self._deleted: np.ndarray = load_deleted(index_dir)
        # generation-versioned parts dir (incremental adds flip it in the
        # manifest last — MVCC: a crashed add leaves the old index readable)
        self._parts: str = self.manifest.get("parts_dir", "parts")
        self.n_docs: int = int(self.manifest["n_docs"])
        self.sum_dl: int = int(self.manifest["sum_dl"])
        self.avgdl: float = (float(self.sum_dl) / float(self.n_docs)) if self.n_docs else 1.0
        self.hot: set[str] = set(self.manifest["hot_terms"])
        self._dict_cache: dict[tuple[int, int], pa.Table] = {}
        # per-(partition, salt) {term: (first_row, end_row, df)} and the
        # file row count the spans tile
        self._span_maps: dict[tuple[int, int], tuple[dict[str, tuple[int, int, int]], int]] = {}
        # per-file (path, footer, row-group start rows), parsed once
        self._footers: dict[tuple[str, int, int], tuple] = {}
        # row groups read from the posting files, BYTE-bounded LRU: at
        # serving scale each file is read once and every term read after
        # that is a slice of memory
        self._rowgroup_cache: OrderedDict[tuple[str, int], pa.Table] = OrderedDict()
        self._rowgroup_cache_size = 0
        self._rowgroup_cache_cap = 256 << 20
        # sorted deduplicated vocabulary (Arrow and numpy views), built on
        # the first expansion
        self._vocab: tuple[pa.Array, np.ndarray] | None = None
        self._docstats: pads.Dataset | None = None
        # per-term postings LRU (bounded by total cached postings)
        self._postings_cache: OrderedDict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
        self._postings_cache_size = 0
        # postings = 24 B/entry (docs+tf+dl int64); contributions = 16 B/entry
        # (docs + float64).  Caps sized so a serving actor holds the full hot
        # set: hot terms are ~5% df each, so ~50 cached terms of a 600k-doc
        # partition ≈ 15M entries.  ~(360+320) MB per actor at the caps.
        self._postings_cache_cap = 15_000_000
        # per-term decoded positions LRU (positional indexes only): flat
        # int64 positions, one value per token occurrence — bounded like the
        # postings cache so a phrase workload over hot terms stays warm
        self._positions_cache: OrderedDict[
            str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._positions_cache_size = 0
        self._positions_cache_cap = 30_000_000
        self._contrib_cache: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._contrib_cache_size = 0
        self._contrib_cache_cap = 20_000_000
        # per-(term, salt) block metadata (prev_last, last, max_tfnorm) —
        # the block-max skip structure; tiny relative to postings
        self._blockmeta_cache: dict[tuple[str, int], tuple | None] = {}
        self._expansion_cache: dict[tuple, list[str]] = {}
        # keyword-clause results LRU, BYTE-bounded: one entry can be
        # O(n_docs) ids (e.g. lang=en over half the corpus), so an
        # entry-count cap alone would commit unbounded memory
        self._keyword_cache: OrderedDict[tuple[str, str, bool], np.ndarray] = OrderedDict()
        self._keyword_cache_size = 0
        self._keyword_cache_cap = 20_000_000  # entries (~160 MB int64)

    # ---------------- internals ----------------

    def _salts(self, term: str) -> list[int]:
        return list(range(self.config.num_salts)) if term in self.hot else [0]

    def _pkey(self, term: str) -> int:
        return term_hash(term) % self.config.num_partitions

    def _dict_table(self, pkey: int, salt: int) -> pa.Table:
        key = (pkey, salt)
        t = self._dict_cache.get(key)
        if t is None:
            path = dict_file(self.index_dir, pkey, salt, self._parts)
            if os.path.exists(path):
                # read on the calling thread, like the posting files (_rows)
                with pq.ParquetFile(path) as pf:
                    t = pf.read(use_threads=False)
            else:
                t = pa.table({"term": pa.array([], pa.string()),
                              "df": pa.array([], pa.int64()),
                              "cf": pa.array([], pa.int64())})
            self._dict_cache[key] = t
        return t

    def _span_table(self, pkey: int, salt: int) -> tuple[dict[str, tuple[int, int, int]], int]:
        """({term: (first_row, end_row, df)}, row count) for one (partition,
        salt): the merge writes each term's ``ceil(df / block_size)`` blocks
        contiguously in dictionary order, so the spans are a cumsum over the
        dictionary (and also O(1) df lookups for workloads that probe many
        terms)."""
        key = (pkey, salt)
        entry = self._span_maps.get(key)
        if entry is None:
            d = self._dict_table(pkey, salt)
            df = d["df"].to_numpy()
            n_blocks = -(-df // self.config.block_size)
            ends = np.cumsum(n_blocks)
            spans = zip((ends - n_blocks).tolist(), ends.tolist(), df.tolist())
            entry = (dict(zip(d["term"].to_pylist(), spans)), int(ends[-1]) if len(ends) else 0)
            self._span_maps[key] = entry
        return entry

    def _span(self, term: str, salt: int) -> tuple[int, int] | None:
        """Row span [first, end) of a (term, salt) run in its posting files."""
        s = self._span_table(self._pkey(term), salt)[0].get(term)
        return None if s is None else (s[0], s[1])

    def term_df(self, term: str) -> int:
        """Total document frequency (summed over salt runs for hot terms)."""
        pkey = self._pkey(term)
        return sum(
            self._span_table(pkey, salt)[0].get(term, (0, 0, 0))[2] for salt in self._salts(term)
        )

    def _file(self, kind: str, pkey: int, salt: int) -> tuple:
        """(path, footer, row-group start rows) of a ``blocks``/``positions``
        file, the footer parsed once per engine.  The dictionary's spans must
        tile the file exactly: any other row count means the files drifted
        from the dictionary, and every answer read through the spans would be
        silently wrong."""
        key = (kind, pkey, salt)
        f = self._footers.get(key)
        if f is None:
            if kind == "blocks":
                path = blocks_file(self.index_dir, pkey, salt, self._parts)
                want, what = self._span_table(pkey, salt)[1], "its dictionary's term spans cover"
            else:
                path = positions_file(self.index_dir, pkey, salt, self._parts)
                if not os.path.exists(path):
                    raise ValueError(
                        f"index at {self.index_dir} has no positions sidecar — build "
                        f"with IndexConfig(positions=True) to serve phrase queries"
                    )
                want, what = self._file("blocks", pkey, salt)[1].num_rows, "its blocks file has"
            meta = pq.read_metadata(path)
            if meta.num_rows != want:
                raise ValueError(
                    f"{path} has {meta.num_rows} rows but {what} {want} — the "
                    f"posting files do not match the term dictionary"
                )
            sizes = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
            f = self._footers[key] = (path, meta, np.cumsum([0] + sizes))
        return f

    def _rows(self, kind: str, pkey: int, salt: int, rows: np.ndarray) -> pa.Table:
        """Rows ``rows`` (sorted, unique, non-empty) of one posting file: a
        zero-copy slice of a cached row group when they are one contiguous
        run in it, else a take.  Row groups are read on a miss (no file
        handle stays open) into the byte-bounded LRU, on the calling thread:
        an engine serves inside a one-CPU task, and handing a few hundred KB
        of columns to Arrow's pool of one thread per visible core made a cold
        read slower and its time less steady."""
        path, meta, starts = self._file(kind, pkey, salt)
        rg_of = np.searchsorted(starts, rows, side="right") - 1
        parts = []
        for rg in np.unique(rg_of).tolist():
            t = self._rowgroup_cache.get((path, rg))
            if t is None:
                with pq.ParquetFile(path, metadata=meta) as pf:
                    t = pf.read_row_group(rg, columns=_FILE_COLUMNS[kind], use_threads=False)
                self._rowgroup_cache[(path, rg)] = t
                self._rowgroup_cache_size += t.nbytes
                while (self._rowgroup_cache_size > self._rowgroup_cache_cap
                       and len(self._rowgroup_cache) > 1):
                    _, old = self._rowgroup_cache.popitem(last=False)
                    self._rowgroup_cache_size -= old.nbytes
            else:
                self._rowgroup_cache.move_to_end((path, rg))
            local = rows[rg_of == rg] - starts[rg]
            if local[-1] - local[0] + 1 == len(local):
                parts.append(t.slice(int(local[0]), len(local)))
            else:
                parts.append(t.take(pa.array(local)))
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    def _read_blocks(self, term: str, salt: int) -> pa.Table | None:
        """All posting-block rows of a (term, salt) run, or None."""
        span = self._span(term, salt)
        if span is None:
            return None
        return self._rows("blocks", self._pkey(term), salt, np.arange(*span))

    def _run(
        self, term: str, salt: int, blocks: np.ndarray | None = None, positions: bool = False
    ) -> tuple | None:
        """Decoded ``(docs, tf, dl[, pos_flat])`` of one (term, salt) run —
        all of its blocks, or the block numbers ``blocks`` (sorted) — or None
        when the term has no run in that salt.  The positions sidecar is
        row-aligned with the blocks, so both reads use the same rows."""
        span = self._span(term, salt)
        if span is None:
            return None
        rows = np.arange(*span) if blocks is None else span[0] + blocks
        pkey = self._pkey(term)
        d, f, L = decode_blocks_table(self._rows("blocks", pkey, salt, rows))
        if not positions:
            return d, f, L
        pos = decode_positions_stream(self._rows("positions", pkey, salt, rows)["positions"], f)
        return d, f, L, pos

    def preload_terms(self, terms: list[str]) -> None:
        """Warm the contribution (and postings) caches for a term list."""
        for t in dict.fromkeys(terms):
            self._term_contribution(t)

    def load_postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full decoded postings of a term, doc-sorted:
        (doc_ids int64, tf int64, dl int64).  LRU-cached per term (a batch
        query workload hits the same hot terms repeatedly)."""
        cached = self._postings_cache.get(term)
        if cached is not None:
            self._postings_cache.move_to_end(term)
            return cached
        runs = [r for s in self._salts(term) if (r := self._run(term, s)) is not None]
        result = _merge_runs(runs, 3)
        self._postings_cache[term] = result
        self._postings_cache_size += len(result[0])
        while self._postings_cache_size > self._postings_cache_cap and len(self._postings_cache) > 1:
            _, old = self._postings_cache.popitem(last=False)
            self._postings_cache_size -= len(old[0])
        return result

    def load_postings_with_positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full decoded postings of a term WITH positions, doc-sorted:
        ``(doc_ids, tf, dl, pos_flat)`` where posting i's positions are the
        ``tf[i]`` values of ``pos_flat`` starting at ``cumsum(tf)[i-1]``.
        LRU-cached per term (phrase workloads hit the same terms)."""
        cached = self._positions_cache.get(term)
        if cached is not None:
            self._positions_cache.move_to_end(term)
            return cached
        runs = [r for s in self._salts(term) if (r := self._run(term, s, positions=True)) is not None]
        result = _merge_runs(runs, 4)
        self._positions_cache[term] = result
        self._positions_cache_size += len(result[3]) + len(result[0])
        while (
            self._positions_cache_size > self._positions_cache_cap
            and len(self._positions_cache) > 1
        ):
            _, old = self._positions_cache.popitem(last=False)
            self._positions_cache_size -= len(old[3]) + len(old[0])
        return result

    def _positional_for_docs(
        self, term: str, docs_sel: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Positional postings for exactly the SELECTED docs of a term —
        decodes only the posting blocks containing them (located with the
        block-max skip metadata), so a phrase query with one hot term never
        decodes the hot term's full position stream (the positions analogue
        of WAND's block skipping).  Returns ``(docs, tf, dl, pos_flat)``
        restricted to ``docs_sel`` (doc-sorted; ``docs ⊆ docs_sel``)."""
        runs = []
        for salt in self._salts(term):
            bm = self._block_meta(term, salt)
            if bm is None:
                continue
            last = bm[1]
            bi = np.searchsorted(last, docs_sel)  # first block whose last >= doc
            need = np.unique(bi[bi < len(last)])
            if len(need) == 0:
                continue
            run = self._run(term, salt, need, positions=True)
            runs.append(_select(run, _in_sorted(run[0], docs_sel)))
        return _merge_runs(runs, 4)

    def _block_meta(self, term: str, salt: int):
        """(prev_last, last, max_tfnorm) int64/int64/float64 arrays for one
        (term, salt) posting stream, block order — the block-max skip
        structure, read without decoding any posting."""
        key = (term, salt)
        if key in self._blockmeta_cache:
            return self._blockmeta_cache[key]
        t = self._read_blocks(term, salt)
        result = None
        if t is not None:
            last = t["last_doc"].to_numpy().astype(np.int64)
            prev = np.empty_like(last)
            prev[0] = -1
            prev[1:] = last[:-1]
            result = (prev, last, t["max_tfnorm"].to_numpy())
        self._blockmeta_cache[key] = result
        return result

    def _term_contribution(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, bm25 contribution) for one term — exact formula, shared
        with the oracle.  Contributions are query-independent, so they are
        LRU-cached alongside the raw postings (batch workloads hit the same
        hot terms repeatedly; recomputing tf_norm over a hot term's full
        posting list per query would dominate match latency)."""
        cached = self._contrib_cache.get(term)
        if cached is not None:
            self._contrib_cache.move_to_end(term)
            return cached
        docs, tfs, dls = self.load_postings(term)
        if len(docs) == 0:
            result = (docs, np.zeros(0, dtype=np.float64))
        else:
            df = len(docs)
            w = float(self.scorer.idf(df, self.n_docs))
            contrib = w * self.scorer.tf_norm(tfs, dls, self.avgdl)
            result = (docs, contrib)
        self._contrib_cache[term] = result
        self._contrib_cache_size += len(result[0])
        while self._contrib_cache_size > self._contrib_cache_cap and len(self._contrib_cache) > 1:
            _, old = self._contrib_cache.popitem(last=False)
            self._contrib_cache_size -= len(old[0])
        return result

    @staticmethod
    def _accumulate(doc_arrays: list[np.ndarray], score_arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Term-at-a-time accumulation: per-doc sums added in term order
        (the oracle's accumulation order, so float sums match bitwise)."""
        if not doc_arrays:
            z = np.zeros(0, dtype=np.int64)
            return z, np.zeros(0, dtype=np.float64)
        all_docs = np.concatenate(doc_arrays)
        all_scores = np.concatenate(score_arrays)
        uniq, inv = np.unique(all_docs, return_inverse=True)
        # bincount sums contributions in array order (= term order per doc),
        # matching the oracle's accumulation order
        sums = np.bincount(inv, weights=all_scores, minlength=len(uniq))
        return uniq, sums

    def _alive(self, docs: np.ndarray) -> np.ndarray:
        """Boolean mask of docs NOT tombstoned (all-True when no deletes)."""
        if len(self._deleted) == 0:
            return np.ones(len(docs), dtype=bool)
        return ~_in_sorted(docs, self._deleted)

    def _topk_table(
        self, docs: np.ndarray, scores: np.ndarray, k: int, offset: int = 0
    ) -> pa.Table:
        """Top-k with pagination: select the top ``offset + k``, return rows
        offset+1..offset+k with their GLOBAL rank numbers (ES ``from``/
        ``size`` semantics, reference: elasticsearch_utils.py:121).
        Tombstoned docs are dropped BEFORE selection — every ranked path
        funnels through here, so deletes are enforced centrally (WAND
        additionally filters before its threshold update)."""
        if len(self._deleted):
            m = self._alive(docs)
            docs, scores = docs[m], scores[m]
        sel = topk_indices(scores, docs, offset + k)[offset:]
        ranks = np.arange(offset + 1, offset + len(sel) + 1, dtype=np.int64)
        return _result_table(ranks, docs[sel], scores[sel])

    def _docstats_ds(self) -> pads.Dataset:
        if self._docstats is None:
            self._docstats = pads.dataset(
                os.path.join(self.index_dir, "docs"), format="parquet"
            )
        return self._docstats

    # ---------------- query surface ----------------

    def _match_scores(self, terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Scored (docs, scores) of an analyzed OR-match — the shared core of
        :meth:`match` and :meth:`match_search_after`."""
        if self.n_docs <= DENSE_ACC_LIMIT:
            # dense scatter-add: O(total postings), no sort; per-doc additions
            # still happen in term order (the oracle's accumulation order)
            acc = np.zeros(self.n_docs, dtype=np.float64)
            any_hit = False
            for term in terms:
                d, s = self._term_contribution(term)
                if len(d):
                    acc[d] += s
                    any_hit = True
            if not any_hit:
                return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
            docs = np.nonzero(acc)[0].astype(np.int64)
            return docs, acc[docs]
        doc_arrays, score_arrays = [], []
        for term in terms:
            d, s = self._term_contribution(term)
            if len(d):
                doc_arrays.append(d)
                score_arrays.append(s)
        return self._accumulate(doc_arrays, score_arrays)

    def match(self, text: str, k: int = 10, offset: int = 0) -> pa.Table:
        """Q1+Q4: analyzed BM25 match, top-k (rank, doc_id, score); ``offset``
        is ES ``from`` pagination (skip the first ``offset`` ranks)."""
        docs, scores = self._match_scores(self.analyzer.tokenize(text))
        if not len(docs):
            return _empty_result()
        return self._topk_table(docs, scores, k, offset)

    def match_search_after(
        self, text: str, k: int = 10, after: tuple[float, int] | None = None
    ) -> pa.Table:
        """ES ``search_after`` deep pagination: the top-k hits strictly AFTER
        the cursor ``after = (score, doc_id)`` (the last hit of the previous
        page) in the pinned (score desc, doc_id asc) sort.  Stateless cursor
        paging — the scale-safe alternative to ``from`` (ES caps from+size at
        10k because every shard must return offset+k rows; a cursor ships
        only k per shard at any depth).  Ranks restart at 1 per page, ES's
        behavior (the response carries no global rank).  Beyond the
        reference's surface (elasticsearch_utils.py:111-123 uses only
        match/prefix/bool); included for ES drop-in completeness."""
        docs, scores = self._match_scores(self.analyzer.tokenize(text))
        if not len(docs):
            return _empty_result()
        if after is not None:
            s_after, d_after = float(after[0]), int(after[1])
            keep = (scores < s_after) | ((scores == s_after) & (docs > d_after))
            docs, scores = docs[keep], scores[keep]
            if not len(docs):
                return _empty_result()
        return self._topk_table(docs, scores, k, 0)

    def match_wand(self, text: str, k: int = 10, offset: int = 0) -> pa.Table:
        """Q1+Q4 via block-max pruning (the WAND family, north_star): exact
        top-k identical to :meth:`match`, but only posting blocks that can
        still beat the running k-th score are decoded.

        The doc-id space is cut at every block boundary of every query
        (term, salt) stream into elementary intervals; by construction each
        interval lies entirely inside (or outside) one block per stream, so
        ``UB(interval) = Σ_terms idf·max_tfnorm(covering block)`` is a valid
        score bound for every doc in it (hot terms take the max over salt
        streams — a doc lives in exactly one).  Intervals are scored exactly
        in descending-UB chunks; once the k-th exact score θ exceeds the best
        remaining UB, no undecoded block can contribute a top-k doc.  Exact
        scores accumulate in query-term order (float-identical to match()
        and the oracle); ties at θ are kept (strict < pruning) so the
        (score desc, doc_id asc) tiebreak is preserved."""
        terms = self.analyzer.tokenize(text)
        if not terms:
            return _empty_result()
        k_eff = offset + k  # prune against the page's end, slice at the end
        if self.n_docs > DENSE_ACC_LIMIT:
            # chunk accumulator is dense over the doc-id space; partition-
            # routed serving keeps that bounded.  Out of range → full scoring.
            return self.match(text, k, offset)
        tinfo = []
        for term in terms:
            df = self.term_df(term)
            if df == 0:
                continue
            w = float(self.scorer.idf(df, self.n_docs))
            streams = []
            for salt in self._salts(term):
                bm = self._block_meta(term, salt)
                if bm is not None:
                    streams.append((salt, bm))
            if streams:
                tinfo.append((term, w, streams))
        if not tinfo:
            return _empty_result()

        # elementary intervals (lo, hi] from all block boundaries
        edges = np.unique(
            np.concatenate([bm[1] for _, _, streams in tinfo for _, bm in streams])
        )
        hi = edges
        lo = np.empty_like(edges)
        lo[0] = -1
        lo[1:] = edges[:-1]

        ub = np.zeros(len(edges), dtype=np.float64)
        for _term, w, streams in tinfo:
            term_ub = np.zeros(len(edges), dtype=np.float64)
            for _salt, (prev, last, maxtf) in streams:
                j = np.searchsorted(last, hi)
                valid = j < len(last)
                jj = np.clip(j, 0, len(last) - 1)
                covered = valid & (prev[jj] <= lo)
                term_ub = np.maximum(term_ub, np.where(covered, w * maxtf[jj], 0.0))
            ub += term_ub

        order = np.argsort(-ub, kind="stable")
        theta = -np.inf
        out_docs: list[np.ndarray] = []
        out_scores: list[np.ndarray] = []
        n_scored = 0
        decoded_blocks: dict[str, int] = {}
        total_blocks = {
            term: sum(len(bm[1]) for _s, bm in streams) for term, _w, streams in tinfo
        }
        chunk_docs = 1 << 15
        i = 0
        while i < len(order):
            if ub[order[i]] < theta:
                break
            sel = []
            span = 0
            while i < len(order) and ub[order[i]] >= theta and (not sel or span < chunk_docs):
                idx = order[i]
                sel.append(idx)
                span += int(hi[idx] - lo[idx])
                i += 1
            lo_s = lo[sel]
            hi_s = hi[sel]
            o = np.argsort(hi_s)
            lo_s, hi_s = lo_s[o], hi_s[o]

            acc = np.zeros(self.n_docs, dtype=np.float64)
            touched = np.zeros(self.n_docs, dtype=bool)

            def in_intervals(d: np.ndarray) -> np.ndarray:
                pos = np.searchsorted(hi_s, d)
                pos_c = np.clip(pos, 0, len(hi_s) - 1)
                return (pos < len(hi_s)) & (d > lo_s[pos_c])

            for term, w, streams in tinfo:  # term order → oracle-identical sums
                # a block spanning many chunks would be re-decoded per chunk;
                # once a term is (or becomes) cheaper to hold fully decoded,
                # gather from the cached contribution arrays instead
                if (
                    term in self._contrib_cache
                    or term in self._postings_cache
                    or decoded_blocks.get(term, 0) > 0.25 * total_blocks[term]
                ):
                    d, contrib_all = self._term_contribution(term)
                    inside = in_intervals(d)
                    d_in = d[inside]
                    if len(d_in):
                        acc[d_in] += contrib_all[inside]
                        touched[d_in] = True
                    continue
                for salt, (prev, last, maxtf) in streams:
                    j = np.searchsorted(last, hi_s)
                    valid = (j < len(last))
                    jj = np.clip(j, 0, len(last) - 1)
                    needed = np.unique(jj[valid & (prev[jj] <= lo_s)])
                    if len(needed) == 0:
                        continue
                    decoded_blocks[term] = decoded_blocks.get(term, 0) + len(needed)
                    d, f, L = self._run(term, salt, needed)
                    inside = in_intervals(d)
                    d_in = d[inside]
                    if len(d_in) == 0:
                        continue
                    contrib = w * self.scorer.tf_norm(f[inside], L[inside], self.avgdl)
                    acc[d_in] += contrib
                    touched[d_in] = True
            docs_c = np.nonzero(touched)[0].astype(np.int64)
            if len(self._deleted) and len(docs_c):
                # filter BEFORE the threshold update: a tombstoned doc's
                # score must never inflate θ (it would over-prune live docs)
                docs_c = docs_c[self._alive(docs_c)]
            if len(docs_c):
                out_docs.append(docs_c)
                out_scores.append(acc[docs_c])
                n_scored += len(docs_c)
                if n_scored >= k_eff:
                    all_scores = np.concatenate(out_scores)
                    theta = float(np.partition(all_scores, len(all_scores) - k_eff)[len(all_scores) - k_eff])
            # weak pruning (uniform scores) → grow chunks so the number of
            # chunk rounds stays logarithmic in the worst case
            chunk_docs *= 2
        if not out_docs:
            return _empty_result()
        return self._topk_table(np.concatenate(out_docs), np.concatenate(out_scores), k, offset)

    def match_phrase(self, text: str, k: int = 10, offset: int = 0) -> pa.Table:
        """ES ``match_phrase`` (slop=0): documents containing the analyzed
        terms at CONSECUTIVE positions, scored Lucene-style — the phrase is
        one pseudo-term with ``idf = Σ idf(df_t)`` over the query positions
        (duplicated terms count twice, as in Lucene's PhraseQuery termStats)
        and ``tf = phrase frequency``, through the index's pinned scorer.
        Requires a positional index (IndexConfig(positions=True)); pinned
        tiebreak (score desc, doc_id asc) and ES ``from`` pagination.

        Fully vectorized: candidate docs = sorted posting-list intersection,
        then per-term occurrence keys ``cand_index·2³² + (pos − i)`` are
        intersected across the m query positions — an occurrence of the full
        phrase at position p survives all m intersections."""
        if not getattr(self.config, "positions", False):
            raise ValueError(
                f"index at {self.index_dir} was built without positions "
                f"(IndexConfig.positions=False) — phrase queries need a "
                f"positional index; rebuild with positions=True"
            )
        terms = self.analyzer.tokenize(text)
        if not terms:
            return _empty_result()
        # phase 1: candidate docs from the positions-FREE postings (LRU-shared
        # with match/bool queries) — no position byte is read before the
        # conjunctive intersection has shrunk the doc set
        post = [self.load_postings(t) for t in terms]
        cand = post[0][0]
        for docs_t, _tf, _dl in post[1:]:
            cand = _intersect_sorted(cand, docs_t)
        if len(self._deleted) and len(cand):
            cand = cand[self._alive(cand)]  # before any position byte is read
        if len(cand) == 0:
            return _empty_result()
        # phase 2: positions, pruned to candidate blocks per term unless the
        # term's full positions are already cached (or the candidates cover
        # most of its postings, where pruning buys nothing)
        loaded = []
        for term, (docs_t, _tf, _dl) in zip(terms, post):
            if term in self._positions_cache or 4 * len(cand) >= len(docs_t):
                loaded.append(self.load_postings_with_positions(term))
            else:
                loaded.append(self._positional_for_docs(term, cand))
        cand, pf, dl_cand = _phrase_stats(loaded)
        hit = pf > 0
        if not hit.any():
            return _empty_result()
        # phrase idf: summed per QUERY POSITION, in query order (the oracle
        # chains the additions in the same order, so floats match bitwise);
        # df from the dictionary (global), independent of the pruned loads
        w = 0.0
        for term in terms:
            w += float(self.scorer.idf(self.term_df(term), self.n_docs))
        scores = w * self.scorer.tf_norm(pf[hit], dl_cand[hit], self.avgdl)
        return self._topk_table(cand[hit], scores, k, offset)

    def bool_must(
        self,
        content_terms: list[str],
        k: int = 10,
        keyword_eq: list[tuple[str, str]] | None = None,
        keyword_prefix: list[tuple[str, str]] | None = None,
        must_not_terms: list[str] | None = None,
        should_terms: list[str] | None = None,
        offset: int = 0,
        require_should: bool = False,
        range_clauses: list[tuple] | None = None,
        keyword_in: list[tuple[str, list[str]]] | None = None,
        minimum_should_match: int | None = None,
    ) -> pa.Table:
        """Q3: full bool query (reference: elasticsearch_utils.py:111-119 —
        the probe always carries must / should / must_not arrays, the latter
        two empty).  ``must`` content clauses are BM25-scored conjunctions;
        keyword clauses are constant-score 1.0 (ES filter-context rewrite);
        ``must_not`` terms exclude docs (sorted-set difference, no score);
        ``should`` terms add BM25 score to already-matching docs (pure-should
        queries fall back to OR semantics; ``require_should`` = ES
        minimum_should_match=1, i.e. at least one should term must hit even
        when must/keyword clauses exist).  A must_not-ONLY query is ES
        match_all minus the exclusions (constant score 1.0).  Uses
        block-level skipping: after the rarest clause fixes the candidate
        set, other clauses only decode blocks whose doc range intersects it."""
        if (not content_terms and not keyword_eq and not keyword_prefix
                and not should_terms and not range_clauses and not keyword_in):
            if not must_not_terms:
                return _empty_result()
            # match_all minus exclusions
            excluded = self._union_docs(list(must_not_terms))
            all_docs = np.arange(self.n_docs, dtype=np.int64)
            if excluded is not None:
                all_docs = all_docs[~_in_sorted(all_docs, excluded)]
            return self._topk_table(
                all_docs, np.ones(len(all_docs), dtype=np.float64), k, offset
            )

        dense = self.n_docs <= DENSE_ACC_LIMIT
        candidate: np.ndarray | None = None  # sorted unique ids (sparse path)
        cand_flags: np.ndarray | None = None  # bool[n_docs] (dense path)
        n_cand = -1

        def shrink(docs: np.ndarray) -> int:
            """Intersect the running candidate set with ``docs``; returns the
            new candidate count."""
            nonlocal candidate, cand_flags, n_cand
            if dense:
                f = np.zeros(self.n_docs, dtype=bool)
                f[docs] = True
                cand_flags = f if cand_flags is None else (cand_flags & f)
                n_cand = int(np.count_nonzero(cand_flags))
            else:
                candidate = docs if candidate is None else _intersect_sorted(candidate, docs)
                n_cand = len(candidate)
            return n_cand

        def exclude(docs: np.ndarray) -> int:
            """Remove ``docs`` (sorted) from the candidate set."""
            nonlocal candidate, cand_flags, n_cand
            if dense:
                cand_flags[docs] = False
                n_cand = int(np.count_nonzero(cand_flags))
            else:
                candidate = candidate[~_in_sorted(candidate, docs)]
                n_cand = len(candidate)
            return n_cand

        def cand_array() -> np.ndarray:
            if dense:
                return np.nonzero(cand_flags)[0].astype(np.int64)
            return candidate

        # --- phase 1: fix the candidate set (all shrinking before scoring) --
        # evaluate content terms rarest-first for candidate shrinking, but
        # ACCUMULATE (later) in clause order for float-sum identity with the
        # oracle
        infos = [(term, self.term_df(term)) for term in content_terms]
        for term, df in sorted(infos, key=lambda x: x[1]):
            if df == 0:
                return _empty_result()
            docs, _tfs, _dls = self._postings_for_candidates(term, df, cand_array, n_cand)
            if shrink(docs) == 0:
                return _empty_result()
        kw_docs: list[np.ndarray] = []
        for prefix_flag, clauses in ((False, keyword_eq), (True, keyword_prefix)):
            for field_name, value in clauses or []:
                d = self.keyword_docs(field_name, value, prefix=prefix_flag)
                kw_docs.append(d)
                if shrink(d) == 0:
                    return _empty_result()
        for field_name, values in keyword_in or []:
            # ES ``terms`` query (keyword-OR): docs matching ANY of the
            # values; ONE filter-context constant score however many values
            # hit (Lucene's constant_score rewrite of TermInSetQuery)
            parts = [self.keyword_docs(field_name, v) for v in values]
            parts = [p for p in parts if len(p)]
            if not parts:
                return _empty_result()
            d = parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
            kw_docs.append(d)
            if shrink(d) == 0:
                return _empty_result()
        for field_name, gte, lte in range_clauses or []:
            # ES range clause: filter-context, constant score 1.0 (same
            # convention as the keyword clauses)
            d = self.range_docs(field_name, gte, lte)
            kw_docs.append(d)
            if shrink(d) == 0:
                return _empty_result()
        msm = max(int(minimum_should_match or 0), 1 if require_should else 0)
        if n_cand < 0 and should_terms:
            msm = max(msm, 1)  # pure-should bool: OR semantics (ES default)
        if msm > 0 and should_terms:
            uniq_should = list(dict.fromkeys(should_terms))
            if msm == 1:
                d = self._union_docs(uniq_should)
            else:
                # ES minimum_should_match=N: count DISTINCT matching should
                # clauses per doc (term presence, not tf) and keep count >= N
                all_d = np.concatenate(
                    [self.load_postings(t)[0] for t in uniq_should]
                )
                u, cnt = np.unique(all_d, return_counts=True)
                d = u[cnt >= msm]
            if d is None or len(d) == 0 or shrink(d) == 0:
                return _empty_result()
        elif n_cand < 0:
            return _empty_result()
        for term in must_not_terms or []:
            d, _f, _L = self.load_postings(term)
            if len(d) and exclude(d) == 0:
                return _empty_result()
        if n_cand <= 0:
            return _empty_result()

        # --- phase 2: score over the final candidate set, clause order -----
        final = cand_array()
        doc_arrays, score_arrays = [], []
        for term, df in infos:
            docs, tfs, dls = self._postings_for_candidates(term, df, cand_array, n_cand)
            mask = cand_flags[docs] if dense else _in_sorted(docs, final)
            w = float(self.scorer.idf(df, self.n_docs))
            contrib = w * self.scorer.tf_norm(tfs[mask], dls[mask], self.avgdl)
            doc_arrays.append(docs[mask])
            score_arrays.append(contrib)
        for d in kw_docs:
            # mask to the final candidate set: a keyword clause can match a
            # corpus-scale doc set, and the sparse path's unique/bincount
            # would otherwise sort it all just to discard it at the end
            mask = cand_flags[d] if dense else _in_sorted(d, final)
            dm = d[mask]
            doc_arrays.append(dm)
            score_arrays.append(np.ones(len(dm), dtype=np.float64))
        for term in should_terms or []:
            d, s = self._term_contribution(term)
            if len(d) == 0:
                continue
            mask = cand_flags[d] if dense else _in_sorted(d, final)
            doc_arrays.append(d[mask])
            score_arrays.append(s[mask])
        if dense:
            # the candidate set IS the final doc set — dense scatter-add in
            # clause order, then one gather; no sort/unique round
            acc = np.zeros(self.n_docs, dtype=np.float64)
            for d, s in zip(doc_arrays, score_arrays):
                acc[d] += s
            return self._topk_table(final, acc[final], k, offset)
        docs, scores = self._accumulate(doc_arrays, score_arrays)
        keep = _in_sorted(docs, final)
        return self._topk_table(docs[keep], scores[keep], k, offset)

    def _postings_for_candidates(
        self, term: str, df: int, cand_provider, n_cand: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Choose full (LRU-cached) vs block-skipping decode: skipping
        decodes its blocks again on every call (nothing is cached per term),
        so it only wins when the candidate set is much smaller than the
        posting list AND the term isn't already cached.  ``cand_provider`` is
        a zero-arg callable yielding the sorted candidate ids (only
        materialized when skipping is chosen)."""
        if (
            n_cand < 0
            or term in self._postings_cache
            or df <= self.config.block_size
            or n_cand * 16 >= df
        ):
            return self.load_postings(term)
        return self._load_postings_skipping(term, cand_provider())

    def _load_postings_skipping(
        self, term: str, candidate: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode only blocks whose [first, last] doc range can intersect the
        candidate set (skip pointers = per-block last_doc)."""
        cand = np.sort(candidate)
        runs = []
        for salt in self._salts(term):
            bm = self._block_meta(term, salt)
            if bm is None:
                continue
            # block b covers (prev[b], last[b]] within this salt run
            prev, last, _maxtf = bm
            lo_idx = np.searchsorted(cand, prev, side="right")
            hi_idx = np.searchsorted(cand, last, side="right")
            wanted = np.nonzero(hi_idx > lo_idx)[0]
            if len(wanted):
                runs.append(self._run(term, salt, wanted))
        return _merge_runs(runs, 3)

    def prefix_content(self, prefix: str, k: int = 10, offset: int = 0) -> pa.Table:
        """Q2 on the analyzed field: term-dictionary range scan → OR of
        postings, constant score 1.0 (Lucene CONSTANT_SCORE_REWRITE)."""
        return self._constant_score_union(self.expand_prefix(prefix), k, offset)

    def wildcard_content(self, pattern: str, k: int = 10, offset: int = 0) -> pa.Table:
        """ES ``wildcard`` query on the analyzed field: ``*`` = any token-char
        run, ``?`` = one token char; dictionary regex scan → constant-score
        OR (the ES/Lucene default multi-term rewrite)."""
        return self._constant_score_union(self.expand_wildcard(pattern), k, offset)

    def fuzzy_content(
        self,
        term: str,
        k: int = 10,
        offset: int = 0,
        max_edits: int = 1,
        prefix_length: int = 0,
        transpositions: bool = True,
    ) -> pa.Table:
        """ES ``fuzzy`` query: dictionary terms within ``max_edits`` of
        ``term`` (OSA when ``transpositions``, Lucene's default; plain
        Levenshtein otherwise — the SQL-oracle-replayable flavor), optional
        exact-prefix requirement, constant-score OR rewrite."""
        return self._constant_score_union(
            self.expand_fuzzy(term, max_edits, prefix_length, transpositions), k, offset
        )

    def _constant_score_union(self, terms: list[str], k: int, offset: int) -> pa.Table:
        """OR of the expanded terms' postings, constant score 1.0."""
        docs = self._union_docs(terms)
        if docs is None:
            return _empty_result()
        return self._topk_table(docs, np.ones(len(docs), dtype=np.float64), k, offset)

    def _union_docs(self, terms: list[str]) -> np.ndarray | None:
        """Sorted unique union of the terms' doc ids (dense-flag path when
        the id space fits; sparse otherwise)."""
        if self.n_docs <= DENSE_ACC_LIMIT:
            flags = np.zeros(self.n_docs, dtype=bool)
            hit = False
            for term in terms:
                d, _, _ = self.load_postings(term)
                if len(d):
                    flags[d] = True
                    hit = True
            if not hit:
                return None
            docs = np.nonzero(flags)[0].astype(np.int64)
            return docs[self._alive(docs)] if len(self._deleted) else docs
        doc_sets = [d for term in terms for d, _, _ in [self.load_postings(term)] if len(d)]
        if not doc_sets:
            return None
        docs = np.unique(np.concatenate(doc_sets))
        return docs[self._alive(docs)] if len(self._deleted) else docs

    def _vocabulary(self) -> tuple[pa.Array, np.ndarray]:
        """The sorted, deduplicated vocabulary of every (partition, salt)
        dictionary as Arrow and numpy arrays, built once per engine (sorted
        by code point, the order ``_prefix_upper_bound`` assumes)."""
        if self._vocab is None:
            cols = [
                self._dict_table(pkey, salt)["term"]
                for pkey in range(self.config.num_partitions)
                for salt in range(self.config.num_salts)
            ]
            v = pc.unique(pa.chunked_array(cols, pa.string()))
            v = v.take(pc.sort_indices(v))
            self._vocab = (v, v.to_numpy(zero_copy_only=False))
        return self._vocab

    def _prefix_range(self, prefix: str) -> tuple[int, int]:
        """[lo, hi) of the vocabulary terms that start with ``prefix``."""
        v = self._vocabulary()[1]
        ub = _prefix_upper_bound(prefix)
        return int(np.searchsorted(v, prefix)), len(v) if ub is None else int(np.searchsorted(v, ub))

    def expand_prefix(self, prefix: str) -> list[str]:
        """All dictionary terms with the given prefix, sorted: two binary
        searches over the vocabulary."""
        lo, hi = self._prefix_range(prefix)
        return self._vocabulary()[1][lo:hi].tolist()

    def _expand(self, key: tuple, prefix: str, keep) -> list[str]:
        """Sorted vocabulary terms starting with ``prefix`` that
        ``keep(arrow_terms, numpy_terms) -> bool mask`` selects; cached per
        ``key`` (batch workloads repeat patterns)."""
        cached = self._expansion_cache.get(key)
        if cached is None:
            lo, hi = self._prefix_range(prefix)
            col, arr = (x[lo:hi] for x in self._vocabulary())
            cached = arr[keep(col, arr)].tolist()
            if len(self._expansion_cache) < 10_000:
                self._expansion_cache[key] = cached
        return cached

    def expand_wildcard(self, pattern: str) -> list[str]:
        """Dictionary terms matching an ES wildcard pattern (``*``/``?``):
        one regex over the vocabulary range of the pattern's literal
        prefix."""
        regex = wildcard_regex(pattern)
        return self._expand(
            ("wild", pattern),
            re.match(r"[^*?]*", pattern).group(),
            lambda col, _arr: pc.match_substring_regex(col, regex).to_numpy(zero_copy_only=False),
        )

    def expand_fuzzy(
        self,
        term: str,
        max_edits: int = 1,
        prefix_length: int = 0,
        transpositions: bool = True,
    ) -> list[str]:
        """Dictionary terms within ``max_edits`` (ES ``fuzzy``): one
        vectorized banded DP over the vocabulary range of the required
        ``prefix_length`` prefix."""
        from librecatastro_ray.functions.editdist import osa_within

        return self._expand(
            ("fuzzy", term, max_edits, prefix_length, transpositions),
            term[:prefix_length],
            lambda _col, arr: osa_within(arr, term, max_edits, transpositions),
        )

    def terms_agg(
        self,
        field: str,
        hits: np.ndarray,
        size: int = 10,
    ) -> pa.Table:
        """ES ``terms`` aggregation: value counts of a keyword field over a
        query's FULL hit set (ES aggs see every matching doc, not the top-k
        page).  ``hits`` is the sorted doc-id array of the query (from
        ``_union_docs`` / a bool evaluation — already tombstone-filtered).

        Streams the doc store in Arrow batches, masks membership with a
        searchsorted against the sorted hit set, and value-counts per batch
        (never materializes (doc, value) rows for non-hits) — the same
        shape a corpus-scale agg needs.  Output pinned by
        (count desc, key asc), ES's ordering."""
        hits = np.asarray(hits, dtype=np.int64)
        counts: dict[str, int] = {}
        scanner = self._docstats_ds().scanner(columns=["doc_id", field])
        for batch in scanner.to_batches():
            if len(batch) == 0:
                continue
            d = batch.column(0).to_numpy()
            m = _in_sorted(d, hits)
            if not m.any():
                continue
            vals = batch.column(1).filter(pa.array(m))
            vc = vals.value_counts()
            for kv in vc:
                key = kv["values"].as_py()
                counts[key] = counts.get(key, 0) + int(kv["counts"].as_py())
        order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:size]
        return pa.table(
            {
                "key": pa.array([k for k, _ in order], pa.string()),
                "count": pa.array([c for _, c in order], pa.int64()),
            }
        )

    def match_hits(self, text: str) -> np.ndarray:
        """ALL doc ids matching a match query (OR union, tombstone-filtered,
        unranked) — the hit set ES aggregations run over."""
        docs = self._union_docs(self.analyzer.tokenize(text))
        return np.zeros(0, dtype=np.int64) if docs is None else docs

    def stats_agg(self, field: str, hits: np.ndarray) -> pa.Table:
        """ES ``stats`` metric aggregation over an integer doc-store field:
        count / sum / min / max across a query's FULL hit set, via the same
        streamed sorted-membership doc-store scan as :meth:`terms_agg`
        (per-batch numpy reductions; hit values never materialize).  avg is
        sum/count, left to the caller so the output stays integer-exact.
        Beyond the reference's surface (it only reads hits.total); included
        for ES drop-in completeness."""
        hits = np.asarray(hits, dtype=np.int64)
        n = 0
        total = 0
        mn: int | None = None
        mx: int | None = None
        scanner = self._docstats_ds().scanner(columns=["doc_id", field])
        for batch in scanner.to_batches():
            if len(batch) == 0:
                continue
            d = batch.column(0).to_numpy()
            m = _in_sorted(d, hits)
            if not m.any():
                continue
            v = batch.column(1).to_numpy()[m]
            n += len(v)
            total += int(v.sum())
            bmn, bmx = int(v.min()), int(v.max())
            mn = bmn if mn is None else min(mn, bmn)
            mx = bmx if mx is None else max(mx, bmx)
        return pa.table(
            {
                "key": pa.array(["count", "sum", "min", "max"], pa.string()),
                "count": pa.array(
                    [n, total, mn if mn is not None else 0,
                     mx if mx is not None else 0],
                    pa.int64(),
                ),
            }
        )

    def sort_by_field(
        self,
        text: str,
        field: str,
        k: int = 10,
        ascending: bool = True,
        offset: int = 0,
    ) -> pa.Table:
        """ES ``sort`` by an arbitrary doc-store field: the match's FULL hit
        set ordered by the field instead of relevance (ES leaves ``_score``
        null when sorting — no score column here), ties pinned by doc_id
        asc.  Streams the doc store in Arrow batches and keeps only hit rows
        (hit-scale memory, corpus-scale streaming — the same shape as
        :meth:`terms_agg`); the final ordering is one Arrow sort over the
        hit-scale (doc_id, value) pairs.  Beyond the reference's surface
        (elasticsearch_utils.py:111-123 sorts only by _score); included for
        ES drop-in completeness."""
        hits = self.match_hits(text)
        empty = pa.table(
            {"rank": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64()),
             "sort_val": pa.array([], pa.string())}
        )
        if not len(hits):
            return empty
        ids_l: list[np.ndarray] = []
        vals_l: list[pa.Array] = []
        scanner = self._docstats_ds().scanner(columns=["doc_id", field])
        for batch in scanner.to_batches():
            if len(batch) == 0:
                continue
            d = batch.column(0).to_numpy()
            m = _in_sorted(d, hits)
            if m.any():
                ids_l.append(d[m])
                vals_l.append(batch.column(1).filter(pa.array(m)))
        if not ids_l:
            return empty
        t = pa.table(
            {
                "doc_id": pa.array(np.concatenate(ids_l), pa.int64()),
                "sort_val": pa.chunked_array(vals_l),  # NATIVE type: the sort
                # must compare field values, not their string images
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("sort_val", "ascending" if ascending else "descending"),
                ("doc_id", "ascending"),
            ],
        )
        sel = order.slice(offset, k)
        page = t.take(sel)
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(offset + 1, offset + len(page) + 1, dtype=np.int64),
                    pa.int64(),
                ),
                "doc_id": page["doc_id"],
                # string-cast AFTER sorting: stable output schema across
                # field types without perturbing numeric order
                "sort_val": page["sort_val"].cast(pa.string()),
            }
        )

    def count(self, text: str) -> int:
        """Q5: exact hits.total of a match query."""
        docs = self._union_docs(self.analyzer.tokenize(text))
        return 0 if docs is None else int(len(docs))

    def exists(self, text: str) -> bool:
        """The reference's from_elasticsearch existence probe
        (cadaster_entry.py:61-77): hits.total > 0."""
        return self.count(text) > 0

    def full_dictionary(self) -> pa.Table:
        """Global (term, df, cf): per-(partition, salt) dictionaries with the
        per-salt runs of hot terms summed — the E3 'per-term document
        frequency' statistic the reference delegates to Lucene."""
        tables = []
        for pkey in range(self.config.num_partitions):
            for salt in range(self.config.num_salts):
                t = self._dict_table(pkey, salt)
                if len(t):
                    tables.append(t)
        if not tables:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "cf": pa.array([], pa.int64())})
        allt = pa.concat_tables(tables)
        g = allt.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
        return pa.table(
            {"term": g["term"], "df": g["df_sum"].cast(pa.int64()),
             "cf": g["cf_sum"].cast(pa.int64())}
        )

    def export_postings(self) -> pa.Table:
        """Full index scan: decode every posting block back to flat
        (term, doc_id, tf) rows (used by conformance checks)."""
        terms_l, docs_l, tfs_l = [], [], []
        for pkey in range(self.config.num_partitions):
            for salt in range(self.config.num_salts):
                n_rows = self._span_table(pkey, salt)[1]
                if not n_rows:
                    continue
                bt = self._rows("blocks", pkey, salt, np.arange(n_rows))
                d, f, _L = decode_blocks_table(bt)
                # the spans tile the file in dictionary order, so posting i
                # belongs to the dictionary term whose df run covers it
                dt = self._dict_table(pkey, salt)
                terms_l.append(np.repeat(dt["term"].to_numpy(zero_copy_only=False), dt["df"].to_numpy()))
                docs_l.append(d)
                tfs_l.append(f)
        if not docs_l:
            return pa.table({"term": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64()),
                             "tf": pa.array([], pa.int64())})
        return pa.table(
            {
                "term": pa.array(np.concatenate(terms_l), pa.string()),
                "doc_id": pa.array(np.concatenate(docs_l), pa.int64()),
                "tf": pa.array(np.concatenate(tfs_l), pa.int64()),
            }
        )

    def keyword_docs(self, field_name: str, value: str, prefix: bool = False) -> np.ndarray:
        """Exact / prefix match on a keyword column (repo, path, lang,
        commit) via parquet predicate pushdown over docstats.  Cached per
        (field, value, prefix): batch workloads repeat the same keyword
        clauses, and the scatter serving path slices one global answer per
        range instead of re-reading docstats per range task."""
        ck = (field_name, value, prefix)
        cached = self._keyword_cache.get(ck)
        if cached is not None:
            self._keyword_cache.move_to_end(ck)
            return cached
        ds = self._docstats_ds()
        if prefix:
            # bounded pushdown range [value, upper) + exact refine — without
            # the upper bound a short prefix scans most of docstats
            f = pads.field(field_name) >= value
            ub = _prefix_upper_bound(value)
            if ub is not None:
                f = f & (pads.field(field_name) < ub)
            t = ds.to_table(columns=["doc_id", field_name], filter=f)
            m = pc.starts_with(t[field_name], value)
            t = t.filter(m)
        else:
            t = ds.to_table(columns=["doc_id"], filter=pads.field(field_name) == value)
        out = np.sort(t["doc_id"].to_numpy())
        self._keyword_cache[ck] = out
        self._keyword_cache_size += len(out)
        while self._keyword_cache_size > self._keyword_cache_cap and len(self._keyword_cache) > 1:
            _, old_arr = self._keyword_cache.popitem(last=False)
            self._keyword_cache_size -= len(old_arr)
        return out

    def range_docs(
        self,
        field_name: str,
        gte: int | float | str | None = None,
        lte: int | float | str | None = None,
    ) -> np.ndarray:
        """ES ``range`` filter clause on a doc-store field (numeric — e.g.
        ``dl`` — or lexicographic on keyword columns), via parquet predicate
        pushdown; same LRU as the keyword clauses (the scatter path slices
        one global answer per range)."""
        ck = (field_name, "range", gte, lte)
        cached = self._keyword_cache.get(ck)
        if cached is not None:
            self._keyword_cache.move_to_end(ck)
            return cached
        f = None
        if gte is not None:
            f = pads.field(field_name) >= gte
        if lte is not None:
            g = pads.field(field_name) <= lte
            f = g if f is None else f & g
        if f is None:
            raise ValueError("range_docs needs gte and/or lte")
        t = self._docstats_ds().to_table(columns=["doc_id"], filter=f)
        out = np.sort(t["doc_id"].to_numpy())
        self._keyword_cache[ck] = out
        self._keyword_cache_size += len(out)
        while self._keyword_cache_size > self._keyword_cache_cap and len(self._keyword_cache) > 1:
            _, old_arr = self._keyword_cache.popitem(last=False)
            self._keyword_cache_size -= len(old_arr)
        return out

    def hydrate(self, doc_ids: np.ndarray | list[int]) -> pa.Table:
        """Forward-index lookup: docstats rows for result doc ids (the
        analogue of fetching _source for hits).  Tombstoned ids return no
        row (ES GET of a deleted doc is a 404)."""
        ids = np.asarray(doc_ids, dtype=np.int64)
        if len(self._deleted):
            ids = ids[self._alive(ids)]
        ds = self._docstats_ds()
        t = ds.to_table(
            columns=["doc_id", "repo", "path", "commit", "lang", "sha256", "dl"],
            filter=pads.field("doc_id").isin(ids.tolist()),
        )
        order = pc.sort_indices(t, sort_keys=[("doc_id", "ascending")])
        return t.take(order)

    def highlight(
        self,
        doc_ids: np.ndarray | list[int],
        text: str,
        window: int = 80,
        phrase: bool = False,
        pre_tag: str = "<em>",
        post_tag: str = "</em>",
    ) -> pa.Table:
        """ES ``highlight`` (the *plain* highlighter, which RE-ANALYZES the
        field at fetch time — Lucene PlainHighlighter): for each result doc,
        a snippet of ~``window`` characters centered on the FIRST match, with
        every matching occurrence inside the snippet wrapped in the tags.
        ``phrase`` highlights only full consecutive-phrase occurrences.

        Per-row Python is deliberate and scale-safe: this runs over the
        TOP-K hit docs (result-scale), never the corpus.  Deterministic
        snippet rule (first match, window split evenly, cut at token
        boundaries already guaranteed by char arithmetic) so tests can pin
        exact strings."""
        # re-analysis needs CHAR OFFSETS, which the Analyzer protocol doesn't
        # expose — supported for the built-in analyzers by their known token
        # patterns (a custom analyzer must ship an offsets rule first)
        token_patterns = {
            "code_standard_v1": r"[a-z0-9_]+",
            "whitespace_v1": r"[^ \t\n\r\f\v]+",
        }
        pat = token_patterns.get(self.analyzer.analyzer_id)
        if pat is None:
            raise ValueError(
                f"highlight: no char-offset rule for analyzer "
                f"{self.analyzer.analyzer_id!r}"
            )
        terms = self.analyzer.tokenize(text)
        ids = np.asarray(doc_ids, dtype=np.int64)
        ds = self._docstats_ds()
        t = ds.to_table(
            columns=["doc_id", "content"],
            filter=pads.field("doc_id").isin(ids.tolist()),
        )
        content = dict(zip(t["doc_id"].to_pylist(), t["content"].to_pylist()))
        out_snip: list[str | None] = []
        token_re = re.compile(pat)
        m = len(terms)
        for d in ids.tolist():
            c = content.get(int(d)) or ""
            lowered = c.lower()
            toks = [(mt.group(), mt.start(), mt.end()) for mt in token_re.finditer(lowered)]
            spans: list[tuple[int, int]] = []
            if m and toks:
                if phrase:
                    for i in range(len(toks) - m + 1):
                        if all(toks[i + j][0] == terms[j] for j in range(m)):
                            spans.append((toks[i][1], toks[i + m - 1][2]))
                else:
                    want = set(terms)
                    spans = [(s, e) for tok, s, e in toks if tok in want]
            if not spans:
                out_snip.append(None)
                continue
            first_s, first_e = spans[0]
            half = max(0, (window - (first_e - first_s)) // 2)
            lo = max(0, first_s - half)
            hi = min(len(c), first_e + half)
            parts: list[str] = []
            cur = lo
            for s, e in spans:
                if s < lo or e > hi:
                    continue
                parts.append(c[cur:s])
                parts.append(pre_tag + c[s:e] + post_tag)
                cur = e
            parts.append(c[cur:hi])
            snippet = "".join(parts)
            if lo > 0:
                snippet = "…" + snippet
            if hi < len(c):
                snippet = snippet + "…"
            out_snip.append(snippet)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "snippet": pa.array(out_snip, pa.string()),
            }
        )


def delete_by_query(index_dir: str, query: dict) -> int:
    """ES ``_delete_by_query``: evaluate the query against a fresh engine
    and tombstone every hit.  ``query`` is the batch-query dict shape
    ({"kind": "match"|"bool_must"|"match_phrase"|"prefix_content", ...});
    k is ignored — ALL hits are deleted.  Returns how many NEW docs were
    tombstoned.  Scale note: results here are hit-scale; a corpus-scale
    predicate delete (e.g. by keyword) should use
    ``delete_docs(index_dir, engine.keyword_docs(...))`` which never ranks."""
    from librecatastro_ray.state.manifest import delete_docs, load_deleted

    eng = QueryEngine(index_dir)
    kind = query.get("kind") or "match"
    k = 1 << 62
    if kind == "match":
        hits = eng.match(query.get("text") or "", k=k)
    elif kind == "match_phrase":
        hits = eng.match_phrase(query.get("text") or "", k=k)
    elif kind == "bool_must":
        hits = eng.bool_must(
            list(query.get("must_terms") or []),
            k=k,
            keyword_eq=[tuple(p) for p in query.get("keyword_eq") or []],
            keyword_prefix=[tuple(p) for p in query.get("keyword_prefix") or []],
            must_not_terms=list(query.get("must_not_terms") or []),
            should_terms=list(query.get("should_terms") or []),
        )
    elif kind == "prefix_content":
        hits = eng.prefix_content(query.get("prefix") or "", k=k)
    else:
        raise ValueError(kind)
    before = len(load_deleted(index_dir))
    after = delete_docs(index_dir, hits["doc_id"].to_numpy())
    return after - before


def multi_match_best_fields(
    field_engines: list["QueryEngine"],
    text: str,
    k: int = 10,
    tie_breaker: float = 0.0,
    offset: int = 0,
) -> pa.Table:
    """ES ``multi_match`` (type=best_fields, the default): every field is its
    own index with its own df/dl/avgdl — exactly Lucene's per-field
    statistics — and a doc scores max(field scores) + tie_breaker × (sum of
    the other fields' scores), ES's dis_max combine.  The engines must share
    the doc-id assignment: the build assigns ids by (repo, path) only, so
    indexes built from the same keyspace with different text columns align
    by construction.  Hit-scale combine (unique + bincount over the union of
    per-field postings), top-k pinned (score desc, doc_id asc).  Beyond the
    reference's surface (elasticsearch_utils.py:111-123 queries one field);
    included for ES drop-in completeness."""
    doc_l, score_l = [], []
    for eng in field_engines:
        d, s = eng._match_scores(eng.analyzer.tokenize(text))
        if len(d):
            doc_l.append(d)
            score_l.append(s)
    if not doc_l:
        return _empty_result()
    docs = np.concatenate(doc_l)
    scores = np.concatenate(score_l)
    uniq, inv = np.unique(docs, return_inverse=True)
    total = np.bincount(inv, weights=scores, minlength=len(uniq))
    best = np.zeros(len(uniq), dtype=np.float64)
    np.maximum.at(best, inv, scores)
    final = best + tie_breaker * (total - best)
    return field_engines[0]._topk_table(uniq, final, k, offset)


QUERY_INPUT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("must_terms", pa.list_(pa.string())),
        ("prefix", pa.string()),
        ("keyword_eq", pa.list_(pa.list_(pa.string()))),
        ("keyword_prefix", pa.list_(pa.list_(pa.string()))),
        ("must_not_terms", pa.list_(pa.string())),
        ("should_terms", pa.list_(pa.string())),
        ("require_should", pa.bool_()),
        ("k", pa.int64()),
        ("from", pa.int64()),
    ]
)


def queries_to_table(queries: list[dict]) -> pa.Table:
    """Typed Arrow table for a batch-query workload.  ``from_items`` infers
    ``list<null>`` for blocks whose list fields happen to be all-empty,
    which drifts the schema across blocks (executor warnings + repeated
    schema unification); an explicit schema keeps every block identical.
    Missing keys become nulls — SearchActor treats null as empty.  A key the
    schema lacks (``after``, ``keyword_in``, ``minimum_should_match``, ...)
    raises: ``from_pylist`` would drop it and the query would silently
    answer without it."""
    for q in queries:
        unknown = sorted(set(q) - set(QUERY_INPUT_SCHEMA.names))
        if unknown:
            raise ValueError(
                f"query {q.get('query_id')!r} has fields the replica-pool path "
                f"cannot serve: {unknown} — use batch_search_scatter"
            )
    return pa.Table.from_pylist(queries, schema=QUERY_INPUT_SCHEMA)


class SearchActor:
    """Actor-pool UDF for batch query evaluation: one QueryEngine per actor,
    loaded once in __init__ (the stateful-stage fix for the reference's
    per-record connection churn, reference: cadaster_entry.py:48,57)."""

    def __init__(self, index_dir: str, preload_hot: bool = True):
        self.engine = QueryEngine(index_dir)
        if preload_hot:
            # stateful-stage setup belongs in __init__: warm the postings +
            # contribution caches for the manifest's hot terms once per actor
            # instead of on the first query that hits each of them
            self.engine.preload_terms(sorted(self.engine.hot))

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_qid, out_rank, out_doc, out_score = [], [], [], []
        for row in batch.to_pylist():
            qid = row["query_id"]
            kind = row["kind"]
            k = int(row.get("k") or 10)
            offset = int(row.get("from") or 0)
            if kind == "match":
                res = self.engine.match(row.get("text") or "", k, offset=offset)
            elif kind == "match_phrase":
                res = self.engine.match_phrase(row.get("text") or "", k, offset=offset)
            elif kind == "bool_must":
                res = self.engine.bool_must(
                    list(row.get("must_terms") or []),
                    k,
                    keyword_eq=[tuple(p) for p in row.get("keyword_eq") or []],
                    keyword_prefix=[tuple(p) for p in row.get("keyword_prefix") or []],
                    must_not_terms=list(row.get("must_not_terms") or []),
                    should_terms=list(row.get("should_terms") or []),
                    offset=offset,
                    require_should=bool(row.get("require_should") or False),
                )
            elif kind == "prefix_content":
                res = self.engine.prefix_content(row.get("prefix") or "", k, offset=offset)
            elif kind == "count":
                n = self.engine.count(row.get("text") or "")
                out_qid.append(qid)
                out_rank.append(0)
                out_doc.append(-1)
                out_score.append(float(n))
                continue
            else:
                raise ValueError(f"unknown query kind: {kind}")
            n = len(res)
            out_qid.extend([qid] * n)
            out_rank.extend(res["rank"].to_pylist())
            out_doc.extend(res["doc_id"].to_pylist())
            out_score.extend(res["score"].to_pylist())
        return pa.table(
            {
                "query_id": pa.array(out_qid, pa.int64()),
                "rank": pa.array(out_rank, pa.int64()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )


# ---------------------------------------------------------------------------
# Scatter-gather serving (doc-range sharded — the ES 5-shard model, SURVEY.md
# §1.2, re-expressed for a corpus where no single worker can hold the index)
# ---------------------------------------------------------------------------

_PROCESS_ENGINES: dict[tuple, QueryEngine] = {}


def _manifest_version(index_dir: str) -> tuple:
    """Cheap identity of the index CONTENT at this path (manifest + tombstone
    file size + mtime) — a drop + rebuild OR a delete at the same path must
    not be served from a reused worker's cached engine/postings."""
    from librecatastro_ray.state.manifest import deleted_path, manifest_path

    st = os.stat(manifest_path(index_dir))
    dpath = deleted_path(index_dir)
    dstat = (0, 0)
    if os.path.exists(dpath):
        d = os.stat(dpath)
        dstat = (d.st_size, d.st_mtime_ns)
    return (st.st_size, st.st_mtime_ns, *dstat)


def _process_engine(index_dir: str) -> QueryEngine:
    """One QueryEngine per worker process per index VERSION, shared across
    range tasks — Ray reuses worker processes, so dictionaries/block
    metadata load once; a rebuilt index gets a fresh engine."""
    key = (index_dir, _manifest_version(index_dir))
    eng = _PROCESS_ENGINES.get(key)
    if eng is None:
        _PROCESS_ENGINES.clear()  # at most one engine per process path set
        eng = QueryEngine(index_dir)
        _PROCESS_ENGINES[key] = eng
    return eng


class RangeEngine:
    """Exact query evaluation restricted to the doc-id range [lo, hi).

    A doc lives in exactly one range and all of its postings for a term sit
    inside the blocks overlapping the range (blocks are doc-sorted), so
    per-doc scores computed here equal the global engine's scores exactly —
    local top-k partials merge into the global top-k with no re-scoring.
    Memory is bounded by the range's share of postings, not the corpus.
    """

    def __init__(self, index_dir: str, lo: int, hi: int):
        self.eng = _process_engine(index_dir)
        self.lo = int(lo)
        self.hi = int(hi)
        # per-range term caches: the working set is the range's 1/R share of
        # the postings, so a batch of queries decodes each term once
        self._contrib: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._postings: dict[tuple[str, bool], tuple] = {}
        self._prefix_docs: dict[str, np.ndarray] = {}
        # this range's slice of the tombstone set, range-local indices
        dlt = self.eng._deleted
        i, j = np.searchsorted(dlt, (self.lo, self.hi))
        self._dead_local = (dlt[i:j] - self.lo).astype(np.int64)

    def _postings_range(self, term: str, positions: bool = False) -> tuple:
        """Range-restricted postings ``(docs, tf, dl[, pos_flat])``: only the
        blocks overlapping [lo, hi) are decoded (a contiguous block span —
        blocks are doc-sorted), so a range task's decode is its share of the
        postings, not the term's whole list (32 ranges × full decodes would
        amplify the work by the range count)."""
        cached = self._postings.get((term, positions))
        if cached is not None:
            return cached
        eng = self.eng
        if positions and not getattr(eng.config, "positions", False):
            raise ValueError(
                f"index at {eng.index_dir} was built without positions — "
                f"phrase queries need IndexConfig(positions=True)"
            )
        runs = []
        for salt in eng._salts(term):
            bm = eng._block_meta(term, salt)
            if bm is None:
                continue
            prev, last, _maxtf = bm
            wanted = np.nonzero((last >= self.lo) & (prev < self.hi - 1))[0]
            if len(wanted) == 0:
                continue
            run = eng._run(term, salt, wanted, positions)
            runs.append(_select(run, (run[0] >= self.lo) & (run[0] < self.hi)))
        result = _merge_runs(runs, 4 if positions else 3)
        self._postings[(term, positions)] = result
        return result

    def match_phrase(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Range-local phrase top-k: a doc lives wholly in one range, so
        phrase frequencies computed here are exact; idf uses GLOBAL df, so
        partials merge into the global top-k without re-scoring."""
        terms = self.eng.analyzer.tokenize(text)
        if not terms:
            return self._EMPTY
        loaded = [self._postings_range(t, positions=True) for t in terms]
        cand, pf, dl_cand = _phrase_stats(loaded)
        hit = pf > 0
        if len(self._dead_local) and len(cand):
            hit &= ~_in_sorted(cand - self.lo, self._dead_local)
        if not hit.any():
            return self._EMPTY
        w = 0.0
        for term in terms:
            w += float(self.eng.scorer.idf(self.eng.term_df(term), self.eng.n_docs))
        scores = w * self.eng.scorer.tf_norm(pf[hit], dl_cand[hit], self.eng.avgdl)
        docs = cand[hit]
        sel = topk_indices(scores, docs, k)
        return docs[sel], scores[sel]

    def _contribution_range(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        cached = self._contrib.get(term)
        if cached is not None:
            return cached
        docs, tfs, dls = self._postings_range(term)
        if len(docs) == 0:
            result = (docs, np.zeros(0, dtype=np.float64))
        else:
            df = self.eng.term_df(term)  # GLOBAL df → exact idf
            w = float(self.eng.scorer.idf(df, self.eng.n_docs))
            contrib = w * self.eng.scorer.tf_norm(tfs, dls, self.eng.avgdl)
            result = (docs, contrib)
        self._contrib[term] = result
        return result

    def _acc(self) -> np.ndarray:
        return np.zeros(self.hi - self.lo, dtype=np.float64)

    _EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

    def match(
        self,
        text: str,
        k: int,
        after: tuple[float, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """→ (doc_ids, scores) of the range-local top-k (plain numpy — one
        Arrow table per query per range would dominate batch evaluation).
        ``after`` is the ES search_after cursor (score, doc_id): candidates
        at-or-above it are dropped BEFORE the top-k selection — a doc lives
        wholly in one range, so per-range cursor filtering + the unchanged
        global merge reproduces the single-engine page exactly (filtering a
        range's top-k after selection would be wrong: a range whose entire
        top-k sits above the cursor still owes its NEXT k docs)."""
        acc = self._acc()
        hit = False
        for term in self.eng.analyzer.tokenize(text):
            d, s = self._contribution_range(term)
            if len(d):
                acc[d - self.lo] += s
                hit = True
        if not hit:
            return self._EMPTY
        if len(self._dead_local):
            acc[self._dead_local] = 0.0  # tombstoned docs never rank
        docs = np.nonzero(acc)[0].astype(np.int64) + self.lo
        scores = acc[docs - self.lo]
        if after is not None:
            s_a, d_a = float(after[0]), int(after[1])
            keep = (scores < s_a) | ((scores == s_a) & (docs > d_a))
            docs, scores = docs[keep], scores[keep]
        sel = topk_indices(scores, docs, k)
        return docs[sel], scores[sel]

    def _keyword_range(self, field_name: str, value: str, prefix: bool) -> np.ndarray:
        """Keyword clause docs restricted to [lo, hi) — the global answer is
        computed (and cached) ONCE per worker process by the shared engine;
        each range task slices its span with two searchsorteds instead of
        re-reading docstats per range."""
        d = self.eng.keyword_docs(field_name, value, prefix=prefix)
        i, j = np.searchsorted(d, (self.lo, self.hi))
        return d[i:j]

    def bool_must(
        self,
        terms: list[str],
        k: int,
        keyword_eq: list[tuple[str, str]] | None = None,
        keyword_prefix: list[tuple[str, str]] | None = None,
        must_not_terms: list[str] | None = None,
        should_terms: list[str] | None = None,
        require_should: bool = False,
        keyword_in: list[tuple[str, list[str]]] | None = None,
        minimum_should_match: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full bool query over the range: per-doc scores equal the global
        engine's exactly (contributions use GLOBAL df/avgdl), so partials
        merge into the global top-k without re-scoring."""
        acc = self._acc()
        nt = np.zeros(self.hi - self.lo, dtype=np.int32)
        n_clauses = 0
        for term in terms:
            d, s = self._contribution_range(term)
            if len(d) == 0:
                return self._EMPTY
            acc[d - self.lo] += s
            nt[d - self.lo] += 1
            n_clauses += 1
        for prefix_flag, clauses in ((False, keyword_eq), (True, keyword_prefix)):
            for field_name, value in clauses or []:
                d = self._keyword_range(field_name, value, prefix_flag)
                if len(d) == 0:
                    return self._EMPTY
                acc[d - self.lo] += 1.0
                nt[d - self.lo] += 1
                n_clauses += 1
        for field_name, values in keyword_in or []:
            # ES terms query: keyword-OR, ONE constant score for the set
            parts = [self._keyword_range(field_name, v, False) for v in values]
            parts = [p for p in parts if len(p)]
            if not parts:
                return self._EMPTY
            d = parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
            acc[d - self.lo] += 1.0
            nt[d - self.lo] += 1
            n_clauses += 1
        msm = max(
            int(minimum_should_match or 0), 1 if require_should else 0
        )
        should_cnt = None
        if should_terms:
            # score EVERY occurrence (clause order, like the direct engine),
            # count each DISTINCT term once for the msm threshold
            should_cnt = np.zeros(self.hi - self.lo, dtype=np.int32)
            seen: set[str] = set()
            for term in should_terms:
                d, s = self._contribution_range(term)
                if len(d):
                    acc[d - self.lo] += s
                    if term not in seen:
                        should_cnt[d - self.lo] += 1
                seen.add(term)
        if n_clauses > 0:
            ok = nt == n_clauses
            if msm > 0 and should_cnt is not None:
                ok = ok & (should_cnt >= msm)  # minimum_should_match=N
        elif should_cnt is not None:
            # pure-should: OR semantics (ES default msm=1), or explicit N
            ok = should_cnt >= max(msm, 1)
        elif must_not_terms:
            # match_all minus exclusions (constant score 1.0)
            ok = np.ones(self.hi - self.lo, dtype=bool)
            acc[:] = 1.0
        else:
            return self._EMPTY
        for term in must_not_terms or []:
            d, _f, _L = self._postings_range(term)
            if len(d):
                ok[d - self.lo] = False
        if len(self._dead_local):
            ok[self._dead_local] = False
        cand = np.nonzero(ok)[0]
        if len(cand) == 0:
            return self._EMPTY
        docs = cand.astype(np.int64) + self.lo
        sel = topk_indices(acc[cand], docs, k)
        return docs[sel], acc[cand][sel]

    def union(self, terms: list[str]) -> np.ndarray:
        """Live range docs holding any of ``terms``: count queries and the
        constant-score rewrite of prefix/wildcard/fuzzy expansions."""
        flags = np.zeros(self.hi - self.lo, dtype=bool)
        for term in terms:
            d = self._postings_range(term)[0]
            flags[d - self.lo] = True
        if len(self._dead_local):
            flags[self._dead_local] = False
        return np.nonzero(flags)[0].astype(np.int64) + self.lo

    def prefix_union(self, prefix: str) -> np.ndarray:
        """:meth:`union` of the terms starting with ``prefix``, cached per
        prefix."""
        cached = self._prefix_docs.get(prefix)
        if cached is None:
            cached = self._prefix_docs[prefix] = self.union(self.eng.expand_prefix(prefix))
        return cached


_PROCESS_RANGE_ENGINES: "OrderedDict[tuple[str, int, int], RangeEngine]" = OrderedDict()
# a long-lived worker executes tasks for many ranges over a session; each
# cached RangeEngine pins its range-share of decoded postings, so bound the
# set (LRU) to keep per-process memory at a few range-shares, not all of them
_PROCESS_RANGE_ENGINES_CAP = 8


def _process_range_engine(index_dir: str, lo: int, hi: int) -> "RangeEngine":
    """One RangeEngine per (index_dir, range) per worker process (LRU-capped)
    — query CHUNKS of the same range reuse the decoded range-share postings
    instead of re-reading them per chunk (Ray reuses worker processes)."""
    key = (index_dir, _manifest_version(index_dir), lo, hi)
    rng = _PROCESS_RANGE_ENGINES.get(key)
    if rng is None:
        rng = RangeEngine(index_dir, lo, hi)
        _PROCESS_RANGE_ENGINES[key] = rng
        evictions = 0
        while len(_PROCESS_RANGE_ENGINES) > _PROCESS_RANGE_ENGINES_CAP:
            _PROCESS_RANGE_ENGINES.popitem(last=False)
            evictions += 1
        _record_range_cache(0, 1, evictions)
    else:
        _PROCESS_RANGE_ENGINES.move_to_end(key)
        _record_range_cache(1, 0, 0)
    return rng


# --- range-engine cache observability ---------------------------------------
# The replica-pool vs scatter crossover (LCRAY_SCATTER_MIN_DOCS) is a cache
# question: scatter wins once per-process engines stop thrashing.  These
# counters measure that directly — a low hit rate at a given corpus size
# means chunks are rebuilding engines instead of reusing them.  bench.py
# creates the named collector actor and emits the totals in its JSON line.

RANGE_CACHE_STATS_ACTOR = "lcray_range_cache_stats"
_RANGE_CACHE_LOCAL = {"hits": 0, "misses": 0, "evictions": 0}
_RANGE_CACHE_HANDLE = None


def _record_range_cache(hits: int, misses: int, evictions: int) -> None:
    """Count a range-engine cache event process-locally and fire-and-forget
    the delta to the named collector actor when one exists (absent — tests,
    direct-engine paths — counting stays local and free).  Event frequency
    is one per (range × chunk) task row, not per query, so the actor call
    is never on a hot loop.  Delivery is async: a report submitted by the
    last task can in principle land after a driver reads the totals, so
    readers treat the numbers as observability, not an exact invariant."""
    global _RANGE_CACHE_HANDLE
    _RANGE_CACHE_LOCAL["hits"] += hits
    _RANGE_CACHE_LOCAL["misses"] += misses
    _RANGE_CACHE_LOCAL["evictions"] += evictions
    import ray

    if _RANGE_CACHE_HANDLE is None:
        if not ray.is_initialized():
            return
        try:
            _RANGE_CACHE_HANDLE = ray.get_actor(RANGE_CACHE_STATS_ACTOR)
        except ValueError:
            return
    try:
        _RANGE_CACHE_HANDLE.report.remote(hits, misses, evictions)
    except Exception:
        _RANGE_CACHE_HANDLE = None


class _RangeCacheStats:
    """Named zero-CPU collector actor: workers report LRU deltas, the bench
    driver reads the totals after a workload."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def report(self, hits: int, misses: int, evictions: int) -> None:
        self.hits += hits
        self.misses += misses
        self.evictions += evictions

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / total, 4) if total else None,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0


_RANGE_CACHE_COLLECTOR = None  # driver-side anchor: named actors are
# ref-counted, so the collector must stay referenced for the session


def start_range_cache_stats():
    """Driver-side: create (or fetch) the named collector and zero it.
    Workers discover it lazily on their next cache event."""
    global _RANGE_CACHE_COLLECTOR
    import ray

    try:
        handle = ray.get_actor(RANGE_CACHE_STATS_ACTOR)
    except ValueError:
        handle = (
            ray.remote(num_cpus=0)(_RangeCacheStats)
            .options(name=RANGE_CACHE_STATS_ACTOR)
            .remote()
        )
    _RANGE_CACHE_COLLECTOR = handle
    ray.get(handle.reset.remote())
    return handle


def range_cache_stats() -> dict | None:
    """Driver-side: totals from the named collector, or None when no
    collector was started (counters then only exist process-locally)."""
    import ray

    try:
        handle = ray.get_actor(RANGE_CACHE_STATS_ACTOR)
    except ValueError:
        return None
    return ray.get(handle.stats.remote())


def _eval_range_batch(
    batch: pa.Table, *, index_dir: str, bounds: list[int], k_cap: int, merge_buckets: int
) -> pa.Table:
    """map_batches task: evaluate every query against one doc range; emit
    top-k partials (plus per-range counts for count-kind queries)."""
    import json

    qid_l, doc_l, score_l, kind_l, k_l, frm_l = [], [], [], [], [], []
    for row in batch.to_pylist():
        rid = int(row["range_id"])
        lo, hi = bounds[rid], bounds[rid + 1]
        rng = _process_range_engine(index_dir, lo, hi)
        for q in json.loads(row["queries_json"]):
            qid, kind = q["query_id"], q["kind"]
            q_k = int(q.get("k") or 10)
            q_frm = int(q.get("from") or 0)
            # ranges return the top (from + k); the merge slices the offset
            k = q_k + q_frm
            if kind == "match":
                after = q.get("after")
                docs, scores = rng.match(
                    q.get("text") or "",
                    min(k, k_cap),
                    after=tuple(after) if after is not None else None,
                )
            elif kind == "match_phrase":
                docs, scores = rng.match_phrase(q.get("text") or "", min(k, k_cap))
            elif kind == "bool_must":
                docs, scores = rng.bool_must(
                    list(q.get("must_terms") or []),
                    min(k, k_cap),
                    keyword_eq=[tuple(p) for p in q.get("keyword_eq") or []],
                    keyword_prefix=[tuple(p) for p in q.get("keyword_prefix") or []],
                    must_not_terms=list(q.get("must_not_terms") or []),
                    should_terms=list(q.get("should_terms") or []),
                    require_should=bool(q.get("require_should") or False),
                    keyword_in=[
                        (p[0], list(p[1])) for p in q.get("keyword_in") or []
                    ],
                    minimum_should_match=q.get("minimum_should_match"),
                )
            elif kind == "prefix_content":
                # constant score → lowest ids win
                docs = rng.prefix_union(q.get("prefix") or "")[: min(k, k_cap)]
                scores = np.ones(len(docs), dtype=np.float64)
            elif kind in ("wildcard", "fuzzy"):
                # expansion from the PROCESS-cached dictionaries (same on
                # every range of a worker; the per-pattern result is LRU'd
                # in the engine's expansion cache)
                if kind == "wildcard":
                    terms_x = rng.eng.expand_wildcard(q.get("pattern") or "")
                else:
                    terms_x = rng.eng.expand_fuzzy(
                        q.get("term") or "",
                        int(q.get("max_edits") or 1),
                        int(q.get("prefix_length") or 0),
                        bool(q.get("transpositions", True)),
                    )
                docs = rng.union(terms_x)[: min(k, k_cap)]
                scores = np.ones(len(docs), dtype=np.float64)
            elif kind == "count":
                n = len(rng.union(rng.eng.analyzer.tokenize(q.get("text") or "")))
                docs = np.array([-1], dtype=np.int64)
                scores = np.array([float(n)], dtype=np.float64)
            else:
                raise ValueError(kind)
            if len(docs):
                qid_l.append(np.full(len(docs), qid, dtype=np.int64))
                doc_l.append(docs)
                score_l.append(scores)
                kind_l.extend([kind] * len(docs))
                # per-row k/from: the merge needs them and the query dict is
                # in hand HERE — no driver-side query-id→k map shipped to
                # every task (that map is workload-sized)
                k_l.append(np.full(len(docs), q_k, dtype=np.int64))
                frm_l.append(np.full(len(docs), q_frm, dtype=np.int64))
    if not qid_l:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "qbucket": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64()),
                         "kind": pa.array([], pa.string()),
                         "k": pa.array([], pa.int64()),
                         "from": pa.array([], pa.int64())})
    qids = np.concatenate(qid_l)
    return pa.table({"query_id": pa.array(qids, pa.int64()),
                     "qbucket": pa.array(qids % merge_buckets, pa.int64()),
                     "doc_id": pa.array(np.concatenate(doc_l), pa.int64()),
                     "score": pa.array(np.concatenate(score_l), pa.float64()),
                     "kind": pa.array(kind_l, pa.string()),
                     "k": pa.array(np.concatenate(k_l), pa.int64()),
                     "from": pa.array(np.concatenate(frm_l), pa.int64())})


def _merge_query_buckets(group: pa.Table) -> pa.Table:
    """map_groups over a BUCKET of queries (``query_id % merge_buckets``):
    merge every member query's per-range partials into its final top-k (or
    summed count) in one vectorized pass — one lexsort over the bucket's
    rows plus segmented position math, instead of one Python map_groups
    call per query (the per-group-overhead cliff at millions of queries).
    The pinned (score desc, doc_id asc) tiebreak is identical to
    :func:`topk_indices`, so results match the single-engine path
    bit-for-bit."""
    qids = group["query_id"].to_numpy().astype(np.int64)
    docs = group["doc_id"].to_numpy().astype(np.int64)
    scores = group["score"].to_numpy().astype(np.float64)
    kinds = group["kind"].to_numpy(zero_copy_only=False)
    out_q, out_r, out_d, out_s = [], [], [], []
    is_count = kinds == "count"
    if is_count.any():
        cq, cs = qids[is_count], scores[is_count]
        order = np.argsort(cq, kind="stable")
        cq, cs = cq[order], cs[order]
        seg = np.nonzero(np.concatenate([[True], cq[1:] != cq[:-1]]))[0]
        out_q.append(cq[seg])
        out_r.append(np.zeros(len(seg), dtype=np.int64))
        out_d.append(np.full(len(seg), -1, dtype=np.int64))
        out_s.append(np.add.reduceat(cs, seg))
    ranked = ~is_count
    if ranked.any():
        rq, rd, rs = qids[ranked], docs[ranked], scores[ranked]
        rk = group["k"].to_numpy().astype(np.int64)[ranked]
        rf = group["from"].to_numpy().astype(np.int64)[ranked]
        order = np.lexsort((rd, -rs, rq))  # qid asc, score desc, doc_id asc
        rq, rd, rs = rq[order], rd[order], rs[order]
        rk, rf = rk[order], rf[order]
        starts = np.concatenate([[True], rq[1:] != rq[:-1]])
        seg_start = np.nonzero(starts)[0][np.cumsum(starts) - 1]
        pos = np.arange(len(rq), dtype=np.int64) - seg_start
        keep = (pos >= rf) & (pos < rf + rk)
        out_q.append(rq[keep])
        out_r.append(pos[keep] + 1)
        out_d.append(rd[keep])
        out_s.append(rs[keep])
    if not out_q:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    return pa.table({"query_id": pa.array(np.concatenate(out_q), pa.int64()),
                     "rank": pa.array(np.concatenate(out_r), pa.int64()),
                     "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                     "score": pa.array(np.concatenate(out_s), pa.float64())})


# chunks of one range grouped into a single task: bounds per-task JSON bytes
# (chunk_size × this × ~200 B) while amortizing the range-engine build over
# the group — the at-scale knob between failure granularity and decode reuse
_CHUNKS_PER_TASK = 8


def batch_search_scatter(
    index_dir: str,
    queries: list[dict],
    n_ranges: int = 8,
    chunk_size: int = 2048,
    output_dir: str | None = None,
) -> pa.Table:
    """Scatter-gather batch evaluation: every query runs against ``n_ranges``
    doc-id ranges in parallel (each range task touches only its slice of the
    postings — the memory-bounded serving path for corpora whose index
    exceeds one worker), partial top-k/count rows shuffle by ``query_id``
    (a tiny exchange: ≤ ranges × k rows per query) and merge exactly.

    Results are identical to running each query on a single full engine:
    per-doc scores are computed whole within the doc's range and the merge
    reuses the pinned (score desc, doc_id asc) top-k selection.
    """
    import json

    import ray.data

    if not queries:
        if output_dir is not None:
            os.makedirs(output_dir, exist_ok=True)
            return pa.table({"rows_written": pa.array([0], pa.int64()),
                             "output_dir": pa.array([output_dir], pa.string())})
        return pa.table(
            {"query_id": pa.array([], pa.int64()), "rank": pa.array([], pa.int64()),
             "doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
        )
    manifest = load_manifest(index_dir)
    n_docs = int(manifest["n_docs"])
    n_ranges = max(1, min(n_ranges, max(1, n_docs)))
    bounds = [round(i * n_docs / n_ranges) for i in range(n_ranges)] + [n_docs]
    k_cap = max(
        (int(q.get("k") or 10) + int(q.get("from") or 0) for q in queries), default=10
    )
    # chunk the query list so no single work item (or range task) carries the
    # whole workload as one JSON blob — at millions of queries the driver
    # serializes per-chunk and range tasks pipeline over chunks
    chunks = [
        json.dumps(queries[i : i + chunk_size])
        for i in range(0, len(queries), chunk_size)
    ]
    # RANGE-MAJOR row order + multi-chunk blocks: all chunks of a range are
    # contiguous and a block carries up to _CHUNKS_PER_TASK of them, so one
    # task evaluates consecutive chunks of the SAME range and reuses its
    # process-cached RangeEngine deterministically.  The chunk-major layout
    # this replaces left engine reuse to scheduler placement — the bench's
    # range-engine cache counters measured a 3% hit rate (each chunk wave
    # re-decoded nearly every range's postings); range-major makes the reuse
    # intra-task.  A block straddling two ranges (when chunk count isn't a
    # multiple of the group size) just builds both engines — harmless.
    rows = [
        {"range_id": r, "queries_json": cj}
        for r in range(n_ranges)
        for cj in chunks
    ]
    n_blocks = max(n_ranges, -(-len(rows) // _CHUNKS_PER_TASK))
    work = ray.data.from_items(rows, override_num_blocks=n_blocks)
    # merge-bucket count: the gather shuffle moves the same ≤ ranges×k rows
    # per query but the groupby sees buckets of queries instead of one group
    # per query (per-group map_groups overhead is Ray Data's known cliff at
    # millions of tiny groups), each bucket merged in one vectorized pass.
    # Keep buckets ≥ 4× the sort's output-partition count (= work blocks) so
    # the range exchange never emits empty (schema-less) partitions, and
    # ≤ n_queries so every bucket is non-empty.
    merge_buckets = max(
        1, min(len(queries), max(4 * n_blocks, -(-len(queries) // 1024)))
    )
    partials = work.map_batches(
        _eval_range_batch,
        fn_kwargs={
            "index_dir": index_dir,
            "bounds": bounds,
            "k_cap": k_cap,
            "merge_buckets": merge_buckets,
        },
        batch_format="pyarrow",
        batch_size=1,
    )
    merged = (
        partials.groupby("qbucket")
        .map_groups(_merge_query_buckets, batch_format="pyarrow")
    )
    if output_dir is not None:
        # streaming sink for workloads whose RESULT is large (many queries ×
        # k rows): results go block-per-file to partitioned parquet instead
        # of materializing on the driver.  Ray's write_parquet APPENDS into
        # an existing dir — wipe first so a rerun never mixes stale files
        import shutil

        shutil.rmtree(output_dir, ignore_errors=True)
        merged.write_parquet(output_dir)
        n = int(
            pads.dataset(output_dir, format="parquet").count_rows()
        )
        return pa.table({"rows_written": pa.array([n], pa.int64()),
                         "output_dir": pa.array([output_dir], pa.string())})
    df = merged.to_pandas()
    if len(df) == 0 or "query_id" not in df.columns:
        # every query zero-hit (or paged past its results): an all-empty
        # Dataset loses its schema through to_pandas — return the typed shape
        return pa.table(
            {"query_id": pa.array([], pa.int64()), "rank": pa.array([], pa.int64()),
             "doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
        )
    t = pa.Table.from_pandas(df, preserve_index=False)
    order = pc.sort_indices(t, sort_keys=[("query_id", "ascending"), ("rank", "ascending")])
    return t.take(order)
