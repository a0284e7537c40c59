"""Query engine — the reference's Elasticsearch query surface re-implemented
over the on-disk term-partitioned index (SURVEY.md §2.Q):

    Q1 match          BM25-scored term/OR query        (elasticsearch_utils.py:115-117,
                                                        cadaster_entry.py:66)
    Q2 prefix         keyword prefix filter + analyzed-field dictionary scan
                                                       (elasticsearch_utils.py:113-114)
    Q3 bool.must      conjunction, sum of clause scores (elasticsearch_utils.py:111-119)
    Q4 top-k          score desc, doc_id asc, from=0    (elasticsearch_utils.py:120-122)
    Q5 hits.total     exact count                       (cadaster_entry.py:68-71)

Design: a ``QueryEngine`` is cheap, stateful, file-backed — it reads the
segments its manifest lists (ascending doc-id ranges, one per build or add)
and nothing else.  Term dictionaries are cached per (segment, partition,
salt) and double as the term → row-span table of the posting files: the
merge writes one row per posting, each term's ``df`` rows contiguously in
dictionary order, so a term's span is ``cumsum(df)``.
Each posting file is read at most once per engine, a row group at a time,
into a byte-bounded LRU of DECODED Parquet columns (doc, tf, dl, and
positions only for phrase reads); a term read is a zero-copy slice of it,
with no per-query decode.  Block-max bounds are derived from the slice at
the engine's own avgdl.  Prefix, wildcard and fuzzy
expansions run over one sorted engine vocabulary; fuzzy looks its candidates
up in a deletion-neighbourhood map of it and checks only those.  A term
has one run per segment, or, in a segment where it is hot (salted), one per
salt; the runs are consecutive doc-id ranges in (segment, salt) order, so
they merge by concatenation — the logical "second merge stage" of the
salting and segment schemes, executed lazily at read time.  df sums over
the runs, and N and avgdl are the manifest's totals, so a query scores as
over one segment.

One evaluator, :class:`RangeEngine`, scores every query kind over a doc-id
range, reading each term as a slice of the engine's bounded term caches.
The engine's own query methods run it over consecutive ranges of at most
``DENSE_ACC_LIMIT`` docs and merge the partials in the pinned (score desc,
doc_id asc) order; ``batch_search_scatter`` runs it over one contiguous
share of the doc ids per pool actor, cut the same way where a share exceeds
``DENSE_ACC_LIMIT``.

``batch_search_scatter`` serves query batches from a pool of long-lived
zero-CPU range actors, one pool per Ray session: each actor keeps its
share's range engines warm across rounds — the stateful-actor fix for the
reference's per-record client connections (reference: cadaster_entry.py:48,57
opens a new ES client per document).
"""

from __future__ import annotations

import bisect
import operator
import os
import re
import weakref
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.bm25 import topk_indices
from librecatastro_ray.functions.hashing import term_hash
from librecatastro_ray.stages.merge import blocks_file, dict_file
from librecatastro_ray.state.manifest import check_version, doc_files, load_manifest

# the columns every term read uses; phrase reads add "positions"
_POSTING_COLUMNS = ["doc", "tf", "dl"]

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


# the evaluator's per-doc accumulators are dense over its doc range, so the
# engine's query methods cut the doc-id space into ranges of at most this
# many docs (8M × 8 B = 64 MB per accumulator)
DENSE_ACC_LIMIT = 8 << 20


def _check_page(k, offset, query_id=None) -> tuple[int, int]:
    """(k, offset) of a ranked query as ints, or ``ValueError`` (naming the
    batch query ``query_id``, if given) when either is negative: a negative
    page size or ``from`` has no ES meaning, and slicing with one would
    silently return some other page."""
    k, offset = int(k), int(offset)
    if k < 0 or offset < 0:
        where = "query" if query_id is None else f"query {query_id!r}"
        raise ValueError(f"{where}: k and from must be non-negative, got k={k}, from={offset}")
    return k, offset


def _constant_top(docs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of a constant-score (1.0) hit set, sorted ascending: the k
    lowest doc ids win the (score desc, doc_id asc) tiebreak."""
    docs = docs[:k]
    return docs, np.ones(len(docs), dtype=np.float64)


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


def _neighbourhood_hashes(keys: Iterable[str]) -> np.ndarray:
    """int64 hash of each deletion-neighbourhood key.  Python's string hash
    is salted per process; the map lives and is queried in one engine's
    process.  A collision only adds a candidate, which the OSA check drops."""
    return np.fromiter(map(hash, keys), dtype=np.int64)


# the fuzzy map holds the deletion neighbourhood of each term's first
# _FUZZY_KEY_LEN code points only, so a term has at most
# sum(C(_FUZZY_KEY_LEN, i) for i <= k) rows at depth k however long it is
# (a long token, minified code or embedded data, would otherwise cost
# millions).  Two terms within k edits have k-deep neighbourhoods of their
# same-length prefixes that still meet, so the cut only adds candidates.
_FUZZY_KEY_LEN = 8


def _check_fuzzy_params(max_edits, prefix_length, where: str = "fuzzy") -> tuple[int, int]:
    """(max_edits, prefix_length) as ints, or ``ValueError`` naming a value
    the engine cannot serve: ``max_edits`` is the integer 0, 1 or 2
    (ES/Lucene's limit, and the neighbourhood map's depth), and
    ``prefix_length`` is a non-negative integer."""
    try:
        edits = operator.index(max_edits)
    except TypeError:
        edits = None
    if edits not in (0, 1, 2):
        raise ValueError(f"{where} max_edits must be 0, 1 or 2, got {max_edits!r}")
    try:
        prefix = operator.index(prefix_length)
    except TypeError:
        prefix = -1
    if prefix < 0:
        raise ValueError(
            f"{where} prefix_length must be a non-negative integer, got {prefix_length!r}"
        )
    return edits, prefix


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


def _lru_put(cache: OrderedDict, key, value, size: int, cap: int) -> int:
    """Insert ``value`` as the most recent entry of ``cache`` and evict the
    least recent entries while the total weight exceeds ``cap`` (the newest
    entry always stays); returns the new total.  An entry weighs its doc-id
    count: the length of a tuple entry's first array, or of an array entry."""
    def weight(v) -> int:
        return len(v[0]) if isinstance(v, tuple) else len(v)

    cache[key] = value
    size += weight(value)
    while size > cap and len(cache) > 1:
        _, old = cache.popitem(last=False)
        size -= weight(old)
    return size


def _array(col: pa.ChunkedArray) -> pa.Array:
    """A column read from one row group as one array (zero copy when the
    reader returns one chunk)."""
    return col.chunk(0) if col.num_chunks == 1 else pa.concat_arrays(col.chunks)


class PostingSlice(NamedTuple):
    """Rows of a posting file as numpy views of its decoded Parquet columns.
    Positional reads also carry the row group's flat ``values`` and the
    rows' ``offsets`` into it: posting i's positions are
    ``values[offsets[i]:offsets[i + 1]]``."""

    doc: np.ndarray
    tf: np.ndarray
    dl: np.ndarray
    values: np.ndarray | None = None
    offsets: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return len(self.doc)

    def rows(self, i: int, j: int, positions: bool) -> "PostingSlice":
        """Rows [i, j), a view."""
        if not positions:
            return PostingSlice(self.doc[i:j], self.tf[i:j], self.dl[i:j])
        return PostingSlice(self.doc[i:j], self.tf[i:j], self.dl[i:j], self.values,
                            self.offsets[i:j + 1])


def _concat_slices(parts: list[PostingSlice], positions: bool) -> PostingSlice:
    """One slice of consecutive row-group slices (a copy)."""
    doc, tf, dl = (np.concatenate(c) for c in zip(*(p[:3] for p in parts)))
    if not positions:
        return PostingSlice(doc, tf, dl)
    values = np.concatenate([p.values[p.offsets[0]:p.offsets[-1]] for p in parts])
    return PostingSlice(doc, tf, dl, values, np.concatenate(([0], np.cumsum(tf))))


def decode_blocks_table(bt: PostingSlice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(docs, tf, dl)`` int64 arrays of a slice of a posting file — views
    of the columns Parquet decoded once per row group, so no slice is
    decoded again (the one place a slice becomes numpy arrays)."""
    return bt.doc, bt.tf, bt.dl


def _segment_index(seg_starts: np.ndarray, seg_counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenated segments ``[seg_starts[i],
    seg_starts[i] + seg_counts[i])`` — one vectorized build, no
    per-segment Python."""
    ends = np.cumsum(seg_counts)
    idx = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    idx += np.repeat(seg_starts - (ends - seg_counts), seg_counts)
    return idx


def _merge_runs(runs: list[tuple]) -> tuple:
    """One doc-sorted ``(docs, tf, dl)`` from a term's runs in (segment,
    salt) order: the runs are consecutive doc ranges, so they concatenate.
    The arrays are owned, never views of a cached row group, so a per-term
    cache holding them keeps alive only the postings it counts."""
    if not runs:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    if len(runs) == 1:
        return tuple(c.copy() for c in runs[0])
    return tuple(np.concatenate(c) for c in zip(*runs))


def _candidate_positions(run: tuple, cand: np.ndarray) -> tuple:
    """``(hit, rows, pos)`` of one ``(docs, tf, pos values, pos offsets)``
    run and sorted docs ``cand``: which candidates the run holds, their
    rows in it, and those rows' positions concatenated — work proportional
    to the candidates, not to the run's postings."""
    d, f, values, offs = run
    j = np.minimum(np.searchsorted(d, cand), len(d) - 1)
    hit = d[j] == cand
    rows = j[hit]
    return hit, rows, values[_segment_index(offs[rows], f[rows])]


def _occurrences(runs: list[tuple], cand: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``base[c] + p`` for every occurrence at position ``p`` of a term in
    candidate doc ``cand[c]`` (``cand`` sorted, each doc in one of ``runs``,
    the term's per-run ``(docs, tf, pos values, pos offsets)`` views)."""
    tok = []
    for run in runs:
        hit, rows, pos = _candidate_positions(run, cand)
        tok.append(np.repeat(base[:-1][hit], run[1][rows]) + pos)
    return np.concatenate(tok)


# phrase candidates are matched in groups of about this many layout slots,
# so a phrase's bitmap per term (one byte per slot) stays bounded however
# many tokens its candidates hold
_PHRASE_SLOTS = 1 << 22


def _layout_groups(width: np.ndarray) -> list[tuple[int, int]]:
    """``[i, j)`` ranges of consecutive candidates, given each candidate's
    slot ``width``: a group's candidates end within one ``_PHRASE_SLOTS``
    window of the layout, so it spans at most that plus its first doc."""
    ends = np.cumsum(width)
    cuts = np.searchsorted(ends, np.arange(_PHRASE_SLOTS, ends[-1], _PHRASE_SLOTS), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(width)]))).tolist()
    return list(zip(bounds, bounds[1:]))


def _phrase_freqs(base: np.ndarray, terms: list[str], occ: dict[str, np.ndarray]) -> np.ndarray:
    """Phrase frequency of each candidate doc (may be 0 — terms present but
    never consecutive).  The candidates' tokens are laid end to end, doc c's
    token p at ``base[c] + p`` with ``len(terms)`` unused slots before each
    doc, so a start and its followers never reach into a neighbouring doc;
    ``occ[t]`` holds term t's occurrences in that layout
    (:func:`_occurrences`).  The rarest query position's occurrences give the
    candidate starts, and each other position keeps the starts whose token
    at that offset is marked in its term's bitmap of the layout."""
    a = min(range(len(terms)), key=lambda i: len(occ[terms[i]]))
    starts = occ[terms[a]] - a
    marks: dict[str, np.ndarray] = {}
    for i, term in enumerate(terms):
        if i == a:
            continue
        mark = marks.get(term)
        if mark is None:
            mark = marks[term] = np.zeros(int(base[-1]), dtype=bool)
            mark[occ[term]] = True
        starts = starts[mark[starts + i]]
    return np.bincount(np.searchsorted(base, starts, side="right") - 1, minlength=len(base) - 1)


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
        self.manifest = check_version(index_dir, load_manifest(index_dir))
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
        # the manifest pins the build's k1/b, and an explicit bm25_v1 with
        # other parameters would score a different index — reject it
        if scorer is not None:
            for p in ("k1", "b"):
                got = getattr(scorer, p, None)
                want_p = getattr(self.config, p)
                if got is not None and float(got) != float(want_p):
                    raise ValueError(
                        f"index at {index_dir} was built with {p}={want_p}; "
                        f"the explicit scorer has {p}={got} — the index "
                        f"scores with its build parameters only (rebuild, "
                        f"or drop the explicit scorer)"
                    )
        self.analyzer = analyzer or get_analyzer(self.config.analyzer)
        self.scorer = scorer or get_scorer(
            self.config.scorer, self.config.k1, self.config.b
        )
        # tombstoned doc ids (ES delete-by-id; Lucene-faithful: filtered from
        # every result, but N/avgdl/df keep counting them until rebuild)
        from librecatastro_ray.state.manifest import load_deleted

        # the committed segments of this manifest, in doc order: an add
        # writes a new segment and replaces the manifest last, so the
        # replace is its one commit point, and this engine reads only the
        # files (parts, doc store, tombstones) its manifest names
        self._deleted: np.ndarray = load_deleted(index_dir, self.manifest)
        segments = self.manifest["segments"]
        self._seg_parts: list[str] = [seg["parts"] for seg in segments]
        self._seg_hot: list[frozenset[str]] = [frozenset(seg["hot_terms"]) for seg in segments]
        self._seg_partitions: list[dict] = [seg["partitions"] for seg in segments]
        # each segment's term partition count: a term of segment i lives in
        # its partition term_hash % self._seg_nparts[i]
        self._seg_nparts: list[int] = [seg["num_partitions"] for seg in segments]
        self._all_salts = tuple(range(self.config.num_salts))
        # the runs of a term hot in no segment: salt 0 of each segment
        self._unsalted_runs = [(i, 0) for i in range(len(segments))]
        self.n_docs: int = int(self.manifest["n_docs"])
        self.sum_dl: int = int(self.manifest["sum_dl"])
        self.avgdl: float = (float(self.sum_dl) / float(self.n_docs)) if self.n_docs else 1.0
        # terms hot in any segment
        self.hot: set[str] = set().union(*self._seg_hot)
        # the (segment, partition, salt) triples that hold postings
        self._listed: list[tuple[int, int, int]] = sorted(
            (i, p["pkey"], p["salt"]) for i, parts in enumerate(self._seg_partitions)
            for p in parts.values())
        self._dict_cache: dict[tuple[int, int, int], pa.Table] = {}
        # per-(segment, partition, salt) {term: (first_row, end_row, df)}
        # and the file row count the spans tile
        self._span_maps: dict[tuple[int, int, int],
                              tuple[dict[str, tuple[int, int, int]], int]] = {}
        # per-file (path, footer, row-group start rows), parsed once
        self._footers: dict[tuple[int, int, int], tuple] = {}
        # decoded row groups of the posting files, BYTE-bounded LRU: at
        # serving scale each file is read once and every term read after
        # that is a zero-copy slice of memory
        self._rowgroup_cache: OrderedDict[tuple[str, int], tuple[PostingSlice, int]] = OrderedDict()
        self._rowgroup_cache_size = 0
        self._rowgroup_cache_cap = 256 << 20
        # sorted deduplicated vocabulary (Arrow and numpy views), built on
        # the first expansion
        self._vocab: tuple[pa.Array, np.ndarray] | None = None
        # per max_edits depth: (sorted key hashes int64, vocabulary rows
        # int32) of every term's deletion neighbourhood, built on the first
        # fuzzy expansion of that depth
        self._fuzzy_maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._docstats: pads.Dataset | None = None
        # per-term postings LRU (bounded by total cached postings)
        self._postings_cache: OrderedDict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
        self._postings_cache_size = 0
        # postings = 24 B/entry (docs+tf+dl int64); contributions = 16 B/entry
        # (docs + float64).  Caps sized so a serving actor holds the full hot
        # set: hot terms are ~5% df each, so ~50 cached terms of a 600k-doc
        # partition ≈ 15M entries.  ~(360+320) MB per actor at the caps.
        self._postings_cache_cap = 15_000_000
        self._contrib_cache: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._contrib_cache_size = 0
        self._contrib_cache_cap = 20_000_000
        # per-(term, (segment, salt)) block metadata (prev_last, last,
        # max_tfnorm) — the block-max skip structure, derived at this
        # engine's avgdl
        self._blockmeta_cache: dict[tuple[str, tuple[int, int]], tuple | None] = {}
        self._expansion_cache: dict[tuple, list[str]] = {}
        # keyword-clause results LRU, BYTE-bounded: one entry can be
        # O(n_docs) ids (e.g. lang=en over half the corpus), so an
        # entry-count cap alone would commit unbounded memory
        self._keyword_cache: OrderedDict[tuple[str, str, bool], np.ndarray] = OrderedDict()
        self._keyword_cache_size = 0
        self._keyword_cache_cap = 20_000_000  # entries (~160 MB int64)
        # the evaluator over [0, n_docs) in spans of _range_span docs
        self._range_engines: list[RangeEngine] = []
        self._range_span = 0

    # ---------------- internals ----------------

    def _salts(self, term: str) -> list[tuple[int, int]]:
        """The (segment, salt) runs a term can have, in doc order: one per
        segment, or one per salt in a segment where the term is hot."""
        if term not in self.hot:
            return self._unsalted_runs
        return [(i, salt) for i, hot in enumerate(self._seg_hot)
                for salt in (self._all_salts if term in hot else (0,))]

    def _pkey(self, term: str, seg: int) -> int:
        """The partition of segment ``seg`` that holds ``term``."""
        return term_hash(term) % self._seg_nparts[seg]

    def _replaced(self, path: str) -> FileNotFoundError:
        """The error for a file of a partition the manifest lists that is no
        longer on disk: no add or delete removes one, so the index was
        dropped or rebuilt under this engine, and answering empty (or from
        another index) would be silently wrong."""
        return FileNotFoundError(
            f"{path} is gone: the {len(self.manifest['segments'])}-segment index at "
            f"{self.index_dir} was dropped or rebuilt — open a new QueryEngine"
        )

    def _dict_table(self, seg: int, pkey: int, salt: int) -> pa.Table:
        """Term dictionary of one (segment, partition, salt).  A partition
        the segment's manifest entry does not list (no posting hashed to
        it) is empty; a listed one whose file is gone raises
        :meth:`_replaced`'s error."""
        key = (seg, pkey, salt)
        t = self._dict_cache.get(key)
        if t is None:
            path = dict_file(self.index_dir, pkey, salt, self._seg_parts[seg])
            if os.path.exists(path):
                # read on the calling thread, like the posting files (_rows)
                with pq.ParquetFile(path) as pf:
                    t = pf.read(use_threads=False)
            elif str(pkey * self.config.num_salts + salt) in self._seg_partitions[seg]:
                raise self._replaced(path)
            else:
                t = pa.table({"term": pa.array([], pa.string()),
                              "df": pa.array([], pa.int64()),
                              "cf": pa.array([], pa.int64())})
            self._dict_cache[key] = t
        return t

    def _span_table(self, seg: int, pkey: int,
                    salt: int) -> tuple[dict[str, tuple[int, int, int]], int]:
        """({term: (first_row, end_row, df)}, row count) for one (segment,
        partition, salt): the merge writes each term's ``df`` postings
        contiguously in dictionary order, so the spans are a cumsum over the
        dictionary (and also O(1) df lookups for workloads that probe many
        terms)."""
        key = (seg, pkey, salt)
        entry = self._span_maps.get(key)
        if entry is None:
            d = self._dict_table(seg, pkey, salt)
            df = d["df"].to_numpy()
            ends = np.cumsum(df)
            spans = zip((ends - df).tolist(), ends.tolist(), df.tolist())
            # numpy's tolist builds the str objects ~20x faster than to_pylist
            terms = d["term"].to_numpy(zero_copy_only=False).tolist()
            entry = (dict(zip(terms, spans)), int(ends[-1]) if len(ends) else 0)
            self._span_maps[key] = entry
        return entry

    def _span(self, term: str, run: tuple[int, int]) -> tuple[int, int] | None:
        """Row span [first, end) of a term's (segment, salt) run in its
        posting file."""
        s = self._span_table(run[0], self._pkey(term, run[0]), run[1])[0].get(term)
        return None if s is None else (s[0], s[1])

    def term_df(self, term: str) -> int:
        """Total document frequency (summed over the term's runs)."""
        return sum(
            self._span_table(seg, self._pkey(term, seg), salt)[0].get(term, (0, 0, 0))[2]
            for seg, salt in self._salts(term)
        )

    def _file(self, seg: int, pkey: int, salt: int) -> tuple:
        """(path, footer, row-group start rows) of a posting file, the footer
        parsed once per engine.  The file must hold exactly the dictionary's
        df sum of rows: any other count means the file drifted from the
        dictionary, and every answer read through the spans would be
        silently wrong.  A posting file is only read for a term its
        partition's dictionary lists, so a missing one was reclaimed by a
        later write (:meth:`_replaced`)."""
        f = self._footers.get((seg, pkey, salt))
        if f is None:
            path = blocks_file(self.index_dir, pkey, salt, self._seg_parts[seg])
            want = self._span_table(seg, pkey, salt)[1]
            try:
                meta = pq.read_metadata(path)
            except FileNotFoundError:
                raise self._replaced(path) from None
            if meta.num_rows != want:
                raise ValueError(
                    f"{path} has {meta.num_rows} rows but its dictionary's df sum is "
                    f"{want} — the posting file does not match the term dictionary"
                )
            sizes = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
            f = self._footers[(seg, pkey, salt)] = (path, meta, np.cumsum([0] + sizes).tolist())
        return f

    def _rowgroup(self, path: str, meta, rg: int, positions: bool) -> PostingSlice:
        """Row group ``rg`` of a posting file as decoded columns, from the
        byte-bounded LRU or read on a miss (no file handle stays open), on
        the calling thread: an engine serves inside a one-CPU task, and
        handing a few hundred KB of columns to Arrow's pool of one thread
        per visible core made a cold read slower and its time less steady.
        The positions column is read only for a positional read; its list
        lengths are checked against tf once per load."""
        key = (path, rg)
        old = self._rowgroup_cache.get(key)
        if old is not None and (not positions or old[0].values is not None):
            self._rowgroup_cache.move_to_end(key)
            return old[0]
        cols = ["positions"] if old is not None else _POSTING_COLUMNS + ["positions"] * positions
        try:
            with pq.ParquetFile(path, metadata=meta) as pf:
                t = pf.read_row_group(rg, columns=cols, use_threads=False)
        except FileNotFoundError:
            raise self._replaced(path) from None
        rgs = PostingSlice(*(old[0][:3] if old is not None else
                             (_array(t.column(c)).to_numpy() for c in _POSTING_COLUMNS)))
        if positions:
            lst = _array(t.column("positions"))
            rgs = rgs._replace(values=lst.values.to_numpy(), offsets=lst.offsets.to_numpy())
            if not np.array_equal(np.diff(rgs.offsets), rgs.tf):
                raise ValueError(
                    f"{path} row group {rg}: position-list lengths differ from tf — "
                    f"the posting file is corrupt"
                )
        if old is not None:
            self._rowgroup_cache_size -= old[1]
        nbytes = sum(a.nbytes for a in rgs if a is not None)
        self._rowgroup_cache[key] = (rgs, nbytes)
        self._rowgroup_cache.move_to_end(key)
        self._rowgroup_cache_size += nbytes
        while (self._rowgroup_cache_size > self._rowgroup_cache_cap
               and len(self._rowgroup_cache) > 1):
            _, (_rgs, n) = self._rowgroup_cache.popitem(last=False)
            self._rowgroup_cache_size -= n
        return rgs

    def _rows(self, seg: int, pkey: int, salt: int, first: int, end: int,
              positions: bool = False) -> PostingSlice:
        """Rows [first, end) (non-empty) of one posting file: a zero-copy
        slice of its cached row group, or of each row group the span
        crosses, concatenated."""
        if positions and not self.config.positions:
            raise ValueError(
                f"index at {self.index_dir} has no positions — build with "
                f"IndexConfig(positions=True) to serve phrase queries"
            )
        path, meta, starts = self._file(seg, pkey, salt)
        rg = bisect.bisect_right(starts, first) - 1
        parts = []
        while first < end:
            n = min(end, starts[rg + 1]) - first
            a = first - starts[rg]
            parts.append(self._rowgroup(path, meta, rg, positions).rows(a, a + n, positions))
            first += n
            rg += 1
        return parts[0] if len(parts) == 1 else _concat_slices(parts, positions)

    def _slice(self, term: str, run: tuple[int, int],
               positions: bool = False) -> PostingSlice | None:
        """The rows of a term's (segment, salt) run, or None when the term
        has no postings there."""
        span = self._span(term, run)
        return None if span is None else self._rows(run[0], self._pkey(term, run[0]), run[1],
                                                    *span, positions)

    def _run(self, term: str, run: tuple[int, int]) -> tuple | None:
        """``(docs, tf, dl)`` views of a term's (segment, salt) run, or None
        when the term has no postings there."""
        s = self._slice(term, run)
        return None if s is None else decode_blocks_table(s)

    def _positional_runs(self, term: str, bounds: np.ndarray) -> list:
        """Per-run ``(docs, tf, pos values, pos offsets)`` views of a
        term's runs restricted to docs [lo, hi) = ``bounds`` — posting i's
        positions are ``values[offsets[i]:offsets[i + 1]]``."""
        runs = []
        for run in self._salts(term):
            s = self._slice(term, run, positions=True)
            if s is None:
                continue
            i, j = decode_blocks_table(s)[0].searchsorted(bounds).tolist()
            if j - i < s.num_rows:
                s = s.rows(i, j, True)
            if i < j:
                runs.append((s.doc, s.tf, s.values, s.offsets))
        return runs

    def load_postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full decoded postings of a term, doc-sorted:
        (doc_ids int64, tf int64, dl int64).  LRU-cached per term (a batch
        query workload hits the same hot terms repeatedly)."""
        cached = self._postings_cache.get(term)
        if cached is not None:
            self._postings_cache.move_to_end(term)
            return cached
        runs = [r for s in self._salts(term) if (r := self._run(term, s)) is not None]
        result = _merge_runs(runs)
        self._postings_cache_size = _lru_put(
            self._postings_cache, term, result, self._postings_cache_size,
            self._postings_cache_cap)
        return result

    def _block_meta(self, term: str, run: tuple[int, int]):
        """(prev_last, last, max_tfnorm) int64/int64/float64 arrays for a
        term's (segment, salt) run, one entry per ``block_size`` postings —
        the block-max skip structure, derived from the run at this engine's
        avgdl, so every bound is its block's exact maximum tf_norm.  No query
        reads it: it stays for perfbench's traced search run
        (``spans._count_wand_blocks``), the bound property tests, and a
        block-max mode of :class:`RangeEngine`."""
        key = (term, run)
        if key in self._blockmeta_cache:
            return self._blockmeta_cache[key]
        cols = self._run(term, run)
        result = None
        if cols is not None:
            d, f, L = cols
            starts = np.arange(0, len(d), self.config.block_size)
            last = d[np.append(starts[1:], len(d)) - 1]
            prev = np.concatenate(([-1], last[:-1]))
            tn = self.scorer.tf_norm(f, L, self.avgdl)
            result = (prev, last, np.maximum.reduceat(tn, starts))
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
        self._contrib_cache_size = _lru_put(
            self._contrib_cache, term, result, self._contrib_cache_size,
            self._contrib_cache_cap)
        return result

    def _alive(self, docs: np.ndarray) -> np.ndarray:
        """Boolean mask of docs NOT tombstoned (all-True when no deletes)."""
        if len(self._deleted) == 0:
            return np.ones(len(docs), dtype=bool)
        return ~_in_sorted(docs, self._deleted)

    def _topk_table(
        self, docs: np.ndarray, scores: np.ndarray, k: int, offset: int = 0
    ) -> pa.Table:
        """Top-k with pagination over whole-index scores (multi_match):
        select the top ``offset + k`` live docs and return rows
        offset+1..offset+k with their GLOBAL rank numbers (ES ``from``/``size``
        semantics, reference: elasticsearch_utils.py:121)."""
        if len(self._deleted):
            m = self._alive(docs)
            docs, scores = docs[m], scores[m]
        sel = topk_indices(scores, docs, offset + k)[offset:]
        ranks = np.arange(offset + 1, offset + len(sel) + 1, dtype=np.int64)
        return _result_table(ranks, docs[sel], scores[sel])

    def _docstats_ds(self) -> pads.Dataset:
        """The doc store of the manifest's segments, as one dataset of their
        files (never a scan of ``docs/``)."""
        if self._docstats is None:
            self._docstats = pads.dataset(doc_files(self.index_dir, self.manifest),
                                          format="parquet")
        return self._docstats

    def _ranges(self) -> list[RangeEngine]:
        """The evaluator over [0, n_docs): consecutive ranges of at most
        ``DENSE_ACC_LIMIT`` docs (one for any index that fits), built once
        per span size.  A range re-slices the tombstones when the engine's
        set was replaced (:func:`_process_engine` reloads it in place)."""
        if self._range_span != DENSE_ACC_LIMIT:
            self._range_span = span = DENSE_ACC_LIMIT
            # a proxy, so an engine and its ranges form no reference cycle:
            # a dropped engine frees its caches at once, not at the next
            # full garbage collection
            me = weakref.proxy(self)
            self._range_engines = [RangeEngine(me, lo, min(lo + span, self.n_docs))
                                   for lo in range(0, self.n_docs, span)]
        for rng in self._range_engines:
            if rng._tombstones is not self._deleted:
                rng.sync_deleted()
        return self._range_engines

    def _ranked(self, k: int, offset: int, evaluate) -> pa.Table:
        """The (rank, doc_id, score) page of ranks offset+1..offset+k:
        ``evaluate(rng, n)`` gives each range's top n in the pinned (score
        desc, doc_id asc) order, and the ranges' partials merge by the same
        selection — exact, since a doc lives in one range and is scored
        whole there.  ``ValueError`` on a negative k or offset."""
        k, offset = _check_page(k, offset)
        parts = [evaluate(rng, offset + k) for rng in self._ranges()]
        if not parts:
            return _empty_result()
        docs, scores = parts[0]
        if len(parts) > 1:
            docs, scores = (np.concatenate(c) for c in zip(*parts))
            sel = topk_indices(scores, docs, offset + k)
            docs, scores = docs[sel], scores[sel]
        ranks = np.arange(offset + 1, max(offset, len(docs)) + 1, dtype=np.int64)
        return _result_table(ranks, docs[offset:], scores[offset:])

    # ---------------- query surface ----------------

    def match(self, text: str, k: int = 10, offset: int = 0) -> pa.Table:
        """Q1+Q4: analyzed BM25 match, top-k (rank, doc_id, score); ``offset``
        is ES ``from`` pagination (skip the first ``offset`` ranks)."""
        terms = self.analyzer.tokenize(text)
        return self._ranked(k, offset, lambda rng, n: rng.match(terms, n))

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
        terms = self.analyzer.tokenize(text)
        return self._ranked(k, 0, lambda rng, n: rng.match(terms, n, after=after))

    def match_wand(self, text: str, k: int = 10, offset: int = 0) -> pa.Table:
        """Q1+Q4 under the WAND family's name (north_star): exact top-k
        through the one evaluator, so its answer is :meth:`match`'s.
        Block-max pruning is to return as a mode of :class:`RangeEngine`
        once a workload exists where bounds discard most candidates."""
        return self.match(text, k, offset)

    def match_phrase(self, text: str, k: int = 10, offset: int = 0) -> pa.Table:
        """ES ``match_phrase`` (slop=0): documents containing the analyzed
        terms at CONSECUTIVE positions, scored Lucene-style — the phrase is
        one pseudo-term with ``idf = Σ idf(df_t)`` over the query positions
        (duplicated terms count twice, as in Lucene's PhraseQuery termStats)
        and ``tf = phrase frequency``, through the index's pinned scorer.
        Requires a positional index (IndexConfig(positions=True)); pinned
        tiebreak (score desc, doc_id asc) and ES ``from`` pagination."""
        self._require_positions()
        terms = self.analyzer.tokenize(text)
        return self._ranked(k, offset, lambda rng, n: rng.match_phrase(terms, n))

    def _require_positions(self) -> None:
        if not self.config.positions:
            raise ValueError(
                f"index at {self.index_dir} was built without positions "
                f"(IndexConfig.positions=False) — phrase queries need a "
                f"positional index; rebuild with positions=True"
            )

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
        two empty), evaluated by :meth:`RangeEngine.bool_must`."""
        clauses = dict(
            keyword_eq=keyword_eq, keyword_prefix=keyword_prefix,
            must_not_terms=must_not_terms, should_terms=should_terms,
            require_should=require_should, range_clauses=range_clauses,
            keyword_in=keyword_in, minimum_should_match=minimum_should_match,
        )
        return self._ranked(k, offset, lambda rng, n: rng.bool_must(content_terms, n, **clauses))

    def prefix_content(self, prefix: str, k: int = 10, offset: int = 0) -> pa.Table:
        """Q2 on the analyzed field: term-dictionary range scan → OR of
        postings, constant score 1.0 (Lucene CONSTANT_SCORE_REWRITE)."""
        return self._ranked(k, offset, lambda rng, n: _constant_top(rng.prefix_union(prefix), n))

    def wildcard_content(self, pattern: str, k: int = 10, offset: int = 0) -> pa.Table:
        """ES ``wildcard`` query on the analyzed field: ``*`` = any token-char
        run, ``?`` = one token char; dictionary regex scan → constant-score
        OR (the ES/Lucene default multi-term rewrite)."""
        terms = self.expand_wildcard(pattern)
        return self._ranked(k, offset, lambda rng, n: _constant_top(rng.union(terms), n))

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
        terms = self.expand_fuzzy(term, max_edits, prefix_length, transpositions)
        return self._ranked(k, offset, lambda rng, n: _constant_top(rng.union(terms), n))

    def _vocabulary(self) -> tuple[pa.Array, np.ndarray]:
        """The sorted, deduplicated vocabulary of every listed (segment,
        partition, salt) dictionary as Arrow and numpy arrays, built once
        per engine (sorted by code point, the order ``_prefix_upper_bound``
        assumes)."""
        if self._vocab is None:
            cols = [self._dict_table(*key)["term"] for key in self._listed]
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

    def _expand(self, key: tuple, compute) -> list[str]:
        """``compute()``'s sorted vocabulary terms, cached per ``key``
        (batch workloads repeat patterns)."""
        cached = self._expansion_cache.get(key)
        if cached is None:
            cached = compute()
            if len(self._expansion_cache) < 10_000:
                self._expansion_cache[key] = cached
        return cached

    def expand_wildcard(self, pattern: str) -> list[str]:
        """Dictionary terms matching an ES wildcard pattern (``*``/``?``):
        one regex over the vocabulary range of the pattern's literal
        prefix."""

        def compute() -> list[str]:
            lo, hi = self._prefix_range(re.match(r"[^*?]*", pattern).group())
            col, arr = (x[lo:hi] for x in self._vocabulary())
            mask = pc.match_substring_regex(col, wildcard_regex(pattern))
            return arr[mask.to_numpy(zero_copy_only=False)].tolist()

        return self._expand(("wild", pattern), compute)

    def _fuzzy_map(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """(sorted key hashes, vocabulary rows): one entry per vocabulary
        term and string of the ``depth`` deletion neighbourhood of its first
        ``_FUZZY_KEY_LEN`` code points."""
        from librecatastro_ray.functions.editdist import deletions

        m = self._fuzzy_maps.get(depth)
        if m is None:
            vocab = self._vocabulary()[1]
            counts = np.empty(len(vocab), dtype=np.int64)

            def keys():  # one term's strings alive at a time, hashed as made
                for i, t in enumerate(vocab):
                    d = deletions(t[:_FUZZY_KEY_LEN], depth)
                    counts[i] = len(d)
                    yield from d

            hashes = _neighbourhood_hashes(keys())
            rows = np.repeat(np.arange(len(vocab), dtype=np.int32), counts)
            order = np.argsort(hashes)
            m = self._fuzzy_maps[depth] = (hashes[order], rows[order])
        return m

    def expand_fuzzy(
        self,
        term: str,
        max_edits: int = 1,
        prefix_length: int = 0,
        transpositions: bool = True,
    ) -> list[str]:
        """Dictionary terms within ``max_edits`` (ES ``fuzzy``): the rows
        whose deletion neighbourhood meets the term's, inside the vocabulary
        range of the required ``prefix_length`` prefix, checked by one
        vectorized OSA/Levenshtein DP.  Raises ``ValueError`` on parameters
        :func:`_check_fuzzy_params` rejects."""
        from librecatastro_ray.functions.editdist import deletions, osa_within

        max_edits, prefix_length = _check_fuzzy_params(max_edits, prefix_length)

        def compute() -> list[str]:
            hashes, rows = self._fuzzy_map(max_edits)
            q = _neighbourhood_hashes(deletions(term[:_FUZZY_KEY_LEN], max_edits))
            starts = np.searchsorted(hashes, q, side="left").tolist()
            ends = np.searchsorted(hashes, q, side="right").tolist()
            cand = np.unique(np.concatenate([rows[a:b] for a, b in zip(starts, ends)]))
            lo, hi = self._prefix_range(term[:prefix_length])
            terms = self._vocabulary()[1][cand[(cand >= lo) & (cand < hi)]]
            return terms[osa_within(terms, term, max_edits, transpositions)].tolist()

        return self._expand(("fuzzy", term, max_edits, prefix_length, transpositions), compute)

    def _hit_rows(self, field: str, hits: np.ndarray) -> Iterator[tuple[np.ndarray, pa.Array]]:
        """``(doc_ids, field values)`` of the doc-store rows whose doc is in
        the hit set (any order, e.g. a ranked page), one pair per Arrow batch
        holding any: a streamed (doc_id, ``field``) scan masked by sorted
        membership, so rows of non-hits never materialize."""
        hits = np.unique(np.asarray(hits, dtype=np.int64))
        for batch in self._docstats_ds().scanner(columns=["doc_id", field]).to_batches():
            d = batch.column(0).to_numpy()
            m = _in_sorted(d, hits)
            if m.any():
                yield d[m], batch.column(1).filter(pa.array(m))

    def terms_agg(
        self,
        field: str,
        hits: np.ndarray,
        size: int = 10,
    ) -> pa.Table:
        """ES ``terms`` aggregation: value counts of a keyword field over a
        query's FULL hit set (ES aggs see every matching doc, not the top-k
        page).  ``hits`` is the query's doc ids in any order (from
        :meth:`match_hits` — already tombstone-filtered).

        Value-counts each batch of :meth:`_hit_rows` (never materializes
        (doc, value) rows for non-hits) — the same shape a corpus-scale agg
        needs.  Output pinned by (count desc, key asc), ES's ordering.
        ``size`` must be a positive integer, as ES requires; anything else
        raises ``ValueError``."""
        try:
            top = operator.index(size)
        except TypeError:
            top = 0
        if top < 1:
            raise ValueError(f"terms_agg size must be a positive integer, got {size!r}")
        counts: dict[str, int] = {}
        for _ids, vals in self._hit_rows(field, hits):
            for kv in vals.value_counts():
                key = kv["values"].as_py()
                counts[key] = counts.get(key, 0) + int(kv["counts"].as_py())
        order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        return pa.table(
            {
                "key": pa.array([k for k, _ in order], pa.string()),
                "count": pa.array([c for _, c in order], pa.int64()),
            }
        )

    def match_hits(self, text: str) -> np.ndarray:
        """ALL doc ids matching a match query (OR union, tombstone-filtered,
        unranked, sorted) — the hit set ES aggregations run over."""
        terms = self.analyzer.tokenize(text)
        parts = [rng.union(terms) for rng in self._ranges()]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def stats_agg(self, field: str, hits: np.ndarray) -> pa.Table:
        """ES ``stats`` metric aggregation over an integer doc-store field:
        count / sum / min / max across a query's FULL hit set, by per-batch
        numpy reductions over :meth:`_hit_rows` (hit values never
        materialize).  avg is sum/count, left to the caller so the output
        stays integer-exact.
        On an empty hit set min and max are null, as in Elasticsearch.
        Beyond the reference's surface (it only reads hits.total); included
        for ES drop-in completeness."""
        n = 0
        total = 0
        mn: int | None = None
        mx: int | None = None
        for _ids, vals in self._hit_rows(field, hits):
            v = vals.to_numpy()
            n += len(v)
            total += int(v.sum())
            bmn, bmx = int(v.min()), int(v.max())
            mn = bmn if mn is None else min(mn, bmn)
            mx = bmx if mx is None else max(mx, bmx)
        return pa.table(
            {
                "key": pa.array(["count", "sum", "min", "max"], pa.string()),
                "count": pa.array([n, total, mn, mx], pa.int64()),
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
        asc.  Keeps only the hit rows of :meth:`_hit_rows` (hit-scale memory,
        corpus-scale streaming); the final ordering is one Arrow sort over the
        hit-scale (doc_id, value) pairs.  Beyond the reference's surface
        (elasticsearch_utils.py:111-123 sorts only by _score); included for
        ES drop-in completeness."""
        k, offset = _check_page(k, offset)
        hits = self.match_hits(text)
        empty = pa.table(
            {"rank": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64()),
             "sort_val": pa.array([], pa.string())}
        )
        if not len(hits):
            return empty
        rows = list(self._hit_rows(field, hits))
        if not rows:
            return empty
        ids_l, vals_l = zip(*rows)
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
        terms = self.analyzer.tokenize(text)
        return sum(len(rng.union(terms)) for rng in self._ranges())

    def exists(self, text: str) -> bool:
        """The reference's from_elasticsearch existence probe
        (cadaster_entry.py:61-77): hits.total > 0."""
        return self.count(text) > 0

    def full_dictionary(self) -> pa.Table:
        """Global (term, df, cf): the listed per-(segment, partition, salt)
        dictionaries with each term's runs summed — the E3 'per-term
        document frequency' statistic the reference delegates to Lucene."""
        tables = [t for key in self._listed if len(t := self._dict_table(*key))]
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
        """Full index scan: every posting back to flat (term, doc_id, tf)
        rows (used by conformance checks)."""
        terms_l, docs_l, tfs_l = [], [], []
        for key in self._listed:
            n_rows = self._span_table(*key)[1]
            if not n_rows:
                continue
            d, f, _L = decode_blocks_table(self._rows(*key, 0, n_rows))
            # the spans tile the file in dictionary order, so posting i
            # belongs to the dictionary term whose df run covers it
            dt = self._dict_table(*key)
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
        range instead of re-reading docstats per range."""
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
        self._keyword_cache_size = _lru_put(
            self._keyword_cache, ck, out, self._keyword_cache_size,
            self._keyword_cache_cap)
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
        self._keyword_cache_size = _lru_put(
            self._keyword_cache, ck, out, self._keyword_cache_size,
            self._keyword_cache_cap)
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
    and tombstone every hit.  ``query`` is a batch-query dict of any kind
    but count (a missing kind is match), checked as
    :func:`batch_search_scatter` checks it, so a key its kind does not take
    raises ``ValueError`` before anything is tombstoned; k and from are
    ignored — ALL hits are deleted.  Returns how many NEW docs were
    tombstoned.  Scale note: results here are hit-scale; a corpus-scale
    predicate delete (e.g. by keyword) should use
    ``delete_docs(index_dir, engine.keyword_docs(...))`` which never ranks."""
    from librecatastro_ray.state.manifest import delete_docs, load_deleted

    q = {**query, "kind": query.get("kind") or "match"}
    if q["kind"] == "count":
        raise ValueError("delete_by_query needs a query that selects docs, not a count")
    _check_query(q)
    eng = QueryEngine(index_dir)
    parts = [_eval_query(rng, q, rng.hi - rng.lo)[0] for rng in eng._ranges()]
    hits = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    n_new = len(np.setdiff1d(hits, load_deleted(index_dir, eng.manifest)))
    delete_docs(index_dir, hits)
    return n_new


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
    k, offset = _check_page(k, offset)
    hits = [eng.match(text, k=eng.n_docs) for eng in field_engines]
    docs = np.concatenate([h["doc_id"].to_numpy() for h in hits])
    scores = np.concatenate([h["score"].to_numpy() for h in hits])
    uniq, inv = np.unique(docs, return_inverse=True)
    total = np.bincount(inv, weights=scores, minlength=len(uniq))
    best = np.zeros(len(uniq), dtype=np.float64)
    np.maximum.at(best, inv, scores)
    final = best + tie_breaker * (total - best)
    return field_engines[0]._topk_table(uniq, final, k, offset)


# ---------------------------------------------------------------------------
# Scatter-gather serving (doc-range sharded — the ES 5-shard model, SURVEY.md
# §1.2, re-expressed as one contiguous doc range per pool actor)
# ---------------------------------------------------------------------------

_PROCESS_ENGINES: dict[tuple, tuple[QueryEngine, tuple]] = {}


def _file_identity(path: str) -> tuple:
    """Identity of the file installed at ``path`` (``()`` when absent).
    Every commit installs its file with ``os.replace``, so a new version has
    a new inode even when its size and mtime equal the old one's (two writes
    inside one mtime tick); ctime guards against a recycled inode number."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return ()
    return (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _process_engine(index_dir: str) -> QueryEngine:
    """One QueryEngine per process per manifest version, shared across the
    calls a pool actor serves, so dictionaries and row groups load once.  A
    manifest change (add, a compacted index swapped in, drop + rebuild)
    builds a fresh engine.  A tombstone-only change (``delete_docs``)
    reloads the engine's tombstone set in place: a delete rewrites no posting
    file and moves no corpus statistic (N, avgdl and df keep counting
    tombstoned docs), so every other cache stays valid."""
    from librecatastro_ray.state.manifest import deleted_path, load_deleted, manifest_path

    # stat BEFORE loading: a commit that races the load shows up as a changed
    # identity on the next lookup
    key = (index_dir, _file_identity(manifest_path(index_dir)))
    tombstones = _file_identity(deleted_path(index_dir))
    cached = _PROCESS_ENGINES.get(key)
    if cached is None:
        # at most one engine per process, and only its range engines: a
        # stale one pins its old engine and every cache of it
        _PROCESS_ENGINES.clear()
        _PROCESS_RANGE_ENGINES.clear()
        eng = QueryEngine(index_dir)
    else:
        eng, seen = cached
        if seen != tombstones:
            eng._deleted = load_deleted(index_dir, eng.manifest)
    _PROCESS_ENGINES[key] = (eng, tombstones)
    return eng


# a range caches the live docs of each prefix it expands until the cached
# unions hold this many doc ids (8 MB)
_PREFIX_CACHE_DOCS = 1 << 20


class RangeEngine:
    """The query evaluator: exact evaluation of every query kind restricted
    to the doc-id range [lo, hi), from analyzed terms.

    A doc lives in exactly one range and a term's postings are doc-sorted,
    so a range reads each term as a searchsorted slice of the engine's
    bounded term caches, and its per-doc scores (GLOBAL df, N and avgdl)
    equal the whole index's exactly: range-local top-k partials merge into
    the global top-k with no re-scoring.  Accumulators are dense over the
    range.  A range holds no term data, only its bounds, its slice of the
    tombstones and a bounded cache of prefix unions.
    """

    _EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

    def __init__(self, eng: QueryEngine, lo: int, hi: int):
        self.eng = eng
        self.lo = int(lo)
        self.hi = int(hi)
        self._bounds = np.array([self.lo, self.hi], dtype=np.int64)
        self._prefix_docs: dict[str, np.ndarray] = {}
        self.sync_deleted()

    def sync_deleted(self) -> None:
        """Take this range's slice of the engine's current tombstone set
        (range-local indices) and drop the tombstone-filtered prefix
        cache."""
        dlt = self._tombstones = self.eng._deleted
        i, j = dlt.searchsorted(self._bounds).tolist()
        self._dead_local = (dlt[i:j] - self.lo).astype(np.int64)
        self._prefix_docs.clear()
        self._prefix_size = 0

    def _in_range(self, cols: tuple) -> tuple:
        """The rows of the columns ``cols`` whose doc (``cols[0]``, sorted)
        lies in [lo, hi): ``cols`` itself when every row does, else views."""
        i, j = cols[0].searchsorted(self._bounds).tolist()
        return cols if j - i == len(cols[0]) else tuple(c[i:j] for c in cols)

    def _docs_in_range(self, docs: np.ndarray) -> np.ndarray:
        """The sorted ``docs`` that lie in [lo, hi)."""
        return self._in_range((docs,))[0]

    def _postings_range(self, term: str) -> tuple:
        """The range's ``(docs, tf, dl)`` of a term."""
        return self._in_range(self.eng.load_postings(term))

    def _contribution_range(self, term: str) -> tuple:
        """The range's ``(docs, bm25 contribution)`` of a term."""
        return self._in_range(self.eng._term_contribution(term))

    def _top(self, acc: np.ndarray, ok: np.ndarray, k: int, after=None) -> tuple:
        """``(doc_ids, scores)`` of the top k range docs where ``ok`` is
        non-zero and that are not tombstoned, scored ``acc``; with
        ``after``, only those strictly after that (score, doc_id) cursor."""
        if len(self._dead_local):
            ok[self._dead_local] = False
        cand = np.nonzero(ok)[0]
        docs, scores = cand + self.lo, acc[cand]
        if after is not None:
            s_a, d_a = float(after[0]), int(after[1])
            keep = (scores < s_a) | ((scores == s_a) & (docs > d_a))
            docs, scores = docs[keep], scores[keep]
        sel = topk_indices(scores, docs, k)
        return docs[sel], scores[sel]

    def match(self, terms: list[str], k: int, after: tuple[float, int] | None = None) -> tuple:
        """→ (doc_ids, scores) of the range-local top-k of an OR-match
        (plain numpy — one Arrow table per query per range would dominate
        batch evaluation); per-doc sums add in query-term order, the
        oracle's order, so floats match bitwise.  ``after`` is the ES
        search_after cursor (score, doc_id): candidates at-or-above it are
        dropped BEFORE the top-k selection, so a range whose whole top-k
        sits above the cursor still returns its next k docs."""
        acc = np.zeros(self.hi - self.lo, dtype=np.float64)
        hit = False
        for term in terms:
            d, s = self._contribution_range(term)
            if len(d):
                acc[d - self.lo] += s
                hit = True
        if not hit:
            return self._EMPTY
        return self._top(acc, acc, k, after)  # a doc matches where it scores

    def match_phrase(self, terms: list[str], k: int) -> tuple:
        """Range-local phrase top-k (ES ``match_phrase``, slop 0): the
        candidates are the live range docs holding every term, and only
        their positions are read; each term's occurrences in them, laid end
        to end, are matched across the query positions
        (:func:`_phrase_freqs`).  A doc lives wholly in one range, so
        phrase frequencies here are exact; the phrase idf sums GLOBAL df per
        query position, in query order (as the oracle chains it)."""
        eng = self.eng
        eng._require_positions()
        if not terms:
            return self._EMPTY
        post = [self._postings_range(t) for t in terms]
        cand = post[0][0]
        for docs_t, _tf, _dl in post[1:]:
            cand = _intersect_sorted(cand, docs_t)
        if len(cand) and len(self._dead_local):
            cand = cand[~_in_sorted(cand - self.lo, self._dead_local)]
        if len(cand) == 0:
            return self._EMPTY
        dl = post[0][2][np.searchsorted(post[0][0], cand)]
        runs = {t: eng._positional_runs(t, self._bounds) for t in dict.fromkeys(terms)}
        pf = []
        for i, j in _layout_groups(dl + len(terms)):
            base = np.cumsum(np.concatenate(([len(terms)], dl[i:j] + len(terms))))
            occ = {t: _occurrences(r, cand[i:j], base) for t, r in runs.items()}
            pf.append(_phrase_freqs(base, terms, occ))
        pf = np.concatenate(pf)
        hit = pf > 0
        cand, dl = cand[hit], dl[hit]
        w = 0.0
        for term in terms:
            w += float(eng.scorer.idf(eng.term_df(term), eng.n_docs))
        scores = w * eng.scorer.tf_norm(pf[hit], dl, eng.avgdl)
        sel = topk_indices(scores, cand, k)
        return cand[sel], scores[sel]

    def _must(self, content_terms, keyword_eq, keyword_prefix, keyword_in, range_clauses):
        """``(docs, score)`` of each must clause, in clause order, read
        lazily: BM25 contributions of the content terms, then constant 1.0
        for keyword, keyword-OR and range filters (ES filter context)."""
        eng = self.eng
        for term in content_terms:
            yield self._contribution_range(term)
        for prefix, clauses in ((False, keyword_eq), (True, keyword_prefix)):
            for field_name, value in clauses or []:
                yield self._docs_in_range(eng.keyword_docs(field_name, value, prefix=prefix)), 1.0
        for field_name, values in keyword_in or []:
            # ES terms query: docs matching ANY value, one constant score
            parts = [self._docs_in_range(eng.keyword_docs(field_name, v)) for v in values]
            yield np.unique(np.concatenate(parts or [self._EMPTY[0]])), 1.0
        for field_name, gte, lte in range_clauses or []:
            yield self._docs_in_range(eng.range_docs(field_name, gte, lte)), 1.0

    def bool_must(
        self,
        content_terms: list[str],
        k: int,
        keyword_eq: list[tuple[str, str]] | None = None,
        keyword_prefix: list[tuple[str, str]] | None = None,
        must_not_terms: list[str] | None = None,
        should_terms: list[str] | None = None,
        require_should: bool = False,
        range_clauses: list[tuple] | None = None,
        keyword_in: list[tuple[str, list[str]]] | None = None,
        minimum_should_match: int | None = None,
    ) -> tuple:
        """Range-local top-k of a full bool query.  Every must clause
        (:meth:`_must`) must match; ``must_not`` terms exclude docs;
        ``should`` terms add BM25 score to matching docs — a pure-should
        query is an OR (ES default), ``require_should`` is ES
        minimum_should_match=1 and ``minimum_should_match=N`` keeps docs
        holding N distinct should terms.  A must_not-only query is ES
        match_all minus the exclusions (constant score 1.0).  Scores add per
        doc in clause order, as the oracle's do."""
        n = self.hi - self.lo
        acc = np.zeros(n, dtype=np.float64)
        nt = np.zeros(n, dtype=np.int32)
        n_clauses = 0
        for d, s in self._must(content_terms, keyword_eq, keyword_prefix, keyword_in,
                               range_clauses):
            if len(d) == 0:
                return self._EMPTY
            acc[d - self.lo] += s
            nt[d - self.lo] += 1
            n_clauses += 1
        msm = max(int(minimum_should_match or 0), 1 if require_should else 0)
        should_cnt = None
        if should_terms:
            # score EVERY occurrence, count each DISTINCT term once for msm
            should_cnt = np.zeros(n, dtype=np.int32)
            for i, term in enumerate(should_terms):
                d, s = self._contribution_range(term)
                acc[d - self.lo] += s
                if term not in should_terms[:i]:
                    should_cnt[d - self.lo] += 1
        if n_clauses > 0:
            ok = nt == n_clauses
            if msm > 0 and should_cnt is not None:
                ok &= should_cnt >= msm
        elif should_cnt is not None:
            ok = should_cnt >= max(msm, 1)
        elif must_not_terms:
            ok = np.ones(n, dtype=bool)
            acc[:] = 1.0
        else:
            return self._EMPTY
        for term in must_not_terms or []:
            ok[self._postings_range(term)[0] - self.lo] = False
        return self._top(acc, ok, k)

    def union(self, terms: list[str]) -> np.ndarray:
        """Sorted live range docs holding any of ``terms``: counts, hit sets
        and the constant-score rewrite of prefix/wildcard/fuzzy
        expansions."""
        flags = np.zeros(self.hi - self.lo, dtype=bool)
        if terms:
            flags[np.concatenate([self._postings_range(t)[0] for t in terms]) - self.lo] = True
        if len(self._dead_local):
            flags[self._dead_local] = False
        return np.nonzero(flags)[0] + self.lo

    def prefix_union(self, prefix: str) -> np.ndarray:
        """:meth:`union` of the terms starting with ``prefix``, cached per
        prefix while the cache holds fewer than ``_PREFIX_CACHE_DOCS`` ids."""
        docs = self._prefix_docs.get(prefix)
        if docs is None:
            docs = self.union(self.eng.expand_prefix(prefix))
            if self._prefix_size + len(docs) <= _PREFIX_CACHE_DOCS:
                self._prefix_docs[prefix] = docs
                self._prefix_size += len(docs)
        return docs


_PROCESS_RANGE_ENGINES: "OrderedDict[tuple[str, int, int], RangeEngine]" = OrderedDict()
# a pool actor evaluates one share of each index it serves (one range unless
# the share exceeds DENSE_ACC_LIMIT docs), and the shares move when the pool
# grows or the doc count changes; each cached RangeEngine holds a
# prefix-union cache of up to _PREFIX_CACHE_DOCS ids, so bound the set (LRU)
_PROCESS_RANGE_ENGINES_CAP = 8
# this process's range-engine LRU events; range_cache_stats() sums them over
# the pool actors
_RANGE_CACHE_LOCAL = {"hits": 0, "misses": 0, "evictions": 0}


def _process_range_engine(index_dir: str, lo: int, hi: int) -> "RangeEngine":
    """One RangeEngine per (index_dir, range) per process (LRU-capped) over
    the process engine, whose term caches every range of the process reads.
    It lives as long as its process engine: a manifest change drops it, a
    tombstone change re-slices its tombstones in place."""
    eng = _process_engine(index_dir)
    key = (index_dir, lo, hi)
    rng = _PROCESS_RANGE_ENGINES.get(key)
    if rng is not None:
        _PROCESS_RANGE_ENGINES.move_to_end(key)
        if rng._tombstones is not eng._deleted:
            rng.sync_deleted()
        _RANGE_CACHE_LOCAL["hits"] += 1
        return rng
    rng = _PROCESS_RANGE_ENGINES[key] = RangeEngine(eng, lo, hi)
    _RANGE_CACHE_LOCAL["misses"] += 1
    while len(_PROCESS_RANGE_ENGINES) > _PROCESS_RANGE_ENGINES_CAP:
        _PROCESS_RANGE_ENGINES.popitem(last=False)
        _RANGE_CACHE_LOCAL["evictions"] += 1
    return rng


# one row per (query, range, hit): an actor call's output, the merge's input
_PARTIAL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("doc_id", pa.int64()), ("score", pa.float64()),
     ("kind", pa.string()), ("k", pa.int64()), ("from", pa.int64())]
)
# rank 0 / doc_id -1 rows carry count-kind totals in ``score``
_SCATTER_SCHEMA = pa.schema([pa.field("query_id", pa.int64()), *RESULT_SCHEMA])


def _eval_query(rng: RangeEngine, q: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(doc_ids, scores)`` of a checked batch-query dict's top ``n`` in the
    range ``rng``; a count-kind query gives doc -1 with its range hit count
    as the score."""
    eng, kind = rng.eng, q["kind"]
    if kind == "match":
        return rng.match(eng.analyzer.tokenize(q.get("text") or ""), n, after=q.get("after"))
    if kind == "match_phrase":
        return rng.match_phrase(eng.analyzer.tokenize(q.get("text") or ""), n)
    if kind == "bool_must":
        return rng.bool_must(
            list(q.get("must_terms") or []),
            n,
            keyword_eq=[tuple(p) for p in q.get("keyword_eq") or []],
            keyword_prefix=[tuple(p) for p in q.get("keyword_prefix") or []],
            must_not_terms=list(q.get("must_not_terms") or []),
            should_terms=list(q.get("should_terms") or []),
            require_should=bool(q.get("require_should") or False),
            keyword_in=[(p[0], list(p[1])) for p in q.get("keyword_in") or []],
            minimum_should_match=q.get("minimum_should_match"),
        )
    if kind == "prefix_content":
        return _constant_top(rng.prefix_union(q.get("prefix") or ""), n)
    # expansions come from the PROCESS-cached dictionaries (same on every
    # range of a process; the per-pattern result is LRU'd in the engine's
    # expansion cache)
    if kind == "wildcard":
        return _constant_top(rng.union(eng.expand_wildcard(q.get("pattern") or "")), n)
    if kind == "fuzzy":
        terms = eng.expand_fuzzy(q.get("term") or "", q.get("max_edits", 1),
                                 q.get("prefix_length") or 0,
                                 bool(q.get("transpositions", True)))
        return _constant_top(rng.union(terms), n)
    # count (the caller checked every kind)
    hits = len(rng.union(eng.analyzer.tokenize(q.get("text") or "")))
    return np.array([-1], dtype=np.int64), np.array([float(hits)], dtype=np.float64)


def _eval_range_batch(
    queries: list[dict], *, index_dir: str, ranges: list[tuple[int, int]]
) -> pa.Table:
    """A pool actor's call: evaluate every query against each doc range
    [lo, hi) of ``ranges``; emit top-(from + k) partials (plus per-range
    counts for count-kind queries)."""
    qid_l, doc_l, score_l, kind_l, k_l, frm_l = [], [], [], [], [], []
    for lo, hi in ranges:
        rng = _process_range_engine(index_dir, lo, hi)
        for q in queries:
            q_k, q_frm = _page(q)
            # ranges return the top (from + k); the merge slices the offset
            docs, scores = _eval_query(rng, q, q_k + q_frm)
            if len(docs):
                qid_l.append(np.full(len(docs), q["query_id"], dtype=np.int64))
                doc_l.append(docs)
                score_l.append(scores)
                kind_l.extend([q["kind"]] * len(docs))
                k_l.append(np.full(len(docs), q_k, dtype=np.int64))
                frm_l.append(np.full(len(docs), q_frm, dtype=np.int64))
    if not qid_l:
        return _PARTIAL_SCHEMA.empty_table()
    return pa.table([np.concatenate(qid_l), np.concatenate(doc_l),
                     np.concatenate(score_l), pa.array(kind_l, pa.string()),
                     np.concatenate(k_l), np.concatenate(frm_l)],
                    schema=_PARTIAL_SCHEMA)


def _merge_query_buckets(partials: pa.Table) -> pa.Table:
    """Merge every query's per-range partials into its final top-k (or
    summed count) in one vectorized pass: one lexsort over all partial rows
    plus segmented position math, instead of one call per query.  The pinned
    (score desc, doc_id asc) tiebreak is identical to :func:`topk_indices`,
    so results match the single-engine path bit-for-bit.  Rows come out
    sorted by (query_id, rank)."""
    qids = partials["query_id"].to_numpy()
    docs = partials["doc_id"].to_numpy()
    scores = partials["score"].to_numpy()
    kinds = partials["kind"].to_numpy(zero_copy_only=False)
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
        rk = partials["k"].to_numpy()[ranked]
        rf = partials["from"].to_numpy()[ranked]
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
        return _SCATTER_SCHEMA.empty_table()
    q, r = np.concatenate(out_q), np.concatenate(out_r)
    order = np.lexsort((r, q))
    return pa.table([q[order], r[order], np.concatenate(out_d)[order],
                     np.concatenate(out_s)[order]], schema=_SCATTER_SCHEMA)


# keys each batch-query kind takes besides query_id, kind, k and from
_QUERY_KEYS = {
    "match": {"text", "after"},
    "match_phrase": {"text"},
    "bool_must": {"must_terms", "keyword_eq", "keyword_prefix", "keyword_in",
                  "must_not_terms", "should_terms", "require_should",
                  "minimum_should_match"},
    "prefix_content": {"prefix"},
    "wildcard": {"pattern"},
    "fuzzy": {"term", "max_edits", "prefix_length", "transpositions"},
    "count": {"text"},
}
_COMMON_QUERY_KEYS = {"query_id", "kind", "k", "from"}


def _page(q: dict) -> tuple[int, int]:
    """(k, from) of a batch query: a missing or None ``k`` is 10 and a
    missing or None ``from`` is 0 (so ``k=0`` asks for no hits, as on the
    engine); a negative one raises :func:`_check_page`'s ``ValueError``."""
    k, frm = q.get("k"), q.get("from")
    return _check_page(10 if k is None else k, 0 if frm is None else frm, q.get("query_id"))


def _check_query(q: dict) -> None:
    """Reject a query dict the evaluator would misread: an unknown kind, a
    key its kind does not take (a typo or a clause of another kind would
    otherwise be silently ignored), a negative ``k`` or ``from``, or fuzzy
    parameters the engine cannot serve."""
    qid, kind = q.get("query_id"), q.get("kind")
    if kind not in _QUERY_KEYS:
        raise ValueError(
            f"query {qid!r} has unknown kind {kind!r}; kinds: {sorted(_QUERY_KEYS)}"
        )
    unknown = sorted(set(q) - _COMMON_QUERY_KEYS - _QUERY_KEYS[kind])
    if unknown:
        raise ValueError(f"query {qid!r} ({kind}) has keys {kind} does not take: {unknown}")
    _page(q)
    if kind == "fuzzy":
        _check_fuzzy_params(q.get("max_edits", 1), q.get("prefix_length") or 0,
                           where=f"query {qid!r} (fuzzy)")


def _check_queries(queries: list[dict]) -> None:
    """:func:`_check_query` every batch query, and reject a missing
    ``query_id``."""
    for q in queries:
        if q.get("query_id") is None:
            raise ValueError(f"query {q!r} has no query_id")
        _check_query(q)


def _check_positive(value, name: str) -> int:
    """``value`` as an int, or ``ValueError`` naming ``name`` when it is not
    a positive integer."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return n


def batch_search_scatter(
    index_dir: str,
    queries: list[dict],
    n_ranges: int = 8,
    chunk_size: int = 2048,
    output_dir: str | None = None,
) -> pa.Table:
    """Scatter-gather batch evaluation on this Ray session's pool of
    min(``n_ranges``, cluster CPUs) range actors.  ``[0, n_docs)`` is cut
    into one contiguous share per actor, scored as one doc range: a range
    bounds only the evaluator's dense accumulator, so a share is cut further
    only where it exceeds ``DENSE_ACC_LIMIT`` docs.  Each call carries at most
    ``chunk_size`` queries; the driver gathers the actors' partial
    top-(from + k)/count rows and merges them exactly in one vectorized pass,
    holding at most one page of partial rows per range per query (one row
    per range for a count).  A query dict without ``query_id``, of an
    unknown kind or with a key its kind does not take, or an ``n_ranges`` or
    ``chunk_size`` that is not a positive integer, raises ``ValueError``
    before any actor call.

    Results are identical to running each query on a single full engine:
    per-doc scores are computed whole within the doc's range and the merge
    reuses the pinned (score desc, doc_id asc) top-k selection.  With
    ``output_dir`` the merged (query_id, rank, doc_id, score) table is
    written to ``output_dir/part-0.parquet`` (the directory is emptied
    first) and a one-row ``rows_written`` summary is returned.
    """
    n_ranges = _check_positive(n_ranges, "n_ranges")
    chunk_size = _check_positive(chunk_size, "chunk_size")
    _check_queries(queries)
    merged = (
        _scatter(index_dir, queries, n_ranges, chunk_size)
        if queries else _SCATTER_SCHEMA.empty_table()
    )
    if output_dir is None:
        return merged
    import shutil

    shutil.rmtree(output_dir, ignore_errors=True)
    os.makedirs(output_dir)
    # dot-prefixed: dataset readers skip the temp file until it is renamed
    tmp = os.path.join(output_dir, ".part-0.parquet.tmp")
    pq.write_table(merged, tmp)
    os.replace(tmp, os.path.join(output_dir, "part-0.parquet"))
    return pa.table({"rows_written": pa.array([len(merged)], pa.int64()),
                     "output_dir": pa.array([output_dir], pa.string())})


class _RangeServer:
    """A long-lived range server of the scatter pool.  Its process engines
    (:func:`_process_engine`, :func:`_process_range_engine`) are its state:
    they stay warm across calls and re-key on the manifest they are asked
    about."""

    def eval(self, index_dir: str, ranges: list[tuple[int, int]], queries: list[dict]) -> pa.Table:
        return _eval_range_batch(queries, index_dir=index_dir, ranges=ranges)

    def cache_stats(self) -> dict:
        return dict(_RANGE_CACHE_LOCAL)


# zero-CPU: the pool never holds a core a build needs.  The class stays
# importable under its own name, so Ray ships it by reference and its
# methods run against this module's globals, not a pickled copy of them.
_RangeActor = ray.remote(num_cpus=0)(_RangeServer)


# this Ray session's scatter pool, grown on demand to min(n_ranges, cluster
# CPUs) actors; a new session starts an empty one
_POOL: dict = {"session": None, "cpus": 0, "actors": []}


def _session() -> tuple:
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


def _range_pool(n_ranges: int) -> list:
    """The first min(``n_ranges``, cluster CPUs) actors of the session's
    pool, started on first use.  One pool serves every index dir, so a
    fresh index pays no process start."""
    session = _session()
    if _POOL["session"] != session:
        cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
        _POOL.update(session=session, cpus=cpus, actors=[])
    size = min(n_ranges, _POOL["cpus"])
    actors = _POOL["actors"]
    while len(actors) < size:
        actors.append(_RangeActor.remote())
    return actors[:size]


def _replace_actor(slot: int, dead) -> "ray.actor.ActorHandle":
    """Pool slot ``slot`` with a live actor in place of ``dead``."""
    actors = _POOL["actors"]
    if actors[slot] is dead:  # not yet replaced by an earlier failed call
        actors[slot] = _RangeActor.remote()
    return actors[slot]


def _cut(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` as ``n`` consecutive ranges whose widths differ by at
    most one doc."""
    bounds = [lo + i * (hi - lo) // n for i in range(n)] + [hi]
    return list(zip(bounds[:-1], bounds[1:]))


def _scatter(index_dir: str, queries: list[dict], n_ranges: int, chunk_size: int) -> pa.Table:
    """Evaluate ``queries`` on the pool actors and merge their partials on
    the driver.  ``[0, n_docs)`` is cut into one contiguous share per actor,
    and a share is cut further only into runs of at most ``DENSE_ACC_LIMIT``
    docs, which its actor evaluates in one call.  More ranges on one actor
    would bound nothing (they slice the same process engine's term caches)
    and would only repeat each query's tokenize, accumulate and top-k.
    Share s always goes to actor s, so its RangeEngines stay warm across
    calls.  A call whose actor died runs once more on a replacement."""
    n_docs = int(load_manifest(index_dir)["n_docs"])
    pool = _range_pool(min(n_ranges, max(1, n_docs)))
    shares = [_cut(lo, hi, max(1, -(-(hi - lo) // DENSE_ACC_LIMIT)))
              for lo, hi in _cut(0, n_docs, len(pool))]
    calls = [
        (slot, shares[slot], queries[i : i + chunk_size])
        for i in range(0, len(queries), chunk_size)
        for slot in range(len(pool))
    ]
    refs = [pool[slot].eval.remote(index_dir, ranges, chunk) for slot, ranges, chunk in calls]
    parts = []
    for (slot, ranges, chunk), ref in zip(calls, refs):
        try:
            parts.append(ray.get(ref))
        except ray.exceptions.RayActorError:
            actor = _replace_actor(slot, pool[slot])
            parts.append(ray.get(actor.eval.remote(index_dir, ranges, chunk)))
    return _merge_query_buckets(pa.concat_tables(parts))


def range_cache_stats() -> dict | None:
    """Range-engine LRU hits, misses and evictions summed over the scatter
    pool's actors, or None when this Ray session has no pool.  An actor
    counts one lookup per range of its share per call: one per call unless
    its share exceeds ``DENSE_ACC_LIMIT`` docs.  A dead actor's counts died
    with it."""
    if not ray.is_initialized() or _POOL["session"] != _session():
        return None
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for actor in _POOL["actors"]:
        try:
            for key, n in ray.get(actor.cache_stats.remote()).items():
                totals[key] += n
        except ray.exceptions.RayActorError:
            pass
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = round(totals["hits"] / lookups, 4) if lookups else None
    return totals
