"""Upsert-by-key dedup + deterministic dense doc-id assignment — key-only sort.

Dedup reproduces the reference's upsert-by-primary-key semantics ("last writer
wins" per doc, reference: src/librecatastro/domain/cadaster_entry/
cadaster_entry.py:53 — ``es.index(..., id=self.cadaster)``).  A static Parquet
corpus has no arrival order, so the winner per (repo, path) key is pinned to a
deterministic total order: the row with the lexicographically greatest
sha256(content).

Ids are dense int64 in sorted (repo, path) order (SURVEY.md §2.F F2: the
reference's deterministic alphabetical iteration) and depend only on the data,
never on parallelism.

Scale design — the corpus payload (``content``, ~KBs..100KB per row) never
enters a shuffle.  A naive ``ds.sort(keys)`` would move every content byte
through the all-to-all exchange twice (map spill + reduce fetch); at corpus
scale that is the whole dataset through the object store for what is logically
a metadata operation.  Instead:

  1. ``add_sha`` appends sha256 to each content block; the blocks stay in
     the object store where they are put.  Parquet files (a corpus path,
     or compaction's live rows) are read by one plain task per block of
     consecutive rows, which may span files, and an in-memory table is cut
     into row-slice blocks that the driver hashes and puts, so neither runs
     a Ray Data job; a Dataset runs it as a stateless ``map_batches`` and is
     materialized once (the write's only Ray Data job).
  2. A per-block task projects the tiny key table
     ``(bid, row, repo, path, sha256)`` (~100 B/row).
  3. Only the key tables are globally sorted — the engine's one global
     sort, ~0.1% of corpus bytes: a 2-round distributed sample sort
     (deterministic evenly-spaced samples → boundary split via vectorized
     compares → per-range sorts), single-task below ~300k keys.
  4. Per sorted key block: keep-last-of-(repo,path)-run dedup (the next
     block's first key resolves runs spanning a block boundary); dense doc_id
     = per-block cumulative offsets (driver handles only per-block metadata).
  5. Winner ``(bid, row, doc_id)`` triples are scattered straight into
     bid-range groups (one ``num_returns`` task round, no second sort) and
     routed back to their content block; the apply task takes the big block
     ref as its first argument, so Ray's locality-aware scheduling runs it on
     the node already holding the block — content crosses the network zero
     times in the common case, and the fused write variant streams the
     finished doc-store block straight to parquet.  That task tokenizes the
     block's winners once (``batch_size`` rows at a time), for their ``dl``
     and for the block's flat postings, which it spills before it writes
     the doc-store part.  Once every block has spilled, the footers of the
     spill files give the segment's posting count, which sets its term
     partition count (``merge.partition_count``).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import ray
import ray.data

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.hashing import sha256_batch
from librecatastro_ray.stages import postings
from librecatastro_ray.stages.merge import merged_skeys, partition_count
from librecatastro_ray.stages.postings import salt_range_width
from librecatastro_ray.state.manifest import INDEX_FORMAT_VERSION


def add_sha(batch: pa.Table) -> pa.Table:
    """map_batches (stateless task): append sha256(content), the dedup
    tiebreak.  Nothing is tokenized before the dedup: the apply task
    tokenizes each winner once, for its ``dl`` and its postings."""
    return batch.append_column("sha256", sha256_batch(batch["content"]))


def cluster_cpus() -> int:
    """The CPUs the write path sizes its task rounds by (at least 2)."""
    return max(2, int(ray.cluster_resources().get("CPU", 4)))


@ray.remote
def _extract_keys(block: pa.Table, bid: int) -> pa.Table:
    """Project the sort/dedup key columns plus the block/row address."""
    n = len(block)
    if n == 0 or "repo" not in block.column_names:
        # empty blocks out of an empty upstream may carry no schema
        return pa.table(
            {
                "bid": pa.array([], pa.int32()),
                "row": pa.array([], pa.int32()),
                "repo": pa.array([], pa.string()),
                "path": pa.array([], pa.string()),
                "sha256": pa.array([], pa.string()),
            }
        )
    return pa.table(
        {
            "bid": pa.array(np.full(n, bid, dtype=np.int32), pa.int32()),
            "row": pa.array(np.arange(n, dtype=np.int32), pa.int32()),
            "repo": block["repo"],
            "path": block["path"],
            "sha256": block["sha256"],
        }
    )


def _combined_key(t: pa.Table) -> pa.Array:
    """repo\\x00path\\x00sha256 as one binary column — bytewise order equals
    the (repo, path, sha256) tuple order (separator below any content byte),
    and single-column compares/sorts run ~3× faster than 3-key ones."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        t["repo"].combine_chunks(), t["path"].combine_chunks(),
        t["sha256"].combine_chunks(), "\x00"
    )


@ray.remote
def _sort_keys_single(*tables: pa.Table) -> pa.Table:
    """Whole key table sorted in ONE task (smallest corpora)."""
    import pyarrow.compute as pc

    t = pa.concat_tables(tables).combine_chunks()
    return t.take(pc.sort_indices(_combined_key(t)))


@ray.remote
def _sample_keys(block: pa.Table, n: int) -> list[bytes]:
    """Evenly spaced combined-key samples from one key block."""
    import pyarrow.compute as pc

    if len(block) == 0:
        return []
    idx = np.linspace(0, len(block) - 1, num=min(n, len(block)), dtype=np.int64)
    return pc.binary_join_element_wise(
        block["repo"].take(pa.array(idx)),
        block["path"].take(pa.array(idx)),
        block["sha256"].take(pa.array(idx)),
        "\x00",
    ).to_pylist()


@ray.remote
def _split_keys(block: pa.Table, bounds: list[bytes]) -> tuple:
    """Scatter one key block into len(bounds)+1 boundary ranges via
    vectorized string compares (partition id = Σ key > bound_i)."""
    import pyarrow.compute as pc

    P = len(bounds) + 1
    if len(block) == 0:
        out = block
        return tuple(out for _ in range(P)) if P > 1 else out
    ck = _combined_key(block)
    part = np.zeros(len(block), dtype=np.int64)
    for b in bounds:
        part += pc.greater(ck, b).to_numpy(zero_copy_only=False).astype(np.int64)
    outs = tuple(block.filter(pa.array(part == p)) for p in range(P))
    return outs if P > 1 else outs[0]


@ray.remote
def _sort_range(*tables: pa.Table) -> pa.Table:
    """Sort one boundary range (all rows ≤ its upper bound land here)."""
    import pyarrow.compute as pc

    t = pa.concat_tables(tables).combine_chunks()
    if len(t) == 0:
        return t
    return t.take(pc.sort_indices(_combined_key(t)))


def _sorted_key_blocks(key_refs: list, n_rows: int) -> list:
    """Distributed sample sort of the key table: 2 task rounds (split by
    sampled boundaries → per-range sort), no Ray Data sort machinery.
    Boundaries come from deterministic evenly-spaced samples; they only
    steer partitioning — final order and dedup are boundary-independent."""
    # ~300k keys per sort range; below one range, sorting in one task beats
    # paying the sample/split round
    P = max(1, min(cluster_cpus(), round(n_rows / 300_000)))
    if P <= 1:
        return [_sort_keys_single.remote(*key_refs)]
    samples = sorted(
        s for part in ray.get([_sample_keys.remote(r, 32) for r in key_refs]) for s in part
    )
    if not samples:
        return [_sort_keys_single.remote(*key_refs)]
    bounds = [samples[(i + 1) * len(samples) // P] for i in range(P - 1)]
    bounds = sorted(set(bounds))
    P = len(bounds) + 1
    if P <= 1:
        return [_sort_keys_single.remote(*key_refs)]
    splits = [
        _split_keys.options(num_returns=P).remote(r, bounds) for r in key_refs
    ]
    return [_sort_range.remote(*[s[p] for s in splits]) for p in range(P)]


@ray.remote
def _key_block_meta(block: pa.Table) -> tuple[str, str, str, int]:
    if len(block) == 0:
        return ("", "", "", 0)
    return (
        block["repo"][0].as_py(),
        block["path"][0].as_py(),
        block["sha256"][0].as_py(),
        len(block),
    )


@ray.remote(num_returns=2)
def _dedup_keys(block: pa.Table, next_key: tuple[str, str] | None):
    """Keep the last row of each (repo, path) run (sha asc → last = max sha).
    The run that reaches the end of the block also loses its last row when the
    NEXT block starts with the same key.  Returns (winner key table, count)."""
    n = len(block)
    if n == 0:
        return block, 0
    repo = np.asarray(block["repo"])
    path = np.asarray(block["path"])
    keep = np.ones(n, dtype=bool)
    same = (repo[:-1] == repo[1:]) & (path[:-1] == path[1:])
    keep[:-1] = ~same
    if next_key is not None and repo[-1] == next_key[0] and path[-1] == next_key[1]:
        keep[-1] = False
    out = block.filter(pa.array(keep))
    return out, len(out)


@ray.remote
def _stamp_split(winners: pa.Table, offset: int, n_groups: int, span: int) -> tuple:
    """Winners arrive in global (repo, path) order; dense ids are the global
    positions.  Emits the routing triples (bid, row, doc_id) pre-split into
    ``n_groups`` bid-range groups (group g owns bids [g*span, (g+1)*span)) —
    a direct scatter that replaces a second Ray Data sort round with one
    task round."""
    ids = pa.array(np.arange(offset, offset + len(winners), dtype=np.int64), pa.int64())
    t = pa.table({"bid": winners["bid"], "row": winners["row"], "doc_id": ids})
    if n_groups == 1:
        # num_returns=1 → the whole return value is ONE object, no unpacking
        return t
    grp = t["bid"].to_numpy() // span
    return tuple(t.filter(pa.array(grp == g)) for g in range(n_groups))


def _select_winners(block: pa.Table, bid: int, winner_groups) -> pa.Table | None:
    parts = []
    for wb in winner_groups:
        mask = wb["bid"].to_numpy() == bid
        if mask.any():
            parts.append(wb.filter(pa.array(mask)))
    return pa.concat_tables(parts) if parts else None


def _stamped_block(block: pa.Table, bid: int, winner_groups) -> pa.Table:
    w = _select_winners(block, bid, winner_groups)
    if w is None:
        return block.slice(0, 0).append_column("doc_id", pa.array([], pa.int64()))
    rows = w["row"].to_numpy().astype(np.int64)
    ids = w["doc_id"].to_numpy()
    order = np.argsort(rows, kind="stable")
    out = block.take(pa.array(rows[order]))
    return out.append_column("doc_id", pa.array(ids[order], pa.int64()))


@ray.remote
def _map_stamped(block: pa.Table, bid: int, fn, kwargs: dict, *winner_groups: pa.Table):
    """``fn(docs, **kwargs)`` over the id-stamped winners of one block."""
    return fn(_stamped_block(block, bid, winner_groups), **kwargs)


@ray.remote
def _apply_ids_write(block: pa.Table, bid: int, docs_dir: str, analyzer_id: str, spill: dict,
                     *winner_groups: pa.Table) -> tuple[int, int]:
    """Filter a content block to its dedup winners, append doc_id and write
    the finished doc-store block straight to ``docs_dir/part-{bid}.parquet``
    (atomic tmp+rename) — the corpus payload goes object store → disk
    without a second materialized copy.  The block is the first (largest)
    argument so Ray schedules this task on the node that owns it: winners
    are the only bytes that travel.  The winners are tokenized once,
    ``batch_size`` rows at a time, by ``postings.spill_block(**spill)``: the
    tokens give the block's flat postings, which it spills BEFORE the part
    is written (so the part is the block's commit), and the doc store's
    ``dl`` column.  A part file that already exists (same build plan, see
    dedup_assign_write) is not rewritten — block-level resume — and if its
    spill is gone it is spilled again from the part.
    Returns (n_rows, sum_dl)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.functions.analysis import get_analyzer

    tokenize = get_analyzer(analyzer_id).tokenize_batch
    path = os.path.join(docs_dir, f"part-{bid:06d}.parquet")
    if os.path.exists(path):
        if postings.spilled(spill["spill_dir"], bid):
            dl = pq.read_table(path, columns=["dl"])["dl"]
            return len(dl), int(np.asarray(dl).sum())
        docs = pq.read_table(path)
        postings.spill_block(docs, tokenize, bid, **spill)
        return len(docs), int(np.asarray(docs["dl"]).sum())
    docs = _stamped_block(block, bid, winner_groups)
    if len(docs) == 0:
        return 0, 0
    dl = postings.spill_block(docs, tokenize, bid, **spill)
    # the doc-store column order: corpus columns, sha256, dl, doc_id
    docs = docs.add_column(docs.num_columns - 1, "dl", pa.array(dl, pa.int64()))
    tmp = path + ".tmp"
    pq.write_table(docs, tmp, compression="zstd")
    os.replace(tmp, path)
    return len(docs), int(dl.sum())


def binary_column_payload(col) -> np.ndarray:
    """Concatenated cell payloads of an Arrow binary/string column as a uint8
    view — zero copy per chunk.  By the Arrow layout, cell i occupies
    ``data[offsets[i]:offsets[i+1]]``, so the row-order concatenation of all
    cells is exactly ``data[offsets[0]:offsets[n]]`` (no per-cell Python
    objects, unlike ``b"".join(col.to_pylist())``)."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts: list[np.ndarray] = []
    for c in chunks:
        if len(c) == 0:
            continue
        offs = np.frombuffer(c.buffers()[1], dtype=np.int32, count=c.offset + len(c) + 1)
        data = (
            np.frombuffer(c.buffers()[2], dtype=np.uint8)
            if c.buffers()[2] is not None
            else np.zeros(0, np.uint8)
        )
        parts.append(data[offs[c.offset] : offs[c.offset + len(c)]])
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _block_fp(block: pa.Table) -> str:
    """Content fingerprint of one corpus block: md5 over the FULL sha256
    column (already computed by add_sha — ~64 B/row, so hashing every row
    is microseconds per block).  Makes the resume plan CONTENT-aware: any
    byte change in any row changes that row's sha and hence the block
    fingerprint, so identical-layout content changes can no longer silently
    keep stale part files."""
    import hashlib

    if len(block) == 0 or "sha256" not in block.column_names:
        return "empty"
    # shas are fixed-width (64 hex chars) non-null values, so the packed
    # buffer payload IS the row-order concatenation — one md5, no per-row
    # Python
    h = hashlib.md5(str(len(block)).encode())
    h.update(binary_column_payload(block["sha256"]).tobytes())
    return h.hexdigest()


_block_fp_task = ray.remote(_block_fp)


# the columns of a corpus row: the dedup key (repo, path), the sha256 input
# (content) and the rest of the doc store
CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]

TARGET_BLOCK_BYTES = 64 << 20  # ~64 MB of input per content block

# the fewest rows a content block of a corpus path or table has (unless the
# input has fewer), and the map_batches batch size of a Dataset's sha256
SHA_BATCH_ROWS = 512


def check_corpus_columns(names: list[str], what: str) -> None:
    """A ``ValueError`` naming the ``CORPUS_COLUMNS`` that ``names`` (the
    columns of ``what``) lacks."""
    missing = [c for c in CORPUS_COLUMNS if c not in names]
    if missing:
        raise ValueError(f"{what} lacks column(s) {missing}: a corpus has columns "
                         f"{CORPUS_COLUMNS}")


def _block_rows(n_rows: int, nbytes: int) -> int:
    """Rows per content block of an input of ``n_rows`` rows and ``nbytes``
    bytes: about ``TARGET_BLOCK_BYTES`` a block with a floor of 2 blocks per
    CPU for parallelism, but at least ``SHA_BATCH_ROWS`` rows, so a small
    write (a 100-doc add) is one block and one apply task."""
    n_blocks = max(2 * cluster_cpus(), nbytes // TARGET_BLOCK_BYTES)
    return max(SHA_BATCH_ROWS, -(-n_rows // n_blocks))


@dataclass(frozen=True)
class ParquetCorpus:
    """Corpus parquet ``files`` read by plain tasks, in order; the rows
    whose ``doc_id`` is in ``dead`` (sorted ids, compaction's tombstones)
    are dropped.  A corpus path is read as the parquet files under it."""

    files: list[str]
    dead: np.ndarray | None = None


def _parquet_files(path: str) -> list[str]:
    """The parquet files of a corpus path (one file or a directory of
    them), sorted."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(r, f) for r, _d, fs in os.walk(path) for f in fs if f.endswith(".parquet"))
    if not files:
        raise FileNotFoundError(f"no parquet corpus file at {path}")
    return files


def _plan_blocks(files: list[str]) -> list[list[tuple[str, int, int]]]:
    """The ``(file, first row, rows)`` pieces of each content block of
    parquet ``files``: consecutive rows of the files in order, cut every
    ``_block_rows`` rows, so a block spans as many small files as it takes
    and a directory of many small files is not one block per file.  Only
    the footers are read; a ``ValueError`` for a file without the corpus
    columns."""
    import pyarrow.parquet as pq

    metas = [pq.read_metadata(f) for f in files]
    for f, m in zip(files, metas):
        check_corpus_columns(m.schema.to_arrow_schema().names, f)
    step = _block_rows(sum(m.num_rows for m in metas), sum(os.path.getsize(f) for f in files))
    blocks: list[list[tuple[str, int, int]]] = []
    block: list[tuple[str, int, int]] = []
    room = step
    for f, m in zip(files, metas):
        first = 0
        while first < m.num_rows:
            n = min(room, m.num_rows - first)
            block.append((f, first, n))
            first += n
            room -= n
            if room == 0:
                blocks.append(block)
                block, room = [], step
    if block:
        blocks.append(block)
    return blocks


def _read_rows(path: str, first: int, n: int, columns: list[str]) -> pa.Table:
    """Rows [first, first + n) of a parquet file: only the row groups that
    hold them are read."""
    import bisect

    import pyarrow.parquet as pq

    with pq.ParquetFile(path) as pf:
        md = pf.metadata
        starts = np.cumsum([0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)])
        lo = bisect.bisect_right(starts, first) - 1
        hi = bisect.bisect_left(starts, first + n)
        t = pf.read_row_groups(range(lo, hi), columns=columns, use_threads=False)
    return t.slice(first - starts[lo], n).replace_schema_metadata(None)


@ray.remote(num_returns=3)
def _read_block(pieces: list[tuple[str, int, int]], dead: np.ndarray | None
                ) -> tuple[pa.Table, int, str]:
    """One content block, the rows of its ``(file, first, n)`` pieces
    (corpus columns only, without the rows whose doc_id ``dead`` holds)
    with sha256 appended, its row count and its content fingerprint."""
    columns = CORPUS_COLUMNS if dead is None else ["doc_id", *CORPUS_COLUMNS]
    t = pa.concat_tables([_read_rows(f, first, n, columns) for f, first, n in pieces],
                         promote_options="permissive")
    if dead is not None:
        t = t.filter(pa.array(~np.isin(t["doc_id"].to_numpy(), dead))).select(CORPUS_COLUMNS)
    block = add_sha(t)
    return block, len(block), _block_fp(block)


def _sha_blocks(corpus: str | ParquetCorpus | pa.Table | ray.data.Dataset
                ) -> tuple[list, list[int], list[str]]:
    """The pass's content blocks with sha256 appended: their object refs,
    row counts and content fingerprints.  Parquet files (a corpus path or
    a ``ParquetCorpus``) are read by one plain task per block
    (``_plan_blocks``); an in-memory table (its ``CORPUS_COLUMNS``) is cut
    into row slices of the same size that the driver hashes and puts in
    the object store; neither runs a Ray Data job.  A Dataset runs the
    sha256 ``map_batches``, the write's one Ray Data job, and is
    materialized."""
    if isinstance(corpus, str):
        corpus = ParquetCorpus(_parquet_files(corpus))
    if isinstance(corpus, ParquetCorpus):
        dead = None if corpus.dead is None else ray.put(corpus.dead)
        refs, rows, fps = [], [], []
        for pieces in _plan_blocks(corpus.files):
            block, n, fp = _read_block.remote(pieces, dead)
            refs.append(block)
            rows.append(n)
            fps.append(fp)
        return refs, ray.get(rows), ray.get(fps)
    if isinstance(corpus, pa.Table):
        step = _block_rows(len(corpus), corpus.nbytes)
        blocks = [add_sha(corpus.slice(i, step)) for i in range(0, len(corpus), step)]
        return [ray.put(b) for b in blocks], [len(b) for b in blocks], [_block_fp(b) for b in blocks]
    mat = corpus.map_batches(add_sha, batch_format="pyarrow", batch_size=SHA_BATCH_ROWS)
    refs = []
    rows: list[int] = []
    for bundle in mat.materialize().iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
        rows.extend(int(m.num_rows) for m in bundle.metadata)
    return refs, rows, ray.get([_block_fp_task.remote(r) for r in refs])


def _winner_splits(
    block_refs: list, n_rows: int, id_base: int = 0
) -> tuple[list[list], int, int]:
    """Key extraction → key-only global sort → per-block dedup → id stamping,
    returning ``(groups, span, n_docs)`` where ``groups[g]`` is the list of
    winner-triple refs for bid range [g*span, (g+1)*span)."""
    key_refs = [_extract_keys.remote(r, bid) for bid, r in enumerate(block_refs)]
    skey_refs = _sorted_key_blocks(key_refs, n_rows)
    meta = ray.get([_key_block_meta.remote(r) for r in skey_refs])
    # order blocks by first (repo, path, sha) — sort output blocks are key
    # ranges, so this reconstructs the global order from metadata alone
    order = [i for i in sorted(range(len(skey_refs)), key=lambda i: meta[i][:3]) if meta[i][3] > 0]
    next_keys: list[tuple[str, str] | None] = []
    for j, i in enumerate(order):
        nk = None
        if j + 1 < len(order):
            k = meta[order[j + 1]]
            nk = (k[0], k[1])
        next_keys.append(nk)
    winner_refs, count_refs = [], []
    for i, nk in zip(order, next_keys):
        w_ref, c_ref = _dedup_keys.remote(skey_refs[i], nk)
        winner_refs.append(w_ref)
        count_refs.append(c_ref)
    counts = ray.get(count_refs)
    n_docs = int(sum(counts))
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64) + int(id_base)

    # scatter (bid, row, doc_id) straight into bid-range groups — one task
    # round instead of a second Ray Data sort
    n_blocks = len(block_refs)
    G = max(1, min(32, n_blocks))
    span = (n_blocks + G - 1) // G
    groups: list[list] = [[] for _ in range(G)]
    for w, off in zip(winner_refs, offsets):
        parts = _stamp_split.options(num_returns=G).remote(w, int(off), G, span)
        if G == 1:
            parts = [parts]
        for g, ref in enumerate(parts):
            groups[g].append(ref)
    return groups, span, n_docs


def dedup_assign_write(
    corpus: str | ParquetCorpus | pa.Table | ray.data.Dataset,
    docs_dir: str,
    spill_dir: str,
    config: IndexConfig,
    hot_terms: Callable[[Callable, int, IndexConfig], list[str]],
    id_base: int = 0,
    derived: tuple[str, ...] = (),
) -> tuple[int, int, dict]:
    """The doc-id pass of a build or an add: dedup + id assignment with the
    finished doc-store blocks written straight to ``docs_dir`` (one parquet
    file per content block, atomic rename) — the corpus payload crosses the
    object store exactly once and is never re-materialized — and each
    block's flat postings spilled to ``spill_dir/skey=K/part-{bid}.parquet``
    by the same task, salted for the segment that starts at doc id
    ``id_base``.  ``corpus`` is a parquet corpus path, a ``ParquetCorpus``,
    an in-memory table of ``CORPUS_COLUMNS`` or a Dataset; only a Dataset
    runs a Ray Data job
    (``_sha_blocks``), the rest are plain tasks.  Once the ids are assigned,
    ``hot_terms(map_docs, n_docs, config)`` chooses the segment's hot terms,
    where ``map_docs(fn, **kwargs)`` returns ``fn(docs, **kwargs)`` over
    every id-stamped block, run as plain tasks.

    Block-level resume: a ``_PLAN.json`` records (n_blocks, n_rows,
    per-block row counts AND per-block content fingerprints, the config,
    the index format version and ``id_base``) before any write; when a
    rerun sees the same plan, part files that survived the crash are kept
    (ids are deterministic for a fixed plan, so surviving files are
    correct) and only missing blocks are recomputed.  A differing plan —
    shape, content (the fingerprints hash each block's sha256 column),
    config, version or id base — discards the doc-store parts, the spill
    and the ``derived`` dirs (the merged parts and checkpoints made from
    them) first, the old plan before anything else, so a crash mid-discard
    still leaves a differing plan.  Returns ``(n_docs, sum_dl, layout)``,
    where layout holds the spill's ``hot_terms`` and ``salt_width``, the
    segment's term partition count ``num_partitions``
    (``merge.partition_count``) and the ``skeys`` its merge writes (sorted;
    none when no doc has a token)."""
    import glob
    import json

    block_refs, block_rows, block_fps = _sha_blocks(corpus)
    os.makedirs(docs_dir, exist_ok=True)
    n_rows = sum(block_rows)
    plan_path = os.path.join(docs_dir, "_PLAN.json")
    plan = {
        "version": INDEX_FORMAT_VERSION,
        "id_base": int(id_base),
        "n_blocks": len(block_refs),
        "n_rows": int(n_rows),
        "block_rows": block_rows,
        "block_fps": block_fps,
        "config": config.to_json(),
    }
    old_plan = None
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            old_plan = json.load(f)
    if old_plan != plan:
        if old_plan is not None:
            os.remove(plan_path)
        for f in glob.glob(os.path.join(docs_dir, "part-*.parquet*")):
            os.remove(f)
        for d in (spill_dir, *derived):
            shutil.rmtree(d, ignore_errors=True)
        tmp = plan_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(plan, f)
        os.replace(tmp, plan_path)
    if not block_refs:
        return 0, 0, {"hot_terms": [], "salt_width": 1, "num_partitions": 1, "skeys": []}
    groups, span, n_docs = _winner_splits(block_refs, n_rows, id_base)

    def map_docs(fn, **kwargs) -> list:
        return ray.get([_map_stamped.remote(block, bid, fn, kwargs, *groups[bid // span])
                        for bid, block in enumerate(block_refs)])

    hot = hot_terms(map_docs, n_docs, config)
    width = salt_range_width(n_docs, config.num_salts)
    spill = {"spill_dir": spill_dir, "batch_size": config.batch_size,
             "positions": config.positions, "num_partitions": config.num_partitions,
             "num_salts": config.num_salts, "hot_terms": hot, "salt_width": width,
             "salt_base": id_base}
    refs = [_apply_ids_write.remote(block, bid, docs_dir, config.analyzer, spill,
                                    *groups[bid // span])
            for bid, block in enumerate(block_refs)]
    # let every task end before a failure surfaces: a rerun then never
    # races a task of the failed attempt
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    counts, dl_sums = zip(*ray.get(refs))
    assert sum(counts) == n_docs, f"doc-store rows {sum(counts)} != winners {n_docs}"
    spilled = [int(name.split("=")[1]) for name in os.listdir(spill_dir)
               if name.startswith("skey=")] if os.path.isdir(spill_dir) else []
    d = partition_count(spill_dir, config)
    return n_docs, int(sum(dl_sums)), {"hot_terms": hot, "salt_width": width, "num_partitions": d,
                                       "skeys": merged_skeys(spilled, d, config.num_salts)}
