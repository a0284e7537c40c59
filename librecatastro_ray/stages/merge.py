"""Per-partition posting merge: sort → per-term delta+varbyte blocks with
block-max metadata → atomic write + checkpoint.

One merge task owns a run of shuffle partitions (skeys); partitions are
independent units, each checkpointed as soon as it is merged, so resume is
per partition (reference analogue: the per-street anti-join skip that makes
crawls resumable, reference: src/utils/elasticsearch_utils.py:100-136).

Output per skey = (pkey, salt):
    parts/blocks-{pkey}-{salt}.parquet
        term, block_no, n, last_doc, max_tfnorm, docs (vb deltas), tfs (vb),
        dls (vb)
    parts/dict-{pkey}-{salt}.parquet
        term, df, cf
    checkpoints/part-{skey}.json   lineage + metrics
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.codec import varbyte_encode_with_lengths
from librecatastro_ray.functions.hashing import sha256_hex
from librecatastro_ray.state.manifest import atomic_write_json, checkpoint_path

BLOCKS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("block_no", pa.int32()),
        ("n", pa.int32()),
        ("last_doc", pa.int64()),
        ("max_tfnorm", pa.float64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
        ("dls", pa.binary()),
    ]
)

DICT_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()), ("cf", pa.int64())])

# positions sidecar (config.positions builds only): one row per posting block,
# aligned 1:1 with BLOCKS_SCHEMA rows; ``positions`` is the block's postings'
# delta+varbyte position streams concatenated in posting order (per-posting
# boundaries are implicit — posting i holds exactly tf_i values)
POSITIONS_SCHEMA = pa.schema(
    [("term", pa.string()), ("block_no", pa.int32()), ("positions", pa.binary())]
)


def blocks_file(index_dir: str, pkey: int, salt: int, parts: str = "parts") -> str:
    return os.path.join(index_dir, parts, f"blocks-{pkey:04d}-{salt:02d}.parquet")


def dict_file(index_dir: str, pkey: int, salt: int, parts: str = "parts") -> str:
    return os.path.join(index_dir, parts, f"dict-{pkey:04d}-{salt:02d}.parquet")


def positions_file(index_dir: str, pkey: int, salt: int, parts: str = "parts") -> str:
    return os.path.join(index_dir, parts, f"positions-{pkey:04d}-{salt:02d}.parquet")


def _atomic_write_parquet(path: str, table: pa.Table, row_group_size: int) -> int:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, row_group_size=row_group_size, compression="zstd")
    os.replace(tmp, path)
    return os.path.getsize(path)


def _empty_flat(with_pos: bool) -> pa.Table:
    empty = {
        "term": pa.array([], pa.string()),
        "doc_id": pa.array([], pa.int64()),
        "tf": pa.array([], pa.int64()),
        "dl": pa.array([], pa.int64()),
    }
    if with_pos:
        empty["pos"] = pa.array([], pa.binary())
    return pa.table(empty)


def decode_partition_flat(
    index_dir: str, pkey: int, salt: int, parts: str, with_pos: bool
) -> pa.Table:
    """Inverse of the encode: one partition's blocks back to FLAT postings
    ``(term, doc_id, tf, dl[, pos])`` — the incremental-add path re-merges
    decoded old postings with the new spill, never re-tokenizing content.
    Vectorized throughout; ``pos`` cells are re-cut from the block blobs by
    varbyte VALUE-END arithmetic (a value ends at its first high-bit-0
    byte), no re-encode."""
    from librecatastro_ray.functions.codec import binary_column_payload

    bpath = blocks_file(index_dir, pkey, salt, parts)
    if not os.path.exists(bpath):
        return _empty_flat(with_pos)
    bt = pq.read_table(bpath)
    if len(bt) == 0:
        return _empty_flat(with_pos)
    n = bt["n"].to_numpy().astype(np.int64)
    from librecatastro_ray.pipelines.query import decode_blocks_table

    docs, tfs, dls = decode_blocks_table(bt)
    terms = np.repeat(bt["term"].to_numpy(zero_copy_only=False), n)
    out = {
        "term": pa.array(terms, pa.string()),
        "doc_id": pa.array(docs, pa.int64()),
        "tf": pa.array(tfs, pa.int64()),
        "dl": pa.array(dls, pa.int64()),
    }
    if with_pos:
        ppath = positions_file(index_dir, pkey, salt, parts)
        pt = pq.read_table(ppath)
        blob = binary_column_payload(pt["positions"])
        # byte length of each encoded VALUE = distance between value ends
        ends = np.nonzero((blob & 0x80) == 0)[0]
        vlen = np.diff(np.concatenate([[-1], ends]))
        # per-POSTING byte length = sum of its tf value lengths
        starts_v = np.concatenate([[0], np.cumsum(tfs)[:-1]])
        plen = np.add.reduceat(vlen, starts_v) if len(vlen) else np.zeros(0, np.int64)
        plen = np.where(tfs == 0, 0, plen)  # reduceat artifacts on empty segs
        bounds = np.concatenate([[0], np.cumsum(plen)])
        from librecatastro_ray.stages.postings import _cut_binary

        out["pos"] = _cut_binary(blob, bounds)
    return pa.table(out)


def merge_partition(
    index_dir: str,
    skey: int,
    avgdl: float,
    config: IndexConfig,
    *,
    parts_dir: str = "parts",
    spill_dir: str = "shuffle",
    ckpt_name: str = "checkpoints",
    old_parts: str | None = None,
) -> dict:
    """Merge one shuffle partition of flat postings into encoded blocks.

    Reads ``{index_dir}/{spill_dir}/skey={skey}/`` (written by the phase-1
    partitioned spill), returns the checkpoint entry it wrote.  With
    ``old_parts``, the existing partition is DECODED and merged in (the
    incremental-add path): output goes to ``parts_dir`` (a new generation
    directory — the old generation stays readable until the manifest flips),
    and block-max bounds are recomputed with the updated ``avgdl``."""
    t0 = time.monotonic()
    # this task IS the unit of parallelism (num_cpus=1); Arrow's default
    # machine-wide thread pools would oversubscribe the node 32× when many
    # merge tasks run concurrently
    if pa.cpu_count() > 2:
        pa.set_cpu_count(2)
        pa.set_io_thread_count(4)
    S = config.num_salts
    pkey, salt = divmod(skey, S)
    part_dir = os.path.join(index_dir, spill_dir, f"skey={skey}")
    with_pos = bool(getattr(config, "positions", False))
    cols = ["term", "doc_id", "tf", "dl"] + (["pos"] if with_pos else [])
    lineage_files: list[str] = []
    if os.path.isdir(part_dir):
        dset = pads.dataset(part_dir, format="parquet")
        lineage_files = sorted(os.path.basename(f) for f in dset.files)
        t = dset.to_table(columns=cols)
    else:
        t = _empty_flat(with_pos)
    if old_parts is not None:
        old = decode_partition_flat(index_dir, pkey, salt, old_parts, with_pos)
        if len(old):
            lineage_files.insert(0, f"{old_parts}/blocks-{pkey:04d}-{salt:02d}.parquet")
            t = pa.concat_tables([old, t.select(old.column_names)]) if len(t) else old

    # sort by (term, doc_id) — identical order to a direct string sort, but
    # via dictionary-encode + lex-ranked integer codes + int lexsort, which
    # avoids the O(n log n) string comparisons (~3× faster on big partitions)
    if len(t):
        enc = pa.compute.dictionary_encode(t["term"].combine_chunks())
        uniq = enc.dictionary
        lex = pa.compute.sort_indices(uniq).to_numpy()
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[lex] = np.arange(len(uniq))
        term_rank = rank[enc.indices.to_numpy()]
        order = np.lexsort((t["doc_id"].to_numpy(), term_rank))
        t = t.take(pa.array(order)).combine_chunks()
    terms = t["term"].to_numpy(zero_copy_only=False)
    doc_ids = t["doc_id"].to_numpy()
    tfs = t["tf"].to_numpy()
    dls = t["dl"].to_numpy()
    N = len(terms)
    B = config.block_size

    if N:
        # term runs — all boundary math is vectorized over the partition;
        # no per-term or per-block Python loop
        change = np.ones(N, dtype=bool)
        change[1:] = terms[1:] != terms[:-1]
        run_starts = np.nonzero(change)[0]
        run_lens = np.diff(np.append(run_starts, N))
        run_id = np.cumsum(change) - 1
        dict_terms = terms[run_starts]
        dict_df = run_lens.astype(np.int64)
        dict_cf = np.add.reduceat(tfs, run_starts).astype(np.int64)

        # posting blocks: every B-th position within a run starts a block
        pos_in_run = np.arange(N, dtype=np.int64) - run_starts[run_id]
        is_block_start = change | (pos_in_run % B == 0)
        block_starts = np.nonzero(is_block_start)[0]
        block_ends = np.append(block_starts[1:], N)
        n_per_block = (block_ends - block_starts).astype(np.int32)
        block_term = terms[block_starts]
        block_no = (pos_in_run[block_starts] // B).astype(np.int32)
        last_doc = doc_ids[block_ends - 1].astype(np.int64)
        # block-max bound computed with the BUILD-time scorer (pinned in the
        # manifest): valid for WAND as long as the query side uses the same
        # scorer id — which the engine enforces
        from librecatastro_ray.functions.analysis import get_scorer

        tn = get_scorer(config.scorer, config.k1, config.b).tf_norm(tfs, dls, avgdl)
        max_tfnorm = np.maximum.reduceat(tn, block_starts)

        # delta within a block, absolute first value at each block start
        gaps = np.empty(N, dtype=np.int64)
        gaps[0] = doc_ids[0]
        gaps[1:] = doc_ids[1:] - doc_ids[:-1]
        gaps[block_starts] = doc_ids[block_starts]

        # one whole-partition varbyte pass per stream; per-block binary cells
        # are cut from the stream by offset arithmetic (zero-copy Arrow
        # BinaryArray from (offsets, data) buffers)
        def encode_stream(values: np.ndarray) -> pa.Array:
            data, nbytes = varbyte_encode_with_lengths(values)
            cum = np.concatenate([[0], np.cumsum(nbytes)])
            offs = cum[np.append(block_starts, N)]
            if offs[-1] >= 2**31:
                raise ValueError(
                    "partition posting stream exceeds 2 GiB — raise num_partitions"
                )
            return pa.BinaryArray.from_buffers(
                pa.binary(),
                len(block_starts),
                [None, pa.py_buffer(offs.astype(np.int32).tobytes()), pa.py_buffer(data.tobytes())],
            )

        blocks = pa.table(
            {
                "term": pa.array(block_term, pa.string()),
                "block_no": pa.array(block_no, pa.int32()),
                "n": pa.array(n_per_block, pa.int32()),
                "last_doc": pa.array(last_doc, pa.int64()),
                "max_tfnorm": pa.array(max_tfnorm, pa.float64()),
                "docs": encode_stream(gaps),
                "tfs": encode_stream(tfs),
                "dls": encode_stream(dls),
            }
        )
        dict_t = pa.table(
            {
                "term": pa.array(dict_terms, pa.string()),
                "df": pa.array(dict_df, pa.int64()),
                "cf": pa.array(dict_cf, pa.int64()),
            }
        )
        pos_t = None
        if with_pos:
            # per-block position blobs: the sorted flat table's pos cells are
            # already delta+varbyte per posting — cut the row-order payload
            # concatenation at block boundaries (offset arithmetic, no
            # re-encode)
            from librecatastro_ray.functions.codec import binary_column_payload
            from librecatastro_ray.stages.postings import _cut_binary

            pos_col = t["pos"].combine_chunks()
            offs = np.frombuffer(
                pos_col.buffers()[1], dtype=np.int32, count=pos_col.offset + N + 1
            )
            cell_lens = np.diff(offs[pos_col.offset : pos_col.offset + N + 1]).astype(np.int64)
            payload = binary_column_payload(pos_col)
            cum = np.concatenate([[0], np.cumsum(cell_lens)])
            bounds = cum[np.append(block_starts, N)]
            pos_t = pa.table(
                {
                    "term": pa.array(block_term, pa.string()),
                    "block_no": pa.array(block_no, pa.int32()),
                    "positions": _cut_binary(payload, bounds),
                }
            )
        n_dict_terms = len(dict_terms)
        n_block_rows = len(block_starts)
    else:
        blocks = BLOCKS_SCHEMA.empty_table()
        dict_t = DICT_SCHEMA.empty_table()
        pos_t = POSITIONS_SCHEMA.empty_table() if with_pos else None
        n_dict_terms = 0
        n_block_rows = 0

    bpath = blocks_file(index_dir, pkey, salt, parts_dir)
    dpath = dict_file(index_dir, pkey, salt, parts_dir)
    nbytes = _atomic_write_parquet(bpath, blocks, config.blocks_row_group_size)
    nbytes += _atomic_write_parquet(dpath, dict_t, config.blocks_row_group_size)
    outputs = [os.path.relpath(bpath, index_dir), os.path.relpath(dpath, index_dir)]
    if pos_t is not None:
        ppath = positions_file(index_dir, pkey, salt, parts_dir)
        nbytes += _atomic_write_parquet(ppath, pos_t, config.blocks_row_group_size)
        outputs.append(os.path.relpath(ppath, index_dir))

    with open(bpath, "rb") as fh:
        out_sha = sha256_hex(fh.read())

    entry = {
        "skey": skey,
        "pkey": pkey,
        "salt": salt,
        "lineage": {
            "input_dir": f"shuffle/skey={skey}",
            "input_files": lineage_files,
            "input_rows": int(N),
        },
        "metrics": {
            "n_postings": int(N),
            "n_terms": int(n_dict_terms),
            "n_blocks": int(n_block_rows),
            "bytes": int(nbytes),
            "duration_s": round(time.monotonic() - t0, 4),
        },
        "outputs": outputs,
        "output_sha256": out_sha,
    }
    ckpt = (checkpoint_path(index_dir, skey) if ckpt_name == "checkpoints"
            else os.path.join(index_dir, ckpt_name, f"part-{skey}.json"))
    atomic_write_json(ckpt, entry)
    return entry


def merge_batch(
    batch: pa.Table,
    *,
    index_dir: str,
    avgdl: float,
    config_json: dict,
    parts_dir: str = "parts",
    spill_dir: str = "shuffle",
    ckpt_name: str = "checkpoints",
    old_parts: str | None = None,
) -> pa.Table:
    """map_batches (task, ``fn_kwargs``): merge the partitions named in the
    batch, one after another (one row per skey; a batch is a whole block of
    ``_merge_partitions``' task groups).  Each partition is checkpointed as
    soon as it is merged, so a task that fails part-way keeps the finished
    ones.  Stateless tasks, not an actor pool: the only state is the small
    (index_dir, avgdl, config) kwargs."""
    import json

    config = IndexConfig.from_json(config_json)
    entries = []
    for skey in batch["skey"].to_pylist():
        entry = merge_partition(
            index_dir, int(skey), avgdl, config,
            parts_dir=parts_dir, spill_dir=spill_dir, ckpt_name=ckpt_name,
            old_parts=old_parts,
        )
        entries.append(json.dumps(entry, sort_keys=True))
    return pa.table({"checkpoint": pa.array(entries, pa.string())})
