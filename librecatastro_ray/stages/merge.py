"""Per-partition posting merge: sort the flat postings by (term, doc) and
write them as Parquet columns → atomic write + checkpoint.

One merge task owns a run of shuffle partitions (skeys); partitions are
independent units, each checkpointed as soon as it is merged, so resume is
per partition (reference analogue: the per-street anti-join skip that makes
crawls resumable, reference: src/utils/elasticsearch_utils.py:100-136).

Output per skey = (pkey, salt) of one segment (the build's or an add's;
shown here for the build's dirs) — salt 0 for every term under the hot
postings budget; a hot term's salt s holds its postings in the segment's
doc range s, so its runs in salt order are doc order:
    parts/blocks-{pkey}-{salt}.parquet
        one row per posting, term-major and doc-sorted within a term:
        doc, tf, dl (int64) and, for positional builds, positions
        (list<int32>, the posting's ascending token positions).  Every
        column is DELTA_BINARY_PACKED + zstd (Parquet's bit-packed deltas
        are the codec), in row groups of blocks_row_group_size × block_size
        postings.  There is no term column: term i's postings are the rows
        [cumsum(df)[i-1], cumsum(df)[i]) in dictionary order.
    parts/dict-{pkey}-{salt}.parquet
        term, df, cf
    checkpoints/part-{skey}.json   lineage + metrics

Nothing stored depends on avgdl: block-max bounds are derived at read time.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.hashing import sha256_hex
from librecatastro_ray.stages.postings import POSITIONS_TYPE
from librecatastro_ray.state.manifest import atomic_write_json, checkpoint_path

BLOCKS_SCHEMA = pa.schema([("doc", pa.int64()), ("tf", pa.int64()), ("dl", pa.int64())])
POSITIONAL_BLOCKS_SCHEMA = BLOCKS_SCHEMA.append(pa.field("positions", POSITIONS_TYPE))

DICT_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()), ("cf", pa.int64())])

# posting-file column -> flat-posting (spill) column
_FLAT_NAMES = {"doc": "doc_id", "tf": "tf", "dl": "dl", "positions": "pos"}
_DELTA = {name: "DELTA_BINARY_PACKED"
          for name in ("doc", "tf", "dl", "positions.list.element")}


def blocks_file(index_dir: str, pkey: int, salt: int, parts: str = "parts") -> str:
    return os.path.join(index_dir, parts, f"blocks-{pkey:04d}-{salt:02d}.parquet")


def dict_file(index_dir: str, pkey: int, salt: int, parts: str = "parts") -> str:
    return os.path.join(index_dir, parts, f"dict-{pkey:04d}-{salt:02d}.parquet")


def _atomic_write_parquet(path: str, table: pa.Table, row_group_size: int, **kw) -> int:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, row_group_size=row_group_size, compression="zstd", **kw)
    os.replace(tmp, path)
    return os.path.getsize(path)


def _empty_flat(with_pos: bool) -> pa.Table:
    schema = POSITIONAL_BLOCKS_SCHEMA if with_pos else BLOCKS_SCHEMA
    flat = pa.schema([pa.field("term", pa.string())]
                     + [f.with_name(_FLAT_NAMES[f.name]) for f in schema])
    return flat.empty_table()


def merge_partition(
    index_dir: str,
    skey: int,
    config: IndexConfig,
    *,
    parts_dir: str = "parts",
    spill_dir: str = "shuffle",
    ckpt_name: str = "checkpoints",
) -> dict:
    """Merge one shuffle partition of flat postings into its posting and
    dictionary files under ``parts_dir``.

    Reads ``{index_dir}/{spill_dir}/skey={skey}/`` (written by the phase-1
    partitioned spill), returns the checkpoint entry it wrote to
    ``ckpt_name``.  The build and every add (one segment each) merge only
    their own spill."""
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
    schema = POSITIONAL_BLOCKS_SCHEMA if with_pos else BLOCKS_SCHEMA
    cols = ["term"] + [_FLAT_NAMES[n] for n in schema.names]
    lineage_files: list[str] = []
    if os.path.isdir(part_dir):
        dset = pads.dataset(part_dir, format="parquet")
        lineage_files = sorted(os.path.basename(f) for f in dset.files)
        t = dset.to_table(columns=cols)
    else:
        t = _empty_flat(with_pos)

    # sort by (term, doc_id) — identical order to a direct string sort, but
    # via dictionary-encode + lex-ranked integer codes + int lexsort, which
    # avoids the O(n log n) string comparisons (~3× faster on big partitions)
    N = len(t)
    if N:
        enc = pa.compute.dictionary_encode(t["term"].combine_chunks())
        uniq = enc.dictionary
        lex = pa.compute.sort_indices(uniq).to_numpy()
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[lex] = np.arange(len(uniq))
        term_rank = rank[enc.indices.to_numpy()]
        order = np.lexsort((t["doc_id"].to_numpy(), term_rank))
        t = t.take(pa.array(order)).combine_chunks()
        # term runs: one dictionary row per run, in sorted (= file) order
        terms = t["term"].to_numpy(zero_copy_only=False)
        change = np.ones(N, dtype=bool)
        change[1:] = terms[1:] != terms[:-1]
        run_starts = np.nonzero(change)[0]
        dict_t = pa.table(
            {
                "term": pa.array(terms[run_starts], pa.string()),
                "df": pa.array(np.diff(np.append(run_starts, N)), pa.int64()),
                "cf": pa.array(np.add.reduceat(t["tf"].to_numpy(), run_starts), pa.int64()),
            }
        )
    else:
        dict_t = DICT_SCHEMA.empty_table()
    blocks = pa.table([t[_FLAT_NAMES[n]].cast(f.type) for n, f in zip(schema.names, schema)],
                      schema=schema)

    bpath = blocks_file(index_dir, pkey, salt, parts_dir)
    dpath = dict_file(index_dir, pkey, salt, parts_dir)
    nbytes = _atomic_write_parquet(
        bpath, blocks, config.blocks_row_group_size * config.block_size,
        use_dictionary=False,
        column_encoding={k: v for k, v in _DELTA.items() if k.split(".")[0] in schema.names},
    )
    nbytes += _atomic_write_parquet(dpath, dict_t, config.blocks_row_group_size)
    outputs = [os.path.relpath(bpath, index_dir), os.path.relpath(dpath, index_dir)]

    with open(bpath, "rb") as fh:
        out_sha = sha256_hex(fh.read())

    entry = {
        "skey": skey,
        "pkey": pkey,
        "salt": salt,
        "lineage": {
            "input_dir": f"{spill_dir}/skey={skey}",
            "input_files": lineage_files,
            "input_rows": int(N),
        },
        "metrics": {
            "n_postings": int(N),
            "n_terms": len(dict_t),
            "bytes": int(nbytes),
            "duration_s": round(time.monotonic() - t0, 4),
        },
        "outputs": outputs,
        "output_sha256": out_sha,
    }
    atomic_write_json(checkpoint_path(index_dir, skey, ckpt_name), entry)
    return entry


def merge_batch(
    batch: pa.Table,
    *,
    index_dir: str,
    config_json: dict,
    parts_dir: str = "parts",
    spill_dir: str = "shuffle",
    ckpt_name: str = "checkpoints",
) -> pa.Table:
    """map_batches (task, ``fn_kwargs``): merge the partitions named in the
    batch, one after another (one row per skey; a batch is a whole block of
    ``_merge_partitions``' task groups).  Each partition is checkpointed as
    soon as it is merged, so a task that fails part-way keeps the finished
    ones.  Stateless tasks, not an actor pool: the only state is the small
    (index_dir, config) kwargs."""
    import json

    config = IndexConfig.from_json(config_json)
    entries = []
    for skey in batch["skey"].to_pylist():
        entry = merge_partition(
            index_dir, int(skey), config,
            parts_dir=parts_dir, spill_dir=spill_dir, ckpt_name=ckpt_name,
        )
        entries.append(json.dumps(entry, sort_keys=True))
    return pa.table({"checkpoint": pa.array(entries, pa.string())})
