"""Per-partition posting merge: sort the flat postings by (term, doc) and
write them as Parquet columns → atomic write + checkpoint.

The spill is routed by the config's ``num_partitions`` N (skey = (term_hash
% N) × S + salt), but a segment is term-partitioned only as far as its
postings need: once its spill is written, :func:`partition_count` picks the
segment's partition count d, the smallest divisor of N whose d × hot
postings budget holds every posting of the segment (the rule that salts a
term only past one posting row group, one level up).  Merged partition
q × S + salt of the segment reads the spill skeys p × S + salt of every
p ≡ q (mod d) — exact, because d | N gives (h % N) % d == h % d — so a
reader finds a term of the segment in partition term_hash % d.

One merge task owns a run of merged partitions; partitions are
independent units, each checkpointed as soon as it is merged, so resume is
per partition (reference analogue: the per-street anti-join skip that makes
crawls resumable, reference: src/utils/elasticsearch_utils.py:100-136).

Output per merged skey = (pkey, salt) of one segment (the build's or an
add's; shown here for the build's dirs) — salt 0 for every term under the
hot postings budget; a hot term's salt s holds its postings in the
segment's doc range s, so its runs in salt order are doc order:
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

import glob
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


def partition_count(spill_dir: str, config: IndexConfig) -> int:
    """A segment's term partition count: the smallest divisor d of
    ``config.num_partitions`` with the segment's postings (the row counts in
    its spill files' footers, so a resumed spill counts too) at most
    d × ``config.hot_postings_budget``; ``num_partitions`` when none is."""
    n = config.num_partitions
    total = sum(pq.read_metadata(f).num_rows
                for f in glob.glob(os.path.join(spill_dir, "skey=*", "part-*.parquet")))
    return next((d for d in range(1, n) if n % d == 0 and total <= d * config.hot_postings_budget),
                n)


def merged_skeys(spill_skeys: list[int], num_partitions: int, num_salts: int) -> list[int]:
    """The skeys a segment of ``num_partitions`` partitions merges its spill
    skeys into (sorted): spill skey p × S + salt goes to
    (p % num_partitions) × S + salt."""
    S = num_salts
    return sorted({(s // S) % num_partitions * S + s % S for s in spill_skeys})


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
    num_partitions: int,
    parts_dir: str = "parts",
    spill_dir: str = "shuffle",
    ckpt_name: str = "checkpoints",
) -> dict:
    """Merge partition ``skey`` of a segment of ``num_partitions``
    partitions into its posting and dictionary files under ``parts_dir``.

    Reads the spill skeys of its partitions, ``{index_dir}/{spill_dir}/
    skey={p × S + salt}/`` for every p ≡ pkey (mod num_partitions) (written
    by the doc-id pass), and returns the checkpoint entry it wrote to
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
    inputs = [f"skey={p * S + salt}" for p in range(pkey, config.num_partitions, num_partitions)]
    with_pos = bool(getattr(config, "positions", False))
    schema = POSITIONAL_BLOCKS_SCHEMA if with_pos else BLOCKS_SCHEMA
    cols = ["term"] + [_FLAT_NAMES[n] for n in schema.names]
    spill = os.path.join(index_dir, spill_dir)
    files = [f for d in inputs for f in sorted(glob.glob(os.path.join(spill, d, "part-*.parquet")))]
    lineage_files = [os.path.relpath(f, spill) for f in files]
    if files:
        t = pads.dataset(files, format="parquet").to_table(columns=cols)
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
            "input_dirs": [f"{spill_dir}/{d}" for d in inputs],
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
    num_partitions: int,
    parts_dir: str = "parts",
    spill_dir: str = "shuffle",
    ckpt_name: str = "checkpoints",
) -> pa.Table:
    """One merge task (``build._merge_partitions`` runs it as a plain
    ``ray.remote`` task): merge the partitions of a segment of
    ``num_partitions`` partitions named in the batch, one after another
    (one row per merged skey).  Each partition is checkpointed as soon as
    it is merged, so a task that fails part-way keeps the finished ones."""
    import json

    config = IndexConfig.from_json(config_json)
    entries = []
    for skey in batch["skey"].to_pylist():
        entry = merge_partition(
            index_dir, int(skey), config, num_partitions=num_partitions,
            parts_dir=parts_dir, spill_dir=spill_dir, ckpt_name=ckpt_name,
        )
        entries.append(json.dumps(entry, sort_keys=True))
    return pa.table({"checkpoint": pa.array(entries, pa.string())})
