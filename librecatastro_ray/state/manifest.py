"""Index manifest + per-partition checkpoints.

The index is files + a manifest; no daemons.  This reproduces the reference's
index lifecycle (create/delete DDL, reference: src/utils/elasticsearch_utils.py:20-98)
and its two resume mechanisms — upsert idempotence and the anti-join skip of
already-scraped work (reference: src/librecatastro/domain/cadaster_entry/
cadaster_entry.py:53; src/utils/elasticsearch_utils.py:100-136) — as:

- atomic per-partition outputs (write temp file + os.replace), so retried
  tasks never expose partial writes;
- one JSON checkpoint per term partition carrying lineage (input files + row
  counts) and build metrics (rows, terms, bytes, duration);
- resume = anti-join of the partition work list against completed checkpoints.

Layout of an index directory:
    manifest.json            the commit point: config, N, sum_dl and the
                             segments, in doc order
    docs/part-*.parquet      segment 0's doc store: doc_id, repo, path,
                             commit, lang, content, sha256, dl
    docs/seg-{g}/part-*.parquet    the doc store of segment g >= 1
    parts/blocks-{p}-{s}.parquet   segment 0's postings per (partition,
                                   salt), p < the segment's num_partitions
                                   (a term is in p = term_hash % it):
                                   doc, tf, dl [, positions] columns,
                                   one row per posting; a hot term's salt s
                                   holds the segment's docs in
                                   [base + s × width, base + (s + 1) × width),
                                   the last salt also the rest
    parts/dict-{p}-{s}.parquet     term dictionary per (partition, salt)
    checkpoints/part-{skey}.json   per-partition merge checkpoint
    docs/_PLAN.json                the doc-id pass's plan: what a rerun of
                                   an uncommitted write may reuse
    shuffle/skey=*/                the doc-id pass's partitioned flat
                                   postings, removed once the segment's
                                   commit is done
    seg-{g}/parts/, seg-{g}/checkpoints/, docs/seg-{g}/_PLAN.json,
    seg-{g}/shuffle/         the same for segment g >= 1
    seg-{g}/upserted.parquet the ids segment g upserted away
    deleted/deleted.parquet  tombstones written by ``delete_docs``

A segment covers the doc-id range [base, base + n_docs) and has its own doc
store, parts, hot-term list, salt width and term partition count (the
fewest partitions, a divisor of the config's ``num_partitions``, whose
posting row groups hold its postings); its manifest entry lists its
doc-store files, its parts dir, ``num_partitions`` and the (partition,
salt) pairs that hold postings.  The build writes segment 0 and every ``add_documents`` one more
segment; segments accumulate until ``compact_index`` rebuilds the live docs
as one.  A reader opens only the files the manifest names, so files of a
write that has not replaced the manifest are never read.
"""

from __future__ import annotations

# bumped whenever the on-disk index layout/schema changes; an index of
# another version is refused (check_version), never misread
INDEX_FORMAT_VERSION = 6

import json
import os
import tempfile
from typing import Any

MANIFEST_NAME = "manifest.json"


def atomic_write_json(path: str, obj: Any) -> None:
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_json(path: str) -> Any:
    with open(path) as f:
        return json.load(f)


def checkpoint_path(index_dir: str, skey: int, ckpt_dir: str = "checkpoints") -> str:
    return os.path.join(index_dir, ckpt_dir, f"part-{skey:06d}.json")


def load_checkpoint(index_dir: str, skey: int, ckpt_dir: str = "checkpoints") -> dict | None:
    p = checkpoint_path(index_dir, skey, ckpt_dir)
    if not os.path.exists(p):
        return None
    try:
        return read_json(p)
    except (json.JSONDecodeError, OSError):
        return None


def completed_partitions(index_dir: str, ckpt_dir: str = "checkpoints") -> dict[int, dict]:
    """All valid per-partition checkpoints under ``ckpt_dir`` (the 'done'
    set for the resume anti-join)."""
    ckdir = os.path.join(index_dir, ckpt_dir)
    out: dict[int, dict] = {}
    if not os.path.isdir(ckdir):
        return out
    for name in sorted(os.listdir(ckdir)):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        skey = int(name[len("part-") : -len(".json")])
        ck = load_checkpoint(index_dir, skey, ckpt_dir)
        if ck is None:
            continue
        # a checkpoint is valid only if its declared outputs exist
        ok = all(os.path.exists(os.path.join(index_dir, rel)) for rel in ck.get("outputs", []))
        if ok:
            out[skey] = ck
    return out


def manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, MANIFEST_NAME)


def load_manifest(index_dir: str) -> dict:
    return read_json(manifest_path(index_dir))


def check_version(index_dir: str, manifest: dict) -> dict:
    """``manifest`` when its format version is this code's, else a
    ``ValueError`` naming both versions: there is one reader per format, so
    an index of another version is rebuilt, not read."""
    version = manifest.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise ValueError(
            f"index at {index_dir} has format version {version}; this code reads "
            f"version {INDEX_FORMAT_VERSION} only — rebuild the index"
        )
    return manifest


def save_manifest(index_dir: str, manifest: dict) -> None:
    atomic_write_json(manifest_path(index_dir), manifest)


def doc_files(index_dir: str, manifest: dict) -> list[str]:
    """Paths of the doc-store files of ``manifest``'s segments, in segment
    order: every doc-store read opens these and nothing else, so the doc
    store of an add that has not committed is never read."""
    return [os.path.join(index_dir, f) for seg in manifest["segments"] for f in seg["docs"]]


def deleted_path(index_dir: str) -> str:
    return os.path.join(index_dir, "deleted", "deleted.parquet")


def read_ids(path: str):
    """The sorted int64 ``doc_id`` column of a tombstone file (empty when
    the file does not exist)."""
    import numpy as np

    if not os.path.exists(path):
        return np.zeros(0, dtype=np.int64)
    import pyarrow.parquet as pq

    return pq.read_table(path)["doc_id"].to_numpy().astype(np.int64)


def write_ids(path: str, ids) -> None:
    """Write sorted doc ids as a one-column tombstone file (tmp + rename)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), tmp)
    os.replace(tmp, path)


def load_deleted(index_dir: str, manifest: dict | None = None):
    """Sorted unique int64 array of tombstoned doc ids (empty if none): the
    ``delete_docs`` tombstones and the ids each segment of ``manifest``
    (default: the committed one) upserted away."""
    import numpy as np

    manifest = manifest or load_manifest(index_dir)
    parts = [read_ids(deleted_path(index_dir))] + [
        read_ids(os.path.join(index_dir, seg["upserted"]))
        for seg in manifest["segments"] if seg["upserted"]]
    return parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone documents by id (ES DELETE /index/_doc/{id} analogue,
    reference: the delete-ignoring-404 lifecycle in elasticsearch_utils.py:85-98).

    Lucene-faithful semantics: deleted docs stop appearing in ANY query
    result (hits, counts, hydrate) immediately, but corpus statistics
    (N, avgdl, per-term df) keep counting them until a rebuild — exactly
    Lucene's behavior for deletes before a segment merge.  Idempotent and
    accumulative; atomic tmp+rename write.  Returns the count of
    ``delete_docs`` tombstones after the merge (the ids adds upserted away
    stay in their segments' files; ``load_deleted`` unions both).

    Raises ``ValueError``, writing nothing, for an id that is not an
    integer (a float, bool or string would be cast to some other doc's id)
    or is outside ``[0, n_docs)`` of the committed manifest: ids are dense
    and an add appends from ``n_docs`` on, so such a tombstone would hide a
    future document."""
    import numpy as np

    items = doc_ids if isinstance(doc_ids, np.ndarray) else list(doc_ids)
    if isinstance(items, np.ndarray):
        ints = items.size == 0 or np.issubdtype(items.dtype, np.integer)
    else:
        ints = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in items)
    if not ints:
        raise ValueError(f"doc ids must be integers, not {list(items[:10])}")
    ids = np.unique(np.asarray(items, dtype=np.int64))
    manifest = load_manifest(index_dir)
    n_docs = int(manifest["n_docs"])
    bad = ids[(ids < 0) | (ids >= n_docs)]
    if len(bad):
        raise ValueError(
            f"{len(bad)} doc id(s) outside [0, {n_docs}) of {index_dir}: "
            f"{bad[:10].tolist()}"
        )
    merged = np.union1d(read_ids(deleted_path(index_dir)), ids)
    write_ids(deleted_path(index_dir), merged)
    return int(len(merged))


def drop_index(index_dir: str) -> bool:
    """Idempotent index delete (the reference deletes ignoring 400/404,
    reference: src/utils/elasticsearch_utils.py:85-98)."""
    import shutil

    if not os.path.isdir(index_dir):
        return False
    shutil.rmtree(index_dir)
    return True
