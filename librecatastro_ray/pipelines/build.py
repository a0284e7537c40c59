"""Index build pipeline (Ray-Data-first).

    read_parquet(corpus)
      → map_batches: sha256                            (stateless, Arrow)
      → key-only sort (repo, path, sha256) + per-block
        dedup + dense doc_id routed back to unmoved
        content blocks                                 (shuffle 1: keys only —
                                                        content bytes never
                                                        enter the exchange)
      → write docs/                                    (the canonical doc
                                                        store: forward index +
                                                        sha256 invariant + dl
                                                        norms, completed in
                                                        the pre-dedup pass)
      → map_batches flat_postings → salted partitioned
        spill shuffle/skey=*/                          (tokenize pass 2; the
                                                        all-to-all is a
                                                        map-side scatter by
                                                        partition_cols write,
                                                        no sort network step)
      → merge_batch tasks over runs of partitions
        → parts/ + checkpoints/                        (≤ 2 × CPUs tasks; one
                                                        checkpoint per partition)
      → finalize manifest.json

Every phase is gated by a completion marker; the merge phase is resumable at
per-partition granularity via the checkpoint anti-join (the reference's
resume mechanisms re-expressed: upsert idempotence + skip-already-scraped,
reference: cadaster_entry.py:53, elasticsearch_utils.py:100-136).
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np
import pyarrow as pa
import ray
import ray.data

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.stages.doc_ids import dedup_assign_write
from librecatastro_ray.stages.merge import merge_batch
from librecatastro_ray.stages.postings import (
    flat_postings,
    flat_postings_positional,
    salt_range_width,
)
from librecatastro_ray.state.manifest import (
    INDEX_FORMAT_VERSION,
    atomic_write_json,
    check_version,
    completed_partitions,
    load_manifest,
    manifest_path,
    read_json,
    save_manifest,
)

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def _marker(path: str) -> str:
    return os.path.join(path, "_DONE.json")


def _phase_done(d: str) -> bool:
    return os.path.exists(_marker(d))


def corpus_fingerprint(path: str) -> str:
    """Cheap content-change detector for resume validation: sha256 over the
    sorted (relpath, size, mtime_ns) of the corpus parquet files.  Stored in
    the docs phase marker so a crashed build resumed against a CHANGED
    corpus invalidates the finished phases instead of mixing old and new
    content."""
    import hashlib

    h = hashlib.sha256()
    if os.path.isfile(path):
        st = os.stat(path)
        h.update(f"{os.path.basename(path)}:{st.st_size}:{st.st_mtime_ns}\n".encode())
        return h.hexdigest()
    for root, _dirs, files in sorted(os.walk(path)):
        for f in sorted(files):
            if f.endswith(".parquet"):
                p = os.path.join(root, f)
                st = os.stat(p)
                h.update(
                    f"{os.path.relpath(p, path)}:{st.st_size}:{st.st_mtime_ns}\n".encode()
                )
    return h.hexdigest()


TARGET_BLOCK_BYTES = 64 << 20  # ~64 MB of (compressed) parquet per block


def _cluster_cpus() -> int:
    return max(2, int(ray.cluster_resources().get("CPU", 4)))


def _read_sized(path: str, columns: list[str]) -> ray.data.Dataset:
    """Size-aware parquet read: Ray's default read split (min 200 blocks)
    fragments small inputs into KB-scale blocks, multiplying per-block task
    overhead and — worse — the partitioned shuffle-spill file count
    (map_blocks × skeys).  Target ~TARGET_BLOCK_BYTES per block with a floor
    of 2 tasks per CPU for parallelism."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                total += os.path.getsize(os.path.join(root, f))
    n_blocks = max(2 * _cluster_cpus(), total // TARGET_BLOCK_BYTES or 1)
    from librecatastro_ray.sources.readers import read_parquet_clean

    return read_parquet_clean(path, columns=columns, override_num_blocks=int(n_blocks))


def _as_dataset(corpus: Any) -> ray.data.Dataset:
    if isinstance(corpus, str):
        return _read_sized(corpus, CORPUS_COLUMNS)
    if isinstance(corpus, pa.Table):
        return ray.data.from_arrow(corpus)
    return corpus


def _sample_term_counts(
    batch: pa.Table, *, mod: int, analyzer_id: str = "code_standard_v1"
) -> pa.Table:
    """Partial df over a deterministic doc sample (doc_id % mod == 0):
    per-batch (term, df_partial) tables, combined on the driver.  This is the
    partial-aggregate-before-groupby pattern — the full df never shuffles."""
    mask = (batch["doc_id"].to_numpy() % mod) == 0
    sub = batch.filter(pa.array(mask))
    empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "sampled": pa.array([], pa.int64()),
        }
    )
    if len(sub) == 0:
        return empty
    from librecatastro_ray.functions.analysis import get_analyzer, term_frequencies_with

    tf_table, _ = term_frequencies_with(get_analyzer(analyzer_id), sub["content"])
    g = tf_table.group_by("term", use_threads=False).aggregate([("row", "count")])
    out = pa.table(
        {
            "term": g["term"],
            "df": g["row_count"].cast(pa.int64()),
            "sampled": pa.array(np.zeros(len(g), dtype=np.int64), pa.int64()),
        }
    )
    # sentinel row carrying the per-batch sampled-doc count
    sentinel = pa.table(
        {
            "term": pa.array(["\x00__sampled__"], pa.string()),
            "df": pa.array([0], pa.int64()),
            "sampled": pa.array([len(sub)], pa.int64()),
        }
    )
    return pa.concat_tables([out, sentinel])


def estimate_hot_terms(docs_ds: ray.data.Dataset, n_docs: int, config: IndexConfig) -> list[str]:
    """Terms whose estimated df exceeds ``config.hot_postings_budget`` (one
    posting row group), from a deterministic doc sample.  No term of an
    index of at most that many docs can exceed it, so then no sample is
    tokenized.  Returns a sorted list (small: keyword-class terms only)."""
    budget = config.hot_postings_budget
    if n_docs <= budget:
        return []
    mod = max(1, n_docs // max(1, config.hot_sample_target))
    parts = docs_ds.map_batches(
        _sample_term_counts,
        fn_kwargs={"mod": mod, "analyzer_id": config.analyzer},
        batch_format="pyarrow",
        batch_size=config.batch_size,
    ).to_pandas()
    if parts.empty:
        return []
    n_sampled = int(parts["sampled"].sum())
    if n_sampled == 0:
        return []
    parts = parts[parts["term"] != "\x00__sampled__"]
    df = parts.groupby("term", sort=True)["df"].sum()
    # estimated df = sampled df × n_docs / n_sampled
    hot = df[df * n_docs > budget * n_sampled]
    return sorted(hot.index.tolist())


def _spill(docs_ds: ray.data.Dataset, spill_dir: str, config: IndexConfig,
           hot_terms: list[str], width: int) -> list[int]:
    """Tokenize ``docs_ds`` into flat postings written partitioned by skey
    under ``spill_dir``; returns the skeys the spill holds, sorted."""
    docs_ds.map_batches(
        flat_postings_positional if config.positions else flat_postings,
        fn_kwargs={
            "num_partitions": config.num_partitions,
            "num_salts": config.num_salts,
            "hot_terms": hot_terms,
            "salt_width": width,
            "analyzer_id": config.analyzer,
        },
        batch_format="pyarrow",
        batch_size=config.batch_size,
    ).write_parquet(spill_dir, partition_cols=["skey"])
    return sorted(
        int(name.split("=")[1]) for name in os.listdir(spill_dir) if name.startswith("skey=")
    )


def _partition_entry(ck: dict) -> dict:
    """A partition's manifest entry from its merge checkpoint."""
    return {
        "pkey": ck["pkey"],
        "salt": ck["salt"],
        "n_terms": ck["metrics"]["n_terms"],
        "n_postings": ck["metrics"]["n_postings"],
        "output_sha256": ck["output_sha256"],
    }


def _merge_partitions(skeys: list[int], index_dir: str, config: IndexConfig, **dirs: str) -> None:
    """Merge the shuffle partitions ``skeys`` in min(#skeys, 2 × cluster
    CPUs) tasks, each over a contiguous run of skeys (``batch_size=None``:
    one batch per block), so a small cluster does not pay one task launch
    per partition.  Each partition is checkpointed as soon as it is merged,
    so resume stays per partition."""
    ray.data.from_items(
        [{"skey": int(s)} for s in skeys],
        override_num_blocks=min(len(skeys), 2 * _cluster_cpus()),
    ).map_batches(
        merge_batch,
        fn_kwargs={
            "index_dir": index_dir,
            "config_json": config.to_json(),
            **dirs,
        },
        batch_format="pyarrow",
        batch_size=None,
        num_cpus=1,
    ).materialize()


def build_index(
    corpus: Any,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    resume: bool = True,
    cleanup_shuffle: bool = False,
) -> dict:
    """Build (or resume building) an index.  Returns
    ``{"manifest": ..., "report": {...}}`` where the report carries
    per-phase skip/recompute counts (used by the resume tests)."""
    config = config or IndexConfig()
    # fail fast on an unknown strategy id — before any phase writes
    from librecatastro_ray.functions.analysis import get_analyzer, get_scorer

    get_analyzer(config.analyzer)
    get_scorer(config.scorer, config.k1, config.b)
    report: dict[str, Any] = {
        "phases_skipped": [],
        "partitions_merged": 0,
        "partitions_skipped": 0,
        "phase_seconds": {},
    }
    _t = time.monotonic
    _t0 = _t()

    if resume and os.path.exists(manifest_path(index_dir)):
        # a COMPLETE index is reused as-is (drop to rebuild) — but only if
        # it was built with the REQUESTED analysis strategy: silently
        # returning an index built with another analyzer/scorer would hand
        # the caller something their queries get rejected against.  Legacy
        # manifests (no strategy keys) resolve to the CANONICAL defaults
        # via IndexConfig.from_json, never to the requested values.  An
        # index of another format version is rebuilt the same way.
        old = load_manifest(index_dir)
        mcfg = IndexConfig.from_json(old.get("config", {}))
        if (
            old.get("version") == INDEX_FORMAT_VERSION
            and mcfg.analyzer == config.analyzer
            and mcfg.scorer == config.scorer
            and float(mcfg.k1) == float(config.k1)
            and float(mcfg.b) == float(config.b)
            and bool(mcfg.positions) == bool(config.positions)
        ):
            report["phases_skipped"] = ["all"]
            return {"manifest": old, "report": report}
        # mismatch: fall through to a rebuild (the phase markers carry the
        # old analysis fingerprint, so the stale phases are wiped).  Remove
        # the stale manifest FIRST — otherwise a crash mid-rebuild leaves a
        # "complete" manifest over gutted phase dirs and the next resume
        # would return it as-is.
        os.remove(manifest_path(index_dir))
    if not resume:
        from librecatastro_ray.state.manifest import drop_index

        drop_index(index_dir)

    os.makedirs(index_dir, exist_ok=True)
    docs_dir = os.path.join(index_dir, "docs")
    shuffle_dir = os.path.join(index_dir, "shuffle")

    # ---- phase A: dedup + doc ids + dl → canonical doc store --------------
    # one key-only sort, one tokenize, one fused write: docs/ is forward
    # index, row-invariant (sha256) table and BM25 norm (dl) table in a
    # single columnar parquet, written block-per-file by the id-apply tasks
    src_fp = corpus_fingerprint(corpus) if isinstance(corpus, str) else None
    # analysis fingerprint: a resumed build must NOT mix phases produced by
    # different strategies — dl/avgdl (docs phase) depend on the analyzer,
    # postings + block-max tfnorm (shuffle/merge) on analyzer AND scorer
    # params.  A marker WITHOUT the key is a pre-strategy index, which was
    # by definition built with the canonical defaults — it must compare
    # against the default fingerprint, not match any requested strategy.
    def _analysis_fp(cfg: IndexConfig) -> str:
        # positions is part of the fingerprint: the shuffle spill and the
        # merged blocks physically differ between the two layouts (a legacy
        # marker without the suffix is a positions=False build by definition)
        fp = f"{cfg.analyzer}|{cfg.scorer}|k1={cfg.k1}|b={cfg.b}"
        return fp + ("|positions" if cfg.positions else "")

    analysis_fp = _analysis_fp(config)
    stats = None
    if _phase_done(docs_dir):
        stats = read_json(_marker(docs_dir))
        stale_src = src_fp is not None and stats.get("src_fp") not in (None, src_fp)
        stored_fp = stats.get("analysis_fp") or _analysis_fp(IndexConfig())
        stale_analysis = stored_fp != analysis_fp
        if stale_src or stale_analysis:
            # crash-resume against a CHANGED corpus or analysis strategy:
            # the finished docs phase (and everything derived from it) is
            # stale — invalidate all of it rather than mixing old and new
            import shutil

            shutil.rmtree(docs_dir, ignore_errors=True)
            shutil.rmtree(shuffle_dir, ignore_errors=True)
            shutil.rmtree(os.path.join(index_dir, "checkpoints"), ignore_errors=True)
            report["phases_invalidated"] = ["docs", "shuffle", "merge"]
            stats = None
    if stats is not None:
        report["phases_skipped"].append("docs")
    else:
        # no wipe here: dedup_assign_write's _PLAN.json keeps part files
        # from a crashed run when the corpus is unchanged (block-level
        # resume, content-fingerprinted) and clears them itself when not
        ds = _as_dataset(corpus)
        n_docs_a, sum_dl_a = dedup_assign_write(ds, docs_dir, analyzer_id=config.analyzer)
        stats = {"n_docs": int(n_docs_a), "sum_dl": int(sum_dl_a),
                 "src_fp": src_fp, "analysis_fp": analysis_fp}
        atomic_write_json(_marker(docs_dir), stats)
    report["phase_seconds"]["docs"] = round(_t() - _t0, 3)
    _t0 = _t()

    mat_docs = _read_sized(docs_dir, ["doc_id", "content"])

    n_docs = int(stats["n_docs"])
    sum_dl = int(stats["sum_dl"])

    # ---- phase C: hot terms + salted partitioned postings spill -----------
    shuffle_meta = read_json(_marker(shuffle_dir)) if _phase_done(shuffle_dir) else None
    if shuffle_meta is not None and shuffle_meta.get("version") == INDEX_FORMAT_VERSION:
        report["phases_skipped"].append("shuffle")
    else:
        import shutil

        # a spill of another index format: it and every partition merged
        # from it are stale
        for d in (shuffle_dir, os.path.join(index_dir, "checkpoints"),
                  os.path.join(index_dir, "parts")):
            shutil.rmtree(d, ignore_errors=True)
        hot_terms = estimate_hot_terms(mat_docs, n_docs, config)
        width = salt_range_width(n_docs, config.num_salts)
        skeys_present = _spill(mat_docs, shuffle_dir, config, hot_terms, width)
        atomic_write_json(
            _marker(shuffle_dir),
            {"hot_terms": hot_terms, "salt_width": width, "skeys": skeys_present,
             "version": INDEX_FORMAT_VERSION},
        )
    report["phase_seconds"]["shuffle"] = round(_t() - _t0, 3)
    _t0 = _t()
    shuffle_meta = read_json(_marker(shuffle_dir))
    skeys_present = shuffle_meta["skeys"]

    # ---- phase D: merge in task groups, checkpoint anti-join --------------
    done = completed_partitions(index_dir)
    pending = [s for s in skeys_present if s not in done]
    report["partitions_skipped"] = len(skeys_present) - len(pending)
    report["partitions_merged"] = len(pending)
    if pending:
        _merge_partitions(pending, index_dir, config)
    report["phase_seconds"]["merge"] = round(_t() - _t0, 3)
    done = completed_partitions(index_dir)
    missing = [s for s in skeys_present if s not in done]
    if missing:
        raise RuntimeError(f"merge incomplete: partitions {missing} missing checkpoints")

    # ---- finalize: manifest (deterministic content — no wall clock) -------
    partitions = {str(skey): _partition_entry(ck) for skey, ck in sorted(done.items())}
    manifest = {
        "version": INDEX_FORMAT_VERSION,
        "config": config.to_json(),
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "hot_terms": shuffle_meta["hot_terms"],
        "salt_width": shuffle_meta["salt_width"],
        "partitions": partitions,
        "lineage": {
            "source": corpus if isinstance(corpus, str) else "<dataset>",
            "n_postings": sum(p["n_postings"] for p in partitions.values()),
            "n_terms_with_salt_dups": sum(p["n_terms"] for p in partitions.values()),
        },
    }
    save_manifest(index_dir, manifest)
    if cleanup_shuffle:
        import shutil

        shutil.rmtree(shuffle_dir, ignore_errors=True)
    return {"manifest": manifest, "report": report}


def add_documents(corpus: Any, index_dir: str) -> dict:
    """Incremental indexing (the ES behavior the reference's crawler relies
    on: documents stream in continuously and are upserted one HTTP call at a
    time, reference: src/utils/elasticsearch_utils.py:100-136 +
    cadaster_entry.py:46-77 — here one BATCH at a time, Ray-Data-shaped).

    Semantics (Lucene segment model, without the segment read path):
      - new docs get ids AFTER the current ``n_docs`` (dense, sorted by
        (repo, path) within the batch; existing ids never change);
      - an incoming (repo, path) that already exists UPSERTS: the old doc id
        is tombstoned (``delete_docs``) and the new doc serves — exactly
        Lucene's delete-then-add update;
      - global stats move to the new totals (N += batch, sum_dl += batch;
        tombstoned old versions keep counting until a full rebuild, the
        documented delete semantics);
      - every partition the manifest lists or the new spill holds re-merges
        its old postings, read back as they are, with the new spill —
        content is never re-tokenized, so add cost scales with INDEX size +
        batch size, not corpus text size (a Lucene big-merge, not a
        rebuild);
      - the re-merge writes a NEW generation parts dir (``parts-g{n}``)
        and the manifest flips LAST, so the old postings stay intact until
        the flip and rerunning a crashed add redoes it.  The add is NOT
        atomic, though: a crash mid-add does not leave the old index fully
        readable.  The upsert tombstones go through ``delete_docs`` before
        the manifest flips, so the replaced versions already vanish, and
        ``docs/gen-{n}`` is already visible to ``keyword_docs``, whose ids
        then reach past the committed ``n_docs``.  One commit point for
        tombstones, doc store and parts is ROADMAP.md "Make writes atomic".

    The partitioning scheme (P, S, hot term list, salt width) is frozen at
    build time — new postings must land in the same (pkey, salt) files, so
    the hot list is not re-estimated and a hot term's new postings, whose
    ids lie past the build's ``n_docs``, go to its last salt range
    (document-frequency drift only affects salt spread, never
    correctness).
    """
    import shutil

    from librecatastro_ray.state.manifest import delete_docs

    manifest = check_version(index_dir, load_manifest(index_dir))
    config = IndexConfig.from_json(manifest["config"])
    gen = int(manifest.get("generation", 0)) + 1
    old_parts = manifest.get("parts_dir", "parts")
    new_parts = f"parts-g{gen}"
    spill_dir_name = f"shuffle-g{gen}"
    ckpt_name = f"checkpoints-g{gen}"
    docs_dir = os.path.join(index_dir, "docs")
    gen_docs = os.path.join(docs_dir, f"gen-{gen}")
    # a rerun after a crash redoes the whole add: wipe this generation's
    # scratch (the OLD generation's files are never touched)
    for d in (gen_docs, os.path.join(index_dir, spill_dir_name),
              os.path.join(index_dir, ckpt_name),
              os.path.join(index_dir, new_parts)):
        shutil.rmtree(d, ignore_errors=True)

    # ---- new docs: dedup within batch, ids offset past the current space --
    ds = _as_dataset(corpus)
    id_base = int(manifest["n_docs"])
    n_new, sum_dl_new = dedup_assign_write(
        ds, gen_docs, analyzer_id=config.analyzer, id_base=id_base
    )
    report: dict[str, Any] = {"n_added": int(n_new), "generation": gen}
    if n_new == 0:
        return {"manifest": manifest, "report": report}

    # ---- upsert: tombstone old ids whose (repo, path) reappears ----------
    import pyarrow.dataset as pads

    new_keys_t = pads.dataset(gen_docs, format="parquet").to_table(
        columns=["repo", "path"]
    )
    key_arr = pa.compute.binary_join_element_wise(
        new_keys_t["repo"], new_keys_t["path"], "\x00"
    )
    new_key_set = np.sort(key_arr.to_numpy(zero_copy_only=False))
    key_ref = ray.put(new_key_set)

    def _collide(batch: pa.Table, *, keys_ref=key_ref) -> pa.Table:
        keys = ray.get(keys_ref) if not isinstance(keys_ref, np.ndarray) else keys_ref
        k = pa.compute.binary_join_element_wise(
            batch["repo"], batch["path"], "\x00"
        ).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, k)
        idx[idx == len(keys)] = len(keys) - 1
        hit = keys[idx] == k
        return pa.table({"doc_id": batch["doc_id"].to_numpy()[hit]})

    # scan only the PRE-EXISTING generations' key columns (broadcast probe)
    old_doc_files = [
        os.path.join(r, f)
        for r, _d, fs in os.walk(docs_dir)
        for f in fs
        if f.endswith(".parquet") and not r.startswith(gen_docs)
    ]
    from librecatastro_ray.sources.readers import read_parquet_clean

    collisions = (
        read_parquet_clean(old_doc_files, columns=["doc_id", "repo", "path"])
        .map_batches(_collide, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
    )
    n_upserts = 0
    if len(collisions):
        delete_docs(index_dir, collisions["doc_id"].to_numpy())
        n_upserts = int(len(collisions))
    report["n_upserts"] = n_upserts

    # ---- new postings spill (frozen P/S/hot list/salt width) --------------
    spill_path = os.path.join(index_dir, spill_dir_name)
    spilled = _spill(_read_sized(gen_docs, ["doc_id", "content"]), spill_path, config,
                     manifest["hot_terms"], int(manifest["salt_width"]))

    # ---- re-merge the listed and the spilled partitions ------------------
    n_docs = id_base + int(n_new)
    sum_dl = int(manifest["sum_dl"]) + int(sum_dl_new)
    skeys = sorted({int(s) for s in manifest["partitions"]} | set(spilled))
    _merge_partitions(
        skeys, index_dir, config, parts_dir=new_parts,
        spill_dir=spill_dir_name, ckpt_name=ckpt_name, old_parts=old_parts,
    )

    # ---- finalize: manifest flips last (MVCC commit point) ----------------
    partitions = {
        str(skey): _partition_entry(
            read_json(os.path.join(index_dir, ckpt_name, f"part-{skey}.json")))
        for skey in skeys
    }
    manifest = dict(manifest)
    manifest["n_docs"] = n_docs
    manifest["sum_dl"] = sum_dl
    manifest["parts_dir"] = new_parts
    manifest["generation"] = gen
    manifest["partitions"] = partitions
    manifest["lineage"] = dict(
        manifest.get("lineage") or {},
        n_postings=sum(p["n_postings"] for p in partitions.values()),
    )
    save_manifest(index_dir, manifest)
    # the old generation is now unreferenced; reclaim it (crash before this
    # point never reaches here, so the flip stays atomic)
    if old_parts != new_parts:
        shutil.rmtree(os.path.join(index_dir, old_parts), ignore_errors=True)
    shutil.rmtree(spill_path, ignore_errors=True)
    report["n_docs"] = n_docs
    return {"manifest": manifest, "report": report}


def compact_index(index_dir: str, target_dir: str) -> dict:
    """Compaction (the Lucene segment merge that RECLAIMS deletes): rebuild
    ``target_dir`` from ``index_dir``'s LIVE documents only.  After
    compaction the documented stats drift of deletes/adds is gone —
    N / avgdl / df count live docs exactly, ids re-densify by the canonical
    (repo, path) order, and the result is BIT-IDENTICAL to a fresh
    ``build_index`` over the live corpus (pinned by test).

    Reads the doc store's live rows as the corpus (content is already
    deduped and carried in ``docs/``), so compaction cost equals one build
    over the live corpus minus crawling/derivation.  ``target_dir`` must not
    be the source (the source stays readable throughout — the caller swaps
    directories, or just points new engines at the target)."""
    import numpy as np

    from librecatastro_ray.state.manifest import load_deleted

    if os.path.abspath(target_dir) == os.path.abspath(index_dir):
        raise ValueError("compact_index needs a distinct target_dir "
                         "(the source stays readable during compaction)")
    manifest = check_version(index_dir, load_manifest(index_dir))
    config = IndexConfig.from_json(manifest["config"])
    dead = load_deleted(index_dir)
    dead_ref = ray.put(dead)

    def _live(batch: pa.Table) -> pa.Table:
        d = ray.get(dead_ref) if not isinstance(dead_ref, np.ndarray) else dead_ref
        if len(d) == 0:
            return batch.select(CORPUS_COLUMNS)
        ids = batch["doc_id"].to_numpy()
        idx = np.searchsorted(d, ids)
        idx[idx == len(d)] = len(d) - 1
        alive = d[idx] != ids
        return batch.filter(pa.array(alive)).select(CORPUS_COLUMNS)

    live_ds = _read_sized(
        os.path.join(index_dir, "docs"), ["doc_id"] + CORPUS_COLUMNS
    ).map_batches(_live, batch_format="pyarrow", batch_size=1024)
    return build_index(live_ds, target_dir, config, resume=False)
