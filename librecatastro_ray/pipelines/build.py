"""Index build pipeline: plain Ray tasks, no Ray Data job unless the corpus
is a Dataset.

    corpus path → one read task per block of parquet
      rows, a block spanning small files (sha256
      appended in the task); an in-memory
      table → row slices hashed in the driver; a
      Dataset → map_batches: sha256                    (the write's one Ray
                                                        Data job)
      → key-only sort (repo, path, sha256) + per-block
        dedup + dense doc_id routed back to unmoved
        content blocks                                 (shuffle 1: keys only —
                                                        content bytes never
                                                        enter the exchange)
      → hot terms: sampled df over the id-stamped
        blocks, only above the hot postings budget     (plain tasks)
      → per block, one task: tokenize the winners
        once → spill their salted flat postings to
        shuffle/skey=K/part-{bid} → write the doc store
        part docs/part-{bid}                           (forward index + sha256
                                                        invariant + dl norms;
                                                        the part is the block's
                                                        commit — the all-to-all
                                                        is this map-side scatter
                                                        by skey, no sort network
                                                        step)
      → the segment's partition count d from the
        spill footers: the fewest partitions (a
        divisor of num_partitions) whose posting row
        groups hold its postings                       (driver, footers only)
      → merge_batch tasks over runs of the d × salts
        partitions → parts/ + checkpoints/             (≤ 2 × CPUs tasks; one
                                                        checkpoint per partition)
      → finalize manifest.json                         (segment 0)

Every phase is gated by a completion marker; the merge phase is resumable at
per-partition granularity via the checkpoint anti-join (the reference's
resume mechanisms re-expressed: upsert idempotence + skip-already-scraped,
reference: cadaster_entry.py:53, elasticsearch_utils.py:100-136).

``add_documents`` runs the same doc-id pass (with its spill) and merge over
its batch alone into one more segment, with its own partition count, and
``compact_index`` rebuilds the live docs of every segment as one, read
by the same plain tasks as a corpus path.
"""

from __future__ import annotations

import glob
import os
import shutil
import time
from typing import Any

import numpy as np
import pyarrow as pa
import ray

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.stages.doc_ids import (
    CORPUS_COLUMNS,
    ParquetCorpus,
    check_corpus_columns,
    cluster_cpus,
    dedup_assign_write,
)
from librecatastro_ray.stages.merge import merge_batch
from librecatastro_ray.state.manifest import (
    INDEX_FORMAT_VERSION,
    atomic_write_json,
    check_version,
    completed_partitions,
    doc_files,
    load_deleted,
    load_manifest,
    manifest_path,
    read_json,
    save_manifest,
    write_ids,
)

def _remove(paths: list[str]) -> None:
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)


def _marker(path: str) -> str:
    return os.path.join(path, "_DONE.json")


def _phase_done(d: str) -> bool:
    return os.path.exists(_marker(d))


def _partitioning(config: IndexConfig) -> dict:
    """The config fields that decide the spill's skeys, hot terms and salt
    width and the merged parts' blocks (the analysis ones are the docs
    marker's ``analysis_fp``), recorded in the shuffle marker."""
    fields = ("num_partitions", "num_salts", "hot_sample_target", "block_size",
              "blocks_row_group_size")
    return {f: getattr(config, f) for f in fields}


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


def _corpus_table(table: pa.Table) -> pa.Table:
    """An in-memory corpus table's ``CORPUS_COLUMNS``, extra columns dropped
    as a path read drops them, or a ``ValueError`` naming the missing ones
    (raised before the write touches anything)."""
    check_corpus_columns(table.column_names, "corpus table")
    return table.select(CORPUS_COLUMNS)


def _sample_term_counts(docs: pa.Table, *, mod: int, analyzer_id: str) -> tuple[pa.Table, int]:
    """Partial df over a deterministic doc sample (doc_id % mod == 0) of
    one id-stamped block: ``(term, df)`` and the number of sampled docs,
    combined on the driver.  This is the partial-aggregate-before-groupby
    pattern — the full df never shuffles."""
    from librecatastro_ray.functions.analysis import get_analyzer, term_frequencies_with

    sub = docs.filter(pa.array(docs["doc_id"].to_numpy() % mod == 0))
    tf_table, _ = term_frequencies_with(get_analyzer(analyzer_id), sub["content"])
    g = tf_table.group_by("term", use_threads=False).aggregate([("row", "count")])
    return pa.table({"term": g["term"], "df": g["row_count"].cast(pa.int64())}), len(sub)


def estimate_hot_terms(map_docs, n_docs: int, config: IndexConfig) -> list[str]:
    """Terms whose estimated df exceeds ``config.hot_postings_budget`` (one
    posting row group), from a deterministic sample of the ``n_docs``
    id-stamped docs that ``map_docs`` maps over (``dedup_assign_write``).
    No term of an index of at most that many docs can exceed it, so then no
    sample is tokenized.  Returns a sorted list (small: keyword-class terms
    only)."""
    budget = config.hot_postings_budget
    if n_docs <= budget:
        return []
    mod = max(1, n_docs // max(1, config.hot_sample_target))
    parts = map_docs(_sample_term_counts, mod=mod, analyzer_id=config.analyzer)
    n_sampled = sum(n for _df, n in parts)
    if n_sampled == 0:
        return []
    df = pa.concat_tables([t for t, _n in parts]).group_by("term").aggregate([("df", "sum")])
    # estimated df = sampled df × n_docs / n_sampled
    hot = df["df_sum"].to_numpy() * n_docs > budget * n_sampled
    return sorted(df["term"].filter(pa.array(hot)).to_pylist())


def _partition_entry(ck: dict) -> dict:
    """A partition's manifest entry from its merge checkpoint."""
    return {
        "pkey": ck["pkey"],
        "salt": ck["salt"],
        "n_terms": ck["metrics"]["n_terms"],
        "n_postings": ck["metrics"]["n_postings"],
        "output_sha256": ck["output_sha256"],
    }


def _segment_docs(index_dir: str, docs_dir: str) -> list[str]:
    """The doc-store files (relative to ``index_dir``) a finished doc-id
    phase wrote to ``docs_dir``, sorted."""
    return sorted(os.path.join(docs_dir, f) for f in os.listdir(os.path.join(index_dir, docs_dir))
                  if f.startswith("part-") and f.endswith(".parquet"))


def _segment_entry(base: int, n_docs: int, sum_dl: int, docs: list[str], parts: str,
                   layout: dict, done: dict[int, dict], upserted: str | None = None) -> dict:
    """A segment's manifest entry: its doc range [base, base + n_docs),
    doc-store files, parts dir, salt layout and term partition count (from
    the doc-id pass's ``layout``), the partitions its merge checkpoints
    ``done`` list, and the tombstone file of the ids it upserted away (None
    when there are none)."""
    return {
        "base": base,
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "docs": docs,
        "parts": parts,
        "hot_terms": layout["hot_terms"],
        "salt_width": layout["salt_width"],
        "num_partitions": layout["num_partitions"],
        "partitions": {str(skey): _partition_entry(ck) for skey, ck in sorted(done.items())},
        "upserted": upserted,
    }


def _lineage(segments: list[dict]) -> dict:
    parts = [p for seg in segments for p in seg["partitions"].values()]
    return {"n_postings": sum(p["n_postings"] for p in parts),
            "n_terms_with_salt_dups": sum(p["n_terms"] for p in parts)}


_merge_task = ray.remote(num_cpus=1)(merge_batch)


def _merge_partitions(skeys: list[int], index_dir: str, config: IndexConfig,
                      num_partitions: int, **dirs: str) -> None:
    """Merge the partitions ``skeys`` of a segment of ``num_partitions``
    partitions in min(#skeys, 2 × cluster CPUs) plain tasks, each over a
    contiguous run of skeys, so a small cluster does not pay one task
    launch per partition.  Each partition is checkpointed as soon as it is
    merged, so resume stays per partition."""
    runs = np.array_split(np.asarray(skeys, np.int64), min(len(skeys), 2 * cluster_cpus()))
    refs = [_merge_task.remote(pa.table({"skey": run}), index_dir=index_dir,
                               config_json=config.to_json(), num_partitions=num_partitions,
                               **dirs) for run in runs]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    ray.get(refs)


def build_index(
    corpus: Any,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    resume: bool = True,
) -> dict:
    """Build (or resume building) an index.  Returns
    ``{"manifest": ..., "report": {...}}`` where the report carries
    per-phase skip/recompute counts (used by the resume tests)."""
    config = config or IndexConfig()
    if isinstance(corpus, pa.Table):
        corpus = _corpus_table(corpus)
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
    # a build writes segment 0 only: the added segments of an index it
    # replaces are stale
    _remove(glob.glob(os.path.join(index_dir, "seg-*"))
            + glob.glob(os.path.join(docs_dir, "seg-*")))

    # ---- phase A: dedup + doc ids → canonical doc store + postings spill --
    # one key-only sort, one tokenize, one fused write: docs/ is forward
    # index, row-invariant (sha256) table and BM25 norm (dl) table in a
    # single columnar parquet, written block-per-file by the id-apply tasks,
    # which spill each block's salted flat postings to shuffle/ first
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
    stats = read_json(_marker(docs_dir)) if _phase_done(docs_dir) else None
    if stats is not None:
        stale_src = src_fp is not None and stats.get("src_fp") not in (None, src_fp)
        stored_fp = stats.get("analysis_fp") or _analysis_fp(IndexConfig())
        stale_analysis = stored_fp != analysis_fp
        if stale_src or stale_analysis:
            # crash-resume against a CHANGED corpus or analysis strategy:
            # the finished docs phase (and everything derived from it) is
            # stale — invalidate all of it rather than mixing old and new
            _remove([docs_dir, shuffle_dir, os.path.join(index_dir, "checkpoints")])
            report["phases_invalidated"] = ["docs", "shuffle", "merge"]
            stats = None
    shuffle_meta = read_json(_marker(shuffle_dir)) if _phase_done(shuffle_dir) else None
    # a finished spill of another partitioning is stale: the pass below
    # rewrites it (and the doc store), and its merged partitions go too
    if shuffle_meta is not None and (
            shuffle_meta.get("version") != INDEX_FORMAT_VERSION
            or shuffle_meta.get("partitioning") != _partitioning(config)):
        shuffle_meta = None
    if stats is not None and shuffle_meta is not None:
        report["phases_skipped"] += ["docs", "shuffle"]
    else:
        # one pass writes the doc store and the spill; the partitions merged
        # from an earlier spill are stale.  No wipe of docs/ or shuffle/
        # here: dedup_assign_write's _PLAN.json keeps the blocks a crashed
        # run finished when corpus and config are unchanged (block-level
        # resume, content-fingerprinted) and clears them itself when not
        _remove([os.path.join(index_dir, "checkpoints"), os.path.join(index_dir, "parts")])
        n_docs_a, sum_dl_a, shuffle_meta = dedup_assign_write(
            corpus, docs_dir, shuffle_dir, config, estimate_hot_terms)
        stats = {"n_docs": int(n_docs_a), "sum_dl": int(sum_dl_a),
                 "src_fp": src_fp, "analysis_fp": analysis_fp}
        atomic_write_json(_marker(docs_dir), stats)
        shuffle_meta.update(version=INDEX_FORMAT_VERSION, partitioning=_partitioning(config))
        atomic_write_json(_marker(shuffle_dir), shuffle_meta)
    report["phase_seconds"]["docs"] = round(_t() - _t0, 3)
    _t0 = _t()
    docs = _segment_docs(index_dir, "docs")
    n_docs = int(stats["n_docs"])
    sum_dl = int(stats["sum_dl"])
    skeys_present = shuffle_meta["skeys"]

    # ---- phase B: merge in task groups, checkpoint anti-join --------------
    done = completed_partitions(index_dir)
    pending = [s for s in skeys_present if s not in done]
    report["partitions_skipped"] = len(skeys_present) - len(pending)
    report["partitions_merged"] = len(pending)
    if pending:
        _merge_partitions(pending, index_dir, config, shuffle_meta["num_partitions"])
    report["phase_seconds"]["merge"] = round(_t() - _t0, 3)
    done = completed_partitions(index_dir)
    missing = [s for s in skeys_present if s not in done]
    if missing:
        raise RuntimeError(f"merge incomplete: partitions {missing} missing checkpoints")

    # ---- finalize: manifest (deterministic content — no wall clock) -------
    segment = _segment_entry(0, n_docs, sum_dl, docs, "parts", shuffle_meta, done)
    manifest = {
        "version": INDEX_FORMAT_VERSION,
        "config": config.to_json(),
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "segments": [segment],
        "lineage": {"source": corpus if isinstance(corpus, str) else "<dataset>",
                    **_lineage([segment])},
    }
    save_manifest(index_dir, manifest)
    return {"manifest": manifest, "report": report}


def _upserted_ids(index_dir: str, manifest: dict, new_docs: list[str]) -> np.ndarray:
    """Sorted ids of the live committed docs whose (repo, path) the new
    doc-store files ``new_docs`` hold again: a pyarrow scan in the driver of
    the committed segments' key columns, pruned to the new paths."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    new = pads.dataset([os.path.join(index_dir, f) for f in new_docs], format="parquet")
    new = new.to_table(columns=["repo", "path"])
    old = pads.dataset(doc_files(index_dir, manifest), format="parquet").to_table(
        columns=["doc_id", "repo", "path"], filter=pads.field("path").isin(new["path"]))
    hit = pc.is_in(pc.binary_join_element_wise(old["repo"], old["path"], "\x00"),
                   value_set=pc.binary_join_element_wise(new["repo"], new["path"], "\x00"))
    return np.setdiff1d(old["doc_id"].filter(hit).to_numpy(), load_deleted(index_dir, manifest))


def add_documents(corpus: Any, index_dir: str) -> dict:
    """Incremental indexing (the ES behavior the reference's crawler relies
    on: documents stream in continuously and are upserted one HTTP call at a
    time, reference: src/utils/elasticsearch_utils.py:100-136 +
    cadaster_entry.py:46-77 — here one BATCH at a time, Ray-Data-shaped).

    Semantics (the Lucene segment model):
      - the batch becomes one new SEGMENT over the doc-id range
        [n_docs, n_docs + n_new): ids are dense, sorted by (repo, path)
        within the batch, and existing ids never change;
      - the segment is written by the build's own doc-id pass (with its
        spill) and merge over the batch alone — its own doc store
        (``docs/seg-{g}/``), parts, checkpoints, hot-term list, salt width
        and term partition count (``seg-{g}/``) — so an add costs what its
        batch costs and no older posting is read or rewritten.  A batch
        whose postings fit one posting row group (``hot_postings_budget``)
        is one partition, merged by one task, and an in-memory table runs
        no Ray Data job;
      - an incoming (repo, path) that already exists UPSERTS: the old doc
        id is tombstoned and the new doc serves — exactly Lucene's
        delete-then-add update.  The upserted-away ids go to
        ``seg-{g}/upserted.parquet``, which the segment's manifest entry
        names;
      - global stats move to the new totals (N += batch, sum_dl += batch;
        tombstoned old versions keep counting until a compaction, the
        documented delete semantics), so a query sums df over segments and
        scores exactly as over one segment.

    The manifest ``os.replace`` is the one commit point: before it no
    reader sees any of the segment's docs, postings or tombstones, so an
    add that fails part-way leaves the last committed index as it was, and
    rerunning it redoes it.  The add deletes nothing a reader of an earlier
    manifest can open (only its own spill, after the commit).  Segments
    accumulate until ``compact_index`` rebuilds the live docs as one, and
    a query reads one run per segment, so read cost grows with their count
    (``match_wand`` p50 about 0.16 ms at 1 segment, 17.6 ms at 200 on
    1 CPU): there is no merge policy yet, so compact an index that has
    taken many adds.
    """
    if isinstance(corpus, pa.Table):
        corpus = _corpus_table(corpus)
    manifest = check_version(index_dir, load_manifest(index_dir))
    config = IndexConfig.from_json(manifest["config"])
    seg = f"seg-{len(manifest['segments']):04d}"
    docs_dir = os.path.join("docs", seg)
    dirs = {"parts_dir": f"{seg}/parts", "spill_dir": f"{seg}/shuffle",
            "ckpt_name": f"{seg}/checkpoints"}
    # a rerun after a crash redoes the whole add: wipe this segment's
    # uncommitted files (no committed file is touched)
    uncommitted = [os.path.join(index_dir, d) for d in (docs_dir, seg)]
    _remove(uncommitted)

    # ---- new docs and their postings spill: dedup within batch, ids offset
    # past the current space, the segment's own hot terms and salt width ---
    base = int(manifest["n_docs"])
    n_new, sum_dl_new, layout = dedup_assign_write(
        corpus, os.path.join(index_dir, docs_dir),
        os.path.join(index_dir, dirs["spill_dir"]), config, estimate_hot_terms, base)
    report: dict[str, Any] = {"n_added": int(n_new), "segment": seg}
    if n_new == 0:
        _remove(uncommitted)
        return {"manifest": manifest, "report": report}
    docs = _segment_docs(index_dir, docs_dir)

    # ---- upsert: the committed ids whose (repo, path) reappears ----------
    upserted = _upserted_ids(index_dir, manifest, docs)
    report["n_upserts"] = int(len(upserted))
    upserted_file = None
    if len(upserted):
        upserted_file = f"{seg}/upserted.parquet"
        write_ids(os.path.join(index_dir, upserted_file), upserted)

    if layout["skeys"]:  # none when every new doc tokenizes to nothing
        _merge_partitions(layout["skeys"], index_dir, config, layout["num_partitions"], **dirs)
    done = completed_partitions(index_dir, dirs["ckpt_name"])

    # ---- commit: one manifest replace -------------------------------------
    segment = _segment_entry(base, int(n_new), int(sum_dl_new), docs, dirs["parts_dir"], layout,
                             done, upserted_file)
    segments = [*manifest["segments"], segment]
    manifest = dict(
        manifest,
        n_docs=base + int(n_new),
        sum_dl=int(manifest["sum_dl"]) + int(sum_dl_new),
        segments=segments,
        lineage=dict(manifest["lineage"], **_lineage(segments)),
    )
    save_manifest(index_dir, manifest)
    _remove([os.path.join(index_dir, dirs["spill_dir"])])
    report["n_docs"] = manifest["n_docs"]
    return {"manifest": manifest, "report": report}


def compact_index(index_dir: str, target_dir: str) -> dict:
    """Compaction (the Lucene segment merge that RECLAIMS deletes): rebuild
    ``target_dir`` from ``index_dir``'s LIVE documents only.  After
    compaction the documented stats drift of deletes/adds is gone —
    N / avgdl / df count live docs exactly, ids re-densify by the canonical
    (repo, path) order, and the result is BIT-IDENTICAL to a fresh
    ``build_index`` over the live corpus (pinned by test).

    Reads the live rows of the committed segments' doc stores as the
    corpus (content is already deduped and carried there; the files of an
    add that never committed are not read) with the plain read tasks of a
    corpus path, which drop the tombstoned rows, so no Ray Data job runs
    and compaction cost equals one
    build over the live corpus minus crawling/derivation — the merge policy
    that folds the segments adds accumulate back into one.  ``target_dir`` must not
    be the source (the source stays readable throughout — the caller swaps
    directories, or just points new engines at the target)."""
    if os.path.abspath(target_dir) == os.path.abspath(index_dir):
        raise ValueError("compact_index needs a distinct target_dir "
                         "(the source stays readable during compaction)")
    manifest = check_version(index_dir, load_manifest(index_dir))
    config = IndexConfig.from_json(manifest["config"])
    live = ParquetCorpus(doc_files(index_dir, manifest), load_deleted(index_dir, manifest))
    return build_index(live, target_dir, config, resume=False)
