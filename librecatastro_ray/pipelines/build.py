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
      → commit manifest.json, then remove the spill    (segment 0)

``build_index`` and ``add_documents`` write a segment the same way
(``_write_segment``): the add runs this pass and merge over its batch alone
into one more segment, with its own partition count, and ``compact_index``
is a build over the live docs of every segment, read by the same plain
tasks as a corpus path.  Two records decide what a rerun after a crash
reuses: the doc-id pass's ``_PLAN.json`` (block rows and content
fingerprints, config, format version, id base), whose change discards the
segment's doc parts, spill, merged parts and checkpoints, and the
per-partition merge checkpoints, whose anti-join skips the merged
partitions (the reference's resume mechanisms re-expressed: upsert
idempotence + skip-already-scraped, reference: cadaster_entry.py:53,
elasticsearch_utils.py:100-136).
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
import ray.data

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
    check_version,
    completed_partitions,
    doc_files,
    load_deleted,
    load_manifest,
    manifest_path,
    save_manifest,
    write_ids,
)

def _remove(paths: list[str]) -> None:
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)


def _corpus(corpus: Any) -> Any:
    """``corpus``, or a ``ValueError`` naming the ``CORPUS_COLUMNS`` it
    lacks, raised before the write touches anything.  A table keeps only
    those columns, as a path read does; a Dataset keeps its extra columns
    in the doc store (a Dataset whose plan cannot infer its schema runs its
    first block for the check).  A corpus path's files are checked by
    their footers when its blocks are planned."""
    if isinstance(corpus, pa.Table):
        check_corpus_columns(corpus.column_names, "corpus table")
        return corpus.select(CORPUS_COLUMNS)
    if isinstance(corpus, ray.data.Dataset):
        schema = corpus.schema()
        check_corpus_columns(schema.names if schema else [], "corpus Dataset")
    return corpus


def _dir_stats(path: str) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    sizes = [os.path.getsize(os.path.join(r, f)) for r, _d, fs in os.walk(path) for f in fs]
    return len(sizes), sum(sizes)


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


def _segment_dirs(seg: str | None) -> dict[str, str]:
    """The dirs, relative to the index dir, of the build's segment 0
    (``seg`` None) or of an add's segment ``seg``: its doc store, merged
    parts, spill and merge checkpoints."""
    if seg is None:
        return {"docs": "docs", "parts_dir": "parts", "spill_dir": "shuffle",
                "ckpt_name": "checkpoints"}
    return {"docs": os.path.join("docs", seg), "parts_dir": f"{seg}/parts",
            "spill_dir": f"{seg}/shuffle", "ckpt_name": f"{seg}/checkpoints"}


def _write_segment(corpus: Any, index_dir: str, config: IndexConfig, committed: dict,
                   seg: str | None = None) -> dict:
    """Write ``corpus`` as one more segment after those of ``committed``
    (the index's manifest; a build passes one without segments) and commit
    it.  The build and every add run the same steps, in order:

      1. the doc-id pass (``dedup_assign_write``): doc store and spill;
      2. the merge of the partitions that have no checkpoint;
      3. the segment's manifest entry, with the committed ids its docs
         upsert away, committed by the one manifest ``os.replace``;
      4. the removal of the segment's spill, once the commit is done.

    A rerun after a crash reuses what the doc-id pass's plan and the merge
    checkpoints allow: a differing plan discards the segment's doc parts,
    spill, merged parts and checkpoints; a matching one keeps the finished
    blocks, and the checkpoint anti-join the merged partitions.  An add of
    no doc commits nothing and removes what it wrote.  Returns
    ``{"manifest": ..., "report": {...}}``."""
    dirs = _segment_dirs(seg)
    path = lambda d: os.path.join(index_dir, d)  # noqa: E731
    base = int(committed["n_docs"])
    t0 = time.monotonic()
    n_docs, sum_dl, layout = dedup_assign_write(
        corpus, path(dirs["docs"]), path(dirs["spill_dir"]), config, estimate_hot_terms, base,
        derived=(path(dirs["parts_dir"]), path(dirs["ckpt_name"])))
    report: dict[str, Any] = {"n_added": int(n_docs),
                              "phase_seconds": {"docs": round(time.monotonic() - t0, 3)}}
    if n_docs == 0 and committed["segments"]:
        _remove([path(dirs["docs"]), path(seg)])
        return {"manifest": committed, "report": report}

    t0 = time.monotonic()
    skeys = layout["skeys"]  # none when no doc has a token
    done = completed_partitions(index_dir, dirs["ckpt_name"])
    pending = [s for s in skeys if s not in done]
    report["partitions_merged"] = len(pending)
    report["partitions_skipped"] = len(skeys) - len(pending)
    if pending:
        _merge_partitions(pending, index_dir, config, layout["num_partitions"],
                          **{k: dirs[k] for k in ("parts_dir", "spill_dir", "ckpt_name")})
        done = completed_partitions(index_dir, dirs["ckpt_name"])
    missing = [s for s in skeys if s not in done]
    if missing:
        raise RuntimeError(f"merge incomplete: partitions {missing} missing checkpoints")
    report["phase_seconds"]["merge"] = round(time.monotonic() - t0, 3)

    docs = _segment_docs(index_dir, dirs["docs"])
    upserted = _upserted_ids(index_dir, committed, docs) if committed["segments"] else []
    report["n_upserts"] = int(len(upserted))
    upserted_file = None
    if len(upserted):
        upserted_file = f"{seg}/upserted.parquet"
        write_ids(path(upserted_file), upserted)
    segment = _segment_entry(base, int(n_docs), int(sum_dl), docs, dirs["parts_dir"], layout,
                             {s: done[s] for s in skeys}, upserted_file)
    segments = [*committed["segments"], segment]
    manifest = dict(
        committed,
        n_docs=base + int(n_docs),
        sum_dl=int(committed["sum_dl"]) + int(sum_dl),
        segments=segments,
        lineage=dict(committed["lineage"], **_lineage(segments)),
    )
    save_manifest(index_dir, manifest)
    report["n_docs"] = manifest["n_docs"]
    report["spill_files"], report["spill_bytes"] = _dir_stats(path(dirs["spill_dir"]))
    _remove([path(dirs["spill_dir"])])
    return {"manifest": manifest, "report": report}


def build_index(
    corpus: Any,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    resume: bool = True,
) -> dict:
    """Build (or resume building) an index: segment 0, written by
    ``_write_segment``.  Returns ``{"manifest": ..., "report": {...}}``;
    the report's ``phases_skipped`` is ``["all"]`` when a complete index
    was reused, and it counts the merged and skipped partitions."""
    config = config or IndexConfig()
    corpus = _corpus(corpus)
    # fail fast on an unknown strategy id — before any phase writes
    from librecatastro_ray.functions.analysis import get_analyzer, get_scorer

    get_analyzer(config.analyzer)
    get_scorer(config.scorer, config.k1, config.b)

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
            return {"manifest": old, "report": {"phases_skipped": ["all"]}}
        # mismatch: fall through to a rebuild (the doc-id plan records the
        # old config, so the stale segment is discarded).  Remove the stale
        # manifest FIRST — otherwise a crash mid-rebuild leaves a
        # "complete" manifest over a discarded segment and the next resume
        # would return it as-is.
        os.remove(manifest_path(index_dir))
    if not resume:
        from librecatastro_ray.state.manifest import drop_index

        drop_index(index_dir)

    os.makedirs(index_dir, exist_ok=True)
    # a build writes segment 0 only: the added segments of an index it
    # replaces are stale
    _remove(glob.glob(os.path.join(index_dir, "seg-*"))
            + glob.glob(os.path.join(index_dir, "docs", "seg-*")))
    empty = {
        "version": INDEX_FORMAT_VERSION,
        "config": config.to_json(),
        "n_docs": 0,
        "sum_dl": 0,
        "segments": [],
        "lineage": {"source": corpus if isinstance(corpus, str) else "<dataset>"},
    }
    out = _write_segment(corpus, index_dir, config, empty)
    out["report"]["phases_skipped"] = []
    return out


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
      - the segment is written as the build writes its own
        (``_write_segment``: the doc-id pass with its spill, then the merge,
        over the batch alone) — its own doc store (``docs/seg-{g}/``),
        parts, checkpoints, hot-term list, salt width and term partition
        count (``seg-{g}/``) — so an add costs what its batch costs and no
        older posting is read or rewritten.  A batch whose postings fit one
        posting row group (``hot_postings_budget``) is one partition,
        merged by one task, and an in-memory table runs no Ray Data job;
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
    rerunning it resumes it as a build resumes (what the doc-id plan and
    the merge checkpoints allow is kept).  The add deletes nothing a reader
    of an earlier manifest can open (only its own spill, after the commit).
    Segments accumulate until ``compact_index`` rebuilds the live docs as
    one, and a query reads one run per segment, so read cost grows with
    their count (warm ``match`` p50 about 0.1 ms at 1 segment and 0.5-0.8 ms
    at 200 segments of 100 docs over a 1000-doc base, on 1 CPU): there is
    no merge policy yet, so compact an index that has taken many adds.
    """
    corpus = _corpus(corpus)
    manifest = check_version(index_dir, load_manifest(index_dir))
    seg = f"seg-{len(manifest['segments']):04d}"
    out = _write_segment(corpus, index_dir, IndexConfig.from_json(manifest["config"]), manifest,
                         seg)
    out["report"]["segment"] = seg
    return out


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
