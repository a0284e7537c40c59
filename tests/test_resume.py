"""Checkpoint / resume: kill after partition j, resume, identical final
manifest; completed partitions not recomputed (SURVEY.md §5.2) —
reproducing the reference's resumable-crawl semantics (anti-join skip of
already-scraped streets, reference: src/utils/elasticsearch_utils.py:100-136)."""

import json
import os
import shutil

import pytest

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import build_index
from librecatastro_ray.pipelines.query import QueryEngine
from librecatastro_ray.sources.synth import make_corpus
from librecatastro_ray.state.manifest import drop_index, load_manifest


def _cfg():
    return IndexConfig(num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=2)


def _doc_parts(index_dir: str) -> dict[str, tuple[int, int]]:
    """(inode, mtime) of each of segment 0's doc-store parts: a part that
    is written again gets a new inode (tmp + rename)."""
    docs = os.path.join(index_dir, "docs")
    return {f: (os.stat(os.path.join(docs, f)).st_ino, os.stat(os.path.join(docs, f)).st_mtime_ns)
            for f in os.listdir(docs) if f.startswith("part-")}


def _crash_mid_merge(monkeypatch) -> None:
    """Make the build's merge fail after it merged its first partition."""
    from librecatastro_ray.pipelines import build as build_mod

    real = build_mod._merge_partitions

    def crash(skeys, *args, **kwargs):
        real(skeys[:1], *args, **kwargs)
        raise RuntimeError("simulated crash mid-merge")

    monkeypatch.setattr(build_mod, "_merge_partitions", crash)


def test_resume_after_partial_merge(tmp_path):
    corpus = make_corpus(n_docs=200, seed=7, vocab_size=500, mean_tokens=40)
    full_dir = str(tmp_path / "full")
    r1 = build_index(corpus, full_dir, _cfg())
    manifest_full = load_manifest(full_dir)

    # simulate a crash: copy the index, delete the manifest and HALF of the
    # partition outputs + checkpoints
    crash_dir = str(tmp_path / "crash")
    shutil.copytree(full_dir, crash_dir)
    os.remove(os.path.join(crash_dir, "manifest.json"))
    cks = sorted(os.listdir(os.path.join(crash_dir, "checkpoints")))
    killed = cks[: len(cks) // 2]
    for name in killed:
        skey = int(name[len("part-") : -len(".json")])
        os.remove(os.path.join(crash_dir, "checkpoints", name))
        pkey, salt = divmod(skey, 2)
        for prefix in ("blocks", "dict"):
            p = os.path.join(crash_dir, "parts", f"{prefix}-{pkey:04d}-{salt:02d}.parquet")
            if os.path.exists(p):
                os.remove(p)

    docs_before = _doc_parts(crash_dir)
    r2 = build_index(corpus, crash_dir, _cfg(), resume=True)
    assert r2["report"]["partitions_merged"] == len(killed)
    assert r2["report"]["partitions_skipped"] == len(cks) - len(killed)
    assert _doc_parts(crash_dir) == docs_before, "a doc-store part was rewritten"

    # byte-identical final manifest (deterministic content, no wall clock)
    m_resumed = load_manifest(crash_dir)
    assert json.dumps(m_resumed, sort_keys=True) == json.dumps(manifest_full, sort_keys=True)

    # identical query results
    e1, e2 = QueryEngine(full_dir), QueryEngine(crash_dir)
    for text in ["def", "id_00001 id_00002", "return if"]:
        t1, t2 = e1.match(text, 10), e2.match(text, 10)
        assert t1.equals(t2)


def test_partial_parquet_write_invisible(tmp_path):
    """A leftover .tmp file from a killed merge task never corrupts the
    index (atomic write = temp + os.replace)."""
    corpus = make_corpus(n_docs=100, seed=9, vocab_size=300, mean_tokens=30)
    d = str(tmp_path / "idx")
    build_index(corpus, d, _cfg())
    # drop a garbage tmp file; engine must ignore it
    with open(os.path.join(d, "parts", "blocks-0000-00.parquet.tmp"), "wb") as f:
        f.write(b"garbage")
    e = QueryEngine(d)
    assert e.match("id_00001", 10) is not None


def test_rebuild_is_idempotent_and_drop(tmp_path):
    corpus = make_corpus(n_docs=100, seed=11, vocab_size=300, mean_tokens=30)
    d = str(tmp_path / "idx")
    build_index(corpus, d, _cfg())
    r2 = build_index(corpus, d, _cfg(), resume=True)
    assert r2["report"]["phases_skipped"] == ["all"]
    # drop (idempotent delete, reference: elasticsearch_utils.py:85-98)
    assert drop_index(d) is True
    assert drop_index(d) is False
    assert not os.path.exists(d)


def test_docs_phase_block_level_resume(tmp_path):
    """A crash mid-docs-phase (some part files written, no spill, parts or
    checkpoints) resumes without rewriting the surviving part files, and
    the final index answers queries identically."""
    import ray.data

    table = make_corpus(n_docs=1200, seed=11, vocab_size=400, mean_tokens=25)
    corpus = lambda: ray.data.from_arrow(table).repartition(6)  # noqa: E731
    full_dir = str(tmp_path / "full")
    build_index(corpus(), full_dir, _cfg())
    ref_eng = QueryEngine(full_dir)
    ref = ref_eng.match("def", 10).to_pylist()

    crash_dir = str(tmp_path / "crash")
    # run only the docs phase by building fully, then simulating a crash:
    # remove every later artifact + SOME part files (the committed build
    # already removed its spill)
    shutil.copytree(full_dir, crash_dir)
    os.remove(os.path.join(crash_dir, "manifest.json"))
    docs = os.path.join(crash_dir, "docs")
    parts = sorted(f for f in os.listdir(docs) if f.startswith("part-"))
    assert len(parts) >= 2, "need multiple doc part files for this test"
    removed = parts[0]
    os.remove(os.path.join(docs, removed))
    survivor = os.path.join(docs, parts[1])
    mtime_before = os.path.getmtime(survivor)
    shutil.rmtree(os.path.join(crash_dir, "parts"))
    shutil.rmtree(os.path.join(crash_dir, "checkpoints"))
    assert not os.path.exists(os.path.join(crash_dir, "shuffle"))

    r = build_index(corpus(), crash_dir, _cfg(), resume=True)
    n_parts = len(load_manifest(full_dir)["segments"][0]["partitions"])
    assert (r["report"]["partitions_merged"], r["report"]["partitions_skipped"]) == (n_parts, 0)
    assert os.path.exists(os.path.join(docs, removed))
    assert os.path.getmtime(survivor) == mtime_before, "survivor was rewritten"
    got = QueryEngine(crash_dir).match("def", 10).to_pylist()
    assert got == ref


def test_independent_builds_are_byte_identical(tmp_path):
    """Two from-scratch builds of the same corpus produce identical
    manifests (incl. per-partition output sha256) — full determinism, the
    property that makes retry/resume safe at any granularity."""
    corpus = make_corpus(n_docs=300, seed=13, vocab_size=400, mean_tokens=35)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(corpus, a, _cfg())
    build_index(corpus, b, _cfg())
    ma, mb = load_manifest(a), load_manifest(b)
    assert json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)


def test_changed_block_content_invalidates_docs_resume(tmp_path):
    """Same row/block layout, DIFFERENT content: the _PLAN.json content
    fingerprints must force a wipe (the shape-only plan silently kept stale
    part files — ADVICE r1)."""
    import pyarrow.dataset as pads
    import ray.data

    from librecatastro_ray.pipelines.build import estimate_hot_terms
    from librecatastro_ray.stages.doc_ids import dedup_assign_write

    t1 = make_corpus(n_docs=200, seed=21, vocab_size=300, mean_tokens=20)
    contents = [(c or "") + " changedtok" for c in t1["content"].to_pylist()]
    import pyarrow as pa

    t2 = t1.set_column(
        t1.schema.get_field_index("content"), "content", pa.array(contents, pa.string())
    )
    docs_dir, spill_dir = str(tmp_path / "docs"), str(tmp_path / "shuffle")
    args = (docs_dir, spill_dir, IndexConfig(), estimate_hot_terms)
    dedup_assign_write(ray.data.from_arrow(t1).repartition(4), *args)
    sha_v1 = set(pads.dataset(docs_dir, format="parquet").to_table(columns=["sha256"])["sha256"].to_pylist())
    # same shape (4 blocks, 200 rows) but new content — a rerun must NOT
    # keep the v1 part files
    dedup_assign_write(ray.data.from_arrow(t2).repartition(4), *args)
    sha_v2 = set(pads.dataset(docs_dir, format="parquet").to_table(columns=["sha256"])["sha256"].to_pylist())
    assert sha_v1.isdisjoint(sha_v2), "stale doc-store part files survived a content change"


def test_changed_corpus_path_invalidates_completed_phases(tmp_path):
    """Crash mid-merge, then resume against a corpus path whose CONTENT
    changed: the doc-id plan's block fingerprints differ, so the doc store,
    spill and checkpoints are discarded instead of mixing old and new."""
    import pyarrow.parquet as pq

    t1 = make_corpus(n_docs=150, seed=23, vocab_size=300, mean_tokens=20)
    corpus_dir = str(tmp_path / "corpus")
    os.makedirs(corpus_dir)
    pq.write_table(t1, os.path.join(corpus_dir, "part-0.parquet"))
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx, _cfg())
    # simulate a crash after merge started: drop manifest + one checkpoint
    os.remove(os.path.join(idx, "manifest.json"))
    cks = sorted(os.listdir(os.path.join(idx, "checkpoints")))
    os.remove(os.path.join(idx, "checkpoints", cks[0]))
    # corpus content changes under the crashed build (same schema/shape)
    contents = [(c or "").replace("def", "zzznewterm") for c in t1["content"].to_pylist()]
    import pyarrow as pa

    t2 = t1.set_column(
        t1.schema.get_field_index("content"), "content", pa.array(contents, pa.string())
    )
    pq.write_table(t2, os.path.join(corpus_dir, "part-0.parquet"))
    r = build_index(corpus_dir, idx, _cfg(), resume=True)
    assert r["report"]["partitions_skipped"] == 0
    assert r["report"]["partitions_merged"] == len(load_manifest(idx)["segments"][0]["partitions"])
    eng = QueryEngine(idx)
    assert eng.count("zzznewterm") > 0, "new content must be indexed"
    assert eng.count("def") == 0, "stale content must be gone"


def test_mid_merge_resume_under_another_partitioning_rebuilds_the_spill(tmp_path):
    """Crash mid-merge (the manifest and a checkpoint gone), then resume
    with another partitioning: the doc store and the spill belong to the
    old config, so the resume rewrites them, merges every partition again
    and gives the index of a clean build under the new config."""
    corpus = make_corpus(n_docs=200, seed=29, vocab_size=300, mean_tokens=30)
    new_cfg = IndexConfig(num_partitions=3, num_salts=3, block_size=16, blocks_row_group_size=2)
    clean = str(tmp_path / "clean")
    build_index(corpus, clean, new_cfg)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, _cfg())
    os.remove(os.path.join(idx, "manifest.json"))
    cks = sorted(os.listdir(os.path.join(idx, "checkpoints")))
    os.remove(os.path.join(idx, "checkpoints", cks[0]))
    r = build_index(corpus, idx, new_cfg, resume=True)
    assert r["report"]["partitions_skipped"] == 0
    assert r["report"]["partitions_merged"] == len(load_manifest(clean)["segments"][0]["partitions"])
    assert json.dumps(load_manifest(idx), sort_keys=True) == json.dumps(
        load_manifest(clean), sort_keys=True)


@pytest.mark.parametrize("as_dataset", [False, True], ids=["table", "dataset"])
def test_mid_merge_resume_with_changed_content_equals_a_clean_build(tmp_path, monkeypatch,
                                                                    as_dataset):
    """A build of a table (or a Dataset) crashes mid-merge, and the resume
    gets the same rows with "def" replaced by "zzznewterm": nothing of the
    old content may survive, so the index equals a clean build of the new
    content, manifest and answers alike."""
    import pyarrow as pa
    import ray.data

    t1 = make_corpus(n_docs=300, seed=31, vocab_size=300, mean_tokens=25)
    t2 = t1.set_column(t1.schema.get_field_index("content"), "content", pa.array(
        [(c or "").replace("def", "zzznewterm") for c in t1["content"].to_pylist()], pa.string()))
    corpus = (lambda t: ray.data.from_arrow(t)) if as_dataset else (lambda t: t)  # noqa: E731
    clean, idx = str(tmp_path / "clean"), str(tmp_path / "idx")
    build_index(corpus(t2), clean, _cfg())
    _crash_mid_merge(monkeypatch)
    with pytest.raises(RuntimeError, match="simulated crash mid-merge"):
        build_index(corpus(t1), idx, _cfg())
    monkeypatch.undo()
    assert len(os.listdir(os.path.join(idx, "checkpoints"))) == 1

    r = build_index(corpus(t2), idx, _cfg())
    assert r["report"]["partitions_skipped"] == 0
    assert load_manifest(idx) == load_manifest(clean)
    eng, ref = QueryEngine(idx), QueryEngine(clean)
    assert eng.count("zzznewterm") == ref.count("zzznewterm") > 0
    assert eng.count("def") == ref.count("def") == 0
    for text in ("zzznewterm return", "if id_00001"):
        assert eng.match(text, 10).equals(ref.match(text, 10))


def _crash_before_doc_parts(monkeypatch, bids: set[int]) -> None:
    """Make the doc-id apply task of each block in ``bids`` fail after it
    spilled its postings and before it wrote its doc-store part.  The task
    runs in a worker, so a stand-in task fails the part's write there."""
    import ray

    from librecatastro_ray.stages import doc_ids

    @ray.remote
    def apply(block, bid, docs_dir, *args):
        import pyarrow.parquet as pq

        from librecatastro_ray.stages import doc_ids as worker_doc_ids

        write = pq.write_table

        def fail_doc_part(table, where, **kwargs):
            if bid in bids and os.path.dirname(where) == docs_dir:
                raise RuntimeError("simulated crash before the doc-store part")
            return write(table, where, **kwargs)

        pq.write_table = fail_doc_part
        try:
            return worker_doc_ids._apply_ids_write._function(block, bid, docs_dir, *args)
        finally:
            pq.write_table = write

    monkeypatch.setattr(doc_ids, "_apply_ids_write", apply)


def test_apply_round_crash_between_spill_and_doc_part_resumes_to_the_clean_index(
        tmp_path, monkeypatch):
    """The apply round of a build, and of an add, fails after some blocks
    spilled their postings but before they wrote their doc-store parts.
    ``build_index(resume=True)`` and a rerun of the add then give the
    manifest (every posting file's sha256 included) of a clean run."""
    import pytest
    import ray.data

    from librecatastro_ray.pipelines.build import add_documents
    from librecatastro_ray.stages.postings import spilled

    # 300-row input blocks, which the sha pass (batch_size=512) bundles in
    # pairs into doc-id blocks: 3 in the build, 2 in the add
    table = make_corpus(n_docs=3000, seed=17, vocab_size=300, mean_tokens=10)
    base = lambda: ray.data.from_arrow(table.slice(0, 1800)).repartition(6)  # noqa: E731
    delta = lambda: ray.data.from_arrow(table.slice(1800)).repartition(4)  # noqa: E731
    clean, crash = str(tmp_path / "clean"), str(tmp_path / "crash")
    build_index(base(), clean, _cfg())
    seg = load_manifest(clean)["segments"][0]
    assert seg["hot_terms"] and len(seg["docs"]) == 3

    _crash_before_doc_parts(monkeypatch, {0, 2})
    with pytest.raises(RuntimeError, match="simulated crash"):
        build_index(base(), crash, _cfg())
    monkeypatch.undo()
    docs, shuffle = os.path.join(crash, "docs"), os.path.join(crash, "shuffle")
    for bid in range(3):
        part = os.path.exists(os.path.join(docs, f"part-{bid:06d}.parquet"))
        assert spilled(shuffle, bid) and part == (bid == 1), bid
    build_index(base(), crash, _cfg(), resume=True)
    assert json.dumps(load_manifest(crash), sort_keys=True) == json.dumps(
        load_manifest(clean), sort_keys=True)

    add_documents(delta(), clean)
    committed = load_manifest(crash)
    _crash_before_doc_parts(monkeypatch, {1})
    with pytest.raises(RuntimeError, match="simulated crash"):
        add_documents(delta(), crash)
    monkeypatch.undo()
    assert load_manifest(crash) == committed
    assert spilled(os.path.join(crash, "seg-0001", "shuffle"), 1)
    add_documents(delta(), crash)
    assert json.dumps(load_manifest(crash), sort_keys=True) == json.dumps(
        load_manifest(clean), sort_keys=True)
    for text in ("def", "return if", "id_00001 id_00002"):
        assert QueryEngine(crash).match(text, 10).equals(QueryEngine(clean).match(text, 10))
