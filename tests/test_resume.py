"""Checkpoint / resume: kill after partition j, resume, identical final
manifest; completed partitions not recomputed (SURVEY.md §5.2) —
reproducing the reference's resumable-crawl semantics (anti-join skip of
already-scraped streets, reference: src/utils/elasticsearch_utils.py:100-136)."""

import json
import os
import shutil

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import build_index
from librecatastro_ray.pipelines.query import QueryEngine
from librecatastro_ray.sources.synth import make_corpus
from librecatastro_ray.state.manifest import drop_index, load_manifest


def _cfg():
    return IndexConfig(num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=2)


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

    r2 = build_index(corpus, crash_dir, _cfg(), resume=True)
    assert r2["report"]["partitions_merged"] == len(killed)
    assert r2["report"]["partitions_skipped"] == len(cks) - len(killed)
    assert "docs" in r2["report"]["phases_skipped"]
    assert "shuffle" in r2["report"]["phases_skipped"]

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
    """A crash mid-docs-phase (no _DONE marker, some part files written)
    resumes without rewriting the surviving part files, and the final index
    answers queries identically."""
    import ray.data

    table = make_corpus(n_docs=1200, seed=11, vocab_size=400, mean_tokens=25)
    corpus = lambda: ray.data.from_arrow(table).repartition(6)  # noqa: E731
    full_dir = str(tmp_path / "full")
    build_index(corpus(), full_dir, _cfg())
    ref_eng = QueryEngine(full_dir)
    ref = ref_eng.match("def", 10).to_pylist()

    crash_dir = str(tmp_path / "crash")
    # run only the docs phase by building fully, then simulating a crash:
    # remove the phase marker + every later artifact + SOME part files
    shutil.copytree(full_dir, crash_dir)
    os.remove(os.path.join(crash_dir, "manifest.json"))
    docs = os.path.join(crash_dir, "docs")
    os.remove(os.path.join(docs, "_DONE.json"))
    parts = sorted(f for f in os.listdir(docs) if f.startswith("part-"))
    assert len(parts) >= 2, "need multiple doc part files for this test"
    removed = parts[0]
    os.remove(os.path.join(docs, removed))
    survivor = os.path.join(docs, parts[1])
    mtime_before = os.path.getmtime(survivor)
    shutil.rmtree(os.path.join(crash_dir, "parts"))
    shutil.rmtree(os.path.join(crash_dir, "checkpoints"))
    shutil.rmtree(os.path.join(crash_dir, "shuffle"))

    r = build_index(corpus(), crash_dir, _cfg(), resume=True)
    assert "docs" not in r["report"]["phases_skipped"]
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

    from librecatastro_ray.stages.doc_ids import dedup_assign_write

    t1 = make_corpus(n_docs=200, seed=21, vocab_size=300, mean_tokens=20)
    contents = [(c or "") + " changedtok" for c in t1["content"].to_pylist()]
    import pyarrow as pa

    t2 = t1.set_column(
        t1.schema.get_field_index("content"), "content", pa.array(contents, pa.string())
    )
    docs_dir = str(tmp_path / "docs")
    dedup_assign_write(ray.data.from_arrow(t1).repartition(4), docs_dir)
    sha_v1 = set(pads.dataset(docs_dir, format="parquet").to_table(columns=["sha256"])["sha256"].to_pylist())
    # same shape (4 blocks, 200 rows) but new content — a rerun must NOT
    # keep the v1 part files
    dedup_assign_write(ray.data.from_arrow(t2).repartition(4), docs_dir)
    sha_v2 = set(pads.dataset(docs_dir, format="parquet").to_table(columns=["sha256"])["sha256"].to_pylist())
    assert sha_v1.isdisjoint(sha_v2), "stale doc-store part files survived a content change"


def test_changed_corpus_path_invalidates_completed_phases(tmp_path):
    """Crash mid-merge, then resume against a corpus path whose CONTENT
    changed: the source fingerprint in the docs marker invalidates docs +
    shuffle + checkpoints instead of mixing old and new."""
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
    assert r["report"].get("phases_invalidated") == ["docs", "shuffle", "merge"]
    eng = QueryEngine(idx)
    assert eng.count("zzznewterm") > 0, "new content must be indexed"
    assert eng.count("def") == 0, "stale content must be gone"
