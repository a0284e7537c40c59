"""Incremental indexing (`add_documents`): the ES continuous-upsert behavior
the reference crawler relies on (one batch at a time here; reference:
src/utils/elasticsearch_utils.py:100-136 + cadaster_entry.py:46-77),
Lucene-style — new ids append, colliding keys tombstone-then-add, the batch
becomes one new segment (its own doc store and parts; no older posting is
read or rewritten), and the manifest replace is the one commit point."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import add_documents, build_index
from librecatastro_ray.pipelines.query import QueryEngine
from librecatastro_ray.sources.synth import make_corpus
from librecatastro_ray.stages.merge import dict_file


def _dictionary(index_dir: str) -> list[tuple]:
    """(term, df, cf) over all partitions of all segments — doc-id-INVARIANT
    index content."""
    eng = QueryEngine(index_dir)
    rows = []
    for seg in eng.manifest["segments"]:
        for pkey in range(seg["num_partitions"]):
            for salt in range(eng.config.num_salts):
                p = dict_file(index_dir, pkey, salt, seg["parts"])
                if os.path.exists(p):
                    t = pq.read_table(p)
                    rows += list(zip(t["term"].to_pylist(), t["df"].to_pylist(),
                                     t["cf"].to_pylist()))
    agg = {}
    for term, df, cf in rows:
        d, c = agg.get(term, (0, 0))
        agg[term] = (d + df, c + cf)
    return sorted((t, d, c) for t, (d, c) in agg.items())


CFG = IndexConfig(num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=2,
                  positions=True)


def test_add_disjoint_equals_full_build(tmp_path, corpus_small):
    """base ∪ add over disjoint keys ≡ one full build: identical dictionary
    (term, df, cf), identical global stats, identical per-KEY match hits."""
    n = corpus_small.num_rows
    base, batch = corpus_small.slice(0, n - 120), corpus_small.slice(n - 120, 120)
    inc_dir, full_dir = str(tmp_path / "inc"), str(tmp_path / "full")
    build_index(base, inc_dir, CFG)
    r = add_documents(batch, inc_dir)
    build_index(corpus_small, full_dir, CFG)
    inc, full = QueryEngine(inc_dir), QueryEngine(full_dir)
    # the synth corpus has intra-corpus dup keys: the incremental path
    # tombstones old versions (n_docs counts them), the full build dedups
    # them away — live doc count matches
    assert inc.n_docs - len(inc._deleted) == full.n_docs
    if r["report"]["n_upserts"] == 0:
        # truly disjoint keys: index CONTENT is identical (id-invariant view)
        assert _dictionary(inc_dir) == _dictionary(full_dir)
        assert (inc.n_docs, inc.sum_dl) == (full.n_docs, full.sum_dl)
    # per-key hits identical (ids differ — compare via hydrated keys)
    for text in ["def return", "id_00007", "class for"]:
        a = inc.match(text, k=10**9)
        b = full.match(text, k=10**9)
        ka = inc.hydrate(a["doc_id"].to_numpy())
        kb = full.hydrate(b["doc_id"].to_numpy())
        keys_a = sorted(zip(ka["repo"].to_pylist(), ka["path"].to_pylist()))
        keys_b = sorted(zip(kb["repo"].to_pylist(), kb["path"].to_pylist()))
        assert keys_a == keys_b, text


def test_add_upsert_replaces_and_tombstones(tmp_path, corpus_small):
    idx = str(tmp_path / "idx")
    build_index(corpus_small, idx, CFG)
    eng0 = QueryEngine(idx)
    stats = pads.dataset(os.path.join(idx, "docs")).to_table(
        columns=["doc_id", "repo", "path"])
    old_id = int(stats["doc_id"][0].as_py())
    repo, path = stats["repo"][0].as_py(), stats["path"][0].as_py()
    batch = pa.table(
        {
            "repo": pa.array([repo, "newrepo"], pa.string()),
            "path": pa.array([path, "new/file.py"], pa.string()),
            "commit": pa.array(["c1", "c2"], pa.string()),
            "lang": pa.array(["py", "py"], pa.string()),
            "content": pa.array(
                ["zzzupsert fresh content here", "zzzbrandnew other doc"],
                pa.string(),
            ),
        }
    )
    r = add_documents(batch, idx)
    assert r["report"]["n_added"] == 2
    assert r["report"]["n_upserts"] == 1
    eng = QueryEngine(idx)
    hit = eng.match("zzzupsert", k=5)
    assert hit.num_rows == 1
    new_id = int(hit["doc_id"][0].as_py())
    assert new_id >= eng0.n_docs  # appended id space
    h = eng.hydrate([old_id, new_id])
    assert h["doc_id"].to_pylist() == [new_id]  # old version tombstoned
    assert (h["repo"][0].as_py(), h["path"][0].as_py()) == (repo, path)


def test_add_generations_stack_and_old_parts_reclaimed(tmp_path, corpus_small):
    """Each add stacks one segment over the next doc range and rewrites no
    older segment's files; only its own spill is reclaimed, once its
    commit is done, and every write reports the spill it removed."""
    idx = str(tmp_path / "idx")
    base = corpus_small.slice(0, 200)
    reports = [build_index(base, idx, CFG)["report"]]
    assert not os.path.isdir(os.path.join(idx, "shuffle"))
    base_parts = {f: os.stat(os.path.join(idx, "parts", f)).st_ino
                  for f in os.listdir(os.path.join(idx, "parts"))}
    reports += [add_documents(corpus_small.slice(200, 100), idx)["report"],
                add_documents(corpus_small.slice(300, 100), idx)["report"]]
    for r in reports:
        assert r["spill_files"] >= r["partitions_merged"] > 0 and r["spill_bytes"] > 0, r
    eng = QueryEngine(idx)
    segs = eng.manifest["segments"]
    assert [s["parts"] for s in segs] == ["parts", "seg-0001/parts", "seg-0002/parts"]
    assert [s["base"] for s in segs] == [0, segs[0]["n_docs"],
                                         segs[0]["n_docs"] + segs[1]["n_docs"]]
    assert {f: os.stat(os.path.join(idx, "parts", f)).st_ino
            for f in os.listdir(os.path.join(idx, "parts"))} == base_parts
    assert not os.path.isdir(os.path.join(idx, "seg-0001", "shuffle"))
    assert not os.path.isdir(os.path.join(idx, "seg-0002", "shuffle"))
    # phrase + wand still rank-identical after two generations
    w = eng.match_wand("def return", k=20)
    m = eng.match("def return", k=20)
    assert w["doc_id"].to_pylist() == m["doc_id"].to_pylist()
    assert eng.match_phrase("return def", k=5).num_rows > 0


def test_add_crash_before_manifest_flip_leaves_old_index(tmp_path, corpus_small,
                                                         monkeypatch):
    idx = str(tmp_path / "idx")
    base = corpus_small.slice(0, 250)
    build_index(base, idx, CFG)
    before = QueryEngine(idx).match("def return", k=10)

    import librecatastro_ray.pipelines.build as build_mod

    def boom(*a, **k):
        raise RuntimeError("simulated crash before manifest flip")

    monkeypatch.setattr(build_mod, "save_manifest", boom)
    with pytest.raises(RuntimeError, match="simulated"):
        add_documents(corpus_small.slice(250, 100), idx)
    monkeypatch.undo()
    # old index fully readable, results unchanged
    after_crash = QueryEngine(idx).match("def return", k=10)
    assert before.equals(after_crash)
    # rerunning the add succeeds and lands the new docs
    r = add_documents(corpus_small.slice(250, 100), idx)
    assert r["report"]["n_added"] > 0
    assert QueryEngine(idx).n_docs == 250 + r["report"]["n_added"]


def test_compact_reclaims_tombstones_bit_identical(tmp_path, corpus_small):
    """delete + add + compact ≡ one fresh build over the live rows: same
    partition output hashes, same stats, bitwise-equal query results."""
    import pyarrow as pa

    from librecatastro_ray.pipelines.build import compact_index
    from librecatastro_ray.state.manifest import delete_docs, load_deleted

    idx = str(tmp_path / "idx")
    build_index(corpus_small, idx, CFG)
    eng = QueryEngine(idx)
    victims = eng.match("id_00012", k=3)["doc_id"].to_numpy()
    assert len(victims)
    delete_docs(idx, victims)
    tgt = str(tmp_path / "compacted")
    with pytest.raises(ValueError, match="distinct target"):
        compact_index(idx, idx)
    compact_index(idx, tgt)
    assert len(load_deleted(tgt)) == 0
    ceng = QueryEngine(tgt)
    assert ceng.n_docs == eng.n_docs - len(victims)
    # independent reference: fresh build over the live rows of the source
    stats = pads.dataset(os.path.join(idx, "docs")).to_table(
        columns=["doc_id", "repo", "path", "commit", "lang", "content"])
    keep = ~np.isin(stats["doc_id"].to_numpy(), victims)
    ref_corpus = stats.filter(pa.array(keep)).drop_columns(["doc_id"])
    ref = str(tmp_path / "ref")
    build_index(ref_corpus, ref, CFG)
    m_ref = QueryEngine(ref).match("def return", k=10**9)
    m_cmp = ceng.match("def return", k=10**9)
    assert m_ref.equals(m_cmp)  # bitwise: ids, raw scores, ranks
    from librecatastro_ray.state.manifest import load_manifest

    pa_ref = {k: v["output_sha256"]
              for k, v in load_manifest(ref)["segments"][0]["partitions"].items()}
    pa_cmp = {k: v["output_sha256"]
              for k, v in load_manifest(tgt)["segments"][0]["partitions"].items()}
    assert pa_ref == pa_cmp


def test_a_corpus_table_is_read_as_its_corpus_columns(tmp_path):
    """A corpus table's extra column is dropped, as a path read drops it,
    so every segment's doc store has one schema; a table (or a corpus file)
    that lacks a corpus column is refused, naming the column, and a refused
    table writes nothing."""
    from librecatastro_ray.pipelines.build import CORPUS_COLUMNS
    from librecatastro_ray.state.manifest import doc_files, load_manifest

    corpus = make_corpus(n_docs=60, seed=21, vocab_size=80, mean_tokens=15)
    extra = corpus.append_column("stars", pa.array(np.arange(corpus.num_rows), pa.int64()))
    idx = str(tmp_path / "idx")
    build_index(extra.slice(0, 40), idx, CFG)
    add_documents(extra.slice(40), idx)
    files = doc_files(idx, load_manifest(idx))
    assert len({os.path.dirname(f) for f in files}) == 2
    for f in files:
        assert pq.read_schema(f).names == CORPUS_COLUMNS + ["sha256", "dl", "doc_id"], f
    assert QueryEngine(idx).hydrate(np.arange(5))["commit"].null_count == 0

    no_commit = corpus.drop_columns(["commit"])
    refused = r"lacks column\(s\) \['commit'\]"
    with pytest.raises(ValueError, match=refused):
        build_index(no_commit, str(tmp_path / "new"), CFG)
    assert not os.path.exists(tmp_path / "new")
    before = {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
              for r, _d, fs in os.walk(idx) for f in fs}
    with pytest.raises(ValueError, match=refused):
        add_documents(no_commit, idx)
    assert {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
            for r, _d, fs in os.walk(idx) for f in fs} == before
    src = tmp_path / "corpus"
    src.mkdir()
    pq.write_table(no_commit, str(src / "part-0.parquet"))
    with pytest.raises(ValueError, match=refused):
        build_index(str(src), str(tmp_path / "from_path"), CFG)


@pytest.mark.parametrize("missing", ["repo", "lang"])
def test_a_corpus_dataset_lacking_a_corpus_column_is_refused(tmp_path, missing):
    """A corpus Dataset is checked against the corpus columns before
    anything is written, as a table is: one that lacks a column is refused
    by a build (no index dir appears) and by an add (no file of the index
    changes), naming the column.  Unchecked, a build without ``repo``
    committed 0 docs and one without ``lang`` an index whose keyword
    clauses raised."""
    import ray.data

    corpus = make_corpus(n_docs=60, seed=22, vocab_size=80, mean_tokens=15)
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(corpus.slice(0, 40)), idx, CFG)
    lacking = ray.data.from_arrow(corpus.slice(40).drop_columns([missing]))
    refused = rf"lacks column\(s\) \['{missing}'\]"
    with pytest.raises(ValueError, match=refused):
        build_index(lacking, str(tmp_path / "new"), CFG)
    assert not os.path.exists(tmp_path / "new")
    before = {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
              for r, _d, fs in os.walk(idx) for f in fs}
    with pytest.raises(ValueError, match=refused):
        add_documents(lacking, idx)
    assert {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
            for r, _d, fs in os.walk(idx) for f in fs} == before
