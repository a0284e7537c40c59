"""Adds as segments: each add commits one doc-range segment with a single
manifest replace.  A multi-segment index (salted segments of different
widths, upserts, a delete) answers every query kind as the pure-Python
oracle; an add that fails at any step leaves nothing of itself visible to
any read path, compaction included, and reruns cleanly; a compaction or a
delete that fails part-way leaves the last commit's index; engines opened
before an add or a compaction keep answering from their snapshot."""

import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.bm25 import idf, tf_norm
from librecatastro_ray.functions.editdist import osa_distance
from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.oracle import OracleIndex
from librecatastro_ray.pipelines import build as build_mod
from librecatastro_ray.pipelines.build import add_documents, build_index, compact_index
from librecatastro_ray.pipelines.query import QueryEngine, batch_search_scatter
from librecatastro_ray.stages import doc_ids as doc_ids_mod
from librecatastro_ray.state.manifest import (delete_docs, deleted_path, load_deleted,
                                              load_manifest, read_ids)

VOCAB = [f"w{i}" for i in range(30)]
_P = 1.0 / np.arange(1, len(VOCAB) + 1)
_P /= _P.sum()
# a hot postings budget of 8: the base and every add salt their frequent
# terms, each segment with its own hot terms and salt width
CFG = IndexConfig(num_partitions=2, num_salts=3, block_size=4, blocks_row_group_size=2,
                  positions=True)
BIG = 10**6


def _rows(rng: np.random.RandomState, paths: list[str], gen: int) -> list[dict]:
    return [{"repo": "r", "path": p, "commit": f"c{gen}",
             "lang": str(rng.choice(["py", "js"])),
             "content": " ".join(rng.choice(VOCAB, size=rng.randint(1, 25), p=_P))}
            for p in paths]


class Sim:
    """The documents an index holds by id, and its tombstones, write by
    write: a batch's docs take the next ids in (repo, path) order, and a key
    that reappears tombstones its old id."""

    def __init__(self):
        self.rows: list[dict] = []
        self.id_of: dict[tuple, int] = {}
        self.dead: set[int] = set()

    def write(self, batch: list[dict]) -> None:
        for r in sorted(batch, key=lambda r: (r["repo"], r["path"])):
            key = (r["repo"], r["path"])
            if key in self.id_of:
                self.dead.add(self.id_of[key])
            self.id_of[key] = len(self.rows)
            self.rows.append(r)

    def oracle(self) -> OracleIndex:
        o = OracleIndex(doc_ids=list(range(len(self.rows))),
                        repos=[r["repo"] for r in self.rows],
                        paths=[r["path"] for r in self.rows],
                        langs=[r["lang"] for r in self.rows])
        for d, r in enumerate(self.rows):
            toks = tokenize(r["content"])
            o.dl[d] = len(toks)
            for term, tf in Counter(toks).items():
                o.postings.setdefault(term, {})[d] = tf
        return o

    def copy(self) -> "Sim":
        s = Sim()
        s.rows, s.id_of, s.dead = list(self.rows), dict(self.id_of), set(self.dead)
        return s


def _live(pairs, dead: set[int], k: int) -> list[tuple[int, float]]:
    return [(d, s) for d, s in pairs if d not in dead][:k]


def _assert_page(table: pa.Table, want) -> None:
    got = table.to_pylist()
    assert [r["doc_id"] for r in got] == [d for d, _ in want]
    for row, (_, s) in zip(got, want):
        assert abs(row["score"] - s) <= 1e-6, row


def _phrase_want(sim: Sim, o: OracleIndex, terms: list[str], k: int):
    m = len(terms)
    w = sum(float(idf(len(o.postings.get(t, {})), o.n_docs)) for t in terms)
    scores = {}
    for d, r in enumerate(sim.rows):
        toks = tokenize(r["content"])
        pf = sum(toks[i:i + m] == terms for i in range(len(toks) - m + 1))
        if pf and d not in sim.dead:
            scores[d] = w * float(tf_norm(np.array([pf]), np.array([o.dl[d]]), o.avgdl,
                                          o.k1, o.b)[0])
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def _check_text_queries(eng: QueryEngine, sim: Sim, texts: list[str]) -> None:
    """match, match_wand, match_phrase, bool_must (with a keyword clause)
    and count equal the oracle of ``sim``."""
    o, dead = sim.oracle(), sim.dead
    assert eng.n_docs == o.n_docs and abs(eng.avgdl - o.avgdl) < 1e-12
    for text in texts:
        toks = tokenize(text)
        for k in (3, 1000):
            want = _live(o.match(text, k=BIG), dead, k)
            _assert_page(eng.match(text, k=k), want)
            _assert_page(eng.match_wand(text, k=k), want)
        _assert_page(eng.match_phrase(text, k=1000), _phrase_want(sim, o, toks, 1000))
        _assert_page(eng.bool_must(toks, k=1000), _live(o.bool_must(toks, k=BIG), dead, 1000))
        _assert_page(eng.bool_must(toks[:1], k=1000, keyword_eq=[("lang", "py")]),
                     _live(o.bool_must(toks[:1], k=BIG, keyword_eq=[("lang", "py")]),
                           dead, 1000))
        hits = set().union(*(o.postings.get(t, {}) for t in toks)) - dead
        assert eng.count(text) == len(hits), text


def _texts(rng: np.random.RandomState) -> list[str]:
    return ["w0 w1", "w0", "w1 w0 w2", "w29 absent"] + [
        " ".join(rng.choice(VOCAB + ["absent"], size=rng.randint(1, 4))) for _ in range(4)]


def _check_doc_store(idx: str, eng: QueryEngine, sim: Sim) -> None:
    """``docs/`` holds exactly the committed docs (ids 0..n-1), keyword
    clauses and hydrate read them, and the tombstones are the simulated
    ones."""
    t = pads.dataset(os.path.join(idx, "docs"), format="parquet").to_table(
        columns=["doc_id", "path"])
    assert sorted(t["doc_id"].to_pylist()) == list(range(len(sim.rows)))
    assert load_deleted(idx).tolist() == sorted(sim.dead)
    assert eng.keyword_docs("lang", "py").tolist() == [
        d for d, r in enumerate(sim.rows) if r["lang"] == "py"]
    h = eng.hydrate(np.arange(len(sim.rows) + 50))
    assert h["doc_id"].to_pylist() == [d for d in range(len(sim.rows)) if d not in sim.dead]
    assert h["path"].to_pylist() == [sim.rows[d]["path"] for d in h["doc_id"].to_pylist()]


def _delta(rng: np.random.RandomState, sim: Sim, gen: int, n_new: int,
           n_upserts: int) -> list[dict]:
    live = sorted(k for k, d in sim.id_of.items() if d not in sim.dead)
    ups = [live[i] for i in sorted(rng.choice(len(live), size=n_upserts, replace=False))]
    return _rows(rng, [p for _r, p in ups] + [f"g{gen}_{j:03d}.py" for j in range(n_new)], gen)


@pytest.mark.parametrize("seed", [3, 11])
def test_multi_segment_index_equals_the_oracle(tmp_path, seed):
    """Base + three upserting adds + a delete: every query kind, and the
    scatter path, answer as the oracle over all docs ever written (N, avgdl
    and df count upserted-away and deleted docs; hits never include them),
    with salted terms in segments of different salt widths."""
    rng = np.random.RandomState(seed)
    idx = str(tmp_path / "idx")
    sim = Sim()
    base = _rows(rng, [f"f{i:04d}.py" for i in range(60)], 0)
    build_index(pa.Table.from_pylist(base), idx, CFG)
    sim.write(base)
    for gen, n_new in ((1, 14), (2, 30), (3, 9)):
        batch = _delta(rng, sim, gen, n_new, 3)
        r = add_documents(pa.Table.from_pylist(batch), idx)
        assert r["report"]["n_upserts"] == 3
        sim.write(batch)
        _check_doc_store(idx, QueryEngine(idx), sim)
    victims = sorted(rng.choice(sorted(set(range(len(sim.rows))) - sim.dead), 5, replace=False))
    delete_docs(idx, victims)
    assert read_ids(deleted_path(idx)).tolist() == victims  # upserts stay in their segments
    sim.dead.update(int(v) for v in victims)

    eng = QueryEngine(idx)
    segs = eng.manifest["segments"]
    assert len(segs) == 4 and [s["base"] for s in segs] == [0, 60, 77, 110]
    salted = [s for s in segs if s["hot_terms"]]
    assert len({s["salt_width"] for s in salted}) > 1, "needs segments of different widths"
    assert any(len([r for r in eng._salts(t) if eng._span(t, r) is not None]) > len(segs)
               for t in eng.hot), "needs a term read from several salt runs"
    _check_every_kind(idx, eng, sim, rng)


def _check_every_kind(idx: str, eng: QueryEngine, sim: Sim, rng: np.random.RandomState) -> None:
    """The doc store, every text query kind, prefix, fuzzy and the scatter
    path (match, phrase, bool with a keyword clause, prefix, fuzzy, count)
    answer as the oracle of ``sim``."""
    _check_doc_store(idx, eng, sim)
    texts = _texts(rng)
    _check_text_queries(eng, sim, texts)
    o = sim.oracle()
    for prefix in ("w", "w1", "w2", "z"):
        _assert_page(eng.prefix_content(prefix, k=1000),
                     _live(o.prefix_content(prefix, k=BIG), sim.dead, 1000))
    for term in ("w1", "w12", "w30"):
        docs = sorted(set().union(*(p for t, p in o.postings.items()
                                    if osa_distance(t, term) <= 1)) - sim.dead)
        _assert_page(eng.fuzzy_content(term, max_edits=1, k=1000), [(d, 1.0) for d in docs])
    queries = [{"query_id": i, "kind": "match", "text": t, "k": 20} for i, t in enumerate(texts)]
    queries += [
        {"query_id": 100, "kind": "match_phrase", "text": "w0 w1", "k": 20},
        {"query_id": 101, "kind": "bool_must", "must_terms": ["w0"],
         "keyword_eq": [["lang", "js"]], "k": 20},
        {"query_id": 102, "kind": "prefix_content", "prefix": "w1", "k": 20},
        {"query_id": 103, "kind": "fuzzy", "term": "w12", "k": 20},
        {"query_id": 104, "kind": "count", "text": "w0 w3"},
    ]
    got = batch_search_scatter(idx, queries, n_ranges=3).to_pylist()
    for q in queries:
        rows = [(r["doc_id"], r["score"]) for r in got if r["query_id"] == q["query_id"]]
        if q["kind"] == "count":
            assert rows == [(-1, float(eng.count(q["text"])))]
            continue
        direct = {"match": lambda: eng.match(q["text"], k=20),
                  "match_phrase": lambda: eng.match_phrase(q["text"], k=20),
                  "bool_must": lambda: eng.bool_must(["w0"], k=20, keyword_eq=[("lang", "js")]),
                  "prefix_content": lambda: eng.prefix_content("w1", k=20),
                  "fuzzy": lambda: eng.fuzzy_content("w12", k=20)}[q["kind"]]()
        assert rows == list(zip(direct["doc_id"].to_pylist(), direct["score"].to_pylist())), q


@pytest.fixture(scope="module")
def base_index(tmp_path_factory):
    """A salted 60-doc base with two deleted docs, its simulation, and an
    add batch of 25 new docs and 10 upserts."""
    rng = np.random.RandomState(5)
    idx = str(tmp_path_factory.mktemp("segments") / "base")
    sim = Sim()
    base = _rows(rng, [f"f{i:04d}.py" for i in range(60)], 0)
    build_index(pa.Table.from_pylist(base), idx, CFG)
    sim.write(base)
    delete_docs(idx, [4, 17])
    sim.dead.update([4, 17])
    return idx, sim, _delta(rng, sim, 1, 25, 10)


def _copy(src: str, dst) -> str:
    shutil.copytree(src, str(dst))
    return str(dst)


def _crash_at(monkeypatch, step: str) -> None:
    """Make the add's ``step`` raise: after doing its work, or, for the
    manifest save (the commit point), before.  ``_apply_ids_write`` is the
    doc-id task that spills its block's postings and writes its doc-store
    part; it runs in a worker, so a stand-in task runs it there and
    raises."""
    if step == "_apply_ids_write":
        @ray.remote
        def crash(*args):
            from librecatastro_ray.stages import doc_ids

            doc_ids._apply_ids_write._function(*args)
            raise RuntimeError(f"simulated crash in {step}")

        monkeypatch.setattr(doc_ids_mod, step, crash)
        return
    real = getattr(build_mod, step)

    def crash(*args, **kwargs):
        if step != "save_manifest":
            real(*args, **kwargs)
        raise RuntimeError(f"simulated crash in {step}")

    monkeypatch.setattr(build_mod, step, crash)


@pytest.mark.parametrize("step", ["dedup_assign_write", "_upserted_ids", "write_ids",
                                  "_apply_ids_write", "_merge_partitions", "save_manifest"])
def test_add_crash_at_any_step_leaves_the_committed_index(base_index, tmp_path, monkeypatch,
                                                          step):
    """An add (with upserts) that fails at any step shows nothing of itself:
    the manifest, tombstones, ranked answers, keyword clauses, hydrate and
    ``docs/`` are the pre-add index's.  Rerunning the add lands it."""
    src, sim, delta = base_index
    idx = _copy(src, tmp_path / "idx")
    manifest = load_manifest(idx)
    _crash_at(monkeypatch, step)
    with pytest.raises(RuntimeError, match=f"simulated crash in {step}"):
        add_documents(pa.Table.from_pylist(delta), idx)
    monkeypatch.undo()
    assert load_manifest(idx) == manifest
    eng = QueryEngine(idx)
    rng = np.random.RandomState(1)
    assert eng.n_docs == len(sim.rows) and load_deleted(idx).tolist() == sorted(sim.dead)
    assert eng.keyword_docs("lang", "py").tolist() == [
        d for d, r in enumerate(sim.rows) if r["lang"] == "py"]
    h = eng.hydrate(np.arange(len(sim.rows) + len(delta)))
    assert h["doc_id"].to_pylist() == [d for d in range(len(sim.rows)) if d not in sim.dead]
    _check_text_queries(eng, sim, _texts(rng))

    r = add_documents(pa.Table.from_pylist(delta), idx)
    assert r["report"]["n_upserts"] == 10
    after = sim.copy()
    after.write(delta)
    eng = QueryEngine(idx)
    _check_doc_store(idx, eng, after)
    _check_text_queries(eng, after, _texts(rng))


def test_compaction_after_a_crashed_add_equals_compacting_the_untouched_index(
        base_index, tmp_path, monkeypatch):
    """Compaction reads the committed segments only: the doc store and the
    upsert tombstones of an add that crashed before its commit are not
    compacted in."""
    src, _sim, delta = base_index
    crashed = _copy(src, tmp_path / "crashed")
    _crash_at(monkeypatch, "save_manifest")
    with pytest.raises(RuntimeError, match="simulated"):
        add_documents(pa.Table.from_pylist(delta), crashed)
    monkeypatch.undo()
    compact_index(crashed, str(tmp_path / "c1"))
    compact_index(src, str(tmp_path / "c2"))
    assert load_manifest(str(tmp_path / "c1")) == load_manifest(str(tmp_path / "c2"))
    t1, t2 = (pads.dataset(str(tmp_path / c / "docs"), format="parquet").to_table()
              .sort_by("doc_id") for c in ("c1", "c2"))
    assert t1.equals(t2)


def test_engines_opened_before_an_add_and_a_compaction_answer_from_their_snapshot(
        base_index, tmp_path):
    """An engine opened (nothing read yet) before an add, and one opened
    before a compaction, answer afterwards exactly as a fresh engine over a
    copy of their snapshot: no write removes a file they can read."""
    src, _sim, delta = base_index
    idx = _copy(src, tmp_path / "idx")
    before = QueryEngine(idx)
    add_documents(pa.Table.from_pylist(delta), idx)
    after_add = _copy(idx, tmp_path / "after_add")
    mid = QueryEngine(idx)
    compact_index(idx, str(tmp_path / "compacted"))
    for eng, snap in ((before, src), (mid, after_add)):
        ref = QueryEngine(snap)
        for term in ref.full_dictionary()["term"].to_pylist():
            assert eng.match(term, k=BIG).equals(ref.match(term, k=BIG)), term
        for text in ("w0 w1", "w2 w0"):
            assert eng.match_phrase(text, k=BIG).equals(ref.match_phrase(text, k=BIG))
        assert eng.keyword_docs("lang", "js").tolist() == ref.keyword_docs("lang", "js").tolist()
        assert eng.hydrate(np.arange(200)).equals(ref.hydrate(np.arange(200)))
        assert eng.count("w0 w5") == ref.count("w0 w5")


def test_add_of_docs_without_tokens_commits(base_index, tmp_path):
    """An add whose docs all tokenize to nothing (empty, null and
    punctuation-only content, one of them an upsert) commits a segment
    with no partitions: hydrate and keyword clauses serve its ids, the
    replaced version is tombstoned, and a later add stacks on it."""
    src, sim, delta = base_index
    idx = _copy(src, tmp_path / "idx")
    sim = sim.copy()
    batch = [{"repo": "r", "path": sim.rows[0]["path"], "commit": "c1", "lang": "js",
              "content": ""},
             {"repo": "r", "path": "g1_empty.py", "commit": "c1", "lang": "py",
              "content": "... !!! --"},
             {"repo": "r", "path": "g1_null.py", "commit": "c1", "lang": "py",
              "content": None}]
    r = add_documents(pa.Table.from_pylist(batch), idx)
    assert r["report"]["n_added"] == 3 and r["report"]["n_upserts"] == 1
    sim.write(batch)
    eng = QueryEngine(idx)
    assert eng.manifest["segments"][-1]["partitions"] == {}
    assert 0 in sim.dead
    _check_doc_store(idx, eng, sim)
    _check_text_queries(eng, sim, _texts(np.random.RandomState(2)))

    add_documents(pa.Table.from_pylist(delta), idx)
    sim.write(delta)
    eng = QueryEngine(idx)
    _check_doc_store(idx, eng, sim)
    _check_text_queries(eng, sim, _texts(np.random.RandomState(3)))


def _file_bytes(root: str) -> dict[str, bytes]:
    """Every file under ``root`` by relative path."""
    out = {}
    for d, _dirs, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


def _committed_bytes(root: str) -> dict[str, bytes]:
    """The manifest and the parquet files of a one-segment index, the spill
    (``shuffle/``, whose file names are per block) left out."""
    return {f: b for f, b in _file_bytes(root).items() if f == "manifest.json"
            or (f.endswith(".parquet") and not f.startswith("shuffle" + os.sep))}


def _check_committed(idx: str, engines: list[QueryEngine], sim: Sim, manifest: dict) -> None:
    """The manifest and tombstones are the last commit's, and every engine
    answers ranked queries, keyword clauses and hydrate as its oracle."""
    assert load_manifest(idx) == manifest
    assert load_deleted(idx).tolist() == sorted(sim.dead)
    for eng in engines:
        _check_doc_store(idx, eng, sim)
        _check_text_queries(eng, sim, _texts(np.random.RandomState(4)))


@pytest.mark.parametrize("step", ["_apply_ids_write", "_merge_partitions", "save_manifest"])
def test_compaction_crash_leaves_the_source_and_reruns_clean(base_index, tmp_path,
                                                             monkeypatch, step):
    """A compaction that fails part-way (its doc-id pass, its merge, or its
    target's commit) changes no byte of the source: manifest, tombstones
    and answers are unchanged for an engine held open across the crash and
    for a fresh one.  Rerunning into the same target writes a manifest and
    parquet files byte-identical to a clean compaction."""
    src, sim, _delta = base_index
    idx = _copy(src, tmp_path / "idx")
    manifest, before = load_manifest(idx), _file_bytes(idx)
    held = QueryEngine(idx)
    _check_text_queries(held, sim, _texts(np.random.RandomState(4)))
    target = str(tmp_path / "target")
    _crash_at(monkeypatch, step)
    with pytest.raises(RuntimeError, match=f"simulated crash in {step}"):
        compact_index(idx, target)
    monkeypatch.undo()
    assert _file_bytes(idx) == before
    _check_committed(idx, [held, QueryEngine(idx)], sim, manifest)

    compact_index(idx, target)
    compact_index(idx, str(tmp_path / "clean"))
    got = _committed_bytes(target)
    assert "manifest.json" in got and got == _committed_bytes(str(tmp_path / "clean"))


def test_delete_crash_in_the_tombstone_write_leaves_the_committed_tombstones(
        base_index, tmp_path, monkeypatch):
    """A ``delete_docs`` whose tombstone write is torn (half the file
    written, then a crash) leaves the last commit's tombstones and answers,
    for an engine held open across the crash and for a fresh one: the
    write goes to a temporary file that replaces ``deleted.parquet`` only
    when complete.  Rerunning the delete lands it."""
    import pyarrow.parquet as pq

    src, sim, _delta = base_index
    idx = _copy(src, tmp_path / "idx")
    manifest = load_manifest(idx)
    held = QueryEngine(idx)
    _check_text_queries(held, sim, _texts(np.random.RandomState(4)))
    real = pq.write_table

    def torn(table, where, *args, **kwargs):
        real(table, where, *args, **kwargs)
        with open(where, "r+b") as f:
            f.truncate(os.path.getsize(where) // 2)
        raise RuntimeError("simulated crash in the tombstone write")

    monkeypatch.setattr(pq, "write_table", torn)
    with pytest.raises(RuntimeError, match="simulated crash"):
        delete_docs(idx, [5, 30])
    monkeypatch.undo()
    _check_committed(idx, [held, QueryEngine(idx)], sim, manifest)

    assert delete_docs(idx, [5, 30]) == 4
    after = sim.copy()
    after.dead.update([5, 30])
    _check_committed(idx, [QueryEngine(idx)], after, manifest)


# a hot postings budget of 40 over at most 4 partitions: a segment of at most
# 40 postings is 1 partition, one of at most 80 is 2, a bigger one 4
PCFG = IndexConfig(num_partitions=4, num_salts=2, block_size=4, blocks_row_group_size=10,
                   positions=True)


def _three_term_rows(rng: np.random.RandomState, paths: list[str], gen: int) -> list[dict]:
    """Docs of three distinct terms each: three postings a doc."""
    return [{"repo": "r", "path": p, "commit": f"c{gen}", "lang": str(rng.choice(["py", "js"])),
             "content": " ".join(rng.choice(VOCAB, size=3, replace=False))} for p in paths]


def test_segments_of_different_partition_counts_equal_the_oracle(tmp_path):
    """A base of 4 partitions with a salted hot term, an add of 30 postings
    (1 partition) and one of 60 (2 partitions): every query kind and the
    scatter path answer as the oracle, and the postings are those of one
    build of the same docs at ``num_partitions=1``."""
    import dataclasses

    rng = np.random.RandomState(7)
    idx = str(tmp_path / "idx")
    batches = [_rows(rng, [f"f{i:04d}.py" for i in range(60)], 0),
               _three_term_rows(rng, [f"g1_{j:03d}.py" for j in range(10)], 1),
               _three_term_rows(rng, [f"g2_{j:03d}.py" for j in range(20)], 2)]
    build_index(pa.Table.from_pylist(batches[0]), idx, PCFG)
    for batch in batches[1:]:
        add_documents(pa.Table.from_pylist(batch), idx)
    sim = Sim()
    for batch in batches:
        sim.write(batch)
    eng = QueryEngine(idx)
    segs = eng.manifest["segments"]
    assert [s["num_partitions"] for s in segs] == [4, 1, 2]
    assert segs[0]["hot_terms"] and any(
        len([r for r in eng._salts(t) if eng._span(t, r) is not None]) > len(segs)
        for t in eng.hot), "needs a term read from several salt runs"
    for s in segs:
        assert {p["pkey"] for p in s["partitions"].values()} <= set(range(s["num_partitions"]))
    _check_every_kind(idx, eng, sim, rng)

    one = str(tmp_path / "one")
    build_index(pa.Table.from_pylist([r for batch in batches for r in batch]), one,
                dataclasses.replace(PCFG, num_partitions=1))
    assert load_manifest(one)["segments"][0]["num_partitions"] == 1
    by_key = [("term", "ascending"), ("doc_id", "ascending")]
    assert eng.export_postings().sort_by(by_key).equals(
        QueryEngine(one).export_postings().sort_by(by_key))


def _crash_in_merge(monkeypatch, skey: int) -> None:
    """Make the merge of partition ``skey`` fail; the merge task runs in a
    worker, so a stand-in task fails it there."""
    @ray.remote
    def merge_task(batch, **kwargs):
        from librecatastro_ray.stages import merge

        real = merge.merge_partition

        def failing(index_dir, k, *args, **kw):
            if k == skey:
                raise RuntimeError("simulated crash in the grouped merge")
            return real(index_dir, k, *args, **kw)

        merge.merge_partition = failing
        try:
            return merge.merge_batch(batch, **kwargs)
        finally:
            merge.merge_partition = real

    monkeypatch.setattr(build_mod, "_merge_task", merge_task)


def _parts_bytes(idx: str, seg: dict) -> dict[str, bytes]:
    parts = os.path.join(idx, seg["parts"])
    out = {}
    for name in sorted(os.listdir(parts)):
        with open(os.path.join(parts, name), "rb") as f:
            out[name] = f.read()
    return out


def test_grouped_merge_crash_resumes_to_the_clean_parts(tmp_path, monkeypatch):
    """Segments of 2 of 4 partitions merge two spill skeys into each
    partition.  A build whose merge fails after one partition resumes, and
    an add whose merge fails reruns, to the manifest and the posting and
    dictionary files of a clean run, byte for byte."""
    from librecatastro_ray.state.manifest import completed_partitions

    rng = np.random.RandomState(13)
    base = pa.Table.from_pylist(_three_term_rows(rng, [f"f{i:04d}.py" for i in range(20)], 0))
    delta = pa.Table.from_pylist(_three_term_rows(rng, [f"g{i:04d}.py" for i in range(20)], 1))
    clean, crash = str(tmp_path / "clean"), str(tmp_path / "crash")
    build_index(base, clean, PCFG)
    add_documents(delta, clean)
    segs = load_manifest(clean)["segments"]
    assert [s["num_partitions"] for s in segs] == [2, 2]
    assert [sorted(s["partitions"]) for s in segs] == [["0", "2"], ["0", "2"]]
    for ck in completed_partitions(clean).values():
        assert len(ck["lineage"]["input_dirs"]) == 2
        assert len({f.split("/")[0] for f in ck["lineage"]["input_files"]}) == 2

    _crash_in_merge(monkeypatch, PCFG.num_salts)  # partition 1, salt 0
    with pytest.raises(RuntimeError, match="simulated crash in the grouped merge"):
        build_index(base, crash, PCFG)
    monkeypatch.undo()
    assert sorted(completed_partitions(crash)) == [0]
    r = build_index(base, crash, PCFG)
    assert (r["report"]["partitions_merged"], r["report"]["partitions_skipped"]) == (1, 1)
    _crash_in_merge(monkeypatch, PCFG.num_salts)
    with pytest.raises(RuntimeError, match="simulated crash in the grouped merge"):
        add_documents(delta, crash)
    monkeypatch.undo()
    add_documents(delta, crash)
    assert load_manifest(crash) == load_manifest(clean)
    for seg in segs:
        assert _parts_bytes(crash, seg) == _parts_bytes(clean, seg)
