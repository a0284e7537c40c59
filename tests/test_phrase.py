"""Positional index + match_phrase: positions round-trip the full build
(emit → shuffle → merge → positions column) and phrase ranking is identical to
a brute-force Python scorer over the doc store.  The phrase surface is the
ES ``match_phrase`` the reference's search layer exposes
(reference: src/utils/elasticsearch_utils.py:58-99 — the query DSL layer);
scoring is Lucene PhraseQuery semantics (idf summed over query positions,
tf = phrase frequency)."""

import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions import bm25
from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.pipelines.build import build_index
from librecatastro_ray.pipelines.query import QueryEngine, _candidate_positions


def _positional(eng, term, sel=None):
    """A term's doc-sorted ``(docs, tf, dl, pos_flat)`` postings with
    positions (posting i's are the ``tf[i]`` values of ``pos_flat`` from
    ``cumsum(tf)[i - 1]`` on), restricted to the sorted docs ``sel`` when
    given: each salt run's rows and positions are read as a phrase reads
    its candidates."""
    rows = []
    for salt in eng._salts(term):
        s = eng._slice(term, salt, positions=True)
        if s is None:
            continue
        _hit, r, pos = _candidate_positions((s.doc, s.tf, s.values, s.offsets),
                                            s.doc if sel is None else sel)
        ends = np.cumsum(s.tf[r])
        rows += [(d, f, L, pos[e - f:e]) for d, f, L, e in zip(s.doc[r], s.tf[r], s.dl[r], ends)]
    rows.sort(key=lambda row: row[0])
    docs, tfs, dls = (np.array([row[i] for row in rows], dtype=np.int64) for i in range(3))
    return docs, tfs, dls, np.concatenate([row[3] for row in rows] or [np.zeros(0, np.int64)])


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory, corpus_small):
    """Positional index: small blocks (multi-block position streams) and a
    small hot postings budget (hot terms salted → the salt-run position
    merge path is exercised)."""
    index_dir = str(tmp_path_factory.mktemp("posidx") / "idx")
    cfg = IndexConfig(
        num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=5,
        positions=True
    )
    build_index(corpus_small, index_dir, cfg)
    return index_dir


@pytest.fixture(scope="module")
def pos_engine(pos_index):
    return QueryEngine(pos_index)


@pytest.fixture(scope="module")
def doc_tokens(pos_engine):
    t = pads.dataset(os.path.join(pos_engine.index_dir, "docs")).to_table(
        columns=["doc_id", "content", "dl"]
    )
    return {
        d: (tokenize(c), dl)
        for d, c, dl in zip(
            t["doc_id"].to_pylist(), t["content"].to_pylist(), t["dl"].to_pylist()
        )
    }


def _brute_phrase(engine, doc_tokens, phrase):
    """Brute-force phrase scoring with the engine's own bm25 kernels — raw
    float comparison, same accumulation order."""
    terms = tokenize(phrase)
    m = len(terms)
    df = {t: sum(1 for toks, _ in doc_tokens.values() if t in toks) for t in set(terms)}
    w = 0.0
    for t in terms:
        w += float(bm25.idf(df[t], engine.n_docs))
    out = {}
    for d, (toks, dl) in doc_tokens.items():
        pf = sum(1 for i in range(len(toks) - m + 1) if toks[i : i + m] == terms)
        if pf:
            out[d] = w * float(
                bm25.tf_norm(np.array([pf]), np.array([dl]), engine.avgdl, 1.2, 0.75)[0]
            )
    return out


@pytest.mark.parametrize("phrase", ["return def", "def def", "def if def"])
def test_phrase_rank_identical_to_bruteforce(pos_engine, doc_tokens, phrase):
    expected = _brute_phrase(pos_engine, doc_tokens, phrase)
    assert expected, f"test phrase {phrase!r} must occur in the corpus"
    got = pos_engine.match_phrase(phrase, k=10**9)
    got_map = dict(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
    assert got_map.keys() == expected.keys()
    for d, s in expected.items():
        assert got_map[d] == pytest.approx(s, abs=1e-12), d
    # pinned tiebreak on the engine's raw scores: (score desc, doc_id asc)
    pairs = list(zip(got["score"].to_pylist(), got["doc_id"].to_pylist()))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))


@pytest.mark.parametrize("slots", [1 << 22, 16])
def test_phrase_of_hot_and_rare_terms_equals_brute_force(pos_engine, doc_tokens, slots,
                                                         monkeypatch):
    """Phrases whose candidates are most of a hot term's postings, and a
    phrase of a rare term whose candidates are a few of them, give the
    brute-force answer — with every candidate in one layout group, and with
    groups of 16 slots (a group per doc or two, so phrase bitmaps stay
    bounded on long documents without changing an answer)."""
    from librecatastro_ray.pipelines import query as qmod

    monkeypatch.setattr(qmod, "_PHRASE_SLOTS", slots)
    eng = QueryEngine(pos_engine.index_dir)
    rare = next(f"{toks[i]} {toks[i + 1]}" for toks, _ in doc_tokens.values()
                for i in range(len(toks) - 1)
                if toks[i] not in eng.hot and toks[i + 1] in eng.hot)
    for phrase in ["return def", "def if def", rare]:
        expected = _brute_phrase(eng, doc_tokens, phrase)
        assert expected, phrase
        got = eng.match_phrase(phrase, k=10**9)
        assert dict(zip(got["doc_id"].to_pylist(), got["score"].to_pylist())) == pytest.approx(
            expected, abs=1e-12), phrase


def test_positions_roundtrip_hot_and_cold(pos_engine, doc_tokens):
    """Decoded per-posting positions == Python token indices, for a salted
    hot term AND a cold term (both salt-merge paths)."""
    hot = sorted(pos_engine.hot)
    assert hot, "fixture must produce hot terms"
    cold = next(
        t
        for toks, _ in doc_tokens.values()
        for t in toks
        if t not in pos_engine.hot
    )
    for term in [hot[0], cold]:
        docs, tfs, _dls, pos = _positional(pos_engine, term)
        assert len(pos) == int(tfs.sum())
        bounds = np.concatenate(([0], np.cumsum(tfs)))
        for i, d in enumerate(docs.tolist()):
            toks, _ = doc_tokens[d]
            want = [j for j, t in enumerate(toks) if t == term]
            assert pos[bounds[i] : bounds[i + 1]].tolist() == want, (term, d)


def test_single_term_phrase_equals_match(pos_engine):
    p = pos_engine.match_phrase("def", k=25)
    m = pos_engine.match("def", k=25)
    assert p["doc_id"].to_pylist() == m["doc_id"].to_pylist()
    np.testing.assert_allclose(p["score"].to_numpy(), m["score"].to_numpy(), atol=1e-12)


def test_phrase_pagination(pos_engine):
    full = pos_engine.match_phrase("return def", k=20)
    page = pos_engine.match_phrase("return def", k=5, offset=5)
    assert page["doc_id"].to_pylist() == full["doc_id"].to_pylist()[5:10]
    assert page["rank"].to_pylist() == list(range(6, 11))


def test_phrase_no_hits_and_empty(pos_engine):
    assert pos_engine.match_phrase("").num_rows == 0
    # both terms exist but never adjacently in this direction is not
    # guaranteed by the corpus, so use a nonexistent term instead
    assert pos_engine.match_phrase("zzzznotaterm def").num_rows == 0


def test_phrase_requires_positional_index(built_index):
    index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    with pytest.raises(ValueError, match="positions"):
        eng.match_phrase("return def")


def test_positional_for_docs_equals_full_load(pos_engine, doc_tokens):
    """The candidate-row position read returns exactly the full load
    restricted to the selection — for a salted hot term and a scattered
    doc subset (so multiple non-adjacent rows are hit)."""
    term = sorted(pos_engine.hot)[0]
    docs, tfs, dls, pos = _positional(pos_engine, term)
    assert len(docs) > 8
    sel = docs[:: max(1, len(docs) // 7)]  # scattered subset
    d2, f2, l2, p2 = _positional(pos_engine, term, sel)
    assert d2.tolist() == sel.tolist()
    keep = np.isin(docs, sel)
    assert f2.tolist() == tfs[keep].tolist()
    assert l2.tolist() == dls[keep].tolist()
    bounds = np.concatenate(([0], np.cumsum(tfs)))
    want_pos = np.concatenate(
        [pos[bounds[i] : bounds[i + 1]] for i in np.nonzero(keep)[0]]
    )
    assert p2.tolist() == want_pos.tolist()
    # and docs absent from the term's postings are simply not returned
    d3, f3, _l3, _p3 = _positional(
        pos_engine, term, np.array([docs[0], 10**9], dtype=np.int64)
    )
    assert d3.tolist() == [int(docs[0])]


def test_phrase_pruned_and_cached_paths_agree(pos_index):
    """A phrase reads the positions of its candidate rows only, from
    whatever the row-group cache holds: a fresh engine loads each row group
    with its positions column; an engine warmed by ``match`` holds the row
    groups without it and adds it in place; an engine whose cache holds one
    row group re-reads them.  All three return identical results."""
    fresh = QueryEngine(pos_index)
    warmed = QueryEngine(pos_index)
    for t in ["return", "def", "if"]:
        warmed.match(t, k=10)
    assert warmed._rowgroup_cache
    assert all(rgs.values is None for rgs, _n in warmed._rowgroup_cache.values())
    evicting = QueryEngine(pos_index)
    evicting._rowgroup_cache_cap = 0  # evict on every miss
    for phrase in ["return def", "def if def"]:
        a = fresh.match_phrase(phrase, k=10**9)
        assert a.num_rows, phrase
        assert warmed.match_phrase(phrase, k=10**9).equals(a), phrase
        assert evicting.match_phrase(phrase, k=10**9).equals(a), phrase
    assert all(rgs.values is not None for rgs, _n in warmed._rowgroup_cache.values())


def test_phrase_scatter_identical_to_single_engine(pos_engine):
    """match_phrase through the doc-range scatter-gather path (the ES shard
    model) returns exactly the single-engine result — phrase frequencies are
    computed whole within a doc's range and idf uses global df."""
    from librecatastro_ray.pipelines.query import batch_search_scatter

    queries = [
        {"query_id": 0, "kind": "match_phrase", "text": "return def", "k": 15},
        {"query_id": 1, "kind": "match_phrase", "text": "def def", "k": 7, "from": 3},
        {"query_id": 2, "kind": "match_phrase", "text": "zzznope def", "k": 5},
    ]
    out = batch_search_scatter(pos_engine.index_dir, queries, n_ranges=4)
    for q in queries:
        got = out.filter(
            np.array(out["query_id"].to_numpy() == q["query_id"])
        ).select(["rank", "doc_id", "score"])
        want = pos_engine.match_phrase(
            q["text"], k=q["k"], offset=int(q.get("from") or 0)
        )
        assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist(), q
        assert got["rank"].to_pylist() == want["rank"].to_pylist(), q
        np.testing.assert_allclose(
            got["score"].to_numpy(), want["score"].to_numpy(), atol=0
        )


def test_positions_toggle_invalidates_resume(tmp_path, corpus_small):
    """Building positions=True over a finished positions=False index must
    invalidate and rebuild (the shuffle spill and blocks physically differ),
    not resume — and vice versa the complete-index fast path must not hand
    back a positionless index."""
    index_dir = str(tmp_path / "idx")
    cfg0 = IndexConfig(num_partitions=2, num_salts=1, positions=False)
    build_index(corpus_small, index_dir, cfg0)
    cfg1 = IndexConfig(num_partitions=2, num_salts=1, positions=True)
    r = build_index(corpus_small, index_dir, cfg1)
    assert r["report"]["phases_skipped"] != ["all"]
    eng = QueryEngine(index_dir)
    assert eng.match_phrase("return def", k=5).num_rows > 0
    # and a re-request of the SAME positional config is a clean skip
    r2 = build_index(corpus_small, index_dir, cfg1)
    assert r2["report"]["phases_skipped"] == ["all"]
