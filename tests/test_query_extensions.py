"""Round-2 query-surface extensions: pagination (ES ``from``), must_not /
should bool clauses, keyword clauses through the batch + scatter serving
paths, bounded prefix pushdown, and the constant-score top-k plateau fix.

Expected values come from the pure-Python OracleIndex (independent per-term
contribution dicts), never from the engine itself.
"""

import numpy as np
import pytest

from librecatastro_ray.pipelines.query import QueryEngine, _prefix_upper_bound


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return QueryEngine(index_dir)


def _oracle_scores(oracle, terms):
    """{doc: summed contribution} over ``terms`` (clause order)."""
    acc: dict[int, float] = {}
    for t in terms:
        for d, s in oracle.score_term(t).items():
            acc[d] = acc.get(d, 0.0) + s
    return acc


def _ranked(scores: dict[int, float]):
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


# ---------------------------------------------------------------------------
# pagination
# ---------------------------------------------------------------------------


def test_match_offset_slices_global_ranks(engine):
    full = engine.match("def return", k=10**9).to_pylist()
    page = engine.match("def return", k=5, offset=3).to_pylist()
    assert len(page) == min(5, max(len(full) - 3, 0))
    for row, exp in zip(page, full[3:8]):
        assert row["rank"] == exp["rank"]  # global rank numbers survive
        assert row["doc_id"] == exp["doc_id"]
        assert row["score"] == exp["score"]


def test_match_offset_past_end_is_empty(engine):
    n = len(engine.match("def", k=10**9))
    assert len(engine.match("def", k=10, offset=n + 5)) == 0


def test_bool_must_offset(engine):
    full = engine.bool_must(["def"], k=10**9).to_pylist()
    page = engine.bool_must(["def"], k=4, offset=2).to_pylist()
    assert [r["doc_id"] for r in page] == [r["doc_id"] for r in full[2:6]]
    assert [r["rank"] for r in page] == [r["rank"] for r in full[2:6]]


# ---------------------------------------------------------------------------
# must_not / should
# ---------------------------------------------------------------------------


def test_bool_must_not_excludes_docs(engine, oracle_small):
    not_term = sorted(oracle_small.postings)[0]
    excluded = set(oracle_small.postings[not_term])
    scores = {
        d: s for d, s in _oracle_scores(oracle_small, ["def"]).items() if d not in excluded
    }
    exp = _ranked(scores)[:10]
    got = engine.bool_must(["def"], k=10, must_not_terms=[not_term]).to_pylist()
    assert [r["doc_id"] for r in got] == [d for d, _ in exp]
    for row, (_, s) in zip(got, exp):
        assert abs(row["score"] - s) < 1e-9
    assert not any(r["doc_id"] in excluded for r in got)


def test_bool_must_not_unknown_term_is_noop(engine):
    a = engine.bool_must(["def"], k=10).to_pylist()
    b = engine.bool_must(["def"], k=10, must_not_terms=["zzz_no_such_term"]).to_pylist()
    assert a == b


def test_bool_should_boosts_matching_docs(engine, oracle_small):
    should_term = sorted(oracle_small.postings)[1]
    must_scores = _oracle_scores(oracle_small, ["def"])
    boost = oracle_small.score_term(should_term)
    scores = {d: s + boost.get(d, 0.0) for d, s in must_scores.items()}
    exp = _ranked(scores)[:10]
    got = engine.bool_must(["def"], k=10, should_terms=[should_term]).to_pylist()
    assert [r["doc_id"] for r in got] == [d for d, _ in exp]
    for row, (_, s) in zip(got, exp):
        assert abs(row["score"] - s) < 1e-9


def test_pure_should_is_or_semantics(engine):
    """bool with only should clauses == match of the same terms (OR + sum)."""
    a = engine.bool_must([], k=10, should_terms=["def", "return"]).to_pylist()
    b = engine.match("def return", k=10).to_pylist()
    assert a == b


# ---------------------------------------------------------------------------
# keyword clauses + pagination through the serving paths
# ---------------------------------------------------------------------------


def test_scatter_keyword_clauses_and_from(built_index, engine, oracle_small):
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    some_repo = oracle_small.repos[0]
    queries = [
        {"query_id": 0, "kind": "bool_must", "must_terms": ["def"],
         "keyword_eq": [["lang", "py"]], "keyword_prefix": [["repo", some_repo[:6]]],
         "k": 10},
        {"query_id": 1, "kind": "match", "text": "def return", "k": 5, "from": 3},
        {"query_id": 2, "kind": "bool_must", "must_terms": ["def"],
         "should_terms": ["return"], "must_not_terms": ["class"], "k": 10},
    ]
    got = batch_search_scatter(index_dir, queries, n_ranges=3)
    rows = {qid: [] for qid in (0, 1, 2)}
    for r in got.to_pylist():
        rows[r["query_id"]].append(r)
    exp0 = engine.bool_must(
        ["def"], k=10, keyword_eq=[("lang", "py")],
        keyword_prefix=[("repo", some_repo[:6])],
    ).to_pylist()
    exp1 = engine.match("def return", k=5, offset=3).to_pylist()
    exp2 = engine.bool_must(
        ["def"], k=10, should_terms=["return"], must_not_terms=["class"]
    ).to_pylist()
    for qid, exp in ((0, exp0), (1, exp1), (2, exp2)):
        assert [(r["rank"], r["doc_id"]) for r in rows[qid]] == [
            (r["rank"], r["doc_id"]) for r in exp
        ], qid
        for a, b in zip(rows[qid], exp):
            assert abs(a["score"] - b["score"]) < 1e-12, qid


def test_scatter_empty_query_list(built_index):
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    out = batch_search_scatter(index_dir, [], n_ranges=3)
    assert len(out) == 0
    assert out.column_names == ["query_id", "rank", "doc_id", "score"]


# ---------------------------------------------------------------------------
# prefix pushdown bound + top-k plateau
# ---------------------------------------------------------------------------


def test_prefix_upper_bound():
    assert _prefix_upper_bound("abc") == "abd"
    assert _prefix_upper_bound("ab" + chr(0x10FFFF)) == "ac"
    assert _prefix_upper_bound(chr(0x10FFFF)) is None
    assert _prefix_upper_bound("a" + chr(0xD7FF)) == "a" + chr(0xE000)


def test_keyword_prefix_bounded_matches_unbounded(engine, oracle_small):
    """The added upper-range predicate must not change results."""
    for pref in {r[:4] for r in oracle_small.repos[:8]}:
        got = engine.keyword_docs("repo", pref, prefix=True)
        exp = sorted(d for d, r in enumerate(oracle_small.repos) if r.startswith(pref))
        assert list(got) == exp, pref


def test_topk_constant_score_plateau():
    """Every score tied (constant-score queries): the k smallest doc_ids win,
    without lexsorting the whole plateau."""
    from librecatastro_ray.functions.bm25 import topk_indices

    n = 200_000
    rng = np.random.RandomState(7)
    doc_ids = rng.permutation(n).astype(np.int64)
    scores = np.ones(n, dtype=np.float64)
    sel = topk_indices(scores, doc_ids, 10)
    assert sorted(doc_ids[sel].tolist()) == list(range(10))
    assert doc_ids[sel].tolist() == list(range(10))  # rank order = doc_id asc
    # mixed plateau: some strictly-above scores plus a huge tie at the kth
    scores2 = np.ones(n, dtype=np.float64)
    top_pos = np.nonzero(doc_ids < 3)[0]
    scores2[top_pos] = 2.0
    sel2 = topk_indices(scores2, doc_ids, 10)
    assert doc_ids[sel2].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_match_wand_offset(engine):
    full = engine.match("def return", k=10**9).to_pylist()
    page = engine.match_wand("def return", k=5, offset=3).to_pylist()
    assert [(r["rank"], r["doc_id"], r["score"]) for r in page] == [
        (r["rank"], r["doc_id"], r["score"]) for r in full[3:8]
    ]


def test_scatter_output_dir_sink(built_index, engine, tmp_path):
    import pyarrow.dataset as pads

    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    queries = [{"query_id": i, "kind": "match", "text": "def", "k": 5} for i in range(4)]
    out = batch_search_scatter(
        index_dir, queries, n_ranges=3, output_dir=str(tmp_path / "res")
    )
    assert out["rows_written"][0].as_py() == 20
    t = pads.dataset(str(tmp_path / "res"), format="parquet").to_table().to_pandas()
    exp = engine.match("def", k=5).to_pylist()
    for qid in range(4):
        sub = t[t.query_id == qid].sort_values("rank")
        assert sub["doc_id"].tolist() == [r["doc_id"] for r in exp]


def test_bool_must_not_only_is_match_all_minus(engine, oracle_small):
    """Pure must_not = ES match_all minus the exclusions (constant score)."""
    excluded = set(oracle_small.postings.get("def", {}))
    got = engine.bool_must([], k=10**9, must_not_terms=["def"]).to_pylist()
    exp_ids = [d for d in range(engine.n_docs) if d not in excluded]
    assert [r["doc_id"] for r in got] == exp_ids
    assert all(r["score"] == 1.0 for r in got)
    # pagination applies
    page = engine.bool_must([], k=5, offset=3, must_not_terms=["def"]).to_pylist()
    assert [r["doc_id"] for r in page] == exp_ids[3:8]


def test_require_should_is_minimum_should_match(engine):
    """must + required-should(t) == must + must(t) in candidates AND scores
    (single should term: same docs, same contribution sums)."""
    a = engine.bool_must(["def"], k=10, should_terms=["return"], require_should=True).to_pylist()
    b = engine.bool_must(["def", "return"], k=10).to_pylist()
    assert [(r["doc_id"], round(r["score"], 9)) for r in a] == [
        (r["doc_id"], round(r["score"], 9)) for r in b
    ]


def test_scatter_must_not_only_and_require_should(built_index, engine):
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    queries = [
        {"query_id": 0, "kind": "bool_must", "must_terms": [],
         "must_not_terms": ["def"], "k": 7},
        {"query_id": 1, "kind": "bool_must", "must_terms": ["def"],
         "should_terms": ["return"], "require_should": True, "k": 10},
    ]
    got = batch_search_scatter(index_dir, queries, n_ranges=3)
    rows = {0: [], 1: []}
    for r in got.to_pylist():
        rows[r["query_id"]].append(r)
    exp0 = engine.bool_must([], k=7, must_not_terms=["def"]).to_pylist()
    exp1 = engine.bool_must(
        ["def"], k=10, should_terms=["return"], require_should=True
    ).to_pylist()
    for qid, exp in ((0, exp0), (1, exp1)):
        assert [(r["rank"], r["doc_id"]) for r in rows[qid]] == [
            (r["rank"], r["doc_id"]) for r in exp
        ], qid


def test_scatter_all_zero_hit_queries(built_index):
    """Every query zero-hit (or paged past its results): typed empty result,
    no ArrowInvalid from the schema-less empty Dataset."""
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    out = batch_search_scatter(
        index_dir,
        [{"query_id": 0, "kind": "match", "text": "zzz_no_such_term", "k": 5},
         {"query_id": 1, "kind": "match", "text": "def", "k": 5, "from": 10**6}],
        n_ranges=2,
    )
    assert len(out) == 0
    assert out.column_names == ["query_id", "rank", "doc_id", "score"]


def test_scatter_sink_rerun_overwrites(built_index, tmp_path):
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    q = [{"query_id": 0, "kind": "match", "text": "def", "k": 5}]
    od = str(tmp_path / "res")
    a = batch_search_scatter(index_dir, q, n_ranges=2, output_dir=od)
    b = batch_search_scatter(index_dir, q, n_ranges=2, output_dir=od)
    assert a["rows_written"][0].as_py() == b["rows_written"][0].as_py() == 5


def test_terms_agg_matches_bruteforce(engine):
    import os

    import pyarrow.dataset as pads

    from librecatastro_ray.functions.tokenizer import tokenize

    t = pads.dataset(os.path.join(engine.index_dir, "docs")).to_table(
        columns=["doc_id", "lang", "repo", "content"])
    rows = list(zip(t["doc_id"].to_pylist(), t["lang"].to_pylist(),
                    t["repo"].to_pylist(), t["content"].to_pylist()))
    for text, field, col in [("def", "lang", 1), ("def return", "repo", 2)]:
        terms = set(tokenize(text))
        want: dict[str, int] = {}
        for r in rows:
            if terms & set(tokenize(r[3])):
                want[r[col]] = want.get(r[col], 0) + 1
        expect = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        got = engine.terms_agg(field, engine.match_hits(text), size=10)
        assert list(zip(got["key"].to_pylist(), got["count"].to_pylist())) == expect


def test_terms_agg_rejects_size_below_one_or_non_integer(engine):
    """A terms ``size`` below 1 or not an integer raises, as in ES; size 1
    is the top bucket."""
    hits = engine.match_hits("def")
    for bad in (-1, 0, 1.5):
        with pytest.raises(ValueError, match="size"):
            engine.terms_agg("lang", hits, size=bad)
    top = engine.terms_agg("lang", hits, size=1)
    assert top.to_pylist() == engine.terms_agg("lang", hits, size=10).slice(0, 1).to_pylist()


def test_terms_agg_excludes_tombstones(tmp_path, corpus_small):
    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.pipelines.query import QueryEngine
    from librecatastro_ray.state.manifest import delete_docs

    idx = str(tmp_path / "idx")
    build_index(corpus_small, idx, IndexConfig(num_partitions=2, num_salts=1))
    eng = QueryEngine(idx)
    before = eng.terms_agg("lang", eng.match_hits("def"), size=100)
    total_before = sum(before["count"].to_pylist())
    victims = eng.match_hits("def")[:5]
    delete_docs(idx, victims)
    eng2 = QueryEngine(idx)
    after = eng2.terms_agg("lang", eng2.match_hits("def"), size=100)
    assert sum(after["count"].to_pylist()) == total_before - 5


def test_range_clause_matches_bruteforce(engine):
    import os

    import pyarrow.dataset as pads

    from librecatastro_ray.functions.tokenizer import tokenize

    t = pads.dataset(os.path.join(engine.index_dir, "docs")).to_table(
        columns=["doc_id", "dl", "content"])
    rows = list(zip(t["doc_id"].to_pylist(), t["dl"].to_pylist(),
                    t["content"].to_pylist()))
    lo, hi = 40, 80
    want_ids = sorted(d for d, dl, _c in rows if lo <= dl <= hi)
    got = engine.range_docs("dl", lo, hi)
    assert got.tolist() == want_ids
    # open-ended bounds
    assert engine.range_docs("dl", gte=90).tolist() == sorted(
        d for d, dl, _ in rows if dl >= 90)
    with pytest.raises(ValueError, match="gte and/or lte"):
        engine.range_docs("dl")
    # conjunction through bool_must: term AND range, constant +1.0
    res = engine.bool_must(["def"], k=10**9, range_clauses=[("dl", lo, hi)])
    want = sorted(
        d for d, dl, c in rows if lo <= dl <= hi and "def" in tokenize(c))
    assert sorted(res["doc_id"].to_pylist()) == want
    base = engine.match("def", k=10**9)
    base_scores = dict(zip(base["doc_id"].to_pylist(), base["score"].to_pylist()))
    for d, s in zip(res["doc_id"].to_pylist(), res["score"].to_pylist()):
        assert s == pytest.approx(base_scores[d] + 1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# round-5 ES completeness surface: search_after / sort-by-field / multi_match
# ---------------------------------------------------------------------------


def test_search_after_pages_equal_offset_pages(engine):
    """Cursor paging must walk the same global ordering as from/size: page 2
    via the page-1 cursor == offset page 2 (doc ids and scores)."""
    full = engine.match("def return", k=10**9).to_pylist()
    assert len(full) > 12
    cursor = (full[9]["score"], full[9]["doc_id"])
    page2 = engine.match_search_after("def return", k=5, after=cursor).to_pylist()
    for row, exp in zip(page2, full[10:15]):
        assert row["doc_id"] == exp["doc_id"]
        assert row["score"] == exp["score"]
    # page-relative ranks (ES carries no global rank in the response)
    assert [r["rank"] for r in page2] == list(range(1, len(page2) + 1))


def test_search_after_none_is_page_one(engine):
    a = engine.match("def", k=7).to_pylist()
    b = engine.match_search_after("def", k=7, after=None).to_pylist()
    assert a == b


def test_search_after_tie_break_on_doc_id(engine):
    """A cursor inside a score tie must resume strictly after its doc_id."""
    full = engine.match("def", k=10**9).to_pylist()
    # find any adjacent tie; constant-ish idf corpora always have some
    for i in range(len(full) - 1):
        if full[i]["score"] == full[i + 1]["score"]:
            cur = (full[i]["score"], full[i]["doc_id"])
            nxt = engine.match_search_after("def", k=1, after=cur).to_pylist()
            assert nxt[0]["doc_id"] == full[i + 1]["doc_id"]
            return
    import pytest

    pytest.skip("no score tie in this corpus")


def test_search_after_past_end_empty(engine):
    full = engine.match("def", k=10**9).to_pylist()
    last = full[-1]
    out = engine.match_search_after(
        "def", k=5, after=(last["score"], last["doc_id"]))
    # only docs strictly after the final hit remain (ties below it, if any)
    assert all(
        (r["score"] < last["score"])
        or (r["score"] == last["score"] and r["doc_id"] > last["doc_id"])
        for r in out.to_pylist()
    )


def test_sort_by_field_orders_hits(engine, corpus_small):
    """sort_by_field == pandas replay: full hit set ordered by the field,
    ties by doc_id; values string-cast in the output only."""
    hits = set(engine.match_hits("def").tolist())
    import os

    import pyarrow.dataset as pads

    docs = pads.dataset(
        os.path.join(engine.index_dir, "docs"), format="parquet"
    ).to_table(columns=["doc_id", "path"]).to_pandas()
    docs = docs[docs.doc_id.isin(hits)]
    exp = docs.sort_values(["path", "doc_id"], ascending=[False, True])
    got = engine.sort_by_field("def", "path", k=9, ascending=False)
    assert got["sort_val"].to_pylist() == exp["path"].head(9).tolist()
    assert got["doc_id"].to_pylist() == exp["doc_id"].head(9).tolist()
    assert got["rank"].to_pylist() == list(range(1, len(got) + 1))


def test_sort_by_field_numeric_not_lexicographic(engine):
    """Numeric fields must sort numerically even though the OUTPUT column is
    string-cast (dl 9 < 10; lexicographic '10' < '9' would invert them)."""
    got = engine.sort_by_field("def", "dl", k=10**9, ascending=True)
    vals = [int(v) for v in got["sort_val"].to_pylist()]
    assert vals == sorted(vals)


def test_multi_match_best_fields_max_plus_tie(engine, built_index, tmp_path):
    """best_fields == max over per-field BM25 + tie * (sum - max), fields
    scored with their OWN statistics (two independent indexes)."""
    import os

    import pyarrow as pa
    import ray.data

    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.pipelines.query import (
        QueryEngine, multi_match_best_fields)

    index_dir, _ = built_index
    # second field: index the PATH string of the same keyspace
    import pyarrow.dataset as pads

    docs = pads.dataset(
        os.path.join(index_dir, "docs"), format="parquet"
    ).to_table(columns=["repo", "path", "lang"])
    corpus2 = pa.table({
        "repo": docs["repo"], "path": docs["path"],
        "commit": pa.array(["c"] * len(docs), pa.string()),
        "lang": docs["lang"], "content": docs["path"],
    })
    idx2 = str(tmp_path / "idx_path")
    build_index(ray.data.from_arrow(corpus2).repartition(2), idx2,
                IndexConfig(num_partitions=2, num_salts=1))
    eng2 = QueryEngine(idx2)
    text = "def txt"
    got = multi_match_best_fields([engine, eng2], text, k=10**9,
                                  tie_breaker=0.3).to_pylist()
    # independent replay from each engine's own match scores
    s1 = {r["doc_id"]: r["score"] for r in engine.match(text, k=10**9).to_pylist()}
    s2 = {r["doc_id"]: r["score"] for r in eng2.match(text, k=10**9).to_pylist()}
    exp = {}
    for d in set(s1) | set(s2):
        a, b = s1.get(d, 0.0), s2.get(d, 0.0)
        hi, lo = max(a, b), min(a, b)
        # a doc hit in one field only contributes no tie term
        exp[d] = hi + 0.3 * (lo if (d in s1 and d in s2) else 0.0)
    order = sorted(exp.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [r["doc_id"] for r in got] == [d for d, _ in order]
    for r in got:
        assert abs(r["score"] - exp[r["doc_id"]]) < 1e-9


def test_scatter_search_after_matches_direct(built_index, engine):
    """search_after through the doc-range scatter path == the direct engine:
    each range filters by the cursor BEFORE its top-k (a range whose whole
    local top-k is above the cursor still owes its next docs)."""
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    full = engine.match("def return", k=10**9).to_pylist()
    assert len(full) > 8
    # cursor deep enough that some range's ENTIRE local top-k precedes it
    cur = (full[7]["score"], full[7]["doc_id"])
    direct = engine.match_search_after("def return", k=5, after=cur).to_pylist()
    got = batch_search_scatter(
        index_dir,
        [{"query_id": 0, "kind": "match", "text": "def return", "k": 5,
          "after": [cur[0], cur[1]]}],
        n_ranges=3,
    ).to_pylist()
    assert [r["doc_id"] for r in got] == [r["doc_id"] for r in direct]
    for a, b in zip(got, direct):
        assert abs(a["score"] - b["score"]) < 1e-12
        assert a["rank"] == b["rank"]


def test_stats_agg_matches_pandas(engine):
    """ES stats metric agg (count/sum/min/max of dl over the full hit set)
    == a pandas replay over the doc store."""
    import os

    import pyarrow.dataset as pads

    hits = engine.match_hits("def")
    docs = pads.dataset(
        os.path.join(engine.index_dir, "docs"), format="parquet"
    ).to_table(columns=["doc_id", "dl"]).to_pandas()
    sub = docs[docs.doc_id.isin(set(hits.tolist()))]["dl"]
    got = dict(zip(*engine.stats_agg("dl", hits).to_pydict().values()))
    assert got == {"count": len(sub), "sum": int(sub.sum()),
                   "min": int(sub.min()), "max": int(sub.max())}


def test_stats_agg_empty_hits(engine):
    got = dict(zip(*engine.stats_agg("dl", []).to_pydict().values()))
    assert got == {"count": 0, "sum": 0, "min": None, "max": None}


def test_aggs_accept_hits_in_rank_order(engine):
    """A ranked page's doc ids, unsorted, aggregate exactly as the same ids
    sorted: every hit counts once whatever the order."""
    ranked = engine.match("def return", k=50)["doc_id"].to_numpy()
    assert len(ranked) == 50 and (np.diff(ranked) < 0).any()
    srt = np.sort(ranked)
    terms = engine.terms_agg("lang", ranked, size=100)
    assert terms.to_pylist() == engine.terms_agg("lang", srt, size=100).to_pylist()
    assert sum(terms["count"].to_pylist()) == 50
    stats = engine.stats_agg("dl", ranked)
    assert stats.to_pylist() == engine.stats_agg("dl", srt).to_pylist()
    assert stats["count"][0].as_py() == 50


def test_keyword_in_is_or_of_eq(engine, oracle_small):
    """ES terms query (keyword_in): docs matching ANY value, ONE constant
    score — equal to the union of per-value keyword_eq hits."""
    langs = sorted({r for r in oracle_small.langs})[:2]
    got = engine.bool_must(["def"], k=10**9,
                           keyword_in=[("lang", langs)]).to_pylist()
    union = set()
    for lg in langs:
        union |= {r["doc_id"] for r in engine.bool_must(
            ["def"], k=10**9, keyword_eq=[("lang", lg)]).to_pylist()}
    assert {r["doc_id"] for r in got} == union
    # one +1.0, not one per matching value
    single = {r["doc_id"]: r["score"] for r in engine.bool_must(
        ["def"], k=10**9, keyword_eq=[("lang", langs[0])]).to_pylist()}
    for r in got:
        if r["doc_id"] in single:
            assert abs(r["score"] - single[r["doc_id"]]) < 1e-12


def test_keyword_in_no_match_is_empty(engine):
    assert len(engine.bool_must(["def"], k=10,
                                keyword_in=[("lang", ["zz", "xx"])])) == 0


def test_minimum_should_match_n(engine, oracle_small):
    """minimum_should_match=2: docs must match the must term AND >=2 distinct
    should terms; ALL matched should scores still accumulate."""
    should = ["def", "return", "class"]
    must_scores = _oracle_scores(oracle_small, ["value"])
    per_should = {t: oracle_small.score_term(t) for t in should}
    exp = {}
    for d, s in must_scores.items():
        matched = [t for t in should if d in per_should[t]]
        if len(matched) >= 2:
            exp[d] = s + sum(per_should[t][d] for t in matched)
    want = _ranked(exp)[:10]
    got = engine.bool_must(["value"], k=10, should_terms=should,
                           minimum_should_match=2).to_pylist()
    assert [r["doc_id"] for r in got] == [d for d, _ in want]
    for row, (_, s) in zip(got, want):
        assert abs(row["score"] - s) < 1e-9


def test_minimum_should_match_one_equals_require_should(engine):
    a = engine.bool_must(["def"], k=10, should_terms=["return"],
                         require_should=True).to_pylist()
    b = engine.bool_must(["def"], k=10, should_terms=["return"],
                         minimum_should_match=1).to_pylist()
    assert a == b


def test_minimum_should_match_exceeds_terms_is_empty(engine):
    assert len(engine.bool_must(["def"], k=10, should_terms=["return"],
                                minimum_should_match=3)) == 0


def test_scatter_keyword_in_and_msm_match_direct(built_index, engine, oracle_small):
    """keyword_in + minimum_should_match through the scatter path == the
    direct engine (per-range dense accumulators carry both clauses)."""
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    langs = sorted({r for r in oracle_small.langs})[:2]
    queries = [
        {"query_id": 0, "kind": "bool_must", "must_terms": ["def"],
         "keyword_in": [["lang", langs]], "k": 10},
        {"query_id": 1, "kind": "bool_must", "must_terms": ["value"],
         "should_terms": ["def", "return", "class"],
         "minimum_should_match": 2, "k": 10},
    ]
    got = batch_search_scatter(index_dir, queries, n_ranges=3)
    rows = {0: [], 1: []}
    for r in got.to_pylist():
        rows[r["query_id"]].append(r)
    exp0 = engine.bool_must(["def"], k=10,
                            keyword_in=[("lang", langs)]).to_pylist()
    exp1 = engine.bool_must(["value"], k=10,
                            should_terms=["def", "return", "class"],
                            minimum_should_match=2).to_pylist()
    for qid, exp in ((0, exp0), (1, exp1)):
        assert [(r["rank"], r["doc_id"]) for r in rows[qid]] == [
            (r["rank"], r["doc_id"]) for r in exp
        ], qid
        for a, b in zip(rows[qid], exp):
            assert abs(a["score"] - b["score"]) < 1e-12, qid
