"""batch_search_scatter served by the session's range-actor pool: every
query dict is checked on the driver, random queries of every kind answer as
the direct engine does, the pool stays min(n_ranges, CPUs) actors across
calls and index dirs, each actor scores one contiguous share of the doc
ids, a killed actor is replaced, a process holds only its current engine's
range engines, and 10⁴ queries over 4 ranges stay well formed."""

import gc
import time
import weakref
from types import SimpleNamespace

import pytest
import ray
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines import query as qmod
from librecatastro_ray.pipelines.build import build_index
from librecatastro_ray.pipelines.query import QueryEngine, batch_search_scatter
from librecatastro_ray.sources.synth import make_corpus

CFG = IndexConfig(num_partitions=3, num_salts=2, block_size=8, blocks_row_group_size=4,
                  positions=True)


@pytest.fixture(scope="module")
def pool_index(tmp_path_factory):
    """(index_dir, engine, terms, phrases, langs, path prefixes) of a small
    positional index."""
    corpus = make_corpus(n_docs=160, seed=7, vocab_size=300, mean_tokens=30)
    index_dir = str(tmp_path_factory.mktemp("pool") / "idx")
    build_index(corpus, index_dir, CFG)
    eng = QueryEngine(index_dir)
    terms = sorted(eng.full_dictionary()["term"].to_pylist())
    phrases = []
    for text in corpus["content"].to_pylist()[:40]:
        toks = eng.analyzer.tokenize(text or "")
        if len(toks) >= 3:
            phrases.append(" ".join(toks[1:3]))
            phrases.append(" ".join(toks[:3]))
    langs = sorted(set(corpus["lang"].to_pylist()))
    paths = sorted({p[:4] for p in corpus["path"].to_pylist()})
    return index_dir, eng, terms, phrases, langs, paths


def _query(data, qid: int, terms, phrases, langs, paths, eng) -> dict:
    """One random batch-query dict of any kind."""
    term = st.sampled_from(terms + ["zzz_absent"])
    kind = data.draw(st.sampled_from(
        ["match", "match_phrase", "bool_must", "prefix_content", "wildcard", "fuzzy", "count"]))
    q: dict = {"query_id": qid, "kind": kind, "k": data.draw(st.integers(1, 12))}
    if kind != "count" and data.draw(st.booleans()):
        q["from"] = data.draw(st.integers(0, 4))
    if kind in ("match", "count"):
        q["text"] = " ".join(data.draw(st.lists(term, min_size=1, max_size=3)))
        if kind == "match" and data.draw(st.booleans()):
            q.pop("from", None)  # a cursor page has no offset
            page = eng.match(q["text"], k=30).to_pylist()
            if page and data.draw(st.booleans()):
                row = data.draw(st.sampled_from(page))
                q["after"] = [row["score"], row["doc_id"]]
            else:
                q["after"] = [data.draw(st.floats(0, 20)), data.draw(st.integers(0, 200))]
    elif kind == "match_phrase":
        q["text"] = data.draw(st.sampled_from(phrases) | st.lists(term, min_size=2, max_size=3)
                              .map(" ".join))
    elif kind == "bool_must":
        terms_of = st.lists(term, max_size=2)
        q["must_terms"] = data.draw(terms_of)
        for key, values in (("keyword_eq", st.sampled_from(langs).map(lambda v: [["lang", v]])),
                            ("keyword_prefix", st.sampled_from(paths).map(lambda v: [["path", v]])),
                            ("keyword_in", st.lists(st.sampled_from(langs), min_size=1, max_size=3)
                             .map(lambda v: [["lang", v]])),
                            ("must_not_terms", terms_of),
                            ("should_terms", st.lists(term, min_size=1, max_size=3)),
                            ("minimum_should_match", st.integers(0, 3)),
                            ("require_should", st.booleans())):
            if data.draw(st.booleans()):
                q[key] = data.draw(values)
    elif kind == "prefix_content":
        q["prefix"] = data.draw(term)[: data.draw(st.integers(1, 4))]
    elif kind == "wildcard":
        t = data.draw(term)
        i = data.draw(st.integers(0, len(t) - 1))
        q["pattern"] = t[:i] + data.draw(st.sampled_from(["?", "*"])) + t[i + 1:]
    else:
        t = data.draw(term)
        i = data.draw(st.integers(0, len(t) - 1))
        q["term"] = t[:i] + data.draw(st.sampled_from("aqz0")) + t[i + 1:]
        q["max_edits"] = data.draw(st.integers(0, 2))
        q["prefix_length"] = data.draw(st.integers(0, 2))
        q["transpositions"] = data.draw(st.booleans())
    return q


def _direct(eng: QueryEngine, q: dict):
    """The direct engine's answer: [(rank, doc_id, score)] or a count."""
    kind, k, off = q["kind"], q["k"], q.get("from", 0)
    if kind == "count":
        return eng.count(q["text"])
    if kind == "match":
        t = (eng.match_search_after(q["text"], k, tuple(q["after"])) if "after" in q
             else eng.match(q["text"], k, offset=off))
    elif kind == "match_phrase":
        t = eng.match_phrase(q["text"], k, offset=off)
    elif kind == "bool_must":
        t = eng.bool_must(
            q["must_terms"], k, offset=off,
            keyword_eq=[tuple(p) for p in q.get("keyword_eq", [])],
            keyword_prefix=[tuple(p) for p in q.get("keyword_prefix", [])],
            keyword_in=[(p[0], list(p[1])) for p in q.get("keyword_in", [])],
            must_not_terms=q.get("must_not_terms"),
            should_terms=q.get("should_terms"),
            require_should=q.get("require_should", False),
            minimum_should_match=q.get("minimum_should_match"),
        )
    elif kind == "prefix_content":
        t = eng.prefix_content(q["prefix"], k, offset=off)
    elif kind == "wildcard":
        t = eng.wildcard_content(q["pattern"], k, offset=off)
    else:
        t = eng.fuzzy_content(q["term"], k, offset=off, max_edits=q["max_edits"],
                              prefix_length=q["prefix_length"],
                              transpositions=q["transpositions"])
    return [(r["rank"], r["doc_id"], r["score"]) for r in t.to_pylist()]


def _by_query(out) -> dict:
    got: dict = {}
    for r in out.to_pylist():
        if r["doc_id"] == -1:
            got[r["query_id"]] = int(r["score"])
        else:
            got.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    return got


def _assert_same(got: dict, eng: QueryEngine, queries: list[dict]) -> None:
    for q in queries:
        want = _direct(eng, q)
        have = got.get(q["query_id"], 0 if q["kind"] == "count" else [])
        if q["kind"] == "count":
            assert have == want, q
            continue
        assert [(r, d) for r, d, _ in have] == [(r, d) for r, d, _ in want], q
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(have, want)), q


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scatter_equals_direct_for_random_queries(pool_index, data):
    index_dir, eng, terms, phrases, langs, paths = pool_index
    queries = [_query(data, qid, terms, phrases, langs, paths, eng)
               for qid in range(data.draw(st.integers(1, 6)))]
    out = batch_search_scatter(index_dir, queries, n_ranges=data.draw(st.integers(1, 4)),
                               chunk_size=data.draw(st.integers(1, 4)))
    _assert_same(_by_query(out), eng, queries)


@pytest.mark.parametrize("bad, offending", [
    ({"kind": "bool_must", "must_terms": ["def"], "after": [1.0, 3]}, "after"),
    ({"kind": "bool_must", "must_term": ["def"]}, "must_term"),
    ({"kind": "match", "text": "def", "keyword_in": [["lang", ["py"]]]}, "keyword_in"),
    ({"kind": "match", "text": "def", "minimum_should_match": 2}, "minimum_should_match"),
    ({"kind": "count", "text": "def", "prefix": "de"}, "prefix"),
    ({"kind": "match_wand", "text": "def"}, "match_wand"),
    ({"text": "def"}, "None"),
    ({"kind": "fuzzy", "term": "def", "max_edits": 3}, "max_edits"),
    ({"kind": "fuzzy", "term": "def", "max_edits": -1}, "max_edits"),
    ({"kind": "fuzzy", "term": "def", "max_edits": None}, "max_edits"),
    ({"kind": "fuzzy", "term": "def", "prefix_length": -1}, "prefix_length"),
    ({"kind": "fuzzy", "term": "def", "prefix_length": "2"}, "prefix_length .*'2'"),
    ({"kind": "fuzzy", "term": "def", "max_edits": 1.0}, "max_edits .*1.0"),
])
def test_scatter_rejects_unknown_kinds_and_keys(pool_index, monkeypatch, bad, offending):
    """One driver-side check, before any actor call: an unknown kind, a key
    the kind does not take or a fuzzy parameter the engine cannot serve
    raises, naming the query and the offending key."""
    index_dir = pool_index[0]

    def no_actor(n_ranges):
        raise AssertionError("an actor was called")

    monkeypatch.setattr(qmod, "_range_pool", no_actor)
    ok = {"query_id": 0, "kind": "match", "text": "def", "k": 3}
    with pytest.raises(ValueError, match=rf"query 41 .*{offending}"):
        batch_search_scatter(index_dir, [ok, {"query_id": 41, **bad}])
    with pytest.raises(ValueError, match="no query_id"):
        batch_search_scatter(index_dir, [{"kind": "match", "text": "def"}])


@pytest.mark.parametrize("kwargs, name", [
    ({"n_ranges": 0}, "n_ranges"),
    ({"n_ranges": -3}, "n_ranges"),
    ({"n_ranges": 2.0}, "n_ranges"),
    ({"n_ranges": "2"}, "n_ranges"),
    ({"chunk_size": 0}, "chunk_size"),
    ({"chunk_size": -1}, "chunk_size"),
    ({"chunk_size": None}, "chunk_size"),
])
def test_scatter_rejects_bad_n_ranges_and_chunk_size(pool_index, monkeypatch, kwargs, name):
    """An n_ranges or chunk_size that is not a positive integer raises,
    naming it, before any actor call (also for an empty batch)."""
    index_dir = pool_index[0]

    def no_actor(n_ranges):
        raise AssertionError("an actor was called")

    monkeypatch.setattr(qmod, "_range_pool", no_actor)
    q = [{"query_id": 0, "kind": "match", "text": "def", "k": 3}]
    for queries in (q, []):
        with pytest.raises(ValueError, match=rf"{name} must be a positive integer"):
            batch_search_scatter(index_dir, queries, **kwargs)


def _mixed_queries(pool_index) -> list[dict]:
    """A fixed batch of every kind over the pool index."""
    _, _, terms, phrases, langs, paths = pool_index
    t = terms[len(terms) // 2]
    return [
        {"query_id": 0, "kind": "match", "text": f"{terms[3]} {t}", "k": 7},
        {"query_id": 1, "kind": "match", "text": terms[-5], "k": 4, "from": 2},
        {"query_id": 2, "kind": "match_phrase", "text": phrases[0], "k": 5},
        {"query_id": 3, "kind": "bool_must", "must_terms": [terms[10]],
         "should_terms": [t], "keyword_eq": [["lang", langs[0]]], "k": 6},
        {"query_id": 4, "kind": "prefix_content", "prefix": t[:2], "k": 9},
        {"query_id": 5, "kind": "wildcard", "pattern": t[:1] + "*", "k": 5, "from": 1},
        {"query_id": 6, "kind": "fuzzy", "term": t[:-1] + "q", "max_edits": 1,
         "prefix_length": 0, "transpositions": True, "k": 8},
        {"query_id": 7, "kind": "count", "text": f"{terms[0]} {t}", "k": 10},
        {"query_id": 8, "kind": "bool_must", "must_terms": [],
         "keyword_prefix": [["path", paths[0]]], "k": 5},
    ]


def test_one_range_per_actor_when_n_ranges_exceeds_the_pool(pool_index):
    """With n_ranges above the pool size each actor evaluates one range per
    chunk: the range-engine LRU counts one lookup per actor per chunk."""
    index_dir, eng, *_ = pool_index
    queries = _mixed_queries(pool_index)
    pool_size = min(6, int(ray.cluster_resources()["CPU"]))
    assert pool_size < 6

    def lookups() -> int:
        stats = qmod.range_cache_stats()
        return 0 if stats is None else stats["hits"] + stats["misses"]

    batch_search_scatter(index_dir, queries[:1], n_ranges=6)  # grow the pool first
    before = lookups()
    out = batch_search_scatter(index_dir, queries, n_ranges=6, chunk_size=4)
    assert lookups() - before == pool_size * 3  # 9 queries in chunks of 4
    _assert_same(_by_query(out), eng, queries)


def test_shares_above_the_dense_limit_split_into_contiguous_runs(pool_index, monkeypatch):
    """A share wider than DENSE_ACC_LIMIT docs is cut into ranges of at most
    that many docs; each actor gets the same contiguous run in every call,
    the runs tile [0, n_docs) in pool order, and answers stay exact."""
    index_dir, eng, *_ = pool_index
    queries = _mixed_queries(pool_index)
    limit = 7
    real_pool = qmod._range_pool
    sent: dict[int, list] = {}

    def recording_pool(n_ranges):
        def proxy(slot, actor):
            def remote(index_dir, ranges, chunk):
                sent.setdefault(slot, []).append(list(ranges))
                return actor.eval.remote(index_dir, ranges, chunk)
            return SimpleNamespace(eval=SimpleNamespace(remote=remote))
        return [proxy(slot, actor) for slot, actor in enumerate(real_pool(n_ranges))]

    monkeypatch.setattr(qmod, "_range_pool", recording_pool)
    monkeypatch.setattr(qmod, "DENSE_ACC_LIMIT", limit)
    out = batch_search_scatter(index_dir, queries, n_ranges=3, chunk_size=5)
    assert len(sent) == min(3, int(ray.cluster_resources()["CPU"]))
    tiles = []
    for slot in sorted(sent):
        calls = sent[slot]
        assert len(calls) == 2 and calls[0] == calls[1]  # 9 queries in chunks of 5
        run = calls[0]
        assert len(run) > 1
        assert all(0 < hi - lo <= limit for lo, hi in run)
        assert all(a[1] == b[0] for a, b in zip(run, run[1:]))
        tiles.extend(run)
    assert tiles[0][0] == 0 and tiles[-1][1] == eng.n_docs
    assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
    _assert_same(_by_query(out), eng, queries)


def test_pool_size_is_stable_across_calls_and_index_dirs(pool_index, built_index):
    cpus = int(ray.cluster_resources()["CPU"])
    dirs = [pool_index[0], built_index[0]]
    q = [{"query_id": 0, "kind": "match", "text": "def return", "k": 5}]
    largest = len(qmod._POOL["actors"])
    for i, n_ranges in enumerate([1, 3, 2, 4, 6, 1, 4, 2, 3]):
        batch_search_scatter(dirs[i % 2], q, n_ranges=n_ranges, chunk_size=1)
        largest = max(largest, n_ranges)
        assert len(qmod._POOL["actors"]) == min(largest, cpus)
    ids = [a._actor_id for a in qmod._POOL["actors"]]
    for i in range(6):
        batch_search_scatter(dirs[i % 2], q, n_ranges=6)
    assert [a._actor_id for a in qmod._POOL["actors"]] == ids


def test_killed_pool_actor_is_replaced(pool_index):
    index_dir, eng, *_ = pool_index
    queries = [{"query_id": i, "kind": "match", "text": t, "k": 8}
               for i, t in enumerate(["def return", "class", "import self"])]
    batch_search_scatter(index_dir, queries, n_ranges=2)
    victim = qmod._POOL["actors"][0]
    ray.kill(victim)
    # the kill is asynchronous: a call sent right after it may still be
    # answered, so call until the actor is gone (at most a minute)
    deadline = time.monotonic() + 60
    with pytest.raises(ray.exceptions.RayActorError):
        while time.monotonic() < deadline:
            ray.get(victim.cache_stats.remote(), timeout=60)
            time.sleep(0.05)
    _assert_same(_by_query(batch_search_scatter(index_dir, queries, n_ranges=2)), eng, queries)
    assert qmod._POOL["actors"][0] is not victim
    assert qmod.range_cache_stats() is not None


def test_process_engine_drops_range_engines_of_a_replaced_engine(pool_index, built_index):
    """In one process, switching index dirs leaves only the current engine's
    range engines, so the old engine and its caches are freed."""
    a, b = pool_index[0], built_index[0]
    qmod._process_range_engine(a, 0, 10)
    qmod._process_range_engine(a, 10, 20)
    old = weakref.ref(qmod._process_engine(a))
    qmod._process_range_engine(b, 0, 10)
    eng = qmod._process_engine(b)
    assert list(qmod._PROCESS_RANGE_ENGINES) == [(b, 0, 10)]
    assert all(r.eng is eng for r in qmod._PROCESS_RANGE_ENGINES.values())
    gc.collect()
    assert old() is None


def test_scatter_many_queries_stress(built_index):
    """Many-queries scatter-gather: 10⁴ queries through 4 doc ranges —
    every query returns ≤ k rows, ranks are 1..n_i, and a sample matches
    the single-engine result exactly."""
    from librecatastro_ray.pipelines.query import QueryEngine, batch_search_scatter

    index_dir, _ = built_index
    k = 5
    vocab = ["def", "return", "if", "self", "x", "id_00007", "id_00028"]
    queries = [
        {"query_id": i, "kind": "match",
         "text": " ".join(vocab[(i + j) % len(vocab)] for j in range(1 + i % 3)),
         "k": k}
        for i in range(10_000)
    ]
    out = batch_search_scatter(index_dir, queries, n_ranges=4).to_pandas()
    per_q = out.groupby("query_id").size()
    assert (per_q <= k).all()
    ranks = out.groupby("query_id")["rank"].max()
    assert (ranks == per_q.loc[ranks.index]).all()  # ranks are dense 1..n
    eng = QueryEngine(index_dir)
    for i in (0, 137, 4242, 9999):
        exp = eng.match(queries[i]["text"], k=k)
        got = out[out.query_id == i].sort_values("rank")
        assert got["doc_id"].tolist() == exp["doc_id"].to_pylist(), i
