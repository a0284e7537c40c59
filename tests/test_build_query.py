"""End-to-end: build the index with Ray Data, answer the reference query set,
compare rank-identically against the pure-Python oracle (ids exact, scores
within 1e-6, ranks exact) — the analogue of the reference's oracle-backed
golden-count tests (reference: src/tests/parsers/parser_xml_tests.py:9-21)."""

import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from librecatastro_ray.functions.hashing import sha256_hex
from librecatastro_ray.pipelines.query import QueryEngine
from librecatastro_ray.sources.synth import reference_query_set


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return QueryEngine(index_dir)


def test_build_artifacts_exist(built_index):
    index_dir, result = built_index
    assert os.path.exists(os.path.join(index_dir, "manifest.json"))
    assert os.path.isdir(os.path.join(index_dir, "parts"))
    assert os.path.isdir(os.path.join(index_dir, "checkpoints"))
    m = result["manifest"]
    assert m["n_docs"] > 0
    assert m["lineage"]["n_postings"] > 0
    assert len(m["segments"][0]["partitions"]) > 0


def test_doc_ids_match_oracle(engine, oracle_small):
    """Dense ids from sorted (repo, path) — engine vs oracle."""
    stats = pads.dataset(os.path.join(engine.index_dir, "docs")).to_table(
        columns=["doc_id", "repo", "path", "sha256"])
    stats = stats.sort_by("doc_id")
    assert stats["doc_id"].to_pylist() == list(range(oracle_small.n_docs))
    assert stats["repo"].to_pylist() == oracle_small.repos
    assert stats["path"].to_pylist() == oracle_small.paths


def test_global_stats_match(engine, oracle_small):
    assert engine.n_docs == oracle_small.n_docs
    assert abs(engine.avgdl - oracle_small.avgdl) < 1e-12


def test_dedup_upsert_semantics(engine, corpus_small):
    """Duplicate (repo, path) keys keep exactly one row — the max-sha winner
    (upsert by id, reference: cadaster_entry.py:53)."""
    stats = pads.dataset(os.path.join(engine.index_dir, "docs")).to_table(
        columns=["doc_id", "repo", "path", "sha256"])
    keys = list(zip(stats["repo"].to_pylist(), stats["path"].to_pylist()))
    assert len(keys) == len(set(keys))
    # corpus has duplicates, so dedup actually removed rows
    assert len(keys) < corpus_small.num_rows


def test_sha256_row_invariant(engine, corpus_small):
    """Per-row content sha256 equality vs the source table (BASELINE.json
    input_hint) for every doc surfaced by a query."""
    res = engine.match("def", k=20)
    hydrated = engine.hydrate(res["doc_id"].to_numpy())
    src = {}
    for r in corpus_small.to_pylist():
        sha = sha256_hex(r["content"] or "")
        key = (r["repo"], r["path"])
        if key not in src or sha > src[key]:
            src[key] = sha
    for row in hydrated.to_pylist():
        assert row["sha256"] == src[(row["repo"], row["path"])]


def _oracle_eval(oracle, q):
    kind = q["kind"]
    if kind == "match":
        return oracle.match(q["text"], q["k"])
    if kind == "bool_must":
        return oracle.bool_must(q["must_terms"], q["k"])
    if kind == "prefix_content":
        return oracle.prefix_content(q["prefix"], q["k"])
    if kind == "count":
        return oracle.count(q["text"])
    raise ValueError(kind)


def _engine_eval(engine, q):
    kind = q["kind"]
    if kind == "match":
        return engine.match(q["text"], q["k"])
    if kind == "bool_must":
        return engine.bool_must(q["must_terms"], q["k"])
    if kind == "prefix_content":
        return engine.prefix_content(q["prefix"], q["k"])
    if kind == "count":
        return engine.count(q["text"])
    raise ValueError(kind)


def test_rank_identity_reference_query_set(engine, oracle_small):
    for q in reference_query_set():
        expected = _oracle_eval(oracle_small, q)
        got = _engine_eval(engine, q)
        if q["kind"] == "count":
            assert got == expected, q
            continue
        got_rows = got.to_pylist()
        assert len(got_rows) == len(expected), q
        for rank, (row, (exp_doc, exp_score)) in enumerate(zip(got_rows, expected), 1):
            assert row["rank"] == rank, q
            assert row["doc_id"] == exp_doc, (q, rank)
            assert abs(row["score"] - exp_score) < 1e-6, (q, rank)


def test_wand_rank_identical_to_full_scoring(engine, oracle_small):
    """Block-max pruned top-k (match_wand) must be bit-for-bit rank- and
    score-identical to full scoring (and hence to the oracle) — including
    hot (salted) terms, multi-term queries, k > hits, and empty results."""
    hot = sorted(engine.hot)[:2]
    queries = [q["text"] for q in reference_query_set() if q["kind"] == "match"]
    queries += [" ".join(hot), f"{hot[0]} zzz_nonexistent" if hot else "zzz", "zzz_nonexistent"]
    for text in queries:
        for k in (1, 10, 10_000):
            full = engine.match(text, k).to_pylist()
            wand = engine.match_wand(text, k).to_pylist()
            assert len(full) == len(wand), (text, k)
            for a, b in zip(full, wand):
                assert a["doc_id"] == b["doc_id"], (text, k)
                assert a["score"] == b["score"], (text, k)


def test_keyword_prefix_and_eq(engine, oracle_small):
    # prefix on a keyword column (Q2, the reference's dedup-probe prefix,
    # elasticsearch_utils.py:113-114)
    some_repo = oracle_small.repos[0]
    pref = some_repo[:6]
    got = engine.keyword_docs("repo", pref, prefix=True)
    exp = sorted(d for d, r in enumerate(oracle_small.repos) if r.startswith(pref))
    assert list(got) == exp
    got_eq = engine.keyword_docs("lang", "py", prefix=False)
    exp_eq = sorted(d for d, v in enumerate(oracle_small.langs) if v == "py")
    assert list(got_eq) == exp_eq


def test_bool_must_with_keyword_clauses(engine, oracle_small):
    got = engine.bool_must(["def"], k=10, keyword_eq=[("lang", "py")])
    exp = oracle_small.bool_must(["def"], k=10, keyword_eq=[("lang", "py")])
    assert got["doc_id"].to_pylist() == [d for d, _ in exp]
    for row, (_, s) in zip(got.to_pylist(), exp):
        assert abs(row["score"] - s) < 1e-6


def test_salting_actually_used(engine):
    """Hot terms exist and their postings live in multiple salt runs, and the
    salted result equals the oracle (covered above) — verify the layout."""
    assert len(engine.hot) > 0, "corpus should produce hot terms"
    term = sorted(engine.hot)[0]
    salted_runs = 0
    for salt in range(engine.config.num_salts):
        if engine._span(term, (0, salt)) is not None:
            salted_runs += 1
    assert salted_runs > 1


def test_scatter_gather_identical_to_single_engine(built_index, engine):
    """Doc-range scatter-gather serving (batch_search_scatter) returns the
    same rows as the single full engine for every query kind."""
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    queries = []
    for i, q in enumerate(reference_query_set()):
        q = dict(q)
        q["query_id"] = i
        queries.append(q)
    got = batch_search_scatter(index_dir, queries, n_ranges=3)
    by_qid: dict[int, list] = {}
    for row in got.to_pylist():
        by_qid.setdefault(row["query_id"], []).append(row)
    for q in queries:
        rows = by_qid.get(q["query_id"], [])
        exp = _engine_eval(engine, q)
        if q["kind"] == "count":
            assert len(rows) == 1 and rows[0]["score"] == float(exp), q
            continue
        exp_rows = exp.to_pylist()
        assert len(rows) == len(exp_rows), q
        for a, b in zip(rows, exp_rows):
            assert a["rank"] == b["rank"] and a["doc_id"] == b["doc_id"], q
            assert abs(a["score"] - b["score"]) < 1e-12, q


def test_salted_equals_unsalted(tmp_path, corpus_small):
    """Salting is a physical layout choice only: an index built with
    aggressive salting answers identically to one built with salting
    disabled (SURVEY.md §5.2 'salting merge = unsalted result')."""
    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index

    salted_dir = str(tmp_path / "salted")
    plain_dir = str(tmp_path / "plain")
    build_index(corpus_small, salted_dir,
                IndexConfig(num_partitions=4, num_salts=3, block_size=16, blocks_row_group_size=1))
    build_index(corpus_small, plain_dir,
                IndexConfig(num_partitions=4, num_salts=1, block_size=16))
    a, b = QueryEngine(salted_dir), QueryEngine(plain_dir)
    assert len(a.hot) > 0 and len(b.hot) == 0
    for q in reference_query_set():
        ra, rb = _engine_eval(a, q), _engine_eval(b, q)
        if q["kind"] == "count":
            assert ra == rb, q
        else:
            assert ra.to_pylist() == rb.to_pylist(), q


def test_wide_rows_build_and_query(tmp_path):
    """Wide records (SURVEY.md §7.4 item 5): ~200 KB content rows build and
    query correctly with small batches — the token explosion per row stays
    inside worker memory because batches are rows, not bytes, bounded."""
    import pyarrow as pa

    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index

    rows = []
    for i in range(24):
        body = " ".join(f"tok{j % 997}" for j in range(30_000))  # ~200 KB
        rows.append({
            "repo": f"org/wide{i % 3}", "path": f"big/file_{i:03d}.txt",
            "commit": f"{i:040d}", "lang": "txt",
            "content": f"needle_{i:04d} {body}",
        })
    corpus = pa.Table.from_pylist(rows)
    idx = str(tmp_path / "wide")
    build_index(corpus, idx, IndexConfig(num_partitions=2, num_salts=2, block_size=16,
                                         blocks_row_group_size=1, batch_size=4))
    eng = QueryEngine(idx)
    assert eng.n_docs == 24
    r = eng.match("needle_0007", k=5)
    assert len(r) == 1 and r["doc_id"][0].as_py() == eng.keyword_docs("path", "big/file_007.txt")[0]
    assert eng.count("tok1") == 24


def test_nested_columns_survive_build(tmp_path):
    """The reference's document shape (address struct + constructions
    list<struct>, elasticsearch_utils.py:38-56) rides through dedup + id
    assignment + the doc-store write untouched: extra nested columns on the
    corpus land in docs/ with doc_ids assigned (data-model closure; the
    fulltext tier never QUERIES them, matching the reference, which stores
    but never queries the nested fields)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads

    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index

    n = 60
    addr = pa.StructArray.from_arrays(
        [pa.array([f"city{i % 5}" for i in range(n)], pa.string()),
         pa.array(np.arange(n, dtype=np.int64) % 100, pa.int64())],
        ["city", "zip"],
    )
    n_cons = np.arange(n, dtype=np.int64) % 3
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(n_cons[:-1], out=starts[1:])
    floors = np.arange(int(n_cons.sum()), dtype=np.int64) - np.repeat(starts, n_cons)
    values = pa.StructArray.from_arrays(
        [pa.array(floors, pa.int64()),
         pa.array(floors * 11.5, pa.float64())],
        ["floor", "area"],
    )
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_cons, out=offsets[1:])
    cons = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)
    corpus = pa.table(
        {
            "repo": pa.array([f"r{i % 4}" for i in range(n)], pa.string()),
            "path": pa.array([f"p/{i:04d}.txt" for i in range(n)], pa.string()),
            "commit": pa.array(["c"] * n, pa.string()),
            "lang": pa.array(["py"] * n, pa.string()),
            "content": pa.array([f"alpha beta tok{i}" for i in range(n)], pa.string()),
            "address": addr,
            "constructions": cons,
        }
    )
    import ray.data

    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(corpus).repartition(3), idx,
        IndexConfig(num_partitions=2, num_salts=1, block_size=16),
    )
    docs = pads.dataset(os.path.join(idx, "docs"), format="parquet").to_table()
    assert "address" in docs.column_names and "constructions" in docs.column_names
    docs = docs.sort_by("doc_id")
    assert docs["doc_id"].to_pylist() == list(range(n))
    # nested values intact, keyed by the original (repo, path)
    by_path = {r["path"]: r for r in docs.to_pylist()}
    assert by_path["p/0007.txt"]["address"] == {"city": "city2", "zip": 7}
    assert by_path["p/0007.txt"]["constructions"] == [
        {"floor": 0, "area": 0.0}
    ]
    assert by_path["p/0005.txt"]["constructions"] == [
        {"floor": 0, "area": 0.0}, {"floor": 1, "area": 11.5}
    ]


def test_range_cache_local_counters(built_index):
    """_process_range_engine counts a miss on build, a hit on reuse, and an
    eviction when the LRU cap trips (round-5 observability ask)."""
    from librecatastro_ray.pipelines import query as qmod

    index_dir, _ = built_index
    qmod._PROCESS_RANGE_ENGINES.clear()
    before = dict(qmod._RANGE_CACHE_LOCAL)
    qmod._process_range_engine(index_dir, 0, 3)
    qmod._process_range_engine(index_dir, 0, 3)
    assert qmod._RANGE_CACHE_LOCAL["misses"] == before["misses"] + 1
    assert qmod._RANGE_CACHE_LOCAL["hits"] == before["hits"] + 1
    # drive distinct ranges past the cap: every insertion beyond it evicts
    n_over = qmod._PROCESS_RANGE_ENGINES_CAP + 2
    for lo in range(n_over):
        qmod._process_range_engine(index_dir, lo, lo + 1)
    assert (qmod._RANGE_CACHE_LOCAL["evictions"]
            >= before["evictions"] + 3)  # 0-3 above + the cap overflow
    assert len(qmod._PROCESS_RANGE_ENGINES) <= qmod._PROCESS_RANGE_ENGINES_CAP
    qmod._PROCESS_RANGE_ENGINES.clear()


def test_range_cache_stats_collector(built_index):
    """The pool actors count their own range-engine lookups and
    range_cache_stats() sums them: one lookup per (range, chunk), and a
    repeated workload finds every range engine warm."""
    from librecatastro_ray.pipelines.query import batch_search_scatter, range_cache_stats

    index_dir, _ = built_index
    queries = [
        {"query_id": i, "kind": "match", "text": "alpha beta", "k": 5}
        for i in range(6)
    ]
    batch_search_scatter(index_dir, queries, n_ranges=2, chunk_size=3)
    first = range_cache_stats()
    assert first is not None and first["misses"] >= 1 and first["hit_rate"] is not None
    batch_search_scatter(index_dir, queries, n_ranges=2, chunk_size=3)
    second = range_cache_stats()
    # 2 chunks x 2 ranges = 4 lookups, all hits on the same manifest
    assert second["hits"] == first["hits"] + 4
    assert second["misses"] == first["misses"]
    assert second["evictions"] == first["evictions"]
