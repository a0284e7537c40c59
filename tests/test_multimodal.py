"""Many-queries scatter-gather stress test for batch_search_scatter.

This file once also held the image/audio codec tests; those went with the
codecs, and this search-layer test keeps its original test id here."""


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
