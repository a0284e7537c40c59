"""Hermetic tests for two search-layer edge cases: an empty scatter sink and
prefix_content paging."""


def test_scatter_sink_empty_queries(built_index, tmp_path):
    from librecatastro_ray.pipelines.query import batch_search_scatter

    index_dir, _ = built_index
    out = batch_search_scatter(index_dir, [], n_ranges=2, output_dir=str(tmp_path / "o"))
    assert out.to_pylist() == [{"rows_written": 0, "output_dir": str(tmp_path / "o")}]


def test_prefix_content_offset(built_index):
    from librecatastro_ray.pipelines.query import QueryEngine

    index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    full = eng.prefix_content("de", k=10**9).to_pylist()
    page = eng.prefix_content("de", k=4, offset=2).to_pylist()
    assert [(r["rank"], r["doc_id"]) for r in page] == [
        (r["rank"], r["doc_id"]) for r in full[2:6]
    ]
