"""Hermetic tests for the round-2 custom operators that remain: BPE-ish token
counts, and two search-layer edge cases (an empty scatter sink,
prefix_content paging)."""

import re

import pyarrow as pa
import pyarrow.parquet as pq


def test_token_counts_bpe_matches_python_re(tmp_path):
    from librecatastro_ray.pipelines.training import BPE_SPLIT_RE, token_counts_bpe

    texts = [
        "Hello, world! 123 foo_bar", "", None, "a  b   c", "!!!", "x9y8z7",
        "CamelCase and under_scores, plus 3.14 numbers",
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    got = {r["doc_id"]: r["n_bpe_tokens"] for r in token_counts_bpe(str(tmp_path)).take_all()}
    pat = re.compile(BPE_SPLIT_RE)
    for i, t in enumerate(texts):
        assert got[i] == len(pat.findall((t or "").lower())), (i, t)


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
