"""Pluggable Analyzer/Scorer strategy surface (SURVEY.md §2.J; reference's
Parser-ABC swap, parser.py:12-28): a non-default analyzer builds and queries
end-to-end against the oracle; a mismatched explicit strategy is rejected;
the canonical default stays bit-identical (the whole rest of the suite plus
the DuckDB oracles pin that)."""

import numpy as np
import pyarrow as pa
import pytest

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.analysis import (
    CodeAnalyzer,
    TfIdfScorer,
    WhitespaceAnalyzer,
    get_analyzer,
    get_scorer,
)

EDGE_STRINGS = [
    "Foo.Bar(x) != baz_QUX;\tend",
    "  leading  and trailing   ",
    "",
    None,
    "tabs\tnewlines\nmixed\r\nwhitespace\fform\vvert",
    "UPPER lower MiXeD 123 a_b-c",
    "single",
    "\n\n\n",
]


def test_whitespace_scalar_batch_identity():
    ws = WhitespaceAnalyzer()
    arr = pa.array(EDGE_STRINGS, pa.string())
    parent, terms, dl = ws.tokenize_batch(arr)
    per_row = [[] for _ in EDGE_STRINGS]
    for p, t in zip(parent, terms):
        per_row[p].append(t)
    for i, s in enumerate(EDGE_STRINGS):
        assert per_row[i] == ws.tokenize(s), (i, s)
        assert dl[i] == len(ws.tokenize(s))


def test_whitespace_differs_from_canonical():
    ws, code = WhitespaceAnalyzer(), CodeAnalyzer()
    s = "Foo.Bar(x) != baz_QUX"
    assert ws.tokenize(s) == ["foo.bar(x)", "!=", "baz_qux"]
    assert code.tokenize(s) == ["foo", "bar", "x", "baz_qux"]


def test_registry_lookup_and_errors():
    assert get_analyzer("whitespace_v1").analyzer_id == "whitespace_v1"
    assert get_scorer("tfidf_v1", 1.2, 0.75).scorer_id == "tfidf_v1"
    with pytest.raises(ValueError, match="unknown analyzer"):
        get_analyzer("nope_v0")
    with pytest.raises(ValueError, match="unknown scorer"):
        get_scorer("nope_v0", 1.2, 0.75)


@pytest.fixture(scope="module")
def ws_index(tmp_path_factory, corpus_small):
    from librecatastro_ray.pipelines.build import build_index

    index_dir = str(tmp_path_factory.mktemp("ws_index") / "idx")
    cfg = IndexConfig(
        num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=5,
        analyzer="whitespace_v1",
    )
    build_index(corpus_small, index_dir, cfg)
    return index_dir


@pytest.fixture(scope="module")
def ws_oracle(corpus_small):
    from librecatastro_ray.functions.hashing import sha256_hex
    from librecatastro_ray.oracle import OracleIndex

    best = {}
    for r in corpus_small.to_pylist():
        key = (r["repo"], r["path"])
        sha = sha256_hex(r["content"] or "")
        if key not in best or sha > best[key][0]:
            best[key] = (sha, r)
    kept = [r for _, r in best.values()]
    return OracleIndex.build(
        [r["repo"] for r in kept],
        [r["path"] for r in kept],
        [r["lang"] for r in kept],
        [r["content"] for r in kept],
        tokenize_fn=WhitespaceAnalyzer().tokenize,
    )


def test_whitespace_end_to_end(ws_index, ws_oracle):
    """Build + query under the swapped analyzer: the manifest records the
    id, and match/count/wand are rank-identical to the whitespace oracle."""
    from librecatastro_ray.pipelines.query import QueryEngine
    from librecatastro_ray.state.manifest import load_manifest

    assert load_manifest(ws_index)["config"]["analyzer"] == "whitespace_v1"
    eng = QueryEngine(ws_index)
    # real synth vocab terms (keywords + id_*); under whitespace analysis only
    # occurrences delimited by whitespace (not "(" / ")." / "\t"-glued) match,
    # so ranks genuinely differ from the canonical analyzer
    nonempty = 0
    for text in ["def return", "def", "id_00001 if for", "def (x"]:
        exp = ws_oracle.match(text, 10)
        got = eng.match(text, 10).to_pylist()
        nonempty += bool(got)
        assert [r["doc_id"] for r in got] == [d for d, _ in exp]
        for r, (_, s) in zip(got, exp):
            assert abs(r["score"] - s) < 1e-6
        got_w = eng.match_wand(text, 10).to_pylist()
        assert got_w == got
        assert eng.count(text) == ws_oracle.count(text)
    assert nonempty >= 3  # the queries actually hit the corpus


def test_mismatched_analyzer_rejected(ws_index, built_index):
    from librecatastro_ray.pipelines.query import QueryEngine

    with pytest.raises(ValueError, match="built with analyzer"):
        QueryEngine(ws_index, analyzer=CodeAnalyzer())
    # matching explicit strategy is accepted on both indexes
    QueryEngine(ws_index, analyzer=WhitespaceAnalyzer())
    QueryEngine(built_index[0], analyzer=CodeAnalyzer())
    with pytest.raises(ValueError, match="built with scorer"):
        QueryEngine(built_index[0], scorer=TfIdfScorer())


def test_unknown_analyzer_rejected_at_build(tmp_path, corpus_small):
    from librecatastro_ray.pipelines.build import build_index

    with pytest.raises(ValueError, match="unknown analyzer"):
        build_index(
            corpus_small, str(tmp_path / "idx"),
            IndexConfig(analyzer="nope_v0"),
        )


def test_tfidf_scorer_end_to_end(tmp_path_factory, corpus_small):
    """Build with the alternative scorer: manifest pins it, match() agrees
    with a brute-force recomputation, and the WAND path (block-max bounds
    computed with the build-time scorer) stays rank-identical to match()."""
    from librecatastro_ray.functions.hashing import sha256_hex
    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.pipelines.query import QueryEngine
    from librecatastro_ray.state.manifest import load_manifest

    index_dir = str(tmp_path_factory.mktemp("tfidf_index") / "idx")
    cfg = IndexConfig(
        num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=5,
        scorer="tfidf_v1",
    )
    build_index(corpus_small, index_dir, cfg)
    assert load_manifest(index_dir)["config"]["scorer"] == "tfidf_v1"
    eng = QueryEngine(index_dir)

    # brute force: dedup like the engine, tokenize canon, tfidf formula
    best = {}
    for r in corpus_small.to_pylist():
        key = (r["repo"], r["path"])
        sha = sha256_hex(r["content"] or "")
        if key not in best or sha > best[key][0]:
            best[key] = (sha, r)
    kept = sorted(best.values(), key=lambda t: (t[1]["repo"], t[1]["path"]))
    code = CodeAnalyzer()
    tf = []  # per doc: {term: tf}
    for _, r in kept:
        toks = code.tokenize(r["content"])
        counts = {}
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        tf.append(counts)
    n_docs = len(tf)
    sc = TfIdfScorer()
    for text in ["def return", "id_00001"]:
        scores = {}
        for term in code.tokenize(text):
            df = sum(1 for c in tf if term in c)
            if df == 0:
                continue
            w = float(sc.idf(df, n_docs))
            for d, c in enumerate(tf):
                if term in c:
                    scores[d] = scores.get(d, 0.0) + w * float(
                        sc.tf_norm(np.array([c[term]]), None, 1.0)[0]
                    )
        exp = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert exp, text  # the query actually hits the corpus
        got = eng.match(text, 10).to_pylist()
        assert [r["doc_id"] for r in got] == [d for d, _ in exp], text
        for r, (_, s) in zip(got, exp):
            assert abs(r["score"] - s) < 1e-6
        assert eng.match_wand(text, 10).to_pylist() == got


def test_scalar_batch_unicode_lowercase_identity():
    """Scalar tokenize must produce the BATCH kernel's tokens (pinned
    expected values, so an Arrow/utf8proc behavior change is caught, not
    just scalar==batch by delegation).  Python str.lower() would give
    'i̇stanbul' (full case mapping, combining dot splits the token) — the
    engine's utf8_lower simple mapping gives 'istanbul'."""
    assert CodeAnalyzer().tokenize("İstanbul") == ["istanbul"]
    assert CodeAnalyzer().tokenize("ΣΊΣΥΦΟΣ foo_1") == ["foo_1"]
    assert WhitespaceAnalyzer().tokenize("İstanbul Foo.bar(x)") == [
        "istanbul", "foo.bar(x)"]
    assert WhitespaceAnalyzer().tokenize("STRASSE ß") == ["strasse", "ß"]


def test_scorer_param_mismatch_rejected(built_index):
    """An explicit bm25_v1 scorer with different k1/b invalidates the stored
    block-max bounds and must be rejected, not silently accepted."""
    from librecatastro_ray.functions.analysis import BM25Scorer
    from librecatastro_ray.pipelines.query import QueryEngine

    with pytest.raises(ValueError, match="k1"):
        QueryEngine(built_index[0], scorer=BM25Scorer(k1=5.0, b=0.75))
    with pytest.raises(ValueError, match="b="):
        QueryEngine(built_index[0], scorer=BM25Scorer(k1=1.2, b=0.2))
    QueryEngine(built_index[0], scorer=BM25Scorer())  # matching params pass


def test_resume_invalidates_on_analyzer_change(tmp_path, corpus_small):
    """A resumed build with a DIFFERENT analyzer, or a crashed build resumed
    with different BM25 params, must invalidate the finished work (dl/avgdl
    from the old tokenizer + postings from the new one = silently wrong
    scores; stale block-max bounds would break WAND pruning), not skip it."""
    import os

    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.pipelines.query import QueryEngine
    from librecatastro_ray.state.manifest import load_manifest, manifest_path

    corpus_dir = str(tmp_path / "corpus")
    pq.write_table(corpus_small, corpus_dir + ".parquet")
    idx = str(tmp_path / "idx")
    cfg = dict(num_partitions=2, num_salts=2, block_size=16, blocks_row_group_size=5)
    out1 = build_index(corpus_dir + ".parquet", idx, IndexConfig(**cfg))
    assert out1["report"]["phases_skipped"] == []
    assert out1["report"]["partitions_merged"] > 0
    assert out1["report"]["partitions_skipped"] == 0
    # same analyzer resumes clean
    out2 = build_index(corpus_dir + ".parquet", idx, IndexConfig(**cfg))
    assert out2["report"]["phases_skipped"] == ["all"]
    # changed analyzer must rebuild, and the result must equal a fresh build
    out3 = build_index(
        corpus_dir + ".parquet", idx, IndexConfig(**cfg, analyzer="whitespace_v1")
    )
    assert out3["report"]["partitions_skipped"] == 0
    fresh = str(tmp_path / "fresh")
    build_index(corpus_dir + ".parquet", fresh, IndexConfig(**cfg, analyzer="whitespace_v1"))
    a = QueryEngine(idx).match("def return", k=5).to_pylist()
    b = QueryEngine(fresh).match("def return", k=5).to_pylist()
    assert a == b
    # a crashed build (no manifest, every checkpoint kept) resumed with
    # another k1 merges every partition again: its plan records the config
    os.remove(manifest_path(idx))
    out4 = build_index(corpus_dir + ".parquet", idx,
                       IndexConfig(**cfg, analyzer="whitespace_v1", k1=2.0))
    assert out4["report"]["partitions_skipped"] == 0
    k1_fresh = str(tmp_path / "k1_fresh")
    build_index(corpus_dir + ".parquet", k1_fresh, IndexConfig(**cfg, analyzer="whitespace_v1",
                                                              k1=2.0))
    assert load_manifest(idx) == load_manifest(k1_fresh)


def test_complete_index_strategy_change_is_crash_safe(tmp_path, corpus_small):
    """Requesting a different analyzer over a COMPLETE index removes the
    stale manifest BEFORE discarding the segment, so a crash mid-rebuild cannot
    resurrect a gutted index as complete."""
    import os
    from unittest import mock

    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines import build as build_mod
    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.state.manifest import manifest_path

    corpus = str(tmp_path / "c.parquet")
    pq.write_table(corpus_small, corpus)
    idx = str(tmp_path / "idx")
    cfg = dict(num_partitions=2, num_salts=2, block_size=16, blocks_row_group_size=5)
    build_index(corpus, idx, IndexConfig(**cfg))
    assert os.path.exists(manifest_path(idx))
    # crash immediately after the fast-path falls through (in the first
    # step of the segment write, the doc-id pass)
    with mock.patch.object(build_mod, "dedup_assign_write",
                           side_effect=RuntimeError("boom")):
        with pytest.raises(RuntimeError, match="boom"):
            build_index(corpus, idx, IndexConfig(**cfg, analyzer="whitespace_v1"))
    # the stale manifest must be gone: a resume with the ORIGINAL analyzer
    # rebuilds instead of returning the gutted index as complete
    assert not os.path.exists(manifest_path(idx))
    out = build_index(corpus, idx, IndexConfig(**cfg))
    assert out["report"]["phases_skipped"] != ["all"]
