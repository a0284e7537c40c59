"""Property-based and randomized-conformance tests: vectorized kernels
(top-k selection, the prefix upper bound) vs their obviously-correct scalar
counterparts, a randomized query sweep and search_after walk against the
pure-Python oracle, and block-max bounds (WAND exactness) across add and
delete."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from librecatastro_ray.functions.bm25 import topk_indices


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=0, max_size=200),
    st.integers(min_value=0, max_value=50),
)
def test_topk_indices_matches_naive_lexsort(scores, k):
    scores = np.asarray(scores, dtype=np.float64)
    doc_ids = np.arange(len(scores), dtype=np.int64)[::-1].copy()  # non-trivial ids
    got = topk_indices(scores, doc_ids, k)
    order = np.lexsort((doc_ids, -scores))[: min(k, len(scores))]
    assert list(got) == list(order)


@settings(max_examples=150, deadline=None)
@given(st.text(min_size=1, max_size=30, alphabet=st.characters(min_codepoint=1, max_codepoint=0x10FFFF)))
def test_prefix_upper_bound_property(value):
    from librecatastro_ray.pipelines.query import _prefix_upper_bound

    ub = _prefix_upper_bound(value)
    if ub is None:
        assert all(ord(c) >= 0x10FFFF for c in value)
        return
    assert value < ub
    # every string with this prefix sorts below the bound
    for suffix in ("", "a", "￿", "zzz"):
        assert value + suffix < ub


def test_randomized_query_conformance(engine_and_oracle):
    """50 random match / bool queries: engine vs the pure-Python oracle,
    rank- and score-identical."""
    engine, oracle = engine_and_oracle
    rng = np.random.RandomState(99)
    vocab = sorted(oracle.postings)[:60]
    for i in range(50):
        nt = 1 + rng.randint(3)
        terms = [vocab[rng.randint(len(vocab))] for _ in range(nt)]
        k = int(1 + rng.randint(15))
        if i % 3 == 0:
            got = engine.match(" ".join(terms), k).to_pylist()
            exp = oracle.match(" ".join(terms), k)
        else:
            got = engine.bool_must(list(dict.fromkeys(terms)), k).to_pylist()
            exp = oracle.bool_must(list(dict.fromkeys(terms)), k)
        assert [r["doc_id"] for r in got] == [d for d, _ in exp], (i, terms)
        for row, (_, s) in zip(got, exp):
            assert abs(row["score"] - s) < 1e-9, (i, terms)


@pytest.fixture(scope="module")
def engine_and_oracle(built_index, oracle_small):
    from librecatastro_ray.pipelines.query import QueryEngine

    index_dir, _ = built_index
    return QueryEngine(index_dir), oracle_small


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_search_after_walk_is_a_partition_of_the_ranking(engine_and_oracle, k):
    """Cursor-paging invariant: walking pages of ANY size k via
    match_search_after visits the full ranking exactly once, in order —
    no document skipped, none repeated, regardless of score ties at page
    boundaries."""
    engine, _ = engine_and_oracle
    full = [r["doc_id"] for r in engine.match("def return", k=10**9).to_pylist()]
    walked: list[int] = []
    cursor = None
    for _ in range(len(full) + 2):  # bounded: must terminate
        page = engine.match_search_after("def return", k=k, after=cursor).to_pylist()
        if not page:
            break
        walked.extend(r["doc_id"] for r in page)
        cursor = (page[-1]["score"], page[-1]["doc_id"])
    assert walked == full


def _check_bounds_and_wand(idx: str, rng: np.random.RandomState) -> None:
    """Every derived block bound is >= the BM25 contribution of every
    posting in its block (and its last doc is the block's last), and
    match_wand answers exactly as match."""
    from librecatastro_ray.pipelines.query import QueryEngine

    eng = QueryEngine(idx)
    terms = eng.full_dictionary()["term"].to_pylist()
    B = eng.config.block_size
    for term in terms:
        w = float(eng.scorer.idf(eng.term_df(term), eng.n_docs))
        for salt in eng._salts(term):
            bm = eng._block_meta(term, salt)
            if bm is None:
                continue
            prev, last, maxtf = bm
            d, f, L = eng._run(term, salt)
            blk = np.arange(len(d)) // B
            assert len(last) == blk[-1] + 1
            assert (d > prev[blk]).all() and (d <= last[blk]).all(), term
            contrib = w * eng.scorer.tf_norm(f, L, eng.avgdl)
            assert (w * maxtf[blk] >= contrib).all(), (term, salt)
    for _ in range(6):
        text = " ".join(rng.choice(terms, size=rng.randint(1, 4)))
        k = int(rng.randint(1, 12))
        got, want = eng.match_wand(text, k=k), eng.match(text, k=k)
        assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist(), text
        np.testing.assert_allclose(got["score"].to_numpy(), want["score"].to_numpy(),
                                   rtol=0, atol=1e-6)


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_docs=st.integers(20, 90),
    n_add=st.integers(5, 40),
    block_size=st.integers(2, 9),
    mean_tokens=st.sampled_from([5, 30, 120]),
)
def test_derived_block_bounds_hold_across_add_and_delete(
    tmp_path_factory, seed, n_docs, n_add, block_size, mean_tokens
):
    """Block-max bounds are derived at each engine's avgdl, so they stay
    upper bounds (and WAND exact) after an add moves avgdl and after a
    delete."""
    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import add_documents, build_index
    from librecatastro_ray.pipelines.query import QueryEngine
    from librecatastro_ray.sources.synth import make_corpus
    from librecatastro_ray.state.manifest import delete_docs

    rng = np.random.RandomState(seed)
    idx = str(tmp_path_factory.mktemp("bounds") / "idx")
    cfg = IndexConfig(num_partitions=2, num_salts=2, block_size=block_size,
                      blocks_row_group_size=2)
    build_index(make_corpus(n_docs=n_docs, seed=seed, vocab_size=40, mean_tokens=mean_tokens),
                idx, cfg)
    avgdl = QueryEngine(idx).avgdl
    _check_bounds_and_wand(idx, rng)
    add_documents(make_corpus(n_docs=n_add, seed=seed + 1, vocab_size=40,
                              mean_tokens=3 * mean_tokens), idx)
    eng = QueryEngine(idx)
    assert eng.avgdl != avgdl
    _check_bounds_and_wand(idx, rng)
    delete_docs(idx, rng.choice(eng.n_docs, size=eng.n_docs // 3, replace=False))
    _check_bounds_and_wand(idx, rng)
