"""Hot terms are salted by an absolute postings budget, one posting row
group (``blocks_row_group_size × block_size``), into contiguous doc-id
ranges of their segment: salt s of a hot term in a segment of base b holds
docs [b + s × W, b + (s + 1) × W), its last salt the rest, so its runs in
(segment, salt) order are doc order.  With a tiny budget, range-salted runs
exist, every run is doc-sorted and inside its range, and every query kind
answers as the pure-Python oracle, before and after an add, which writes a
segment with its own hot terms and salt width.  Above the budget the hot
terms are the sampled df of the committed (deduped) docs; below it nothing
is salted and the hot-term sample is never tokenized."""

import hashlib
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.bm25 import idf, tf_norm
from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.oracle import OracleIndex
from librecatastro_ray.pipelines import build as bmod
from librecatastro_ray.pipelines import query as qmod
from librecatastro_ray.pipelines.build import add_documents, build_index
from librecatastro_ray.pipelines.query import QueryEngine, batch_search_scatter
from librecatastro_ray.state.manifest import load_manifest

VOCAB = [f"w{i}" for i in range(24)]


def _corpus(rng: np.random.RandomState, n: int) -> pa.Table:
    """``n`` docs of Zipf-skewed tokens whose (repo, path) order is their
    row order, so a prefix of rows builds and the rest adds with the ids an
    oracle over all rows assigns."""
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    p /= p.sum()
    return pa.table({
        "repo": pa.array(["r"] * n, pa.string()),
        "path": pa.array([f"f{i:05d}.py" for i in range(n)], pa.string()),
        "commit": pa.array(["c"] * n, pa.string()),
        "lang": pa.array(rng.choice(["py", "js"], size=n).tolist(), pa.string()),
        "content": pa.array([" ".join(rng.choice(VOCAB, size=rng.randint(1, 30), p=p))
                             for _ in range(n)], pa.string()),
    })


def _oracle(corpus: pa.Table) -> tuple[OracleIndex, dict[int, list[str]]]:
    c = corpus.to_pydict()
    oracle = OracleIndex.build(c["repo"], c["path"], c["lang"], c["content"])
    return oracle, {d: tokenize(t) for d, t in enumerate(c["content"])}


def _check_runs(eng: QueryEngine, build_n: int) -> None:
    """Every run is strictly doc-sorted and inside its segment; a hot term's
    salt s run lies in its segment's doc range s; some hot term has several
    runs in the build's segment, whose salt width is the build's."""
    S = eng.config.num_salts
    segs = eng.manifest["segments"]
    assert segs[0]["salt_width"] == build_n // S and segs[0]["n_docs"] == build_n
    multi = 0
    for term in eng.full_dictionary()["term"].to_pylist():
        salts = eng._salts(term)
        assert salts == [(i, s) for i, seg in enumerate(segs)
                         for s in (range(S) if term in seg["hot_terms"] else [0])]
        runs = 0
        for i, salt in salts:
            run = eng._run(term, (i, salt))
            if run is None:
                continue
            d = run[0]
            base, W, n = segs[i]["base"], segs[i]["salt_width"], segs[i]["n_docs"]
            runs += i == 0
            assert (np.diff(d) > 0).all(), (term, salt)
            assert base <= d[0] and d[-1] < base + n, (term, i, salt)
            if term in segs[i]["hot_terms"]:
                assert d[0] >= base + salt * W, (term, i, salt)
                assert salt == S - 1 or d[-1] < base + (salt + 1) * W, (term, i, salt)
        multi += runs > 1
    assert multi > 0, "needs range-salted runs"


def _assert_page(table, want) -> None:
    got = table.to_pylist()
    assert [r["doc_id"] for r in got] == [d for d, _ in want]
    for row, (_, s) in zip(got, want):
        assert abs(row["score"] - s) <= 1e-6, row


def _phrase_want(oracle: OracleIndex, tokens: dict, terms: list[str], k: int):
    m = len(terms)
    w = sum(float(idf(len(oracle.postings.get(t, {})), oracle.n_docs)) for t in terms)
    scores = {}
    for d, toks in tokens.items():
        pf = sum(toks[i:i + m] == terms for i in range(len(toks) - m + 1))
        if pf:
            scores[d] = w * float(tf_norm(np.array([pf]), np.array([oracle.dl[d]]),
                                          oracle.avgdl, oracle.k1, oracle.b)[0])
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def _check_answers(eng: QueryEngine, oracle: OracleIndex, tokens: dict,
                   rng: np.random.RandomState) -> None:
    hot = sorted(eng.hot)
    terms = VOCAB + ["absent"]
    texts = [" ".join(hot[:2]), hot[0]] + [" ".join(rng.choice(terms, size=rng.randint(1, 4)))
                                            for _ in range(4)]
    for text in texts:
        for k in (3, 1000):
            _assert_page(eng.match(text, k=k), oracle.match(text, k=k))
            _assert_page(eng.match_wand(text, k=k), oracle.match(text, k=k))
        toks = tokenize(text)
        _assert_page(eng.bool_must(toks, k=1000), oracle.bool_must(toks, k=1000))
        _assert_page(eng.bool_must(toks[:1], k=1000, keyword_eq=[("lang", "py")]),
                     oracle.bool_must(toks[:1], k=1000, keyword_eq=[("lang", "py")]))
        _assert_page(eng.match_phrase(text, k=1000), _phrase_want(oracle, tokens, toks, 1000))
        assert eng.count(text) == oracle.count(text), text
    for prefix in ("w", "w1", hot[0], "z"):
        _assert_page(eng.prefix_content(prefix, k=1000), oracle.prefix_content(prefix, k=1000))


def _check(idx: str, corpus: pa.Table, build_n: int, rng: np.random.RandomState) -> None:
    oracle, tokens = _oracle(corpus)
    eng = QueryEngine(idx)
    assert eng.n_docs == oracle.n_docs and not len(eng._deleted)
    _check_runs(eng, build_n)
    _check_answers(eng, oracle, tokens, rng)
    # the evaluator over ranges of a few docs, each range slicing the
    # concatenated salt runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmod, "DENSE_ACC_LIMIT", 5)
        _check_answers(QueryEngine(idx), oracle, tokens, rng)
    hot = sorted(eng.hot)
    queries = [{"query_id": i, "kind": "match_phrase", "text": f"{a} {b}", "k": 50}
               for i, (a, b) in enumerate([(hot[0], hot[-1]), (hot[-1], hot[0]), (hot[0], hot[0])])]
    got = batch_search_scatter(idx, queries, n_ranges=3).to_pylist()
    for q in queries:
        want = [(r["doc_id"], r["score"]) for r in eng.match_phrase(q["text"], k=50).to_pylist()]
        assert [(r["doc_id"], r["score"]) for r in got if r["query_id"] == q["query_id"]] == want


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), n_docs=st.integers(30, 70), n_add=st.integers(3, 15),
       num_salts=st.integers(2, 4))
def test_range_salted_index_equals_the_oracle_before_and_after_an_add(
    tmp_path_factory, seed, n_docs, n_add, num_salts
):
    rng = np.random.RandomState(seed)
    corpus = _corpus(rng, n_docs + n_add)
    idx = str(tmp_path_factory.mktemp("range_salts") / "idx")
    cfg = IndexConfig(num_partitions=2, num_salts=num_salts, block_size=4,
                      blocks_row_group_size=2, positions=True)
    build_index(corpus.slice(0, n_docs), idx, cfg)
    assert QueryEngine(idx).hot
    _check(idx, corpus.slice(0, n_docs), n_docs, rng)
    add_documents(corpus.slice(n_docs), idx)
    _check(idx, corpus, n_docs, rng)


def test_below_budget_build_salts_nothing_and_samples_nothing(tmp_path, corpus_small,
                                                             monkeypatch):
    """An index of at most one posting row group of docs has no hot term:
    the hot-term pass returns without tokenizing a sample, every term is
    one run in salt 0 of each segment, and an add writes only the
    partitions its own spill holds."""
    calls = []
    estimate = bmod.estimate_hot_terms

    def traced(*args):
        calls.append(estimate(*args))
        return calls[-1]

    def never(*_args, **_kwargs):
        raise AssertionError("the hot-term sample was tokenized")

    monkeypatch.setattr(bmod, "estimate_hot_terms", traced)
    monkeypatch.setattr(bmod, "_sample_term_counts", never)
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=4, num_salts=3, block_size=16, positions=True)
    n = corpus_small.num_rows
    m = build_index(corpus_small.slice(0, n - 40), idx, cfg)["manifest"]
    assert m["n_docs"] <= cfg.hot_postings_budget
    assert calls == [[]] and m["segments"][0]["hot_terms"] == []
    assert {p["salt"] for p in m["segments"][0]["partitions"].values()} == {0}
    add_documents(corpus_small.slice(n - 40), idx)
    eng = QueryEngine(idx)
    base, seg = eng.manifest["segments"]
    assert base == m["segments"][0] and seg["hot_terms"] == []
    assert {p["salt"] for p in seg["partitions"].values()} == {0}
    assert set(seg["partitions"]) <= {str(p * cfg.num_salts) for p in range(4)}
    assert sorted(os.listdir(os.path.join(idx, seg["parts"]))) == sorted(
        f"{kind}-{p['pkey']:04d}-00.parquet" for kind in ("blocks", "dict")
        for p in seg["partitions"].values())
    assert all(salt == 0 for t in eng.full_dictionary()["term"].to_pylist()
               for _seg, salt in eng._salts(t))
    assert Counter(eng.export_postings()["term"].to_pylist()) == Counter(
        dict(zip(*[eng.full_dictionary()[c].to_pylist() for c in ("term", "df")])))


def _with_losers(table: pa.Table, n_dups: int) -> pa.Table:
    """``table`` plus a losing duplicate of each of its first ``n_dups``
    keys: the same (repo, path), a smaller content sha256 (the dedup keeps
    the greatest) and the token ``lost``, which no winner holds."""
    def sha(c):
        return hashlib.sha256(c.encode()).hexdigest()

    rows = table.to_pylist()
    losers = []
    for r in rows[:n_dups]:
        c = "lost " * 5 + r["content"]
        while sha(c) > sha(r["content"]):
            c = "lost " + c
        losers.append(dict(r, content=c))
    return pa.Table.from_pylist(rows + losers)


def test_hot_terms_are_the_sampled_df_of_the_committed_docs(tmp_path):
    """Above the budget, the hot terms of a build and of an add are exactly
    the terms whose df over the segment's committed docs with
    ``doc_id % mod == 0``, scaled to the segment, exceeds the budget: the
    sample is drawn after the dedup, from the id-stamped winners, so the
    duplicates that lost never count."""
    rng = np.random.RandomState(4)
    cfg = IndexConfig(num_partitions=2, num_salts=2, block_size=4, blocks_row_group_size=2,
                      hot_sample_target=10)
    corpus = _corpus(rng, 120)
    idx = str(tmp_path / "idx")
    build_index(_with_losers(corpus.slice(0, 80), 40), idx, cfg)
    add_documents(_with_losers(corpus.slice(80), 20), idx)
    segs = load_manifest(idx)["segments"]
    assert [s["n_docs"] for s in segs] == [80, 40]
    for seg in segs:
        docs = pads.dataset([os.path.join(idx, f) for f in seg["docs"]],
                            format="parquet").to_table(columns=["doc_id", "content"])
        n = seg["n_docs"]
        mod = n // cfg.hot_sample_target
        assert mod > 1
        sample = [c for d, c in zip(docs["doc_id"].to_pylist(), docs["content"].to_pylist())
                  if d % mod == 0]
        df = Counter(t for c in sample for t in set(tokenize(c)))
        want = sorted(t for t, f in df.items() if f * n > cfg.hot_postings_budget * len(sample))
        assert want and set(want) < set(df)
        assert seg["hot_terms"] == want
