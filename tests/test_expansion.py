"""Wildcard + fuzzy term expansion (ES ``wildcard`` / ``fuzzy`` queries,
Lucene CONSTANT_SCORE_REWRITE): dictionary-scan expansions against pure-Python
oracles, the vectorized banded edit-distance DP against a scalar DP and
DuckDB's ``levenshtein`` (the SQL-oracle flavor), and the constant-score
union against a brute-force doc scan."""

import os
import random
import re

import duckdb
import numpy as np
import pyarrow.dataset as pads
import pytest

from librecatastro_ray.functions.editdist import osa_distance, osa_within
from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.pipelines.query import QueryEngine, wildcard_regex


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return QueryEngine(index_dir)


@pytest.fixture(scope="module")
def doc_vocab(engine):
    t = pads.dataset(os.path.join(engine.index_dir, "docs")).to_table(
        columns=["doc_id", "content"]
    )
    toks = {
        d: set(tokenize(c))
        for d, c in zip(t["doc_id"].to_pylist(), t["content"].to_pylist())
    }
    return toks, set().union(*toks.values())


def test_osa_within_matches_scalar_dp_and_duckdb():
    random.seed(13)
    alpha = "abcde_"
    terms = np.array(
        ["".join(random.choice(alpha) for _ in range(random.randint(0, 9))) for _ in range(2000)],
        dtype=object,
    )
    con = duckdb.connect()
    for q in ["abc", "e_dcba", "aa"]:
        for d in (1, 2):
            for tr in (True, False):
                got = osa_within(terms, q, d, transpositions=tr)
                want = np.array([osa_distance(t, q, transpositions=tr) <= d for t in terms])
                assert (got == want).all(), (q, d, tr)
            # Levenshtein flavor == DuckDB levenshtein (the oracle replay)
            nz = [t for t in terms if t]
            dd = np.array(
                [r[0] for r in con.execute(
                    "SELECT levenshtein(t, ?) <= ? FROM (SELECT unnest(?) AS t)",
                    [q, d, nz],
                ).fetchall()]
            )
            got_lev = osa_within(np.array(nz, dtype=object), q, d, transpositions=False)
            assert (got_lev == dd).all(), (q, d)


def test_transposition_flavor_differs_where_it_should():
    terms = np.array(["def"], dtype=object)
    assert osa_within(terms, "dfe", 1, transpositions=True)[0]
    assert not osa_within(terms, "dfe", 1, transpositions=False)[0]


def test_expand_wildcard_matches_python_re(engine, doc_vocab):
    _, vocab = doc_vocab
    for pat in ["id_0000*", "*lass", "d?f", "*", "zz*"]:
        rx = re.compile(wildcard_regex(pat))
        want = sorted(t for t in vocab if rx.match(t))
        assert engine.expand_wildcard(pat) == want, pat


def test_expand_fuzzy_matches_python_oracle(engine, doc_vocab):
    _, vocab = doc_vocab
    for q, d, tr in [("clasz", 1, True), ("dfe", 1, True), ("dfe", 1, False),
                     ("retur", 1, True), ("tble", 2, False)]:
        want = sorted(t for t in vocab if osa_distance(t, q, transpositions=tr) <= d)
        assert engine.expand_fuzzy(q, d, 0, tr) == want, (q, d, tr)


def test_fuzzy_prefix_length_narrows(engine, doc_vocab):
    _, vocab = doc_vocab
    got = engine.expand_fuzzy("clasz", 1, 2, True)
    want = sorted(
        t for t in vocab if t.startswith("cl") and osa_distance(t, "clasz") <= 1
    )
    assert got == want and got  # fires


def test_fuzzy_rejects_parameters_it_cannot_serve(engine):
    """max_edits outside {0, 1, 2}, a negative prefix_length or either one
    not an integer raises, naming the value, instead of answering empty."""
    for kwargs, bad in [({"max_edits": 3}, "got 3"), ({"max_edits": -1}, "got -1"),
                        ({"max_edits": 1.0}, "got 1.0"), ({"max_edits": None}, "got None"),
                        ({"prefix_length": -2}, "prefix_length .*got -2"),
                        ({"prefix_length": "2"}, "prefix_length .*got '2'")]:
        with pytest.raises(ValueError, match=bad):
            engine.expand_fuzzy("retur", **kwargs)
        with pytest.raises(ValueError, match=bad):
            engine.fuzzy_content("retur", **kwargs)


def test_constant_score_union_docs(engine, doc_vocab):
    toks, vocab = doc_vocab
    rx = re.compile(wildcard_regex("id_0000*"))
    terms = {t for t in vocab if rx.match(t)}
    want = sorted(d for d, ts in toks.items() if ts & terms)
    got = engine.wildcard_content("id_0000*", k=10**9)
    assert got["doc_id"].to_pylist() == want
    assert set(got["score"].to_pylist()) <= {1.0}
    # pagination keeps global ranks
    page = engine.wildcard_content("id_0000*", k=5, offset=3)
    assert page["doc_id"].to_pylist() == want[3:8]
    assert page["rank"].to_pylist() == list(range(4, 9))


def test_fuzzy_content_docs(engine, doc_vocab):
    toks, vocab = doc_vocab
    terms = {t for t in vocab if osa_distance(t, "retur") <= 1}
    want = sorted(d for d, ts in toks.items() if ts & terms)
    got = engine.fuzzy_content("retur", k=10**9)
    assert got["doc_id"].to_pylist() == want and want


def test_expansion_scatter_identical_to_single_engine(engine):
    """wildcard/fuzzy through the doc-range scatter path == direct engine."""
    from librecatastro_ray.pipelines.query import batch_search_scatter

    queries = [
        {"query_id": 0, "kind": "wildcard", "pattern": "id_0000*", "k": 12},
        {"query_id": 1, "kind": "fuzzy", "term": "retur", "k": 7, "from": 2},
        {"query_id": 2, "kind": "fuzzy", "term": "dfe", "k": 5,
         "transpositions": False},  # no hits in the Levenshtein flavor
    ]
    out = batch_search_scatter(engine.index_dir, queries, n_ranges=4)
    for q, want in [
        (queries[0], engine.wildcard_content("id_0000*", k=12)),
        (queries[1], engine.fuzzy_content("retur", k=7, offset=2)),
        (queries[2], engine.fuzzy_content("dfe", k=5, transpositions=False)),
    ]:
        got = out.filter(np.array(out["query_id"].to_numpy() == q["query_id"]))
        assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist(), q
        assert got["rank"].to_pylist() == want["rank"].to_pylist(), q


def test_no_match_expansions_empty(engine):
    assert engine.expand_wildcard("qqq*zzz") == []
    assert engine.wildcard_content("qqq*zzz").num_rows == 0
    assert engine.fuzzy_content("qqqqqqzzz").num_rows == 0
