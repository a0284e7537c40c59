"""The engine's query methods run the range evaluator over consecutive doc
ranges of at most ``DENSE_ACC_LIMIT`` docs and merge the partials in the
pinned (score desc, doc_id asc) order.  With the limit cut to a few docs
every kind runs over dozens of ranges, and each answer equals the
pure-Python oracle's: ids exact, scores within 1e-6, tombstoned docs never
returned.  A page's ``k`` and ``from`` are checked alike on every path."""

import os
import re
from collections import Counter

import numpy as np
import pyarrow.dataset as pads
import pytest

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.bm25 import idf, tf_norm
from librecatastro_ray.functions.editdist import osa_distance
from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.pipelines import query as qmod
from librecatastro_ray.pipelines.build import build_index
from librecatastro_ray.pipelines.query import QueryEngine, batch_search_scatter, wildcard_regex
from librecatastro_ray.state.manifest import delete_docs

SPAN = 7  # docs per range


@pytest.fixture(scope="module")
def spans(tmp_path_factory, corpus_small, oracle_small):
    """(engine over ranges of SPAN docs, oracle, tombstoned ids, doc
    tokens) for a positional index of the oracle's corpus with every 11th
    doc deleted."""
    idx = str(tmp_path_factory.mktemp("spans") / "idx")
    build_index(corpus_small, idx, IndexConfig(num_partitions=4, num_salts=2, block_size=16,
                                               blocks_row_group_size=5, positions=True))
    dead = np.arange(3, oracle_small.n_docs, 11)
    delete_docs(idx, dead)
    t = pads.dataset(os.path.join(idx, "docs")).to_table(columns=["doc_id", "content"])
    tokens = {d: tokenize(c) for d, c in zip(t["doc_id"].to_pylist(), t["content"].to_pylist())}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmod, "DENSE_ACC_LIMIT", SPAN)
        eng = QueryEngine(idx)
        assert len(eng._ranges()) == -(-eng.n_docs // SPAN) > 50
        yield eng, oracle_small, set(dead.tolist()), tokens


def _ordered(scores: dict[int, float], dead: set[int]) -> list[tuple[int, float]]:
    return sorted(((d, s) for d, s in scores.items() if d not in dead),
                  key=lambda kv: (-kv[1], kv[0]))


def _assert_page(table, want: list[tuple[int, float]], offset: int = 0) -> None:
    got = table.to_pylist()
    assert [r["doc_id"] for r in got] == [d for d, _ in want]
    assert [r["rank"] for r in got] == list(range(offset + 1, offset + len(want) + 1))
    for row, (_, s) in zip(got, want):
        assert abs(row["score"] - s) <= 1e-6, row


def _union(oracle, terms, dead: set[int]) -> list[int]:
    return sorted({d for t in terms for d in oracle.postings.get(t, {})} - dead)


def _bool_want(oracle, dead, must=(), should=(), must_not=(), msm=0):
    """Brute-force bool: every must term, at least ``msm`` distinct should
    terms (at least one when nothing else is required) and no must_not
    term; clause scores summed in clause order; a must_not-only query
    scores every doc 1.0."""
    if not must and not should:
        docs, scores = set(range(oracle.n_docs)), dict.fromkeys(range(oracle.n_docs), 1.0)
    else:
        docs, scores, n_should = set(range(oracle.n_docs)), Counter(), Counter()
        for t in must:
            ts = oracle.score_term(t)
            docs &= set(ts)
            for d, s in ts.items():
                scores[d] += s
        for t in should:
            for d, s in oracle.score_term(t).items():
                scores[d] += s
        for t in set(should):
            n_should.update(oracle.postings.get(t, {}).keys())
        need = msm if must else max(msm, 1)
        docs = {d for d in docs if n_should[d] >= need}
    for t in must_not:
        docs -= set(oracle.postings.get(t, {}))
    return _ordered({d: scores[d] for d in docs}, dead)


def _phrase_want(oracle, tokens, dead, text):
    terms = tokenize(text)
    m = len(terms)
    w = 0.0
    for t in terms:
        w += float(idf(len(oracle.postings.get(t, {})), oracle.n_docs))
    scores = {}
    for d, toks in tokens.items():
        pf = sum(toks[i:i + m] == terms for i in range(len(toks) - m + 1))
        if pf:
            scores[d] = w * float(tf_norm(np.array([pf]), np.array([oracle.dl[d]]),
                                          oracle.avgdl, oracle.k1, oracle.b)[0])
    return _ordered(scores, dead)


def _terms(oracle) -> tuple[list[str], list[str]]:
    """(the 6 most frequent terms, 6 terms of df 2..5)."""
    by_df = sorted(oracle.postings, key=lambda t: (-len(oracle.postings[t]), t))
    return by_df[:6], [t for t in by_df if 2 <= len(oracle.postings[t]) <= 5][:6]


def test_ranked_kinds_over_many_ranges_equal_the_oracle(spans):
    eng, oracle, dead, tokens = spans
    hot, rare = _terms(oracle)
    for text in [hot[0], f"{hot[1]} {rare[0]}", f"{rare[1]} {rare[2]} {rare[1]}", "zzz_absent"]:
        full = _ordered(dict(oracle.match(text, k=10**9)), dead)
        for k, offset in [(10, 0), (4, 3), (10**6, 0), (0, 2)]:
            _assert_page(eng.match(text, k=k, offset=offset), full[offset:offset + k], offset)
            _assert_page(eng.match_wand(text, k=k, offset=offset), full[offset:offset + k], offset)
    for must, should, must_not, msm in [
        ([hot[0]], [hot[2], rare[0]], [hot[3]], 0),
        ([hot[0], hot[1]], [hot[2], hot[3], hot[2]], [], 2),
        ([], [rare[0], hot[4], rare[0]], [], 0),
        ([], [], [hot[5], rare[3]], 0),
        ([rare[4]], [], [], 0),
    ]:
        want = _bool_want(oracle, dead, must, should, must_not, msm)
        got = eng.bool_must(must, k=10**6, should_terms=should, must_not_terms=must_not,
                            minimum_should_match=msm or None)
        _assert_page(got, want)
        _assert_page(eng.bool_must(must, k=5, offset=2, should_terms=should,
                                   must_not_terms=must_not, minimum_should_match=msm or None),
                     want[2:7], 2)
    lang, path = oracle.langs[0], oracle.paths[0][:3]
    want = _ordered(dict(oracle.bool_must([hot[0]], k=10**9, keyword_eq=[("lang", lang)],
                                          keyword_prefix=[("path", path)])), dead)
    _assert_page(eng.bool_must([hot[0]], k=10**6, keyword_eq=[("lang", lang)],
                               keyword_prefix=[("path", path)]), want)
    for text in [f"{hot[0]} {hot[1]}", f"{hot[1]} {hot[0]} {hot[1]}", rare[0], f"{rare[0]} {hot[0]}"]:
        want = _phrase_want(oracle, tokens, dead, text)
        _assert_page(eng.match_phrase(text, k=10**6), want)
        _assert_page(eng.match_phrase(text, k=3, offset=1), want[1:4], 1)


def test_search_after_pages_over_many_ranges_walk_the_ranking(spans):
    eng, oracle, dead, _ = spans
    hot, rare = _terms(oracle)
    text = f"{hot[0]} {rare[0]}"
    full = _ordered(dict(oracle.match(text, k=10**9)), dead)
    for k in (1, 4, 9):
        walked, cursor = [], None
        while page := eng.match_search_after(text, k=k, after=cursor).to_pylist():
            _assert_page(eng.match_search_after(text, k=k, after=cursor),
                         full[len(walked):len(walked) + k])
            walked += page
            cursor = (page[-1]["score"], page[-1]["doc_id"])
        assert [r["doc_id"] for r in walked] == [d for d, _ in full]


def test_hit_sets_and_expansions_over_many_ranges_equal_the_oracle(spans):
    eng, oracle, dead, _ = spans
    hot, rare = _terms(oracle)
    vocab = sorted(oracle.postings)
    for text in [hot[0], f"{rare[0]} {rare[1]}", f"{hot[2]} {rare[2]}", "zzz_absent"]:
        want = _union(oracle, tokenize(text), dead)
        assert eng.count(text) == len(want), text
        assert eng.match_hits(text).tolist() == want, text
    for prefix in [hot[0][:1], rare[0][:2], hot[1], "zzz"]:
        want = _ordered(dict(oracle.prefix_content(prefix, k=10**9)), dead)
        _assert_page(eng.prefix_content(prefix, k=10**6), want)
        _assert_page(eng.prefix_content(prefix, k=5, offset=4), want[4:9], 4)
    for pattern in [hot[0][:2] + "*", "?" + rare[0][1:], "*" + hot[1][-2:]]:
        rx = re.compile(wildcard_regex(pattern))
        want = [(d, 1.0) for d in _union(oracle, [t for t in vocab if rx.match(t)], dead)]
        _assert_page(eng.wildcard_content(pattern, k=10**6), want)
    for term, edits, prefix_length in [(hot[0][:-1] + "q", 1, 0), (rare[0], 2, 1), (hot[1], 0, 0)]:
        near = [t for t in vocab if t.startswith(term[:prefix_length])
                and osa_distance(t, term, True) <= edits]
        want = [(d, 1.0) for d in _union(oracle, near, dead)]
        _assert_page(eng.fuzzy_content(term, k=10**6, max_edits=edits,
                                       prefix_length=prefix_length), want)
        _assert_page(eng.fuzzy_content(term, k=3, offset=2, max_edits=edits,
                                       prefix_length=prefix_length), want[2:5], 2)


def test_k_and_from_are_checked_alike_on_every_path(built_index):
    """``k=0`` asks for no hits on the engine and in a batch; a missing or
    None ``k`` is 10; a negative ``k`` or ``from`` raises ``ValueError``
    on every path instead of answering some other page."""
    idx, _ = built_index
    eng = QueryEngine(idx)
    text = "def return"
    assert eng.match(text, k=0).num_rows == 0
    base = {"kind": "match", "text": text}
    got = batch_search_scatter(idx, [{**base, "query_id": 0, "k": 0},
                                     {**base, "query_id": 1},
                                     {**base, "query_id": 2, "k": None, "from": None},
                                     {**base, "query_id": 3, "k": 3, "from": 2}], n_ranges=2)
    rows = got.to_pylist()
    by_q = {q: [(r["rank"], r["doc_id"], r["score"]) for r in rows if r["query_id"] == q]
            for q in range(4)}
    assert by_q[0] == []
    want = [tuple(r.values()) for r in eng.match(text, k=10).to_pylist()]
    assert by_q[1] == by_q[2] == want and len(want) == 10
    assert by_q[3] == want[2:5]
    calls = [
        lambda k, o: eng.match(text, k=k, offset=o),
        lambda k, o: eng.match_wand(text, k=k, offset=o),
        lambda k, o: eng.bool_must(["def"], k=k, offset=o),
        lambda k, o: eng.prefix_content("de", k=k, offset=o),
        lambda k, o: eng.fuzzy_content("def", k=k, offset=o),
        lambda k, o: eng.sort_by_field(text, "path", k=k, offset=o),
    ]
    with pytest.raises(ValueError, match="k and from must be non-negative"):
        eng.match_search_after(text, k=-1)
    for k, offset in [(-1, 0), (10, -2)]:
        for call in calls:
            with pytest.raises(ValueError, match="k and from must be non-negative"):
                call(k, offset)
        bad = {**base, "query_id": 7, "k": k, "from": offset}
        with pytest.raises(ValueError, match=r"query 7: k and from must be non-negative"):
            batch_search_scatter(idx, [bad], n_ranges=2)
