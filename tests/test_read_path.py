"""The engine's read path: a term's postings are row-span slices of posting
files read once per engine, and prefix/wildcard/fuzzy expand over one sorted
vocabulary.  Each reader is pinned against a direct ``pq.read_table`` of the
dictionary and posting files, on every index generation a write can leave,
and each expansion against a brute-force scan of the dictionary."""

import math
import os
import random
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions import bm25
from librecatastro_ray.functions.editdist import osa_distance, osa_within
from librecatastro_ray.functions.hashing import term_hash
from librecatastro_ray.pipelines import query as qmod
from librecatastro_ray.pipelines.build import add_documents, build_index, compact_index
from librecatastro_ray.pipelines.query import QueryEngine, wildcard_regex
from librecatastro_ray.sources.synth import make_corpus
from librecatastro_ray.stages.merge import blocks_file, dict_file
from librecatastro_ray.state.manifest import (
    INDEX_FORMAT_VERSION,
    delete_docs,
    drop_index,
    load_manifest,
    save_manifest,
)

# tiny blocks and row groups: term spans cross row-group boundaries, and
# terms of more than one row group's postings (28) are salted
CFG = IndexConfig(num_partitions=3, num_salts=2, block_size=4, blocks_row_group_size=7,
                  positions=True)


def _postings(docs, tfs, dls, pos) -> list[tuple]:
    ends = np.cumsum(tfs)
    return [(int(d), int(f), int(L), tuple(pos[e - f:e].tolist()))
            for d, f, L, e in zip(docs, tfs, dls, ends)]


def _positional(eng: QueryEngine, term: str, sel: np.ndarray | None = None) -> list[tuple]:
    """A term's doc-sorted (doc, tf, dl, positions) postings through the
    engine's positional reads, restricted to the sorted docs ``sel`` when
    given: each salt run's rows and positions are read as a phrase reads
    its candidates (``_candidate_positions``)."""
    out = []
    for salt in eng._salts(term):
        s = eng._slice(term, salt, positions=True)
        if s is None:
            continue
        cand = s.doc if sel is None else sel
        _hit, rows, pos = qmod._candidate_positions((s.doc, s.tf, s.values, s.offsets), cand)
        out += _postings(s.doc[rows], s.tf[rows], s.dl[rows], pos)
    return sorted(out)


def _direct(eng: QueryEngine, term: str) -> tuple[list[tuple], dict]:
    """A term's doc-sorted (doc, tf, dl, positions) postings and per-run
    (last_doc, max_tfnorm) block metadata, by whole-file parquet reads of
    its dictionary (for its row span) and its posting file in each
    (segment, salt) the manifest's segments give it; the bounds are
    recomputed from those postings at the engine's avgdl."""
    rows, meta = [], {}
    B = eng.config.block_size
    for seg_i, seg in enumerate(eng.manifest["segments"]):
        pk = term_hash(term) % seg["num_partitions"]
        for salt in range(eng.config.num_salts) if term in seg["hot_terms"] else [0]:
            meta[(seg_i, salt)] = None
            path = dict_file(eng.index_dir, pk, salt, seg["parts"])
            d = pq.read_table(path).to_pydict() if os.path.exists(path) else {"term": []}
            if term not in d["term"]:
                continue
            i = d["term"].index(term)
            first, n = sum(d["df"][:i]), d["df"][i]
            bt = pq.read_table(blocks_file(eng.index_dir, pk, salt, seg["parts"]))
            assert bt.column_names == ["doc", "tf", "dl", "positions"]
            p = bt.slice(first, n).to_pydict()
            rows += [(doc, f, L, tuple(pos))
                     for doc, f, L, pos in zip(p["doc"], p["tf"], p["dl"], p["positions"])]
            tn = bm25.tf_norm(np.array(p["tf"]), np.array(p["dl"]), eng.avgdl,
                              eng.config.k1, eng.config.b)
            meta[(seg_i, salt)] = ([p["doc"][min(s + B, n) - 1] for s in range(0, n, B)],
                                   [float(tn[s:s + B].max()) for s in range(0, n, B)])
    return sorted(rows), meta


def _check_readers(index_dir: str) -> None:
    engines = [QueryEngine(index_dir), QueryEngine(index_dir)]
    engines[1]._rowgroup_cache_cap = 0  # evict on every miss
    terms = engines[0].full_dictionary()["term"].to_pylist()
    assert any(len(engines[0]._salts(t)) > 1 for t in terms), "needs salted hot terms"
    rng = random.Random(5)
    for term in terms:
        want, meta = _direct(engines[0], term)
        assert want, term
        docs = [p[0] for p in want]
        sel = np.array(sorted(set(rng.sample(docs, (len(docs) + 1) // 2))
                              | set(range(0, engines[0].n_docs, 7))), dtype=np.int64)
        for eng in engines:
            d, f, L = eng.load_postings(term)
            assert list(zip(d.tolist(), f.tolist(), L.tolist())) == [p[:3] for p in want], term
            assert _positional(eng, term) == want, term
            assert _positional(eng, term, sel) == [
                p for p in want if p[0] in set(sel.tolist())
            ], term
            for salt, m in meta.items():
                bm = eng._block_meta(term, salt)
                if m is None:
                    assert bm is None, (term, salt)
                    continue
                prev, last, maxtf = bm
                assert last.tolist() == m[0] and maxtf.tolist() == m[1], (term, salt)
                assert prev.tolist() == [-1] + m[0][:-1], (term, salt)


def test_readers_equal_filtered_parquet_decode_across_generations(tmp_path):
    idx = str(tmp_path / "idx")
    build_index(make_corpus(n_docs=150, seed=7, vocab_size=120, mean_tokens=25), idx, CFG)
    _check_readers(idx)
    # a second batch whose keys partly collide: upserts + a second segment
    add_documents(make_corpus(n_docs=40, seed=8, vocab_size=120, mean_tokens=25), idx)
    assert len(QueryEngine(idx).manifest["segments"]) == 2
    _check_readers(idx)
    delete_docs(idx, np.arange(0, 150, 9))
    _check_readers(idx)
    tgt = str(tmp_path / "compacted")
    compact_index(idx, tgt)
    _check_readers(tgt)


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("drift") / "idx")
    build_index(make_corpus(n_docs=80, seed=3, vocab_size=60, mean_tokens=20), idx, CFG)
    return idx


def test_dictionary_drift_raises_naming_the_file(small_index, tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(small_index, idx)
    eng = QueryEngine(idx)
    path = dict_file(idx, 0, 0, eng._seg_parts[0])
    d = pq.read_table(path)
    df = d["df"].to_numpy().copy()
    df[0] += CFG.block_size  # one more block than the file holds
    pq.write_table(d.set_column(1, "df", pa.array(df, pa.int64())), path)
    eng = QueryEngine(idx)
    with pytest.raises(ValueError, match=re.escape(blocks_file(idx, 0, 0, eng._seg_parts[0]))):
        eng.load_postings(d["term"][0].as_py())


def test_positions_drift_raises_naming_the_file(small_index, tmp_path):
    """A posting whose position list is one shorter than its tf: the doc
    columns still read, a positional read raises naming the file."""
    idx = str(tmp_path / "idx")
    shutil.copytree(small_index, idx)
    eng = QueryEngine(idx)
    path = blocks_file(idx, 0, 0, eng._seg_parts[0])
    bt = pq.read_table(path)
    lists = bt["positions"].to_pylist()
    lists[0] = lists[0][:-1]
    i = bt.column_names.index("positions")
    pq.write_table(bt.set_column(i, "positions", pa.array(lists, bt.schema.field(i).type)), path)
    term = pq.read_table(dict_file(idx, 0, 0, eng._seg_parts[0]))["term"][0].as_py()
    eng.load_postings(term)  # the posting file still matches its dictionary
    with pytest.raises(ValueError, match=re.escape(path)):
        _positional(eng, term)


def test_index_of_another_format_version_is_refused(small_index, tmp_path):
    """An index whose manifest names another format version is refused by
    every reader and writer, naming both versions; a build over it
    rebuilds instead of returning it."""
    idx = str(tmp_path / "idx")
    shutil.copytree(small_index, idx)
    m = load_manifest(idx)
    assert m["version"] == INDEX_FORMAT_VERSION == 6
    save_manifest(idx, dict(m, version=5))
    refused = re.escape(f"format version 5; this code reads version {INDEX_FORMAT_VERSION}")
    with pytest.raises(ValueError, match=refused):
        QueryEngine(idx)
    with pytest.raises(ValueError, match=refused):
        add_documents(make_corpus(n_docs=5, seed=9, vocab_size=60, mean_tokens=20), idx)
    with pytest.raises(ValueError, match=refused):
        compact_index(idx, str(tmp_path / "compacted"))
    r = build_index(make_corpus(n_docs=80, seed=3, vocab_size=60, mean_tokens=20), idx, CFG)
    assert r["report"]["phases_skipped"] != ["all"]
    assert load_manifest(idx) == m


def test_term_caches_hold_owned_arrays_not_row_group_views(small_index):
    """The engine's per-term caches hold owned arrays: a term read is a
    view of a cached row group, and a cached view would keep its whole row
    group alive after the byte-bounded row-group LRU evicts it, uncounted
    by either bound.  A range engine caches no term: its term reads are
    views of the engine's cached arrays."""
    eng = QueryEngine(small_index)
    eng._rowgroup_cache_cap = 0  # evict on every miss
    rng = qmod.RangeEngine(eng, 0, eng.n_docs // 2)
    terms = eng.full_dictionary()["term"].to_pylist()
    assert any(len(eng._salts(t)) == 1 for t in terms), "needs single-run terms"
    for term in terms:
        eng._term_contribution(term)
        for got, cached in ((rng._contribution_range(term), eng._contrib_cache[term]),
                            (rng._postings_range(term), eng._postings_cache[term])):
            assert all(a is c or a.base is c for a, c in zip(got, cached)), term
    assert len(eng._rowgroup_cache) == 1
    for cache in (eng._postings_cache, eng._contrib_cache):
        assert len(cache) == len(terms)
        for term, arrays in cache.items():
            assert all(a.base is None for a in arrays), term
    assert set(vars(rng)) == {"eng", "lo", "hi", "_bounds", "_tombstones", "_dead_local",
                              "_prefix_docs", "_prefix_size"}


def test_engine_of_a_replaced_generation_raises_not_empty(tmp_path):
    """An engine whose index was dropped under it reads terms it has not
    read yet: it raises, naming the file and the index, and never
    answers empty — from a dictionary, a posting file footer, a row group or
    a positions column.  (No add or delete removes a file an engine can
    read; ``test_add.py`` pins that.)"""
    idx = str(tmp_path / "idx")
    corpus = make_corpus(n_docs=120, seed=5, vocab_size=80, mean_tokens=20)
    build_index(corpus.slice(0, 100), idx, CFG)
    terms = QueryEngine(idx).full_dictionary()["term"].to_pylist()
    old = QueryEngine(idx)
    warm = terms[0]
    want = old.match(warm, k=5).to_pylist()
    dict_only = QueryEngine(idx)
    for term in terms:
        dict_only.term_df(term)
    drop_index(idx)
    assert old.match(warm, k=5).to_pylist() == want  # read before the drop
    cold = [t for t in terms if old._pkey(t, 0) != old._pkey(warm, 0)]
    assert cold
    for term in cold:
        with pytest.raises(FileNotFoundError, match=r"dict-.*is gone: the 1-segment index "):
            old.match(term, k=5)
    # the warm term's dictionary and doc columns are cached, its positions
    # column is not
    with pytest.raises(FileNotFoundError, match=r"blocks-.*is gone: the 1-segment index "):
        old.match_phrase(warm, k=5)
    # every dictionary cached, no posting file footer read yet
    for term in terms:
        with pytest.raises(FileNotFoundError, match=r"blocks-.*is gone: the 1-segment index "):
            dict_only.match(term, k=5)
    # footer cached, row groups evicted
    old._rowgroup_cache.clear()
    salt = next(s for s in old._salts(warm) if old._span(warm, s) is not None)
    with pytest.raises(FileNotFoundError, match=r"blocks-.*is gone: the 1-segment index "):
        old._slice(warm, salt)


def test_phrase_on_an_index_without_positions_says_so(tmp_path):
    """An index built without positions is diagnosed as such, not as a
    replaced generation."""
    idx = str(tmp_path / "idx")
    build_index(make_corpus(n_docs=40, seed=5, vocab_size=30, mean_tokens=10), idx,
                IndexConfig(num_partitions=3, num_salts=2, block_size=4))
    eng = QueryEngine(idx)
    term = eng.full_dictionary()["term"][0].as_py()
    with pytest.raises(ValueError, match="built without positions"):
        eng.match_phrase(term, k=5)
    with pytest.raises(ValueError, match="has no positions"):
        _positional(eng, term)


def test_unlisted_partition_is_empty(tmp_path):
    """A (partition, salt) no posting hashed to is absent from the manifest
    and has no files: the engine reads it as empty."""
    idx = str(tmp_path / "idx")
    # a hot postings budget of 1, so the segment keeps all 32 partitions
    cfg = IndexConfig(num_partitions=32, num_salts=1, block_size=1, blocks_row_group_size=1)
    build_index(make_corpus(n_docs=8, seed=1, vocab_size=10, mean_tokens=3), idx, cfg)
    eng = QueryEngine(idx)
    assert eng.manifest["segments"][0]["num_partitions"] == cfg.num_partitions
    partitions = eng.manifest["segments"][0]["partitions"]
    assert len(partitions) < cfg.num_partitions
    n_terms = sum(p["n_terms"] for p in partitions.values())
    assert len(eng.full_dictionary()) == n_terms


# a vocabulary with code points next to the surrogate gap and at the top of
# the code space, where the prefix upper bound must skip or give up
ALPHABET = ["a", "b", "_", "\ud7ff", "\ue000", "\U0010fffe", "\U0010ffff"]


@pytest.fixture(scope="module")
def unicode_engine(tmp_path_factory):
    rng = random.Random(11)
    vocab = sorted({"".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 4)))
                    for _ in range(300)})
    docs = [" ".join(rng.sample(vocab, 12)) for _ in range(40)]
    corpus = pa.table({
        "repo": pa.array(["r"] * len(docs), pa.string()),
        "path": pa.array([f"f{i}.txt" for i in range(len(docs))], pa.string()),
        "commit": pa.array(["c"] * len(docs), pa.string()),
        "lang": pa.array(["md"] * len(docs), pa.string()),
        "content": pa.array(docs, pa.string()),
    })
    idx = str(tmp_path_factory.mktemp("unicode") / "idx")
    # a hot postings budget of 4: terms in more than 4 docs are salted, so
    # the vocabulary dedupes a term listed in both salts' dictionaries
    build_index(corpus, idx, IndexConfig(num_partitions=3, num_salts=2, block_size=4,
                                         blocks_row_group_size=1, analyzer="whitespace_v1"))
    eng = QueryEngine(idx)
    assert eng.hot
    terms = eng.full_dictionary()["term"].to_pylist()
    assert "\U0010ffff" in "".join(terms) and "\ud7ff" in "".join(terms)
    return eng, terms


_text = st.text(alphabet=st.sampled_from(ALPHABET), max_size=4)


@settings(max_examples=150, deadline=None)
@given(prefix=_text)
def test_expand_prefix_equals_brute_force(unicode_engine, prefix):
    eng, terms = unicode_engine
    assert eng.expand_prefix(prefix) == sorted(t for t in terms if t.startswith(prefix))


@settings(max_examples=150, deadline=None)
@given(pattern=st.text(alphabet=st.sampled_from(ALPHABET + ["*", "?"]), max_size=5))
def test_expand_wildcard_equals_brute_force(unicode_engine, pattern):
    eng, terms = unicode_engine
    rx = re.compile(wildcard_regex(pattern))
    assert eng.expand_wildcard(pattern) == sorted(t for t in terms if rx.match(t))


@settings(max_examples=150, deadline=None)
@given(term=_text, max_edits=st.integers(0, 2), prefix_length=st.integers(0, 3),
       transpositions=st.booleans())
def test_expand_fuzzy_equals_brute_force(unicode_engine, term, max_edits, prefix_length,
                                         transpositions):
    eng, terms = unicode_engine
    want = sorted(
        t for t in terms
        if t.startswith(term[:prefix_length])
        and osa_distance(t, term, transpositions) <= max_edits
    )
    assert eng.expand_fuzzy(term, max_edits, prefix_length, transpositions) == want


def test_osa_check_not_the_map_decides_fuzzy_membership(unicode_engine, small_index,
                                                         monkeypatch):
    """With every neighbourhood key hashed alike, every vocabulary row is a
    candidate, and the expansion still equals brute force: the OSA check
    decides membership.  The map is built once per (engine, depth), and an
    engine that serves no fuzzy query builds none."""
    built: list[int] = []

    def constant_hash(keys):
        n = sum(1 for _ in keys)
        built.append(n)
        return np.zeros(n, dtype=np.int64)

    monkeypatch.setattr(qmod, "_neighbourhood_hashes", constant_hash)
    _, terms = unicode_engine
    eng = QueryEngine(unicode_engine[0].index_dir)
    rng = random.Random(3)
    probes = [t[:i] + rng.choice(ALPHABET) + t[i + 1:]
              for t in rng.sample(terms, 40) for i in [rng.randrange(len(t))]]
    probes += ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 5)))
               for _ in range(20)]
    for term in probes:
        for max_edits in (0, 1, 2):
            for prefix_length in (0, 1, 3):
                for transpositions in (True, False):
                    want = sorted(t for t in terms if t.startswith(term[:prefix_length])
                                  and osa_distance(t, term, transpositions) <= max_edits)
                    got = eng.expand_fuzzy(term, max_edits, prefix_length, transpositions)
                    assert got == want, (term, max_edits, prefix_length, transpositions)
    builds = [n for n in built if n >= len(terms)]  # a query term has far fewer keys
    assert sorted(builds) == sorted(len(h) for h, _ in eng._fuzzy_maps.values())
    assert sorted(eng._fuzzy_maps) == [0, 1, 2]

    built.clear()
    other = QueryEngine(small_index)
    word = other.full_dictionary()["term"][0].as_py()
    other.match(word, k=5)
    other.match_phrase(f"{word} {word}", k=5)
    other.bool_must([word], k=5)
    assert built == [] and other._fuzzy_maps == {}


def _edit(rng, t, alphabet):
    """``t`` with one random substitution, insertion, deletion or adjacent
    transposition."""
    i = rng.randrange(len(t) + 1)
    op = rng.randrange(4)
    if op == 0 and i < len(t):
        return t[:i] + rng.choice(alphabet) + t[i + 1:]
    if op == 1:
        return t[:i] + rng.choice(alphabet) + t[i:]
    if op == 2 and i < len(t):
        return t[:i] + t[i + 1:]
    if i + 1 < len(t):
        return t[:i] + t[i + 1] + t[i] + t[i + 2:]
    return t


def test_fuzzy_map_rows_are_bounded_for_long_terms(tmp_path):
    """A term gets deletion-neighbourhood rows for its first
    ``_FUZZY_KEY_LEN`` code points only: a 500-character token costs no
    more rows than an 8-character one, and expansions whose edits fall on
    either side of the cut, against terms far longer than the key, still
    equal brute force."""
    rng = random.Random(7)
    alphabet = "ab_"
    long_term = "".join(rng.choice(alphabet) for _ in range(500))
    near = {long_term}
    while len(near) < 6:
        near.add(_edit(rng, _edit(rng, long_term, alphabet), alphabet))
    vocab = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
             for _ in range(250)} | near
    docs = sorted(vocab)
    corpus = pa.table({
        "repo": pa.array(["r"] * len(docs), pa.string()),
        "path": pa.array([f"f{i}.txt" for i in range(len(docs))], pa.string()),
        "commit": pa.array(["c"] * len(docs), pa.string()),
        "lang": pa.array(["md"] * len(docs), pa.string()),
        "content": pa.array(docs, pa.string()),
    })
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, IndexConfig(num_partitions=2, num_salts=1, block_size=4,
                                         analyzer="whitespace_v1"))
    eng = QueryEngine(idx)
    terms = np.array(sorted(eng.full_dictionary()["term"].to_pylist()), dtype=object)
    assert set(terms) == vocab
    probes = [_edit(rng, _edit(rng, t, alphabet), alphabet)
              for t in rng.sample(sorted(vocab - near), 30) + sorted(near)]
    probes += [long_term[:rng.randint(1, 20)] for _ in range(5)]
    for term in probes:
        for max_edits in (0, 1, 2):
            for prefix_length in (0, 2, 9):
                for transpositions in (True, False):
                    ok = osa_within(terms, term, max_edits, transpositions)
                    want = [t for t in terms[ok] if t.startswith(term[:prefix_length])]
                    got = eng.expand_fuzzy(term, max_edits, prefix_length, transpositions)
                    assert got == want, (term, max_edits, prefix_length, transpositions)
    row = int(np.searchsorted(terms, long_term))
    for depth in (0, 1, 2):
        per_term = sum(math.comb(qmod._FUZZY_KEY_LEN, i) for i in range(depth + 1))
        rows = eng._fuzzy_maps[depth][1]
        assert 0 < (rows == row).sum() <= per_term
        assert len(rows) <= len(terms) * per_term
