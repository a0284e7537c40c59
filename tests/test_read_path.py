"""The engine's read path: term blocks are row-span slices of posting files
read once per engine, and prefix/wildcard/fuzzy expand over one sorted
vocabulary.  Each reader is pinned against a direct filtered
``pq.read_table`` decode, on every index generation a write can leave, and
each expansion against a brute-force scan of the dictionary."""

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
from librecatastro_ray.functions.editdist import osa_distance
from librecatastro_ray.pipelines.build import add_documents, build_index, compact_index
from librecatastro_ray.pipelines.query import (
    QueryEngine,
    decode_blocks_table,
    decode_positions_stream,
    queries_to_table,
    wildcard_regex,
)
from librecatastro_ray.sources.synth import make_corpus
from librecatastro_ray.stages.merge import blocks_file, dict_file, positions_file
from librecatastro_ray.state.manifest import delete_docs

# tiny blocks and row groups: term spans cross row-group boundaries
CFG = IndexConfig(num_partitions=3, num_salts=2, hot_df_ratio=0.1, block_size=4,
                  blocks_row_group_size=7, positions=True)


def _postings(docs, tfs, dls, pos) -> list[tuple]:
    ends = np.cumsum(tfs)
    return [(int(d), int(f), int(L), tuple(pos[e - f:e].tolist()))
            for d, f, L, e in zip(docs, tfs, dls, ends)]


def _direct(eng: QueryEngine, term: str) -> tuple[list[tuple], dict]:
    """A term's doc-sorted (doc, tf, dl, positions) postings and per-salt
    (last_doc, max_tfnorm) block metadata, by filtered parquet reads."""
    rows, meta = [], {}
    for salt in eng._salts(term):
        f = [("term", "==", term)]
        pk = eng._pkey(term)
        bt = pq.read_table(blocks_file(eng.index_dir, pk, salt, eng._parts), filters=f)
        if len(bt) == 0:
            meta[salt] = None
            continue
        assert bt["block_no"].to_pylist() == list(range(len(bt)))
        d, tf, dl = decode_blocks_table(bt)
        pt = pq.read_table(positions_file(eng.index_dir, pk, salt, eng._parts), filters=f)
        rows += _postings(d, tf, dl, decode_positions_stream(pt["positions"], tf))
        meta[salt] = (bt["last_doc"].to_pylist(), bt["max_tfnorm"].to_pylist())
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
            assert _postings(*eng.load_postings_with_positions(term)) == want, term
            assert _postings(*eng._positional_for_docs(term, sel)) == [
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
    # a second batch whose keys partly collide: upserts + a generation flip
    add_documents(make_corpus(n_docs=40, seed=8, vocab_size=120, mean_tokens=25), idx)
    assert QueryEngine(idx)._parts != "parts"
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
    path = dict_file(idx, 0, 0, eng._parts)
    d = pq.read_table(path)
    df = d["df"].to_numpy().copy()
    df[0] += CFG.block_size  # one more block than the file holds
    pq.write_table(d.set_column(1, "df", pa.array(df, pa.int64())), path)
    eng = QueryEngine(idx)
    with pytest.raises(ValueError, match=re.escape(blocks_file(idx, 0, 0, eng._parts))):
        eng.load_postings(d["term"][0].as_py())


def test_positions_drift_raises_naming_the_file(small_index, tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(small_index, idx)
    eng = QueryEngine(idx)
    path = positions_file(idx, 0, 0, eng._parts)
    pt = pq.read_table(path)
    pq.write_table(pt.slice(1), path)
    term = pq.read_table(dict_file(idx, 0, 0, eng._parts))["term"][0].as_py()
    eng.load_postings(term)  # the blocks file still matches its dictionary
    with pytest.raises(ValueError, match=re.escape(path)):
        eng.load_postings_with_positions(term)


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
    build_index(corpus, idx, IndexConfig(num_partitions=3, num_salts=2, hot_df_ratio=0.5,
                                         block_size=4, analyzer="whitespace_v1"))
    eng = QueryEngine(idx)
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


def test_queries_to_table_rejects_fields_it_cannot_carry():
    ok = queries_to_table([{"query_id": 0, "kind": "match", "text": "def", "k": 3}])
    assert ok.num_rows == 1
    for extra in ({"after": [1.0, 3]}, {"keyword_in": [["lang", ["py"]]]},
                  {"minimum_should_match": 2}):
        with pytest.raises(ValueError, match=next(iter(extra))):
            queries_to_table([{"query_id": 1, "kind": "bool_must", **extra}])
