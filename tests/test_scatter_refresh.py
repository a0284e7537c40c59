"""Worker engines across commits: the scatter path's process engines survive
a tombstone-only commit (``delete_docs``) by reloading the tombstone set in
place, and are rebuilt on a manifest change (add, compaction swap, drop +
rebuild).  Range evaluation and the merge run in-process here, exactly as a
range task and the driver run them."""

import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import add_documents, build_index, compact_index
from librecatastro_ray.pipelines.query import (
    QueryEngine,
    _eval_range_batch,
    _merge_query_buckets,
    _process_engine,
    _process_range_engine,
)
from librecatastro_ray.state.manifest import delete_docs, deleted_path, drop_index, load_manifest

CFG = IndexConfig(num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=5,
                  positions=True)
N_RANGES = 3

QUERIES = [
    {"query_id": 0, "kind": "match", "text": "def return", "k": 12},
    {"query_id": 1, "kind": "match", "text": "self import", "k": 5, "from": 3},
    {"query_id": 2, "kind": "bool_must", "must_terms": ["def"], "keyword_eq": [["lang", "py"]],
     "keyword_prefix": [["path", "src/pkg1"]], "k": 10},
    {"query_id": 3, "kind": "bool_must", "must_terms": ["return"],
     "keyword_in": [["lang", ["js", "go"]]], "should_terms": ["if"], "k": 10},
    {"query_id": 4, "kind": "prefix_content", "prefix": "id_000", "k": 8},
    {"query_id": 5, "kind": "match_phrase", "text": "return def", "k": 6},
    {"query_id": 6, "kind": "count", "text": "def return"},
]


@pytest.fixture(scope="module")
def refresh_index(tmp_path_factory, corpus_small):
    index_dir = str(tmp_path_factory.mktemp("refresh") / "idx")
    build_index(corpus_small, index_dir, CFG)
    return index_dir


def _copy(src: str, parent: str) -> str:
    dst = os.path.join(parent, "idx")
    shutil.copytree(src, dst)
    return dst


def _bounds(index_dir: str) -> list[int]:
    n = int(load_manifest(index_dir)["n_docs"])
    return [round(i * n / N_RANGES) for i in range(N_RANGES)] + [n]


def _scatter_in_process(index_dir: str, queries: list[dict]) -> dict:
    """{query_id: [(doc_id, score), ...] or count}: every range evaluated
    through the process engines, merged as the driver merges."""
    b = _bounds(index_dir)
    merged = _merge_query_buckets(
        _eval_range_batch(queries, index_dir=index_dir, ranges=list(zip(b, b[1:])))
    )
    out: dict = {}
    for qid, doc, score in zip(*(merged[c].to_pylist() for c in ("query_id", "doc_id", "score"))):
        if doc == -1:
            out[qid] = int(score)
        else:
            out.setdefault(qid, []).append((doc, score))
    return out


def _direct(eng: QueryEngine, q: dict):
    k, off = q.get("k", 10), q.get("from", 0)
    kind = q["kind"]
    if kind == "count":
        return eng.count(q["text"])
    if kind == "match":
        t = eng.match(q["text"], k=k, offset=off)
    elif kind == "match_phrase":
        t = eng.match_phrase(q["text"], k=k, offset=off)
    elif kind == "prefix_content":
        t = eng.prefix_content(q["prefix"], k=k, offset=off)
    else:
        t = eng.bool_must(
            q["must_terms"], k=k, offset=off,
            keyword_eq=[tuple(p) for p in q.get("keyword_eq", [])],
            keyword_prefix=[tuple(p) for p in q.get("keyword_prefix", [])],
            keyword_in=[(p[0], list(p[1])) for p in q.get("keyword_in", [])],
            should_terms=q.get("should_terms"),
        )
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


def _assert_matches_fresh_engine(index_dir: str, queries: list[dict]) -> None:
    got = _scatter_in_process(index_dir, queries)
    fresh = QueryEngine(index_dir)
    for q in queries:
        want = _direct(fresh, q)
        assert got.get(q["query_id"], 0 if q["kind"] == "count" else []) == want, q


def _range_engines(index_dir: str) -> list:
    b = _bounds(index_dir)
    return [_process_range_engine(index_dir, b[r], b[r + 1]) for r in range(N_RANGES)]


def test_tombstone_identity_cannot_alias(refresh_index, tmp_path):
    """A same-size tombstone file installed inside the old mtime is still a
    new version: the range engine hides the new tombstone, not the old."""
    idx = _copy(refresh_index, str(tmp_path))
    n = int(load_manifest(idx)["n_docs"])
    a, b = 5, 9

    def live() -> set[int]:
        rng = _process_range_engine(idx, 0, n)
        return set(rng.bool_must([], n, must_not_terms=["zzz_absent"])[0].tolist())

    assert {a, b} <= live()
    delete_docs(idx, [a])
    assert a not in live() and b in live()
    path = deleted_path(idx)
    old = os.stat(path)
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array([b], pa.int64())}), tmp)
    os.replace(tmp, path)
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    new = os.stat(path)
    assert (new.st_size, new.st_mtime_ns) == (old.st_size, old.st_mtime_ns)
    got = live()
    assert b not in got and a in got


def test_scatter_refresh_equivalence_across_writes(refresh_index, corpus_small, tmp_path):
    """After every delete the scatter answers equal a fresh engine's and the
    process engines are the same objects; add, a compaction swap and drop +
    rebuild each replace them."""
    idx = _copy(refresh_index, str(tmp_path))
    _assert_matches_fresh_engine(idx, QUERIES)
    eng, rngs = _process_engine(idx), _range_engines(idx)
    top = [d for d, _ in _scatter_in_process(idx, QUERIES[:1])[0]]
    for victims in ([top[0]], top[1:4], [top[5], 0, 1]):
        delete_docs(idx, victims)
        _assert_matches_fresh_engine(idx, QUERIES)
        assert _process_engine(idx) is eng
        assert all(a is b for a, b in zip(_range_engines(idx), rngs))

    def replaced(write) -> None:
        nonlocal eng, rngs
        first = _process_range_engine(idx, 0, 10)
        write()
        _assert_matches_fresh_engine(idx, QUERIES)
        assert _process_engine(idx) is not eng
        assert _process_range_engine(idx, 0, 10) is not first
        eng, rngs = _process_engine(idx), _range_engines(idx)

    replaced(lambda: add_documents(corpus_small.slice(0, 30), idx))

    def compact_swap() -> None:
        compact_index(idx, idx + "-compact")
        os.rename(idx, idx + "-old")
        os.rename(idx + "-compact", idx)

    replaced(compact_swap)
    delete_docs(idx, [2])
    _assert_matches_fresh_engine(idx, QUERIES)
    assert _process_engine(idx) is eng

    def drop_rebuild() -> None:
        drop_index(idx)
        build_index(corpus_small.slice(0, 300), idx, CFG)

    replaced(drop_rebuild)


_step = st.one_of(
    st.tuples(st.just("delete"), st.lists(st.integers(0, 2**16), min_size=1, max_size=4)),
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
)


@settings(max_examples=15, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=8))
def test_scatter_refresh_property(refresh_index, steps):
    """Random delete/query interleavings: every scatter answer equals a fresh
    engine's, and deletes never replace the process engine."""
    with tempfile.TemporaryDirectory() as tmp:
        idx = _copy(refresh_index, tmp)
        n = int(load_manifest(idx)["n_docs"])
        eng = _process_engine(idx)
        for op, arg in steps:
            if op == "delete":
                delete_docs(idx, [d % n for d in arg])
            else:
                _assert_matches_fresh_engine(idx, [QUERIES[arg]])
            assert _process_engine(idx) is eng
