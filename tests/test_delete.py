"""Document deletion lifecycle (ES DELETE by id / _delete_by_query;
reference: the delete-ignoring-404 index lifecycle, elasticsearch_utils.py:
85-98).  Lucene-faithful semantics: tombstoned docs vanish from every result
immediately; N / avgdl / df keep counting them until a rebuild — so every
surviving doc's SCORE is unchanged, only ranks close up."""

import numpy as np
import pytest

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import build_index
from librecatastro_ray.pipelines.query import (
    QueryEngine,
    batch_search_scatter,
    delete_by_query,
)
from librecatastro_ray.state.manifest import delete_docs, load_deleted


@pytest.fixture(scope="module")
def del_index(tmp_path_factory, corpus_small):
    """A dedicated positional index this module may mutate."""
    index_dir = str(tmp_path_factory.mktemp("delidx") / "idx")
    cfg = IndexConfig(
        num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=5,
        positions=True
    )
    build_index(corpus_small, index_dir, cfg)
    return index_dir


def _surviving(table, deleted):
    """Expected post-delete result: drop deleted rows, recompute ranks."""
    keep = [
        (d, s)
        for d, s in zip(table["doc_id"].to_pylist(), table["score"].to_pylist())
        if d not in deleted
    ]
    return keep


def test_delete_filters_all_query_paths(del_index):
    eng = QueryEngine(del_index)
    before_match = eng.match("def return", k=10**9)
    before_bool = eng.bool_must(["def"], k=10**9, must_not_terms=["zzz"])
    before_prefix = eng.prefix_content("id_000", k=10**9)
    before_phrase = eng.match_phrase("return def", k=10**9)
    before_count = eng.count("def")
    # delete the TOP match doc plus two others — exercises the θ-inflation
    # hazard in WAND (a deleted high scorer must not over-prune live docs)
    dead = {
        int(before_match["doc_id"][0].as_py()),
        int(before_match["doc_id"][3].as_py()),
        int(before_prefix["doc_id"][0].as_py()),
    }
    delete_docs(del_index, dead)
    eng2 = QueryEngine(del_index)

    for before, after in [
        (before_match, eng2.match("def return", k=10**9)),
        (before_bool, eng2.bool_must(["def"], k=10**9, must_not_terms=["zzz"])),
        (before_prefix, eng2.prefix_content("id_000", k=10**9)),
        (before_phrase, eng2.match_phrase("return def", k=10**9)),
    ]:
        want = _surviving(before, dead)
        got = list(zip(after["doc_id"].to_pylist(), after["score"].to_pylist()))
        assert got == want  # scores unchanged, deleted gone, ranks closed up
        assert after["rank"].to_pylist() == list(range(1, len(want) + 1))

    n_def_dead = sum(
        1 for d in dead if d in set(before_bool["doc_id"].to_pylist())
    )
    assert eng2.count("def") == before_count - n_def_dead
    # WAND stays rank-identical to full scoring after the delete
    w = eng2.match_wand("def return", k=25)
    m = eng2.match("def return", k=25)
    assert w["doc_id"].to_pylist() == m["doc_id"].to_pylist()
    np.testing.assert_allclose(w["score"].to_numpy(), m["score"].to_numpy(), atol=0)
    # hydrate: deleted ids return no row (ES 404)
    alive_id = int(m["doc_id"][0].as_py())
    h = eng2.hydrate(sorted(dead) + [alive_id])
    assert h["doc_id"].to_pylist() == [alive_id]
    # scatter path agrees with the single engine after deletes
    out = batch_search_scatter(
        del_index,
        [{"query_id": 0, "kind": "match", "text": "def return", "k": 12},
         {"query_id": 1, "kind": "match_phrase", "text": "return def", "k": 6},
         {"query_id": 2, "kind": "prefix_content", "prefix": "id_000", "k": 8}],
        n_ranges=4,
    )
    for qid, want_t in [
        (0, eng2.match("def return", k=12)),
        (1, eng2.match_phrase("return def", k=6)),
        (2, eng2.prefix_content("id_000", k=8)),
    ]:
        got_t = out.filter(np.array(out["query_id"].to_numpy() == qid))
        assert got_t["doc_id"].to_pylist() == want_t["doc_id"].to_pylist(), qid
        np.testing.assert_allclose(
            got_t["score"].to_numpy(), want_t["score"].to_numpy(), atol=0
        )


def test_delete_accumulates_and_is_idempotent(del_index):
    before = load_deleted(del_index)
    assert len(before) >= 3  # from the previous test
    # an id the index never assigned is refused and nothing is written
    with pytest.raises(ValueError, match=str(10**7)):
        delete_docs(del_index, [10**7])
    np.testing.assert_array_equal(load_deleted(del_index), before)
    live = next(d for d in range(QueryEngine(del_index).n_docs) if d not in set(before))
    n1 = delete_docs(del_index, [live])
    assert n1 == len(before) + 1
    assert delete_docs(del_index, [live]) == n1  # idempotent


def test_unassigned_id_cannot_hide_a_future_add(tmp_path, corpus_small):
    """Ids are dense and an add appends from n_docs on, so a tombstone on id
    n_docs would silently hide the next added doc: the delete must refuse
    it (and a negative id), leaving the add to serve."""
    import pyarrow as pa

    from librecatastro_ray.pipelines.build import add_documents

    index_dir = str(tmp_path / "idx")
    build_index(corpus_small.slice(0, 100), index_dir,
                IndexConfig(num_partitions=2, num_salts=1))
    n_docs = QueryEngine(index_dir).n_docs
    with pytest.raises(ValueError, match=r"outside \[0, "):
        delete_docs(index_dir, [n_docs, n_docs + 1, -5])
    assert len(load_deleted(index_dir)) == 0
    row = corpus_small.slice(0, 1).to_pylist()[0]
    row.update(path="src/zebra/new_doc.py", content="zebraword")
    add_documents(pa.Table.from_pylist([row], schema=corpus_small.schema), index_dir)
    eng = QueryEngine(index_dir)
    assert eng.match("zebraword", k=5)["doc_id"].to_pylist() == [n_docs]
    assert eng.count("zebraword") == 1


def test_delete_by_query(del_index):
    eng = QueryEngine(del_index)
    victims = eng.match_phrase("def if", k=10**9)["doc_id"].to_pylist()
    assert victims
    n_new = delete_by_query(del_index, {"kind": "match_phrase", "text": "def if"})
    assert n_new == len(victims)
    eng2 = QueryEngine(del_index)
    assert eng2.match_phrase("def if", k=10**9).num_rows == 0
    # stats are Lucene-faithful: unchanged until rebuild
    assert eng2.n_docs == eng.n_docs
    assert eng2.term_df("def") == eng.term_df("def")


def test_rebuild_clears_tombstones(tmp_path, corpus_small):
    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=2, num_salts=1)
    build_index(corpus_small, index_dir, cfg)
    delete_docs(index_dir, [0, 1, 2])
    assert QueryEngine(index_dir).hydrate([0]).num_rows == 0
    from librecatastro_ray.state.manifest import drop_index

    drop_index(index_dir)
    build_index(corpus_small, index_dir, cfg)
    assert len(load_deleted(index_dir)) == 0
    assert QueryEngine(index_dir).hydrate([0]).num_rows == 1


def test_delete_by_query_tombstones_exactly_the_hits(tmp_path, corpus_small):
    """Every clause of the query selects what is deleted: the newly
    tombstoned set equals the query's hits, and a key the kind does not take
    raises before anything is tombstoned."""
    index_dir = str(tmp_path / "idx")
    build_index(corpus_small, index_dir, IndexConfig(num_partitions=2, num_salts=1))
    cases = [
        ({"text": "needle_0001 class"},  # a missing kind is match
         lambda e: e.match("needle_0001 class", k=10**9)),
        ({"kind": "bool_must", "must_terms": ["def"],
          "keyword_in": [("lang", ["py", "go"])]},
         lambda e: e.bool_must(["def"], k=10**9, keyword_in=[("lang", ["py", "go"])])),
        ({"kind": "bool_must", "should_terms": ["return", "self"],
          "minimum_should_match": 2},
         lambda e: e.bool_must([], k=10**9, should_terms=["return", "self"],
                               minimum_should_match=2)),
        ({"kind": "wildcard", "pattern": "id_000*"},
         lambda e: e.wildcard_content("id_000*", k=10**9)),
    ]
    for query, expected in cases:
        hits = set(expected(QueryEngine(index_dir))["doc_id"].to_pylist())
        assert hits, query
        before = set(load_deleted(index_dir).tolist())
        n_new = delete_by_query(index_dir, query)
        new = set(load_deleted(index_dir).tolist()) - before
        assert new == hits, query
        assert n_new == len(hits)
    before = load_deleted(index_dir).tolist()
    for bad in ({"kind": "match", "txt": "def"},
                {"kind": "bool_must", "must_terms": ["def"], "text": "def"},
                {"kind": "wildcard", "prefix": "id_"},
                {"kind": "count", "text": "def"},
                {"kind": "knn", "text": "def"}):
        with pytest.raises(ValueError):
            delete_by_query(index_dir, bad)
    assert load_deleted(index_dir).tolist() == before


@pytest.mark.parametrize("doc_ids", [[3.7], "12", [True], [1, True], np.array([2.0])],
                         ids=["float", "str", "bool", "int_and_bool", "float_array"])
def test_non_integer_ids_are_refused(tmp_path, corpus_small, doc_ids):
    """An id that is not an integer is refused and nothing is written: cast
    to int64, 3.7 would tombstone doc 3, "12" docs 1 and 2, True doc 1."""
    index_dir = str(tmp_path / "idx")
    build_index(corpus_small.slice(0, 50), index_dir, IndexConfig(num_partitions=2, num_salts=1))
    with pytest.raises(ValueError, match="must be integers"):
        delete_docs(index_dir, doc_ids)
    assert len(load_deleted(index_dir)) == 0
    assert delete_docs(index_dir, np.array([3, 1], np.int32)) == 2
