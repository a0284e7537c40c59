"""The CLI, driven in-process through ``cli.main(argv)`` on a small parquet
corpus: every subcommand returns 0, its printed answer agrees with the
library's, and the Ray session of the caller (here pytest's) survives the
subcommands that run Ray tasks."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from librecatastro_ray.cli import main
from librecatastro_ray.pipelines.query import QueryEngine
from librecatastro_ray.sources.synth import make_corpus


def _cli(capsys, *argv) -> list[str]:
    """Run one subcommand; assert it returns 0 and give its stdout lines."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 0, argv
    return capsys.readouterr().out.splitlines()


def _ids(lines: list[str]) -> list[int]:
    return [json.loads(line)["doc_id"] for line in lines]


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory):
    """A 60-doc base corpus and a delta of 10 new docs plus 3 upserts of base
    docs, each a parquet dir."""
    root = tmp_path_factory.mktemp("cli")
    t = make_corpus(n_docs=70, seed=13, vocab_size=150, mean_tokens=30)
    base, new = t.slice(0, 60), t.slice(60)
    upserts = t.slice(0, 3)
    upserts = upserts.set_column(
        upserts.schema.get_field_index("content"), "content",
        pc.binary_join_element_wise(upserts["content"], pa.scalar("upserted_marker"), "\n"))
    dirs = {}
    for name, table in (("base", base), ("delta", pa.concat_tables([new, upserts]))):
        dirs[name] = str(root / name)
        os.makedirs(dirs[name])
        pq.write_table(table, os.path.join(dirs[name], "part-0.parquet"))
    return dirs


@pytest.fixture(scope="module")
def index(corpus_dirs, tmp_path_factory):
    """A positional index built by ``build --positions``; read-only tests
    share it, the write test works on a copy."""
    idx = str(tmp_path_factory.mktemp("cli_index") / "idx")
    assert main(["build", "--corpus", corpus_dirs["base"], "--index", idx, "--positions"]) == 0
    return idx


def test_build_keeps_the_callers_ray_session(corpus_dirs, tmp_path, capsys):
    idx = str(tmp_path / "idx")
    out = _cli(capsys, "build", "--corpus", corpus_dirs["base"], "--index", idx,
               "--partitions", 2, "--salts", 2)
    assert json.loads(out[-1])["n_docs"] == 60
    assert ray.is_initialized()
    assert ray.get(ray.put(1)) == 1


def test_query_text_prints_match_ids_in_order(index, capsys):
    eng = QueryEngine(index)
    for text, k, offset in (("def return", 10, 0), ("self import", 5, 3), ("def", 60, 0)):
        out = _cli(capsys, "query", "--index", index, "--text", text, "--k", k, "--from", offset)
        want = eng.match(text, k=k, offset=offset)
        assert want.num_rows > 0
        assert _ids(out) == want["doc_id"].to_pylist()
        assert [json.loads(line)["rank"] for line in out] == want["rank"].to_pylist()
        assert all(json.loads(line)["path"] for line in out)


def test_query_bool_prefix_and_count(index, capsys):
    eng = QueryEngine(index)
    out = _cli(capsys, "query", "--index", index, "--must", "def", "--lang", "py", "--k", 100)
    want = eng.bool_must(["def"], k=100, keyword_eq=[("lang", "py")])
    assert want.num_rows > 0 and _ids(out) == want["doc_id"].to_pylist()

    out = _cli(capsys, "query", "--index", index, "--prefix", "id_00", "--k", 7)
    want = eng.prefix_content("id_00", k=7)
    assert want.num_rows > 0 and _ids(out) == want["doc_id"].to_pylist()

    out = _cli(capsys, "query", "--index", index, "--text", "def", "--count")
    assert json.loads(out[0]) == {"total": eng.count("def")} and eng.count("def") > 0


def test_search_batch_from_jsonl(index, tmp_path, capsys):
    queries = [
        {"query_id": 0, "kind": "match", "text": "def return", "k": 5},
        {"query_id": 1, "kind": "match", "text": "self", "k": 3, "from": 2},
    ]
    path = tmp_path / "queries.jsonl"
    path.write_text("".join(json.dumps(q) + "\n" for q in queries))
    rows = [json.loads(line) for line in
            _cli(capsys, "search-batch", "--index", index, "--queries", path, "--ranges", 2)]
    eng = QueryEngine(index)
    for q in queries:
        want = eng.match(q["text"], k=q["k"], offset=q.get("from", 0))
        got = [r["doc_id"] for r in rows if r["query_id"] == q["query_id"]]
        assert want.num_rows > 0 and got == want["doc_id"].to_pylist()
    assert ray.is_initialized()


def test_info_and_list(index, corpus_dirs, capsys):
    info = json.loads(_cli(capsys, "info", "--index", index)[0])
    assert info["n_docs"] == 60 and info["n_segments"] == 1
    assert info["config"]["positions"] is True
    base = pq.read_table(corpus_dirs["base"])
    for field in ("repo", "lang"):
        out = _cli(capsys, "list", "--index", index, "--field", field)
        assert out == sorted(set(base[field].to_pylist()))


def test_add_delete_compact_drop(index, corpus_dirs, tmp_path, capsys):
    idx = str(tmp_path / "idx")
    shutil.copytree(index, idx)
    report = json.loads(_cli(capsys, "add", "--corpus", corpus_dirs["delta"], "--index", idx)[-1])
    assert report["n_upserts"] == 3
    info = json.loads(_cli(capsys, "info", "--index", idx)[0])
    assert info["n_docs"] == 73 and info["n_segments"] == 2
    out = _cli(capsys, "query", "--index", idx, "--text", "upserted_marker", "--k", 10)
    assert len(out) == 3

    out = _cli(capsys, "delete", "--index", idx, "--doc-ids", 0, 1)
    # the add's 3 upserts tombstone their old rows too
    assert json.loads(out[0]) == {"tombstones_total": 5}
    hits = QueryEngine(idx).match("upserted_marker", k=10)["doc_id"].to_pylist()
    out = _cli(capsys, "delete", "--index", idx, "--text", "upserted_marker")
    assert json.loads(out[0]) == {"tombstoned": len(hits)}
    assert QueryEngine(idx).count("upserted_marker") == 0

    target = str(tmp_path / "compacted")
    out = _cli(capsys, "compact", "--index", idx, "--target", target)
    assert json.loads(out[-1]) == {"n_docs": 73 - 5 - len(hits), "target": target}
    eng, comp = QueryEngine(idx), QueryEngine(target)
    for text in ("def return", "self"):
        assert comp.count(text) == eng.count(text) > 0

    assert json.loads(_cli(capsys, "drop", "--index", target)[0]) == {"dropped": True}
    assert json.loads(_cli(capsys, "drop", "--index", target)[0]) == {"dropped": False}
    assert not os.path.exists(os.path.join(target, "manifest.json"))
    assert ray.is_initialized()
