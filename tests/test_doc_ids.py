"""Doc-id assignment determinism: ids depend only on the data, never on
block layout / parallelism (SURVEY.md §7.4 item 4, F2) or on whether the
input is an in-memory table or a Dataset, and duplicate-key
runs spanning block boundaries dedup correctly."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import ray.data

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.pipelines.build import estimate_hot_terms
from librecatastro_ray.stages.doc_ids import dedup_assign_write


def _corpus_table(n: int, dup_every: int = 5) -> pa.Table:
    rows = []
    for i in range(n):
        key = i - (i % dup_every == 0)  # every dup_every-th row duplicates the previous key
        rows.append(
            {
                "repo": f"org{key % 7:03d}/proj{key % 13:03d}",
                "path": f"src/m{key:05d}.py",
                "commit": f"{i:040d}",
                "lang": "py",
                "content": f"def f{i}(): return {i} " + ("x " * (i % 9)),
            }
        )
    return pa.Table.from_pylist(rows)


def _write(corpus, out: str) -> tuple[int, pa.Table]:
    """``dedup_assign_write`` of ``corpus`` into ``out``: (n_docs, the doc
    store it wrote)."""
    docs = os.path.join(out, "docs")
    n_docs, _sum_dl, _layout = dedup_assign_write(
        corpus, docs, os.path.join(out, "shuffle"), IndexConfig(), estimate_hot_terms)
    files = sorted(os.path.join(docs, f) for f in os.listdir(docs) if f.startswith("part-"))
    t = pads.dataset(files, format="parquet").to_table() if files else None
    return n_docs, t


def _ids_for_layout(table: pa.Table, n_blocks: int | None, out) -> dict:
    """{(repo, path): (doc_id, sha256)} of the doc store written from
    ``table`` as a Dataset of ``n_blocks`` blocks, or as the table itself
    (``n_blocks=None``)."""
    corpus = table if n_blocks is None else ray.data.from_arrow(table).repartition(n_blocks)
    n_docs, t = _write(corpus, str(out))
    assert t.num_rows == n_docs
    return {
        (r, p): (d, s)
        for r, p, d, s in zip(
            t["repo"].to_pylist(),
            t["path"].to_pylist(),
            t["doc_id"].to_pylist(),
            t["sha256"].to_pylist(),
        )
    }


def test_ids_invariant_under_block_layout(ray_session, tmp_path):
    table = _corpus_table(120)
    a = _ids_for_layout(table, 2, tmp_path / "a")
    b = _ids_for_layout(table, 17, tmp_path / "b")
    assert a == b == _ids_for_layout(table, None, tmp_path / "table")
    # dense 0..n-1 in sorted (repo, path) order
    ids = [d for d, _ in a.values()]
    assert sorted(ids) == list(range(len(a)))
    by_key = sorted(a.items())
    assert [d for _, (d, _) in by_key] == list(range(len(a)))


def test_dedup_keeps_max_sha_winner(ray_session, tmp_path):
    table = _corpus_table(60, dup_every=3)
    got = _ids_for_layout(table, 5, tmp_path)
    # recompute expected winners in plain python
    import hashlib

    exp = {}
    for row in table.to_pylist():
        sha = hashlib.sha256((row["content"] or "").encode()).hexdigest()
        k = (row["repo"], row["path"])
        if k not in exp or sha > exp[k]:
            exp[k] = sha
    assert {k: s for k, (_, s) in got.items()} == exp


def test_empty_and_single_doc(ray_session, tmp_path):
    schema = pa.schema(
        [("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
         ("lang", pa.string()), ("content", pa.string())]
    )
    for i, empty in enumerate((schema.empty_table(), ray.data.from_arrow(schema.empty_table()))):
        n_e, t_e = _write(empty, str(tmp_path / f"e{i}"))
        assert n_e == 0 and t_e is None
    one = _corpus_table(1)
    for i, single in enumerate((one, ray.data.from_arrow(one))):
        n_1, t_1 = _write(single, str(tmp_path / f"one{i}"))
        assert n_1 == 1
        assert t_1["doc_id"].to_pylist() == [0]
