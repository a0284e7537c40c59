"""Write-path kernels and the grouped merge.

- The posting emitters route every posting to
  ``skey = (term_hash(t) % P) * S + (min(doc_id // W, S - 1) if t is hot
  else 0)`` for the build's salt width W, and
  ``term_hashes`` equals the scalar ``term_hash`` (partition routing depends
  on both being exact).  No Ray.
- A merge task over a run of partitions checkpoints each partition as it
  finishes: a failure part-way keeps the finished checkpoints, and resume
  merges exactly the rest.
- A corpus directory of small files is read in blocks that span files.
- A write of a Dataset runs one Ray Data job, a write from a corpus path
  or of an in-memory table and a compaction none, and each tokenizes each
  winning doc once.
"""

import json
import os
import shutil
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from librecatastro_ray.config import IndexConfig
from librecatastro_ray.functions.analysis import get_analyzer
from librecatastro_ray.functions.hashing import sha256_hex, term_hash, term_hashes
from librecatastro_ray.stages import merge
from librecatastro_ray.stages.postings import flat_postings, flat_postings_positional

# ASCII word characters, separators of both analyzers, punctuation and
# non-ASCII letters (kept as terms by whitespace_v1), up to U+10FFFF
ALPHABET = ["a", "b", "Z", "_", "7", " ", "\n", ".", "(", "é", "ß", "日", "Ω", "\U0010FFFF"]
_content = st.one_of(st.none(), st.text(alphabet=st.sampled_from(ALPHABET), max_size=30))


@settings(max_examples=150, deadline=None)
@given(
    contents=st.lists(_content, max_size=8),
    first_id=st.integers(0, 10_000),
    P=st.integers(1, 9),
    S=st.integers(1, 5),
    W=st.integers(1, 40),
    analyzer_id=st.sampled_from(["code_standard_v1", "whitespace_v1"]),
    hot_mode=st.sampled_from(["none", "all", "alternate", "some"]),
    data=st.data(),
)
def test_emitters_route_every_posting_by_its_term_and_doc(
    contents, first_id, P, S, W, analyzer_id, hot_mode, data
):
    batch = pa.table(
        {
            "doc_id": pa.array(first_id + 3 * np.arange(len(contents)), pa.int64()),
            "content": pa.array(contents, pa.string()),
        }
    )
    vocab = sorted({t for c in contents for t in get_analyzer(analyzer_id).tokenize(c)})
    if hot_mode == "none":
        hot = []
    elif hot_mode == "all":
        hot = vocab + ["never_a_term"]
    elif hot_mode == "alternate":
        hot = vocab[::2]
    else:
        hot = data.draw(st.lists(st.sampled_from(vocab), unique=True)) if vocab else []
    hot_set = set(hot)
    kw = {"num_partitions": P, "num_salts": S, "hot_terms": hot, "salt_width": W}
    cols = ["term", "doc_id", "tf", "dl", "skey"]
    tokens = get_analyzer(analyzer_id).tokenize_batch(batch["content"])
    plain = flat_postings(batch, tokens, **kw)
    positional = flat_postings_positional(batch, tokens, **kw)
    for out in (plain, positional):
        rows = out.select(cols).to_pylist()
        assert {r["term"] for r in rows} == set(vocab)
        for r in rows:
            t, d = r["term"], r["doc_id"]
            salt = min(d // W, S - 1) if t in hot_set else 0
            assert r["skey"] == (term_hash(t) % P) * S + salt, r
    key = lambda r: (r["doc_id"], r["term"])  # noqa: E731
    assert sorted(plain.to_pylist(), key=key) == sorted(
        positional.select(cols).to_pylist(), key=key
    )


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(
        st.one_of(st.sampled_from(["def", "return", "é", ""]), st.text(max_size=6)), max_size=40
    )
)
def test_term_hashes_equals_scalar_term_hash(terms):
    want = [term_hash(t) for t in terms]
    for arr in (np.array(terms, dtype=object), pa.array(terms, pa.string())):
        got = term_hashes(arr)
        assert got.dtype == np.int64 and got.tolist() == want


def _cfg():
    return IndexConfig(num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=3,
                       positions=True)


@pytest.fixture(scope="module")
def clean_build(tmp_path_factory):
    """A clean build, and the same build crashed just before its merge: doc
    store and spill complete; no manifest, parts or checkpoint."""
    from librecatastro_ray.pipelines import build as build_mod
    from librecatastro_ray.sources.synth import make_corpus

    corpus = make_corpus(n_docs=200, seed=7, vocab_size=500, mean_tokens=40)
    root = tmp_path_factory.mktemp("grouped")
    d, unmerged = str(root / "clean"), str(root / "unmerged")
    build_mod.build_index(corpus, d, _cfg())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_mod, "_merge_partitions", mock.Mock(side_effect=RuntimeError("crash")))
        with pytest.raises(RuntimeError, match="crash"):
            build_mod.build_index(corpus, unmerged, _cfg())
    assert not os.path.exists(os.path.join(unmerged, "parts"))
    return corpus, d, unmerged


def _unmerged_copy(unmerged_dir: str, dst: str) -> list[int]:
    """A copy of the build that crashed before its merge, and the skeys its
    merge writes (``merge.merged_skeys`` of its spill, for the segment's
    partition count ``merge.partition_count``)."""
    shutil.copytree(unmerged_dir, dst)
    spill = os.path.join(dst, "shuffle")
    spilled = [int(name.split("=")[1]) for name in os.listdir(spill)]
    return merge.merged_skeys(spilled, merge.partition_count(spill, _cfg()), _cfg().num_salts)


def _merge_kwargs(index_dir):
    """The merge task's arguments: the segment's partition count comes from
    the spill's footers, as the build's merge takes it."""
    return {"index_dir": index_dir, "config_json": _cfg().to_json(),
            "num_partitions": merge.partition_count(os.path.join(index_dir, "shuffle"), _cfg())}


def _parts_bytes(index_dir: str) -> dict[str, bytes]:
    parts = os.path.join(index_dir, "parts")
    out = {}
    for name in sorted(os.listdir(parts)):
        with open(os.path.join(parts, name), "rb") as f:
            out[name] = f.read()
    return out


def test_grouped_merge_crash_keeps_finished_checkpoints(clean_build, tmp_path, monkeypatch):
    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.state.manifest import completed_partitions, load_manifest

    corpus, clean_dir, unmerged = clean_build
    crash_dir = str(tmp_path / "crash")
    skeys = _unmerged_copy(unmerged, crash_dir)
    assert len(skeys) > 3
    real = merge.merge_partition

    def third_raises(index_dir, skey, *args, **kwargs):
        if skey == skeys[2]:
            raise RuntimeError("injected merge failure")
        return real(index_dir, skey, *args, **kwargs)

    monkeypatch.setattr(merge, "merge_partition", third_raises)
    with pytest.raises(RuntimeError, match="injected"):
        merge.merge_batch(pa.table({"skey": skeys}), **_merge_kwargs(crash_dir))
    monkeypatch.undo()

    done = completed_partitions(crash_dir)
    assert sorted(done) == skeys[:2]
    clean_done = completed_partitions(clean_dir)
    for skey, ck in done.items():
        with open(os.path.join(crash_dir, ck["outputs"][0]), "rb") as f:
            assert sha256_hex(f.read()) == ck["output_sha256"]
        assert ck["output_sha256"] == clean_done[skey]["output_sha256"]
        assert ck["outputs"] == clean_done[skey]["outputs"]

    r = build_index(corpus, crash_dir, _cfg(), resume=True)
    assert r["report"]["partitions_merged"] == len(skeys) - 2
    assert r["report"]["partitions_skipped"] == 2
    assert json.dumps(load_manifest(crash_dir), sort_keys=True) == json.dumps(
        load_manifest(clean_dir), sort_keys=True
    )


def test_multi_row_merge_batch_writes_the_bytes_of_one_row_calls(clean_build, tmp_path):
    _corpus, clean_dir, unmerged = clean_build
    grouped, single = str(tmp_path / "grouped"), str(tmp_path / "single")
    skeys = _unmerged_copy(unmerged, grouped)
    _unmerged_copy(unmerged, single)
    merge.merge_batch(pa.table({"skey": skeys}), **_merge_kwargs(grouped))
    for s in skeys:
        merge.merge_batch(pa.table({"skey": [s]}), **_merge_kwargs(single))
    got = _parts_bytes(grouped)
    assert got == _parts_bytes(single) == _parts_bytes(clean_dir)
    assert len(got) == 2 * len(skeys)


def test_a_corpus_directory_of_small_files_is_read_in_blocks_that_span_files(tmp_path):
    """A corpus directory of many small parquet files is read in blocks of
    consecutive rows that span files, not one block per file: 1,200 rows in
    12 files of 40 to 160 rows make the 3 blocks (512, 512, 176 rows) of the
    same rows as one table, and the index equals that table's, segment
    entry and doc store alike."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.sources.synth import make_corpus

    corpus = make_corpus(n_docs=1200, seed=11, vocab_size=300, mean_tokens=10).slice(0, 1200)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    sizes = [40, 160, 70, 130, 100, 100, 60, 140, 90, 110, 120, 80]
    firsts = np.cumsum([0] + sizes[:-1])
    assert sum(sizes) == corpus.num_rows
    for i, (first, n) in enumerate(zip(firsts, sizes)):
        pq.write_table(corpus.slice(int(first), n), str(corpus_dir / f"part-{i:02d}.parquet"))
    got, want = str(tmp_path / "from_files"), str(tmp_path / "from_table")
    m_got = build_index(str(corpus_dir), got, _cfg())["manifest"]
    m_want = build_index(corpus, want, _cfg())["manifest"]
    for d in (got, want):
        with open(os.path.join(d, "docs", "_PLAN.json")) as f:
            assert json.load(f)["block_rows"] == [512, 512, 176], d
    assert len(m_got["segments"][0]["docs"]) == 3
    assert m_got["segments"] == m_want["segments"]
    assert all(pads.dataset(os.path.join(got, f)).to_table().equals(
        pads.dataset(os.path.join(want, f)).to_table()) for f in m_got["segments"][0]["docs"])


# Run in a fresh interpreter with its own one-CPU Ray session, whose
# workers all start with a set-up hook that counts the rows every
# tokenize call sees; the driver counts Ray Data executions.
_ONE_PASS_SCRIPT = r'''
import json, os, sys
import pyarrow.parquet as pq
import ray, ray.data
from ray.data._internal.execution.streaming_executor import StreamingExecutor
from librecatastro_ray import IndexConfig, add_documents, build_index
from librecatastro_ray.pipelines.build import compact_index
from librecatastro_ray.sources.synth import make_corpus
from librecatastro_ray.state.manifest import delete_docs, load_deleted, load_manifest

def count_tokenized_rows():
    from librecatastro_ray.functions import tokenizer
    real = tokenizer.tokenize_batch_pattern
    def counted(arr, pattern):
        with open(os.path.join(os.environ["ROWS_DIR"], f"{os.getpid()}.txt"), "a") as f:
            f.write(f"{len(arr)}\n")
        return real(arr, pattern)
    tokenizer.tokenize_batch_pattern = counted

def tokenize_calls():
    d = os.environ["ROWS_DIR"]
    return [int(n) for f in sorted(os.listdir(d)) for n in open(os.path.join(d, f))]

jobs = []
execute = StreamingExecutor.execute
def counted_execute(self, *args, **kwargs):
    jobs.append(1)
    return execute(self, *args, **kwargs)
StreamingExecutor.execute = counted_execute

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         runtime_env={"worker_process_setup_hook": count_tokenized_rows,
                      "env_vars": {"ROWS_DIR": os.environ["ROWS_DIR"]}})
ray.data.DataContext.get_current().enable_progress_bars = False
idx = sys.argv[1]
base = make_corpus(n_docs=300, seed=3, vocab_size=200, mean_tokens=20, dup_frac=0.1)
corpus_dir = os.path.join(os.path.dirname(idx), "corpus")
os.makedirs(corpus_dir)
for i, (first, n) in enumerate(((0, 70), (70, 130), (200, 100))):  # one block of 3 files
    pq.write_table(base.slice(first, n), os.path.join(corpus_dir, f"part-{i}.parquet"))
delta = make_corpus(n_docs=60, seed=4, vocab_size=200, mean_tokens=20, dup_frac=0.2)
delta2 = make_corpus(n_docs=40, seed=5, vocab_size=200, mean_tokens=20, dup_frac=0.2)
out = []
for name, rows, write in (
        ("path build", base.num_rows,
         lambda: build_index(corpus_dir, idx, IndexConfig(positions=True, batch_size=32))),
        ("table add", delta.num_rows, lambda: add_documents(delta, idx)),
        ("dataset add", delta2.num_rows, lambda: add_documents(ray.data.from_arrow(delta2), idx)),
        ("compaction", None, lambda: compact_index(idx, idx + "-compact"))):
    if rows is None:  # the live docs
        delete_docs(idx, [0, 1, 2])
        rows = load_manifest(idx)["n_docs"] - len(load_deleted(idx))
    jobs.clear()
    seen = len(tokenize_calls())
    m = write()["manifest"]
    calls = tokenize_calls()[seen:]
    out.append({"write": name, "rows": rows, "winners": m["segments"][-1]["n_docs"],
                "jobs": len(jobs), "tokenized": sum(calls), "largest_call": max(calls)})
ray.shutdown()
print(json.dumps(out))
'''


def test_only_a_dataset_write_runs_a_ray_data_job_and_each_winner_is_tokenized_once(tmp_path):
    """An add of a Dataset runs one Ray Data job (the sha256 map); a build
    from a corpus path of 3 files, an add of an in-memory table and a
    compaction run none (plain read tasks, driver-side slices).  Each write
    tokenizes every doc that wins the dedup exactly
    once: no duplicate that loses is tokenized, and nothing re-reads the
    doc store to tokenize it again.  No tokenize call sees more than
    ``batch_size`` rows, so a block of wide rows is tokenized in slices."""
    import subprocess
    import sys

    rows_dir = tmp_path / "rows"
    rows_dir.mkdir()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, ROWS_DIR=str(rows_dir), PYTHONPATH=root)
    proc = subprocess.run([sys.executable, "-c", _ONE_PASS_SCRIPT, str(tmp_path / "idx")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    writes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [(w["write"], w["jobs"]) for w in writes] == [
        ("path build", 0), ("table add", 0), ("dataset add", 1), ("compaction", 0)], writes
    for write in writes:
        if write["write"] == "compaction":
            assert write["winners"] == write["rows"], write
        else:
            assert write["winners"] < write["rows"], "needs duplicates that lose"
        assert write["tokenized"] == write["winners"], write
        assert write["largest_call"] == 32, write
