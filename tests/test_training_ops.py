"""Unit tests for the training-data ops: vectorized fingerprint identity
(vs the scalar reference recurrence), the parse, split, chunking, per-doc
scoring and substring-dedup operators, the curation join's shuffle width,
and the curation pipeline's partitioned-parquet output."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from librecatastro_ray.pipelines.training import _fingerprint_batch

# the sf0.001 test-data tables in the ``testdata`` directory beside the checkout
SF_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "testdata", "sf0.001",
)


def _scalar_fingerprint(s: str) -> int:
    from librecatastro_ray.functions.hashing import term_hash
    from librecatastro_ray.functions.tokenizer import tokenize

    MOD = (1 << 61) - 1
    BASE = 1_000_003
    h = 0
    for tok in tokenize(s):
        h = (h * BASE + term_hash(tok)) % MOD
    return h


def test_fingerprint_vectorized_identical_to_scalar():
    """The uint64 split-multiply Horner step must be bit-identical to the
    arbitrary-precision Python recurrence — including long docs whose hash
    walks the whole 61-bit range."""
    rng = np.random.RandomState(11)
    texts = [
        "a b c", "c b a", "a  b\nc", "",
        " ".join(f"tok{rng.randint(10_000)}" for _ in range(500)),
        " ".join(f"x{i}" for i in range(1000)),
    ]
    got = _fingerprint_batch(pa.array(texts, pa.string()))
    for i, t in enumerate(texts):
        assert int(got[i]) == _scalar_fingerprint(t), i
    assert got[0] != got[1]  # order matters
    assert got[0] == got[2]  # whitespace-insensitive
    assert got[3] == 0


def test_parse_entries_fallback_branches(tmp_path):
    """All three parse branches: 1→N primary expansion with tf, fallback
    recovery via the alternate (lang) key, and the empty-payload error
    guard — the reference's parser shape (parser_xml.py:208-209, :87-124)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import parse_entries_fallback

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["spark and dup and spark", "plain words only", "", None],
                pa.string()),
            "lang": pa.array(["en", "de", "es", None], pa.string()),
        }),
        str(sf / "documents.parquet"),
    )
    rows = sorted(
        parse_entries_fallback(str(sf)).to_pandas().itertuples(index=False),
        key=lambda r: (r.doc_id, r.entry_key),
    )
    got = [(r.doc_id, r.entry_key, r.n_occurrences, r.via) for r in rows]
    assert got == [
        (1, "dup", 1, "primary"),
        (1, "spark", 2, "primary"),
        (2, "lang:de", 1, "fallback"),
        (3, "", 0, "error"),
        (4, "", 0, "error"),
    ]


def test_new_ops_tiny_and_degenerate_corpora(tmp_path):
    """1-doc and all-empty-text corpora must not crash the parse operator:
    one doc parses to one row, and every empty payload to an error row."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import parse_entries_fallback

    one = tmp_path / "one"
    one.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([7], pa.int64()),
                  "text": pa.array(["spark alone"], pa.string()),
                  "lang": pa.array(["en"], pa.string())}),
        str(one / "documents.parquet"),
    )
    assert parse_entries_fallback(str(one)).count() == 1

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["", "", None], pa.string()),
                  "lang": pa.array(["en", "de", None], pa.string())}),
        str(empty / "documents.parquet"),
    )
    rows = parse_entries_fallback(str(empty)).to_pandas()
    assert (rows["via"] == "error").all() and len(rows) == 3


def test_train_val_split_stability(tmp_path):
    """Hash-split membership is a pure function of doc_id: assignments are
    stable under corpus growth (old docs never migrate), fractions are
    roughly honored, and every doc gets exactly one split."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import train_val_split

    sf_a, sf_b = tmp_path / "a", tmp_path / "b"
    for d, n in ((sf_a, 300), (sf_b, 600)):  # b = a grown by 300 docs
        d.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(range(n), pa.int64()),
                      "text": pa.array(["x"] * n, pa.string())}),
            str(d / "documents.parquet"),
        )
    a = train_val_split(str(sf_a)).to_pandas().set_index("doc_id")["split"]
    b = train_val_split(str(sf_b)).to_pandas().set_index("doc_id")["split"]
    assert (b.loc[a.index] == a).all()  # growth never migrates old docs
    frac = (b == "train").mean()
    assert 0.82 < frac < 0.97
    assert set(b.unique()) <= {"train", "val", "test"}


def test_concat_chunks_offsets(tmp_path):
    """Chunk assignment = concatenate each source stream in doc_id order and
    cut every N tokens; offsets are exact cumulative sums and docs can span
    chunk boundaries."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import concat_chunks

    sf = tmp_path / "sf"
    sf.mkdir()
    texts = ["a b c", "d e", "f g h i", "solo"]
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2, 10], pa.int64()),
                  "source": pa.array(["s1", "s1", "s1", "s2"], pa.string()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    got = {r["doc_id"]: r for r in concat_chunks(str(sf), chunk_tokens=4).to_pandas().to_dict("records")}
    assert (got[0]["tok_offset"], got[0]["chunk_first"], got[0]["chunk_last"]) == (0, 0, 0)
    assert (got[1]["tok_offset"], got[1]["chunk_first"], got[1]["chunk_last"]) == (3, 0, 1)  # spans
    assert (got[2]["tok_offset"], got[2]["chunk_first"], got[2]["chunk_last"]) == (5, 1, 2)
    assert (got[10]["tok_offset"], got[10]["chunk_first"]) == (0, 0)  # own stream


def test_concat_chunks_multiblock_prefix_sum(tmp_path):
    """The two-round distributed prefix sum must stay exact when one source
    stream SPANS multiple sorted blocks (tiny target block size forces the
    cross-block offset fold to actually run)."""
    import ray.data
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import concat_chunks

    n = 3000
    sf = tmp_path / "sf"
    sf.mkdir()
    # one giant source + a second small one; token counts vary per doc
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "source": pa.array(["big"] * (n - 100) + ["small"] * 100, pa.string()),
            "text": pa.array([" ".join(["tok"] * (1 + i % 7)) for i in range(n)],
                             pa.string()),
        }),
        str(sf / "documents.parquet"),
    )
    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024  # ~8 KB blocks → many blocks
    try:
        got = concat_chunks(str(sf), chunk_tokens=64).to_pandas()
    finally:
        ctx.target_max_block_size = old
    got = got.sort_values(["source", "doc_id"], ignore_index=True)
    # naive single-process ground truth
    exp_off = {}
    run = {}
    for i in range(n):
        s = "big" if i < n - 100 else "small"
        exp_off[i] = run.get(s, 0)
        run[s] = run.get(s, 0) + 1 + i % 7
    assert (got.set_index("doc_id")["tok_offset"].to_dict() == exp_off)


def test_concat_chunks_empty_corpus(tmp_path):
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import concat_chunks

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "source": pa.array([], pa.string()),
                  "text": pa.array([], pa.string())}),
        str(sf / "documents.parquet"),
    )
    df = concat_chunks(str(sf)).to_pandas()
    assert len(df) == 0
    assert set(df.columns) >= {"doc_id", "source", "n_tokens", "tok_offset",
                               "chunk_first", "chunk_last"} or df.empty


def test_repetition_scores_known_values(tmp_path):
    """Hand-computed Gopher-style repetition ratios."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import repetition_scores

    texts = [
        "a b a b a",   # 5 tokens, 2 distinct; top 'a'=3; 2grams: ab ba ab ba → 2 distinct of 4
        "x y z",       # all distinct; 2grams xy yz distinct
        "w w w w",     # 4 tokens 1 distinct; 2grams ww ww ww → 1 distinct of 3
        "",
        None,
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    out = {r["doc_id"]: r for r in repetition_scores(str(tmp_path)).take_all()}
    assert out[0]["n_tokens"] == 5
    assert out[0]["dup_token_ratio"] == round(3 / 5, 6)
    assert out[0]["top_token_ratio"] == round(3 / 5, 6)
    assert out[0]["dup_2gram_ratio"] == round(2 / 4, 6)
    assert out[1]["dup_token_ratio"] == 0.0
    assert out[1]["dup_2gram_ratio"] == 0.0
    assert out[2]["dup_token_ratio"] == 0.75
    assert out[2]["top_token_ratio"] == 1.0
    assert out[2]["dup_2gram_ratio"] == round(2 / 3, 6)
    for i in (3, 4):
        assert out[i]["n_tokens"] == 0
        assert out[i]["dup_token_ratio"] == 0.0
        assert out[i]["dup_2gram_ratio"] == 0.0


def test_top_terms_per_lang_known_values(tmp_path):
    """Hand-computed grouped heavy hitters with pinned tiebreak."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import top_terms_per_lang

    rows = [
        ("en", "cat dog cat bird"),
        ("en", "dog cat"),
        ("es", "gato gato perro"),
        ("es", None),
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(rows)), pa.int64()),
                  "lang": pa.array([r[0] for r in rows], pa.string()),
                  "text": pa.array([r[1] for r in rows], pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    t = top_terms_per_lang(str(tmp_path), k=2)
    got = list(zip(t["lang"].to_pylist(), t["term"].to_pylist(),
                   t["c"].to_pylist(), t["rank"].to_pylist()))
    # en: cat=3 dog=2 bird=1 → top2 cat,dog; es: gato=2 perro=1
    assert sorted(got) == sorted([
        ("en", "cat", 3, 1), ("en", "dog", 2, 2),
        ("es", "gato", 2, 1), ("es", "perro", 1, 2),
    ])


def test_top_terms_tiebreak_is_term_ascending(tmp_path):
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import top_terms_per_lang

    pq.write_table(
        pa.table({"doc_id": pa.array([0], pa.int64()),
                  "lang": pa.array(["en"], pa.string()),
                  "text": pa.array(["zz aa mm"], pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    t = top_terms_per_lang(str(tmp_path), k=2)
    assert t["term"].to_pylist() == ["aa", "mm"]  # all count 1 → term asc
    assert t["rank"].to_pylist() == [1, 2]


def _write_docs(tmp_path, rows, lang="en", source="s0"):
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array(rows, pa.string()),
            "lang": pa.array([lang] * len(rows), pa.string()),
            "source": pa.array([source] * len(rows), pa.string()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    return str(tmp_path)


def test_dedup_substring_known_values(tmp_path):
    from librecatastro_ray.pipelines.training import dedup_substring

    w8 = "w1 w2 w3 w4 w5 w6 w7 w8"
    rows = [
        w8 + " tailone",          # doc 0: windows [w1..w8], [w2..tailone]
        "head " + w8,             # doc 1: [head..w7], [w1..w8] (shared w/ 0)
        "short doc",              # doc 2: dl=2 < 8 → 0 windows
        w8 + " " + w8,            # doc 3: 9 windows, [w1..w8] twice (self-dup)
    ]
    _write_docs(tmp_path, rows)
    d = dedup_substring(str(tmp_path), k=8).to_pandas().set_index("doc_id").sort_index()
    assert d.loc[2, "n_windows"] == 0 and d.loc[2, "n_dup_windows"] == 0
    assert d.loc[0, "n_windows"] == 2
    assert d.loc[1, "n_windows"] == 2
    assert d.loc[3, "n_windows"] == 9
    # the w1..w8 gram occurs in docs 0, 1 and twice in 3 → every position
    # of it is a dup window
    assert d.loc[0, "n_dup_windows"] == 1
    assert d.loc[1, "n_dup_windows"] == 1
    assert d.loc[3, "n_dup_windows"] == 2


def test_dedup_substring_no_dups(tmp_path):
    from librecatastro_ray.pipelines.training import dedup_substring

    _write_docs(tmp_path, ["a b c d e f g h i", "j k l m n o p q r"])
    d = dedup_substring(str(tmp_path), k=8).to_pandas()
    assert (d.n_dup_windows == 0).all()
    assert sorted(d.n_windows) == [2, 2]


def test_dedup_substring_bounded_partitions(tmp_path):
    """Scale-hardening gate (round-5 ask #1): at ≥10⁶ gram rows with EVERY
    gram duplicated (the pre-round-5 materialize() worst case — the >1-count
    gram set is the whole gram table), the per-partition layout keeps each
    stage-2 task's load at ~1/P of the gram set, so peak memory is one
    partition, never the corpus-wide set.  Result correctness is asserted
    exactly (every window duplicated, count from the repeat structure)."""
    import random

    from librecatastro_ray.pipelines.training import dedup_substring

    rng = random.Random(7)
    vocab = [f"t{i}" for i in range(500)]
    n_docs, tokens_per_doc = 520, 1000
    base_docs = [
        " ".join(rng.choice(vocab) for _ in range(tokens_per_doc))
        for _ in range(n_docs)
    ]
    # each doc appears twice → every k-window occurs ≥2× corpus-wide
    _write_docs(tmp_path, base_docs + base_docs)
    stats: dict = {}
    P = 32
    d = (
        dedup_substring(str(tmp_path), k=8, num_partitions=P, stats_out=stats)
        .to_pandas()
    )
    n_win = tokens_per_doc - 7
    total = stats["total_gram_rows"]
    assert total >= 1_000_000
    assert stats["n_partitions"] == P
    # boundedness: the largest single-task load is ~total/P, not ~total
    assert stats["max_partition_rows"] <= 2 * total / P
    assert (d["n_windows"] == n_win).all()
    assert (d["n_dup_windows"] == n_win).all()
    assert len(d) == 2 * n_docs


# ---------------------------------------------------------------------------
# latent-regression pins (round-5 ask #4: the ADVICE.md latents, each with a
# targeted test so the fixed behavior can never silently regress)
# ---------------------------------------------------------------------------


def test_shuffle_width_explicit_override_honored():
    """An explicit num_partitions is returned unchanged — even above the
    CPU clamp and on tiny row counts (the at-scale caller knows its
    cluster; the clamp is only the default heuristic)."""
    from librecatastro_ray.pipelines.training import _shuffle_width

    assert _shuffle_width(10, 4096, 128) == 128
    assert _shuffle_width(0, 1, 7) == 7
    assert _shuffle_width(10**9, 1, 3) == 3
    assert 2 <= _shuffle_width(10, 4096, None) <= 64


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason=f"no test-data tables at {SF_DIR}")
def test_curate_corpus_to_parquet_matches_gate(tmp_path):
    """Round-5 ask #6: the production path streams the curated set to
    parquet partitioned by lang_pred (blocks → files, nothing corpus-scale
    on the driver) and its content equals the gate-shaped table exactly."""
    import pyarrow.dataset as pads

    from librecatastro_ray.pipelines.training import (
        curate_corpus, curate_corpus_to_parquet,
    )

    sf = SF_DIR
    gate = curate_corpus(sf).to_pandas()
    rep = curate_corpus_to_parquet(sf, str(tmp_path / "curated"))
    parts = sorted(p.name for p in (tmp_path / "curated").iterdir())
    assert parts and all(p.startswith("lang_pred=") for p in parts)
    assert rep["n_rows"] == len(gate)
    got = (
        pads.dataset(str(tmp_path / "curated"), format="parquet",
                     partitioning="hive")
        .to_table().to_pandas()
        .astype({"lang_pred": str})[gate.columns.tolist()]
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, gate)
