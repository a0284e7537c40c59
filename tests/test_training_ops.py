"""Unit tests for the training-data ops: vectorized hash identity (simhash /
fingerprints vs the scalar reference recurrences), minhash recall, the
distributed LSH and n-gram verifies, near-dup clustering, the dedup,
per-doc scoring, split, chunking and parse operators, and the curation
pipeline's partitioned-parquet output."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from librecatastro_ray.pipelines.training import (
    MinHasher,
    SimHasher,
    _char_ngrams,
    _fingerprint_batch,
)

# the sf0.001 test-data tables in the ``testdata`` directory beside the checkout
SF_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "testdata", "sf0.001",
)


def _jac(a, b, n=4):
    sa, sb = _char_ngrams(a.lower(), n), _char_ngrams(b.lower(), n)
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


def test_minhash_signature_estimates_jaccard():
    mh = MinHasher(seed=42)
    a = "the quick brown fox jumps over the lazy dog and runs far away today"
    b = "the quick brown fox jumps over the lazy dog and runs far away tonight"
    c = "completely different content with nothing shared at all whatsoever xyz"
    sa, sb, sc = mh.signature(a), mh.signature(b), mh.signature(c)
    est_ab = (sa == sb).mean()
    est_ac = (sa == sc).mean()
    true_ab = _jac(a, b)
    assert abs(est_ab - true_ab) < 0.25
    assert est_ac < 0.2
    # determinism
    assert (MinHasher(seed=42).signature(a) == sa).all()


def test_minhash_batch_matches_single():
    """The batched signature path must equal per-doc signatures (segmented
    reduceat correctness, including empty docs mid-batch)."""
    mh = MinHasher(seed=42)
    texts = ["hello world example text", "", "abc", "another document body here", None]
    batch_sigs = mh.signatures([t or "" for t in texts])
    for i, t in enumerate(texts):
        assert (batch_sigs[i] == mh.signature(t or "")).all(), i


def test_minhash_lsh_finds_near_duplicates():
    """LSH bands (16x4) catch pairs with jaccard ~>0.8 with near-certainty."""
    mh = MinHasher(seed=42)
    base = " ".join(f"tok{i:03d}" for i in range(100))
    near = base.replace("tok050", "tok999")  # ~high overlap
    assert _jac(base, near) > 0.8
    batch = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array([base, near], pa.string())})
    bands = mh(batch).to_pandas()
    b0 = set(map(tuple, bands[bands.doc_id == 0][["band", "bucket"]].values))
    b1 = set(map(tuple, bands[bands.doc_id == 1][["band", "bucket"]].values))
    assert b0 & b1, "near-duplicates must share at least one LSH band bucket"


def test_minhash_lsh_distributed_verify(tmp_path):
    """End-to-end distributed LSH over a corpus with PLANTED near-dups: the
    verified output equals the exact all-pairs 4-gram Jaccard."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import minhash_lsh_candidates

    rng = np.random.RandomState(3)
    vocab = [f"w{i:03d}" for i in range(300)]
    texts = []
    for i in range(60):
        toks = [vocab[rng.randint(300)] for _ in range(80)]
        texts.append(" ".join(toks))
    # plant 5 near-dup pairs (one-token edits)
    for i in range(5):
        t = texts[i].split()
        t[7] = "zzz"
        texts[40 + i] = " ".join(t)
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    got = minhash_lsh_candidates(str(sf), verify_threshold=0.6).to_pylist()
    # exact brute force
    exp = []
    for a in range(60):
        for b in range(a + 1, 60):
            j = round(_jac(texts[a], texts[b]), 6)
            if j >= 0.6:
                exp.append({"doc_a": a, "doc_b": b, "jaccard": j})
    assert len(exp) >= 5
    assert got == exp


def _scalar_simhash(s: str) -> int:
    from collections import Counter

    from librecatastro_ray.functions.hashing import term_hash
    from librecatastro_ray.functions.tokenizer import tokenize

    acc = np.zeros(64, dtype=np.int64)
    for tok, tf in Counter(tokenize(s)).items():
        h = term_hash(tok)
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & 1
        acc += np.where(bits == 1, tf, -tf)
    sim = 0
    for bit in np.nonzero(acc > 0)[0]:
        sim |= 1 << int(bit)
    return sim & 0x7FFFFFFFFFFFFFFF


def test_simhash_vectorized_identical_to_scalar():
    texts = [
        "the quick brown fox", "", "def foo(bar): return bar + 1",
        "aaa aaa aaa bbb", "mixed Case TOKENS with_underscores 123",
    ]
    sh = SimHasher()
    got = sh(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                       "text": pa.array(texts, pa.string())}))["simhash"].to_pylist()
    for i, t in enumerate(texts):
        assert int(got[i]) == _scalar_simhash(t), t


def test_simhash_locality():
    sh = SimHasher()
    base = " ".join(f"word{i:03d}" for i in range(80))
    near = base.replace("word007", "word777")
    far = " ".join(f"other{i:03d}" for i in range(80))
    h = sh(pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                     "text": pa.array([base, near, far], pa.string())}))["simhash"].to_pylist()
    def ham(x, y):
        return bin(int(x) ^ int(y)).count("1")
    assert ham(h[0], h[1]) < ham(h[0], h[2])
    assert ham(h[0], h[1]) <= 8
    assert ham(h[0], h[2]) >= 16


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


def test_near_dup_clusters_transitive(tmp_path):
    """Union-find over verified pairs: transitive chains collapse into one
    cluster keyed by the smallest doc_id."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import near_dup_clusters

    rng = np.random.RandomState(5)
    vocab = [f"w{i:03d}" for i in range(300)]
    texts = [" ".join(vocab[rng.randint(300)] for _ in range(80)) for _ in range(50)]
    # cluster {0, 40, 45}: two different single-token edits of doc 0
    t = texts[0].split(); t[7] = "zzz"; texts[40] = " ".join(t)
    t = texts[0].split(); t[9] = "qqq"; texts[45] = " ".join(t)
    # cluster {3, 41}
    t = texts[3].split(); t[5] = "rrr"; texts[41] = " ".join(t)
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(50), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    out = {r["doc_id"]: r["cluster_keep"] for r in near_dup_clusters(str(sf), 0.6).to_pylist()}
    assert out[0] == 0 and out[40] == 0 and out[45] == 0
    assert out[3] == 3 and out[41] == 3
    assert set(out) == {0, 40, 45, 3, 41}


def test_minhash_lsh_corpus_scale_candidates(tmp_path):
    """A 100%-pairwise-similar corpus (every pair is a candidate AND a true
    near-dup → candidate ids == the whole corpus): the pipeline must complete
    through the distributed text semi-join — nothing candidate-scale is
    collected on the driver — and the verified output must equal the exact
    all-pairs Jaccard (here: every pair)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import minhash_lsh_candidates

    n = 40  # C(40,2) = 780 pairs, all true dups
    base = " ".join(f"tok{i:03d}" for i in range(120))
    texts = []
    for i in range(n):
        t = base.split()
        t[i % len(t)] = f"edit{i:03d}"
        texts.append(" ".join(t))
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    got = minhash_lsh_candidates(str(sf), verify_threshold=0.6).to_pylist()
    exp = []
    for a in range(n):
        for b in range(a + 1, n):
            j = round(_jac(texts[a], texts[b]), 6)
            if j >= 0.6:
                exp.append({"doc_a": a, "doc_b": b, "jaccard": j})
    assert len(exp) == n * (n - 1) // 2  # every pair is a near-dup
    assert got == exp


def test_near_dup_clusters_accepts_precomputed_pairs():
    """near_dup_clusters(pairs=...) must skip the LSH pipeline and cluster
    the given pair table directly."""
    from librecatastro_ray.pipelines.training import near_dup_clusters

    pairs = pa.table({"doc_a": pa.array([1, 2, 7], pa.int64()),
                      "doc_b": pa.array([2, 5, 9], pa.int64()),
                      "jaccard": pa.array([0.9, 0.8, 0.7], pa.float64())})
    out = {r["doc_id"]: r["cluster_keep"]
           for r in near_dup_clusters("/nonexistent", pairs=pairs).to_pylist()}
    assert out == {1: 1, 2: 1, 5: 1, 7: 7, 9: 7}


def test_ngram_jaccard_distributed_matches_brute_force(tmp_path):
    """The self-join + distributed-verify path equals the exact per-source
    all-pairs 3-gram Jaccard."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import ngram_jaccard_pairs

    rng = np.random.RandomState(11)
    vocab = [f"w{i:03d}" for i in range(200)]
    texts, sources = [], []
    for i in range(40):
        texts.append(" ".join(vocab[rng.randint(200)] for _ in range(60)))
        sources.append(f"src{i % 3}")
    # plant near-dups inside src0 and across (cross-source must NOT pair)
    t = texts[0].split(); t[3] = "zzz"; texts[30] = " ".join(t); sources[30] = "src0"
    sources[0] = "src0"
    t = texts[1].split(); t[5] = "qqq"; texts[31] = " ".join(t); sources[31] = "src2"
    sources[1] = "src1"  # near-dup split across sources: excluded by blocking
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "source": pa.array(sources, pa.string()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    got = ngram_jaccard_pairs(str(sf), 0.62).to_pylist()

    def jac3(a, b):
        sa, sb = _char_ngrams(a.lower(), 3), _char_ngrams(b.lower(), 3)
        u = len(sa | sb)
        return len(sa & sb) / u if u else 0.0

    exp = []
    for a in range(40):
        for b in range(a + 1, 40):
            if sources[a] != sources[b]:
                continue
            j = round(jac3(texts[a], texts[b]), 6)
            if j >= 0.62:
                exp.append({"doc_a": a, "doc_b": b, "jaccard": j})
    assert any(p["doc_a"] == 0 and p["doc_b"] == 30 for p in exp)
    assert not any({p["doc_a"], p["doc_b"]} == {1, 31} for p in exp)
    assert got == exp


def test_ngram_jaccard_overcap_bucket_counts_drops(tmp_path):
    """An over-cap bucket keeps the cap smallest doc_ids, computes THEIR
    pairs exactly, and returns the dropped-pair count as a metric."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import ngram_jaccard_pairs

    base = " ".join(f"tok{i:03d}" for i in range(50))
    texts = []
    for i in range(8):
        t = base.split(); t[i] = f"e{i}"; texts.append(" ".join(t))
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(8), pa.int64()),
                  "source": pa.array(["s0"] * 8, pa.string()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    pairs, stats = ngram_jaccard_pairs(str(sf), 0.5, bucket_cap=5, return_stats=True)
    got_ids = {(r["doc_a"], r["doc_b"]) for r in pairs.to_pylist()}
    # all surviving pairs are within the 5 smallest doc_ids
    assert got_ids == {(a, b) for a in range(5) for b in range(a + 1, 5)}
    assert stats["dropped_pairs"] == 8 * 7 // 2 - 5 * 4 // 2
    assert stats["capped_sources"] == {"s0": 8}


def test_simhash_banding_no_false_negatives():
    """Pigeonhole: any two signatures within Hamming distance `radius` share
    at least one (band, bucket) — zero false negatives by construction."""
    from librecatastro_ray.pipelines.training import _simhash_bands

    rng = np.random.RandomState(11)
    radius = 3
    sigs, mates = [], []
    for _ in range(200):
        s = rng.randint(0, 1 << 62, dtype=np.int64)
        flips = rng.choice(63, size=rng.randint(0, radius + 1), replace=False)
        m = s
        for f in flips:
            m ^= np.int64(1) << np.int64(f)
        sigs.append(s)
        mates.append(m)
    t = pa.table({"doc_id": pa.array(range(400), pa.int64()),
                  "simhash": pa.array(sigs + mates, pa.int64())})
    b = _simhash_bands(t, radius).to_pandas()
    by_doc = b.groupby("doc_id").apply(
        lambda g: set(zip(g["band"], g["bucket"])), include_groups=False)
    for i in range(200):
        assert by_doc[i] & by_doc[200 + i], f"pair {i} lost by banding"


def test_dedup_simhash_matches_brute_force(tmp_path):
    """End-to-end banded dedup over a corpus with planted near-dups equals
    the exact all-pairs popcount (banding is exact: no false negatives, and
    verification kills false positives)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import (
        SimHasher, _popcount64, dedup_simhash)

    rng = np.random.RandomState(5)
    vocab = [f"w{i:03d}" for i in range(300)]
    texts = []
    for i in range(60):
        texts.append(" ".join(vocab[rng.randint(300)] for _ in range(80)))
    for i in range(6):  # plant near-dups: one-token edits → tiny Hamming gap
        t = texts[i].split()
        t[11] = "zzz"
        texts[50 + i] = " ".join(t)
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    got = dedup_simhash(str(sf), radius=3).to_pylist()
    sh = SimHasher()(pa.table({"doc_id": pa.array(range(60), pa.int64()),
                               "text": pa.array(texts, pa.string())}))
    s = sh["simhash"].to_numpy().astype(np.uint64)
    exp = []
    for a in range(60):
        for b in range(a + 1, 60):
            h = int(_popcount64(np.array([s[a] ^ s[b]]))[0])
            if h <= 3:
                exp.append({"doc_a": a, "doc_b": b, "hamming": h})
    assert len(exp) >= 1  # the planted dups must actually be close
    assert got == exp


def test_dedup_simhash_degenerate_bucket(tmp_path):
    """A corpus of identical docs (one shared signature → every band bucket
    over-cap) must route through the oversized-bucket per-group path and
    still produce the exact pair set."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import dedup_simhash

    n = 12
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(["alpha beta gamma delta"] * n, pa.string())}),
        str(sf / "documents.parquet"),
    )
    got = dedup_simhash(str(sf), radius=3, bucket_cap=5).to_pylist()
    # the cap both routes AND truncates: only the 5 smallest doc_ids pair up
    exp = [{"doc_a": a, "doc_b": b, "hamming": 0}
           for a in range(5) for b in range(a + 1, 5)]
    assert got == exp


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
    """1-doc and all-empty-text corpora must not crash any round-3 op (the
    empty-normal-side join and empty-candidate paths)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import (
        dedup_simhash, parse_entries_fallback)

    one = tmp_path / "one"
    one.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([7], pa.int64()),
                  "text": pa.array(["spark alone"], pa.string()),
                  "lang": pa.array(["en"], pa.string())}),
        str(one / "documents.parquet"),
    )
    assert dedup_simhash(str(one)).num_rows == 0  # no pairs from one doc
    assert parse_entries_fallback(str(one)).count() == 1

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["", "", None], pa.string()),
                  "lang": pa.array(["en", "de", None], pa.string())}),
        str(empty / "documents.parquet"),
    )
    # three empty docs share simhash 0 → all pairs at hamming 0
    assert dedup_simhash(str(empty)).num_rows == 3
    rows = parse_entries_fallback(str(empty)).to_pandas()
    assert (rows["via"] == "error").all() and len(rows) == 3


def test_dedup_simhash_overcap_stats(tmp_path):
    """Over-cap degenerate buckets are truncated LOUDLY: return_stats
    surfaces the bucket count and a dropped-pairs bound."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import dedup_simhash

    n = 12
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(["same text here"] * n, pa.string())}),
        str(sf / "documents.parquet"),
    )
    pairs, stats = dedup_simhash(str(sf), radius=3, bucket_cap=5, return_stats=True)
    assert pairs.num_rows == 5 * 4 // 2  # truncated to the 5 smallest ids
    assert stats["overcap_buckets"] == 4  # all 4 bands share one bucket
    # per bucket: C(12,2) - C(5,2) = 66 - 10 = 56 dropped (bound, per band)
    assert stats["dropped_pairs_bound"] == 4 * 56
    # under-cap corpus reports zero drops
    pairs2, stats2 = dedup_simhash(str(sf), radius=3, return_stats=True)
    assert stats2 == {"overcap_buckets": 0, "dropped_pairs_bound": 0}
    assert pairs2.num_rows == n * (n - 1) // 2


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


def test_sketch_prefilter_large_docs_identity_and_savings(tmp_path):
    """Large-doc corpus (the regime the sketch path targets): the gram-sketch
    pre-filter must (a) auto-engage, (b) produce the IDENTICAL verified pair
    set as the direct text-attach path, and (c) report a real
    bytes-through-join reduction (text attaches only to survivors)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import (
        _SKETCH_MIN_TLEN,
        minhash_lsh_candidates,
        ngram_jaccard_pairs,
    )

    rng = np.random.RandomState(3)
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789 ", np.uint8)
    doc_len = 10000
    assert doc_len > _SKETCH_MIN_TLEN

    def rand_doc() -> str:
        return alphabet[rng.randint(0, len(alphabet), doc_len)].tobytes().decode()

    base = rand_doc()
    texts = []
    for i in range(40):
        if i % 4 == 0 and i:  # near-dup of doc 0: mutate ~2% of characters
            chars = np.frombuffer(base.encode(), np.uint8).copy()
            pos = rng.randint(0, doc_len, doc_len // 50)
            chars[pos] = alphabet[rng.randint(0, len(alphabet), len(pos))]
            texts.append(chars.tobytes().decode())
        else:
            texts.append(rand_doc())
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "source": pa.array(["s0"] * 40, pa.string()),
                  "lang": pa.array(["en"] * 40, pa.string()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )

    on_t, on_s = ngram_jaccard_pairs(str(sf), 0.62, return_stats=True)
    off_t = ngram_jaccard_pairs(str(sf), 0.62, sketch=False)
    assert on_s["sketch_prefilter"] is True  # auto-engaged on large docs
    assert on_t.to_pydict() == off_t.to_pydict()
    assert len(on_t) > 0  # the planted near-dup cluster verified
    # one bucket of 40 docs = 780 candidates; only the near-dup pairs (plus
    # margin-window stragglers) should survive to the text attach
    assert on_s["prefilter_survivors"] < on_s["candidates"]
    assert on_s["text_bytes_saved"] > 0
    assert on_s["text_bytes_attached"] < (
        on_s["text_bytes_saved"] + on_s["text_bytes_attached"]) // 2

    lsh_on, lsh_s = minhash_lsh_candidates(str(sf), 0.6, return_stats=True)
    lsh_off = minhash_lsh_candidates(str(sf), 0.6, sketch=False)
    assert lsh_s["sketch_prefilter"] is True
    assert lsh_on.to_pydict() == lsh_off.to_pydict()
    assert len(lsh_on) > 0


def test_sketch_prefilter_bypassed_on_small_docs(tmp_path):
    """Short-doc corpus: the sketch would outweigh the text — the auto
    heuristic must BYPASS it (direct text attach, round-3 behavior)."""
    import pyarrow.parquet as pq

    from librecatastro_ray.pipelines.training import ngram_jaccard_pairs

    texts = [f"short doc {i} alpha beta gamma" for i in range(20)] + [
        "short doc 0 alpha beta gamma"
    ]
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(21), pa.int64()),
                  "source": pa.array(["s0"] * 21, pa.string()),
                  "lang": pa.array(["en"] * 21, pa.string()),
                  "text": pa.array(texts, pa.string())}),
        str(sf / "documents.parquet"),
    )
    out, stats = ngram_jaccard_pairs(str(sf), 0.62, return_stats=True)
    assert stats["sketch_prefilter"] is False
    assert "prefilter_survivors" not in stats
    assert len(out) > 0  # dup of doc 0 still verified on the direct path


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


def test_simhash_radius_bounds():
    """radius outside [0, 63] is rejected up front (a radius ≥ 64 would hit
    the undefined uint64 shift the band mask special-cases; negative radius
    would fan out zero bands)."""
    from librecatastro_ray.pipelines.training import dedup_simhash

    for bad in (-1, 64, 1000):
        with pytest.raises(ValueError, match="radius"):
            dedup_simhash("/nonexistent", radius=bad)


def test_simhash_radius_zero_exact_equality(tmp_path):
    """radius=0 is VALID (one full-width band — the shift-by-64 path the
    mask special-cases): pairs are exactly the identical-signature pairs."""
    from librecatastro_ray.pipelines.training import dedup_simhash

    _write_docs(tmp_path, ["alpha beta gamma delta", "alpha beta gamma delta",
                           "something entirely different here"])
    out = dedup_simhash(str(tmp_path), radius=0).to_pandas()
    assert out[["doc_a", "doc_b"]].values.tolist() == [[0, 1]]
    assert (out["hamming"] == 0).all()


def test_shuffle_width_explicit_override_honored():
    """An explicit num_partitions is returned unchanged — even above the
    CPU clamp and on tiny row counts (the at-scale caller knows its
    cluster; the clamp is only the default heuristic)."""
    from librecatastro_ray.pipelines.training import _shuffle_width

    assert _shuffle_width(10, 4096, 128) == 128
    assert _shuffle_width(0, 1, 7) == 7
    assert _shuffle_width(10**9, 1, 3) == 3
    assert 2 <= _shuffle_width(10, 4096, None) <= 64


def test_pair_candidates_two_carry_union_roundtrip():
    """≥2 carry columns survive the UNION of the degenerate-bucket branch
    (_pairs_in_bucket) with the self-join branch: both emit all-_a-then-
    all-_b column groups, so every pair's carried values equal the per-doc
    inputs regardless of which branch produced it."""
    import ray.data

    from librecatastro_ray.pipelines.training import _bucketed_pair_candidates

    # band 0 / bucket 1: 5 docs (over cap=3 → degenerate branch, capped to
    # the 3 smallest); band 0 / bucket 2: docs 10, 11 (self-join branch)
    docs = [0, 1, 2, 3, 4, 10, 11]
    buckets = [1, 1, 1, 1, 1, 2, 2]
    bands = ray.data.from_arrow(pa.table({
        "band": pa.array([0] * len(docs), pa.int64()),
        "bucket": pa.array(buckets, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "s1": pa.array([d * 10 for d in docs], pa.int64()),
        "s2": pa.array([d * 100 + 7 for d in docs], pa.int64()),
    }))
    out = (
        _bucketed_pair_candidates(bands, num_partitions=2, cap=3,
                                  carry=("s1", "s2"))
        .to_pandas().sort_values(["doc_a", "doc_b"], ignore_index=True)
    )
    assert out[["doc_a", "doc_b"]].values.tolist() == [
        [0, 1], [0, 2], [1, 2], [10, 11]
    ]
    for _, r in out.iterrows():
        assert r["s1_a"] == r["doc_a"] * 10 and r["s1_b"] == r["doc_b"] * 10
        assert r["s2_a"] == r["doc_a"] * 100 + 7
        assert r["s2_b"] == r["doc_b"] * 100 + 7


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
