"""Training-data pipeline operators over the ``documents`` table: text
analysis, splitting, sequence packing, deduplication and curation.

These are the large-scale-corpus operations a 100 TB training-data pipeline
needs, expressed Ray-Data-first: vectorized map_batches for per-doc scoring,
bucketed groupby for pairwise work (never an unbucketed cross join), broadcast
(ray.put) for small query sides, partial top-k per batch before the final
merge.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

# shared token/char semantics
STOPWORDS = ["a", "and", "in", "is", "it", "of", "the", "to"]
LANG_MARKERS = {
    "de": ["das", "der", "die", "ist", "und"],
    "en": ["and", "is", "of", "the"],
    "es": ["de", "el", "la", "los", "y"],
    "fr": ["des", "et", "le", "les", "un"],
}

_TOKEN_COUNT_RE = r"[a-z0-9_]+"
_ALPHA_CHAR_RE = r"[a-z0-9_]"


def _docs_ds(sf_dir: str, columns: list[str]) -> ray.data.Dataset:
    from librecatastro_ray.sources.readers import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _alt(words: list[str]) -> str:
    return r"\b(?:" + "|".join(words) + r")\b"


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------


def _re_count(arr: pa.Array, pattern: str) -> np.ndarray:
    import pyarrow.compute as pc

    return pc.count_substring_regex(arr, pattern).to_numpy().astype(np.int64)


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    """Per-doc text features in ONE corpus pass: char/token counts
    (canonical + BPE-ish pre-tokens), avg token length, punctuation ratio,
    stopword ratio, plus the marker-word language-ID columns (per-language
    marker counts, argmax ``lang_pred`` with alphabetical tiebreak, 'und'
    when nothing matches) — zero-copy Arrow batches, all counts via re2
    kernels (``pc.count_substring_regex``), ratios in numpy.  The lang
    columns used to be a separate ``lang_id`` registry entry; folding them
    here halves the corpus reads for the per-doc text-feature family."""
    import pyarrow.compute as pc

    langs = sorted(LANG_MARKERS)

    def fn(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch["text"].combine_chunks(), "")
        low = pc.utf8_lower(text)
        n_chars = pc.utf8_length(text).to_numpy().astype(np.int64)
        n_tokens = _re_count(low, _TOKEN_COUNT_RE)
        alpha_chars = _re_count(low, _ALPHA_CHAR_RE)
        ws_chars = _re_count(text, r"\s")
        n_ws_tokens = _re_count(text, r"\S+")  # whitespace-delimited tokens
        n_stop = _re_count(low, _alt(STOPWORDS))
        tok_div = np.where(n_tokens > 0, n_tokens, 1)
        chr_div = np.where(n_chars > 0, n_chars, 1)
        counts = np.stack(
            [_re_count(low, _alt(LANG_MARKERS[lang])) for lang in langs], axis=1
        )
        best_idx = np.argmax(counts, axis=1)  # first (alphabetical) max
        best = np.array(langs, dtype=object)[best_idx]
        best[counts.max(axis=1) == 0] = "und"
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_ws_tokens": pa.array(n_ws_tokens, pa.int64()),
                "n_bpe_tokens": pa.array(_re_count(low, BPE_SPLIT_RE), pa.int64()),
                "avg_token_len": pa.array(
                    np.round(np.where(n_tokens > 0, alpha_chars / tok_div, 0.0), 6)
                ),
                "punct_ratio": pa.array(
                    np.round(
                        np.where(n_chars > 0, (n_chars - alpha_chars - ws_chars) / chr_div, 0.0),
                        6,
                    )
                ),
                "stop_ratio": pa.array(
                    np.round(np.where(n_tokens > 0, n_stop / tok_div, 0.0), 6)
                ),
                "lang_pred": pa.array(best, pa.string()),
                **{f"c_{lang}": pa.array(counts[:, i], pa.int64())
                   for i, lang in enumerate(langs)},
            }
        )

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", batch_size=4096
    )


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """n-gram/marker-word language ID heuristic: count per-language marker
    tokens (re2 kernels), argmax with alphabetical tiebreak, 'und' when
    nothing matches."""
    import pyarrow.compute as pc

    langs = sorted(LANG_MARKERS)

    def fn(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch["text"].combine_chunks(), ""))
        counts = np.stack(
            [_re_count(low, _alt(LANG_MARKERS[lang])) for lang in langs], axis=1
        )
        best_idx = np.argmax(counts, axis=1)  # first (alphabetical) max
        best = np.array(langs, dtype=object)[best_idx]
        best[counts.max(axis=1) == 0] = "und"
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(best, pa.string()),
                **{f"c_{lang}": pa.array(counts[:, i], pa.int64())
                   for i, lang in enumerate(langs)},
            }
        )

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", batch_size=4096
    )


def token_counts_by_lang(sf_dir: str) -> pa.Table:
    """Per-lang corpus totals — partial aggregate per batch (Arrow group-by
    kernels), then a tiny groupby over the partials (never shuffling
    row-level data)."""
    import pyarrow.compute as pc

    partial_schema = pa.schema(
        [("lang", pa.string()), ("n_docs", pa.int64()),
         ("total_tokens", pa.int64()), ("total_chars", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return partial_schema.empty_table()
        text = pc.fill_null(batch["text"].combine_chunks(), "")
        low = pc.utf8_lower(text)
        t = pa.table(
            {
                "lang": batch["lang"],
                "n_tokens": pa.array(_re_count(low, _TOKEN_COUNT_RE), pa.int64()),
                "n_chars": pc.utf8_length(text).cast(pa.int64()),
            }
        )
        g = t.group_by("lang", use_threads=False).aggregate(
            [([], "count_all"), ("n_tokens", "sum"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "n_docs": g["count_all"].cast(pa.int64()),
                "total_tokens": g["n_tokens_sum"],
                "total_chars": g["n_chars_sum"],
            }
        )

    partials = _docs_ds(sf_dir, ["lang", "text"]).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )
    final = (
        partials.groupby("lang")
        .aggregate(
            ray.data.aggregate.Sum("n_docs", alias_name="n_docs"),
            ray.data.aggregate.Sum("total_tokens", alias_name="total_tokens"),
            ray.data.aggregate.Sum("total_chars", alias_name="total_chars"),
        )
        .to_pandas()
    )
    return pa.Table.from_pandas(final.sort_values("lang", ignore_index=True), preserve_index=False)


_FP_MOD = np.uint64((1 << 61) - 1)  # Mersenne prime 2^61-1
_FP_BASE = np.uint64(1_000_003)  # < 2^20, so h*BASE splits into u64-safe parts


def _fp_horner_step(h: np.ndarray, th: np.ndarray) -> np.ndarray:
    """One exact Horner step ``(h*BASE + th) mod (2^61-1)`` vectorized in
    uint64 without overflow: split h = h_hi·2^41 + h_lo (h_hi < 2^20), use
    2^61 ≡ 1 (mod p) to fold h_hi·BASE·2^41, then one fold + conditional
    subtract.  Bit-identical to Python's arbitrary-precision
    ``(h*BASE + term_hash) % MOD``."""
    h_hi = h >> np.uint64(41)  # < 2^20
    h_lo = h & np.uint64((1 << 41) - 1)  # < 2^41
    t = h_hi * _FP_BASE  # < 2^40
    val = (t >> np.uint64(20)) + ((t & np.uint64(0xFFFFF)) << np.uint64(41)) + h_lo * _FP_BASE
    val = val + th  # both < 2^63 → sum < 2^64, no wrap
    val = (val >> np.uint64(61)) + (val & _FP_MOD)  # 2^61 ≡ 1 fold, < p + 8
    return np.where(val >= _FP_MOD, val - _FP_MOD, val)


def _fingerprint_batch(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Rolling Rabin-Karp fingerprints of the token streams of a whole batch.
    Vectorized ACROSS documents: tokens are hashed once per unique term, then
    the Horner recurrence iterates over token POSITIONS (max_dl rounds of
    uint64 vector math) instead of a per-doc per-token Python loop."""
    from librecatastro_ray.functions.hashing import term_hash
    from librecatastro_ray.functions.tokenizer import tokenize_batch

    _parent, terms, dl = tokenize_batch(texts)
    n_docs = len(dl)
    h = np.zeros(n_docs, dtype=np.uint64)
    if len(terms) == 0:
        return h.astype(np.int64)
    uniq, inv = np.unique(terms, return_inverse=True)
    hu = np.fromiter((term_hash(t) for t in uniq), dtype=np.uint64, count=len(uniq))
    th = hu[inv]  # token hashes in (doc, position) order
    off = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(dl[:-1], out=off[1:])
    for j in range(int(dl.max())):
        active = dl > j
        idx = off[active] + j
        h[active] = _fp_horner_step(h[active], th[idx])
    return h.astype(np.int64)


def doc_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Rolling polynomial fingerprint of the token stream (Rabin-Karp style,
    mod 2^61-1) — order-sensitive document signature.  Not SQL-expressible;
    bit-identity with the scalar Python recurrence is unit-tested."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(_fingerprint_batch(batch["text"]), pa.int64()),
            }
        )

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", batch_size=2048
    )


# the structured "entry" vocabulary the primary parse extracts (the test
# corpus has no XML; these rare-ish tokens play the role of parseable refs)
PRIMARY_ENTRY_TERMS = ["dup", "spark", "vector"]


def parse_entries_fallback(sf_dir: str) -> ray.data.Dataset:
    """B2/B3: 1→N record parse with an error-code guard and per-doc
    FALLBACK recovery — the reference's parser shape (parser_xml.py:194-310:
    one XML → N CadasterEntry rows with an error-code short-circuit at
    :208-209; parser_xml.py:87-124: a record whose primary parse yields
    nothing recovers through the alternate address key).

    Here: each doc expands to one row per DISTINCT primary entry term it
    contains (``via='primary'``, with its occurrence count); a doc with no
    primary entry recovers through its alternate key — the language field —
    as ``via='fallback'``; an empty payload short-circuits to a single
    ``via='error'`` row.  Fully vectorized: one Arrow-C++ tokenize+tf pass
    per batch, numpy membership/masking, no per-row Python."""
    import pyarrow.compute as pc

    from librecatastro_ray.functions.tokenizer import term_frequencies_batch

    prim_arr = np.array(PRIMARY_ENTRY_TERMS)

    def parse(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch["text"].combine_chunks(), "")
        langs = pc.fill_null(batch["lang"].combine_chunks(), "").to_numpy(
            zero_copy_only=False
        )
        ids = batch["doc_id"].to_numpy()
        tf_table, _dl = term_frequencies_batch(texts)
        rows = tf_table["row"].to_numpy()
        terms = tf_table["term"].to_numpy(zero_copy_only=False)
        tfs = tf_table["tf"].to_numpy()
        is_prim = np.isin(terms, prim_arr)
        p_rows, p_terms, p_tfs = rows[is_prim], terms[is_prim], tfs[is_prim]
        has_prim = np.zeros(len(ids), dtype=bool)
        has_prim[p_rows] = True
        empty = pc.equal(texts, "").to_numpy(zero_copy_only=False)
        fb = ~has_prim & ~empty  # non-empty doc, primary parse found nothing
        err = empty
        fb_keys = np.char.add("lang:", langs[fb].astype(str))
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([ids[p_rows], ids[fb], ids[err]]), pa.int64()
                ),
                "entry_key": pa.array(
                    np.concatenate([p_terms.astype(str), fb_keys,
                                    np.full(err.sum(), "", dtype=object)]),
                    pa.string(),
                ),
                "n_occurrences": pa.array(
                    np.concatenate([p_tfs,
                                    np.ones(int(fb.sum()), np.int64),
                                    np.zeros(int(err.sum()), np.int64)]),
                    pa.int64(),
                ),
                "via": pa.array(
                    ["primary"] * len(p_rows) + ["fallback"] * int(fb.sum())
                    + ["error"] * int(err.sum()),
                    pa.string(),
                ),
            }
        )

    return _docs_ds(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        parse, batch_format="pyarrow", batch_size=4096
    )


def train_val_split(
    sf_dir: str, val_frac: float = 0.05, test_frac: float = 0.05
) -> ray.data.Dataset:
    """Deterministic hash-based dataset split (the standard train/val/test
    assignment a training pipeline needs): each doc's 63-bit md5 hash of
    ``'split:<doc_id>'`` maps to a uniform u ∈ [0, 1); test takes the top
    ``test_frac``, val the next ``val_frac``, train the rest.  Stateless and
    embarrassingly parallel — membership is a pure function of doc_id, so
    the split is stable under re-runs, resharding and corpus growth
    (existing docs never migrate between splits; checked by
    ``test_train_val_split_stability``).  The md5 is computed directly —
    split keys are one-shot, so going through the term-hash LRU would fill
    it with never-reused entries and evict real term caching."""
    lo = 1.0 - val_frac - test_frac
    hi = 1.0 - test_frac
    scale = float(1 << 63)

    def md5_63(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode()).digest()[:8], "little"
        ) & 0x7FFFFFFFFFFFFFFF

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        u = np.fromiter(
            (md5_63(f"split:{int(d)}") for d in ids),
            dtype=np.int64, count=len(ids),
        ) / scale
        split = np.where(u < lo, "train", np.where(u < hi, "val", "test"))
        return pa.table({
            "doc_id": t["doc_id"],
            "split": pa.array(split, pa.string()),
            "u": pa.array(np.round(u, 6), pa.float64()),
        })

    return _docs_ds(sf_dir, ["doc_id"]).map_batches(
        assign, batch_format="pyarrow", batch_size=8192
    )


def concat_chunks(sf_dir: str, chunk_tokens: int = 512) -> ray.data.Dataset:
    """Concat-then-chunk sequence packing (the standard LLM pretraining
    regime: documents of one stream are concatenated in doc_id order and
    cut every ``chunk_tokens`` tokens).  Per doc: its token offset in the
    stream and the first/last chunk it lands in (a doc can span chunks).

    Distribution — the textbook TWO-ROUND DISTRIBUTED PREFIX SUM, so no
    single task ever holds a whole stream (a 100 TB corpus can have one
    multi-TB source): one token-count pass (vectorized tokenizer, 24 B/row
    key rows out) → key-only distributed sort by (source, doc_id) → round
    1 computes each sorted block's per-source token totals (tiny tables) →
    the driver folds them into per-(block, source) base offsets — O(blocks
    + sources) rows, never corpus-scale — → round 2 assigns chunks inside
    each block from its broadcast base offsets (vectorized segmented
    cumsum).  Raw Ray tasks carry rounds 1–2 because the Dataset API has
    no order-aware per-block index; the partitioning assumption is only
    that the SORT is correct.  ``test_concat_chunks_multiblock_prefix_sum``
    checks the offsets against a per-source cumsum across sorted blocks."""

    def counts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        low = pc.utf8_lower(pc.fill_null(t["text"].combine_chunks(), ""))
        return pa.table({
            "doc_id": t["doc_id"],
            "source": pc.fill_null(t["source"].combine_chunks(), ""),
            "n_tokens": pa.array(_re_count(low, _TOKEN_COUNT_RE), pa.int64()),
        })

    sorted_ds = (
        _docs_ds(sf_dir, ["doc_id", "source", "text"])
        .map_batches(counts, batch_format="pyarrow", batch_size=4096)
        .sort(["source", "doc_id"])  # key-only rows enter the sort
    )
    block_refs = list(sorted_ds.to_arrow_refs())  # globally ordered blocks

    _EMPTY_OUT = pa.table({
        "doc_id": pa.array([], pa.int64()), "source": pa.array([], pa.string()),
        "n_tokens": pa.array([], pa.int64()), "tok_offset": pa.array([], pa.int64()),
        "chunk_first": pa.array([], pa.int64()), "chunk_last": pa.array([], pa.int64()),
    })
    if not block_refs:
        return ray.data.from_arrow(_EMPTY_OUT)

    @ray.remote
    def block_sums(t: pa.Table) -> pa.Table:
        # guard BEFORE touching columns: an all-empty sorted dataset emits
        # SCHEMALESS empty blocks (Ray Data 2.49 pitfall)
        if t.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "total": pa.array([], pa.int64())})
        # per-source token totals of one sorted block (sources are runs)
        src = t["source"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy()
        change = np.ones(len(src), dtype=bool)
        change[1:] = src[1:] != src[:-1]
        starts = np.nonzero(change)[0]
        return pa.table({
            "source": pa.array(src[starts], pa.string()),
            "total": pa.array(np.add.reduceat(n, starts), pa.int64()),
        })

    summaries = ray.get([block_sums.remote(r) for r in block_refs])
    # driver fold: exclusive per-source running totals → each block's base
    # offset per source (O(blocks + sources) work and memory)
    bases: list[dict[str, int]] = []
    running: dict[str, int] = {}
    for summ in summaries:
        blk = {}
        for s_, tot in zip(summ["source"].to_pylist(), summ["total"].to_pylist()):
            blk[s_] = running.get(s_, 0)
            running[s_] = running.get(s_, 0) + int(tot)
        bases.append(blk)

    @ray.remote
    def assign(t: pa.Table, base: dict) -> pa.Table:
        if t.num_rows == 0:  # schemaless-empty-block guard, as in block_sums
            return _EMPTY_OUT
        src = t["source"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy()
        # segmented exclusive cumsum within the block + per-source base
        change = np.ones(len(src), dtype=bool)
        change[1:] = src[1:] != src[:-1]
        run_starts = np.nonzero(change)[0]
        cum = np.concatenate([[0], np.cumsum(n)[:-1]])
        seg_base = np.repeat(cum[run_starts], np.diff(np.append(run_starts, len(src))))
        base_arr = np.fromiter((base[s_] for s_ in src[run_starts]),
                               dtype=np.int64, count=len(run_starts))
        off = cum - seg_base + np.repeat(base_arr, np.diff(np.append(run_starts, len(src))))
        return pa.table({
            "doc_id": t["doc_id"],
            "source": t["source"],
            "n_tokens": pa.array(n, pa.int64()),
            "tok_offset": pa.array(off, pa.int64()),
            "chunk_first": pa.array(off // chunk_tokens, pa.int64()),
            "chunk_last": pa.array(np.maximum(off, off + n - 1) // chunk_tokens, pa.int64()),
        })

    # STREAMING result: the assigned blocks stay in the (spillable) object
    # store — nothing corpus-scale ever lands on the driver; the at-scale
    # tail is .write_parquet, small consumers .to_pandas()
    return ray.data.from_arrow_refs(
        [assign.remote(r, b) for r, b in zip(block_refs, bases)]
    )


# ---------------------------------------------------------------------------
# deduplication
# ---------------------------------------------------------------------------


def exact_dedup(sf_dir: str) -> ray.data.Dataset:
    """Exact dedup: hash text, keep the smallest doc_id per distinct content
    (hash-partition + per-group first; G1 in SURVEY.md §2.G).  Returns a
    STREAMING Dataset (sorted by sha256 for determinism): the result is one
    row per distinct content — corpus-sized for a mostly-unique corpus — so
    it must reach its sink (write_parquet / iter_batches) without a driver
    ``.to_pandas()`` materialization."""

    def add_sha(batch: pa.Table) -> pa.Table:
        # Arrow out: keeps the downstream groupby's schemas hashable (a
        # pandas return attaches dict-valued metadata that defeats Ray's
        # shuffle schema dedup — see MinHasher.__call__)
        from librecatastro_ray.functions.hashing import sha256_batch

        return pa.table({
            "doc_id": batch["doc_id"],
            "sha256": sha256_batch(batch["text"]),
        })

    ds = _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        add_sha, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.groupby("sha256")
        .aggregate(
            ray.data.aggregate.Min("doc_id", alias_name="doc_id_keep"),
            ray.data.aggregate.Count(alias_name="n_dups"),
        )
        .sort("sha256")
    )


def _char_ngrams(s: str, n: int = 3) -> set[str]:
    return {s[i : i + n] for i in range(len(s) - n + 1)}


_NGRAM_BUCKET_CAP = 4096  # scale guard: a source bucket is all-pairs work


def ngram_jaccard_pairs(
    sf_dir: str,
    threshold: float = 0.62,
    bucket_cap: int = _NGRAM_BUCKET_CAP,
    num_partitions: int | None = None,
    return_stats: bool = False,
    sketch: bool | None = None,
) -> pa.Table | tuple[pa.Table, dict]:
    """Near-dup pairs by character-3-gram Jaccard, blocked by ``source``
    (pairwise work only inside a bucket, never a global cross join).

    DISTRIBUTED: in-bucket candidate pairs come from a native hash self-join
    of the (doc_id, source) key rows on ``source`` (text never enters the
    pair-expansion shuffle), texts attach to the pairs via two more hash
    joins, and the exact-Jaccard verification runs vectorized in map_batches
    (:func:`_verify_pairs` — gram sets built once per distinct doc per batch,
    intersections as sorted-array numpy kernels).  No single task ever holds
    a whole bucket's all-pairs work.

    Degenerate buckets are still capped at ``bucket_cap`` docs (smallest
    doc_ids win, deterministic) because the op is inherently O(n²) per
    bucket; unlike the round-2 version the dropped-pair count is RETURNED
    (``return_stats=True`` → ``(pairs, stats)`` with dropped_pairs,
    capped_sources, candidates, sketch_prefilter and — when the sketch path
    engages — prefilter_survivors + the text-bytes-through-join reduction)
    instead of logged.  ``sketch=None`` auto-engages the gram-sketch
    candidate pre-filter on large-doc corpora (_SKETCH_MIN_TLEN)."""
    from ray.data.aggregate import Count

    ds = _docs_ds(sf_dir, ["doc_id", "source", "text"])
    keys = ds.map_batches(
        # NULL-source docs are DROPPED from pairing — SQL join-key semantics
        # (`a.source = b.source` never matches NULL), and it keeps an
        # unknown-provenance-heavy corpus from collapsing into one
        # degenerate mega-bucket
        lambda t: t.select(["doc_id", "source"]).filter(
            pa.compute.is_valid(t["source"].combine_chunks())),
        batch_format="pyarrow",
    ).materialize()  # key rows (~20 B/doc) — consumed by sizes + both join sides
    num_partitions = _shuffle_width(keys.count(), 2048, num_partitions)
    # bucket sizes: tiny vectorized aggregate; only the over-cap tail (a >cap
    # bucket means >cap docs sharing one source) is collected on the driver
    sizes = keys.groupby("source").aggregate(Count(alias_name="bsize"))
    big = sizes.map_batches(
        lambda t: t.filter(pa.compute.greater(t["bsize"], bucket_cap)),
        batch_format="pyarrow",
    ).to_pandas()
    stats = {"dropped_pairs": 0, "capped_sources": {}}
    left = keys
    if "source" in big.columns and not big.empty:
        # per-big-source doc_id cutoff (= the cap-th smallest): few groups,
        # key-only rows
        big_set = set(big["source"].tolist())
        big_ref = ray.put(big_set)

        def only_big(t: pa.Table) -> pa.Table:
            return t.filter(pa.compute.is_in(
                t["source"], value_set=pa.array(sorted(ray.get(big_ref)))))

        def cutoff(g: pd.DataFrame) -> pd.DataFrame:
            ids = np.sort(g["doc_id"].to_numpy())
            return pd.DataFrame({"source": [g["source"].iloc[0]],
                                 "cut": [int(ids[bucket_cap - 1])]})

        cuts = (
            keys.map_batches(only_big, batch_format="pyarrow")
            .groupby("source")
            .map_groups(cutoff, batch_format="pandas")
            .to_pandas()
        )
        cut_map = dict(zip(cuts["source"], cuts["cut"]))
        for _, r in big.iterrows():
            n = int(r["bsize"])
            stats["dropped_pairs"] += n * (n - 1) // 2 - bucket_cap * (bucket_cap - 1) // 2
            stats["capped_sources"][str(r["source"])] = n
        cuts_ref = ray.put(cut_map)

        def apply_cap(t: pa.Table) -> pa.Table:
            cm = ray.get(cuts_ref)
            src = t["source"].to_numpy(zero_copy_only=False)
            ids = t["doc_id"].to_numpy()
            lim = np.fromiter((cm.get(s, np.iinfo(np.int64).max) for s in src),
                              dtype=np.int64, count=len(src))
            return t.filter(pa.array(ids <= lim))

        left = keys.map_batches(apply_cap, batch_format="pyarrow")
    right = left.map_batches(
        lambda t: pa.table({"source": t["source"], "doc_id_r": t["doc_id"]}),
        batch_format="pyarrow",
    )
    pairs = (
        left.join(right, "inner", num_partitions, on=("source",))
        .map_batches(
            lambda t: pa.table({"doc_a": t["doc_id"], "doc_b": t["doc_id_r"]})
            .filter(pa.compute.less(t["doc_id"], t["doc_id_r"])),
            batch_format="pyarrow",
        )
        .materialize()  # join barrier (two JoinOperators in one DAG deadlock)
    )
    stats["candidates"] = int(pairs.count())
    if stats["candidates"] == 0:
        return (_empty_pairs(), stats) if return_stats else _empty_pairs()
    texts = ds.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow"
    )
    # sketch pre-filter (same engine as the LSH path, 3-gram identity;
    # engages on large-doc corpora only — see _SKETCH_MIN_TLEN): bottom-k
    # gram sketches ride the candidate joins, full text attaches only to
    # pairs that could still clear the threshold
    if sketch is None:
        sketch = _mean_tlen(texts) >= _SKETCH_MIN_TLEN
    stats["sketch_prefilter"] = bool(sketch)
    verify_src = pairs
    if sketch:
        verify_src, pre_stats = _sketch_prefilter_pairs(
            pairs, texts, 3, threshold, num_partitions, return_stats
        )
        stats.update(pre_stats)
        if stats["prefilter_survivors"] == 0:
            return (_empty_pairs(), stats) if return_stats else _empty_pairs()
    with_a = _attach_text(verify_src, texts, "doc_a", "text_a", num_partitions).materialize()
    with_ab = _attach_text(with_a, texts, "doc_b", "text_b", num_partitions)
    out = with_ab.map_batches(
        lambda b: _verify_pairs(b, threshold, n=3), batch_format="pandas"
    ).to_pandas()  # verified pairs: output-scale
    table = (
        _empty_pairs()
        if out.empty
        else pa.Table.from_pandas(
            out.sort_values(["doc_a", "doc_b"], ignore_index=True), preserve_index=False
        )
    )
    return (table, stats) if return_stats else table


_MINHASH_PERMS = 64
_LSH_BANDS = 16  # 16 bands x 4 rows
_MERSENNE = (1 << 61) - 1
# scale guard: a degenerate bucket (thousands of identical docs) would emit
# O(n²) pairs from ONE group task; cap the per-bucket membership (smallest
# doc_ids win, deterministic).  Sized far above anything the test corpora
# produce, so capped and uncapped outputs agree there.
_LSH_BUCKET_CAP = 512


def _minhash_params(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=_MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=_MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
    return a, b


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] — per-segment position indices."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


class MinHasher:
    """Actor-pool stage: permutation parameters built once per actor;
    per-batch work is fully vectorized (one rolling-window shingle-hash pass
    over the batch's concatenated UTF-8 bytes, then 64 segmented-min
    reductions) — no per-row / per-shingle Python.

    Shingles are byte 4-grams of the lowercased text (a deterministic
    FNV-style window hash + splitmix64 finalizer); candidate recall only
    depends on the hash being uniform, and verification is exact character
    n-gram Jaccard, so the bucket hash choice never changes verified output.
    """

    def __init__(self, seed: int = 42, shingle_n: int = 4):
        self.a, self.b = _minhash_params(seed)
        self.n = shingle_n

    def _window_hashes(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(hashes of every byte n-gram window, windows-per-doc)."""
        enc = [(t or "").lower().encode("utf-8") for t in texts]
        lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=len(enc))
        n_win = np.maximum(lens - (self.n - 1), 0)
        total = int(n_win.sum())
        if total == 0:
            return np.zeros(0, dtype=np.uint64), n_win
        buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
        doc_off = np.zeros(len(enc), dtype=np.int64)
        np.cumsum(lens[:-1], out=doc_off[1:])
        starts = np.repeat(doc_off, n_win) + _segment_arange(n_win)
        h = np.zeros(total, dtype=np.uint64)
        for k in range(self.n):
            h = h * np.uint64(0x100000001B3) + buf[starts + k]
        return _splitmix64(h), n_win

    def signatures(self, texts: list[str]) -> np.ndarray:
        """(n_docs, PERMS) uint64 minhash signature matrix (empty doc → 0s).
        Duplicate shingles need no dedup: min() is idempotent under repeats."""
        h, n_win = self._window_hashes(texts)
        sig = np.zeros((len(texts), _MINHASH_PERMS), dtype=np.uint64)
        if len(h) == 0:
            return sig
        starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(n_win[:-1], out=starts[1:])
        nonempty = n_win > 0
        ne_starts = starts[nonempty]
        for p in range(_MINHASH_PERMS):
            v = (self.a[p] * h + self.b[p]) % np.uint64(_MERSENNE)
            sig[nonempty, p] = np.minimum.reduceat(v, ne_starts)
        return sig

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Arrow in / Arrow out: a pandas return would re-attach pandas schema
        # metadata whose dict values make the schema UNHASHABLE, defeating
        # Ray's schema dedup in every downstream hash shuffle (the bucket
        # groupby and the candidate self-join both consume these blocks)
        sig = self.signatures(batch["text"].to_pylist())
        r = _MINHASH_PERMS // _LSH_BANDS
        s3 = sig.reshape(len(sig), _LSH_BANDS, r)
        key = np.zeros((len(sig), _LSH_BANDS), dtype=np.uint64)
        for j in range(r):
            key = key * np.uint64(0x9E3779B97F4A7C15) + s3[:, :, j]
            key ^= key >> np.uint64(29)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(batch["doc_id"].to_numpy(), _LSH_BANDS).astype("int64"),
                    pa.int64(),
                ),
                "band": pa.array(
                    np.tile(np.arange(_LSH_BANDS, dtype=np.int64), len(sig)), pa.int64()
                ),
                "bucket": pa.array(
                    (key.reshape(-1) & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64),
                    pa.int64(),
                ),
            }
        )



def _shuffle_width(
    row_count: int, rows_per_partition: int, num_partitions: int | None = None
) -> int:
    """Scale-aware hash-shuffle width, shared by every dedup/curation join:
    the caller's explicit override RETURNED UNCHANGED, else a CPU clamp (the
    join's aggregator actor pool starves when partitions outnumber what the
    cluster can host) narrowed proportionally to the input rows so tiny
    corpora don't fan out into mostly-empty partitions (whose schema-less
    bundles trip the executor's schema-drift warning).  A 100 TB corpus
    keeps the CPU clamp."""
    if num_partitions is not None:
        return max(2, num_partitions)
    width = max(2, min(64, int(ray.cluster_resources().get("CPU", 4))))
    return max(2, min(width, row_count // rows_per_partition + 1))


def _pairs_in_bucket(g: pd.DataFrame, carry: tuple[str, ...] = (),
                     cap: int = _LSH_BUCKET_CAP) -> pa.Table:
    docs = g.drop_duplicates("doc_id").sort_values("doc_id")
    if len(docs) > cap:
        docs = docs.iloc[:cap]
    ids = docs["doc_id"].to_numpy()
    a_idx, b_idx = np.triu_indices(len(ids), k=1)
    cols = {"doc_a": pa.array(ids[a_idx], pa.int64()),
            "doc_b": pa.array(ids[b_idx], pa.int64())}
    # carry columns grouped all-_a-then-all-_b, matching the self-join branch
    # of _bucketed_pair_candidates (a union of the two with ≥2 carry columns
    # would otherwise hit a column-order mismatch)
    for c in carry:
        cols[f"{c}_a"] = pa.array(docs[c].to_numpy()[a_idx], pa.int64())
    for c in carry:
        cols[f"{c}_b"] = pa.array(docs[c].to_numpy()[b_idx], pa.int64())
    return pa.table(cols)


def _empty_pairs() -> pa.Table:
    return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
                     "jaccard": pa.array([], pa.float64())})


def _attach_text(pairs: ray.data.Dataset, texts: ray.data.Dataset, key_col: str,
                 out_col: str, num_partitions: int,
                 value_col: str = "text") -> ray.data.Dataset:
    """Hash-join one column (``value_col``, default the doc text) onto
    candidate pairs by doc id (Ray Data's native distributed hash join — no
    driver-side materialization of either side, no per-group Python)."""
    side = texts.map_batches(
        lambda t: pa.table({"__jk": t["doc_id"], out_col: t[value_col]}),
        batch_format="pyarrow",
    )
    # the join emits left columns + right non-key columns (the right key is
    # represented by key_col itself)
    return pairs.join(side, "inner", num_partitions, on=(key_col,), right_on=("__jk",))


def _attach_cols(pairs: ray.data.Dataset, side: ray.data.Dataset, key_col: str,
                 suffix: str, cols: tuple[str, ...],
                 num_partitions: int) -> ray.data.Dataset:
    """Hash-join several SMALL per-doc columns onto candidate pairs by doc
    id (native distributed join, the multi-column sibling of
    :func:`_attach_text`)."""
    side2 = side.map_batches(
        lambda t: pa.table({"__jk": t["doc_id"],
                            **{f"{c}{suffix}": t[c] for c in cols}}),
        batch_format="pyarrow",
    )
    return pairs.join(side2, "inner", num_partitions, on=(key_col,), right_on=("__jk",))


# --- gram-sketch candidate pre-filter -------------------------------------
#
# The exact-Jaccard verify joins used to attach FULL document text once per
# candidate pair — at 100 KB/doc × candidate scale, the biggest byte-mover
# in the dedup family (round-3 verdict).  Instead, a fixed-width bottom-k
# gram-hash sketch (k × 8 B) + the exact distinct-gram count ride the
# candidate joins, a conservative pre-filter kills pairs that cannot clear
# the threshold, and full text attaches only to the survivors.

_SKETCH_K = 256
_SKETCH_PAD_BASE = np.uint64(0xFFFFFFFF00000000)
# engage the sketch path only when documents OUTWEIGH their sketches: below
# this mean text length the sketch (k x 8 B) is as big as the text itself
# and the two extra candidate joins are pure overhead (measured at sf0.1,
# ~390 B/doc: sketches DOUBLED wall time) — small-doc corpora attach text
# directly; the 100 KB-doc regime the 100 TB design targets engages it
_SKETCH_MIN_TLEN = 4 * _SKETCH_K * 8


def _mean_tlen(texts: ray.data.Dataset, sample: int = 8192) -> float:
    """Mean text length over a deterministic prefix sample — the cheap
    engage-the-sketch-path heuristic (one pruned-column partial pass)."""
    import pyarrow.compute as pc

    t = texts.limit(sample).map_batches(
        lambda b: pa.table({
            "s": pa.array([int(pc.sum(pc.utf8_length(pc.fill_null(
                b["text"].combine_chunks(), ""))).as_py() or 0)], pa.int64()),
            "n": pa.array([len(b)], pa.int64()),
        }),
        batch_format="pyarrow",
    ).to_pandas()
    return float(t["s"].sum()) / max(int(t["n"].sum()), 1)


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — decorrelates nearby window hashes."""
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _char_gram_hashes(texts: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """64-bit hashes of every CHARACTER n-gram window of each lowercased
    text (UTF-32 code points — the same gram identity the exact verify's
    :func:`_gram_set_np` compares), concatenated across the batch; returns
    ``(hashes, windows_per_doc)``.  One vectorized pass, no per-gram
    Python."""
    enc = [(t or "").lower().encode("utf-32-le") for t in texts]
    lens = np.fromiter((len(e) // 4 for e in enc), dtype=np.int64, count=len(enc))
    n_win = np.maximum(lens - (n - 1), 0)
    total = int(n_win.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint64), n_win
    buf = np.frombuffer(b"".join(enc), dtype=np.uint32)
    doc_off = np.zeros(len(enc), dtype=np.int64)
    np.cumsum(lens[:-1], out=doc_off[1:])
    starts = np.repeat(doc_off, n_win) + _segment_arange(n_win)
    h = np.zeros(total, dtype=np.uint64)
    for k in range(n):
        h = h * np.uint64(0x100000001B3) + buf[starts + k]
    return _splitmix64(h), n_win


class GramSketcher:
    """Actor-pool stage: (doc_id, text) → (doc_id, sketch, gsize, tlen)
    where ``sketch`` is the bottom-``k`` DISTINCT gram hashes (sorted
    ascending, uint64 little-endian bytes — ≤ k·8 B however long the doc),
    ``gsize`` the exact distinct-gram count and ``tlen`` the text length.
    Fully vectorized: one window-hash pass, one lexsort for per-doc distinct
    + bottom-k; per-doc Python is only the final ``tobytes`` slice."""

    def __init__(self, n: int = 4, k: int = _SKETCH_K):
        self.n, self.k = int(n), int(k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        h, n_win = _char_gram_hashes(texts, self.n)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n_win)
        order = np.lexsort((h, doc_idx))
        hs, ds_ = h[order], doc_idx[order]
        first = np.concatenate(
            [[True], (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])]
        ) if len(hs) else np.zeros(0, dtype=bool)
        dd, hh = ds_[first], hs[first]
        gsizes = np.bincount(dd, minlength=len(texts)).astype(np.int64)
        keep = _segment_arange(gsizes) < self.k
        flat = hh[keep]
        kept = np.minimum(gsizes, self.k)
        offs = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(kept, out=offs[1:])
        return pa.table({
            "doc_id": batch["doc_id"],
            "sketch": pa.array(
                [flat[offs[i]: offs[i + 1]].tobytes() for i in range(len(texts))],
                pa.binary(),
            ),
            "gsize": pa.array(gsizes, pa.int64()),
            "tlen": pa.array([len(t or "") for t in texts], pa.int64()),
        })


def _sketch_matrix(col, k: int, parity: int) -> np.ndarray:
    """(P, k) uint64 matrix from variable-length sketch bytes, padded with
    row-position-unique sentinels above every real hash (even series for
    side a, odd for side b — pads never match pads or reals), so rows stay
    sorted ascending."""
    bufs = col.to_pylist()
    lens = np.fromiter((len(b) // 8 for b in bufs), dtype=np.int64, count=len(bufs))
    pads = _SKETCH_PAD_BASE + (
        np.arange(k, dtype=np.uint64) * np.uint64(2) + np.uint64(parity)
    )
    M = np.tile(pads, (len(bufs), 1))
    if int(lens.sum()):
        flat = np.frombuffer(b"".join(bufs), dtype=np.uint64)
        M[np.repeat(np.arange(len(bufs)), lens), _segment_arange(lens)] = flat
    return M


def _sketch_prefilter(t: pa.Table, threshold: float, k: int = _SKETCH_K) -> pa.Table:
    """Conservative pre-filter over sketch-attached candidate pairs: a HARD
    gram-set-size-ratio bound (J ≤ min/max — exact, zero false negatives)
    plus the bottom-k merge estimate with a 7σ margin (≈3.5/√k; pairs whose
    whole gram sets fit in the sketches are estimated EXACTLY, margin 1e-6).
    Only pairs that could still clear ``threshold`` keep their (doc_a,
    doc_b, tlen) columns for the full-text exact verify; a borderline-true
    pair is dropped only with probability ≲1e-9, and the sketches are
    deterministic, so the outcome is the same on every run
    (``test_sketch_prefilter_large_docs_identity_and_savings`` checks it
    equals the direct text-attach path's)."""
    if len(t) == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "tlen_a": pa.array([], pa.int64()),
                         "tlen_b": pa.array([], pa.int64())})
    ga = t["gsize_a"].to_numpy()
    gb = t["gsize_b"].to_numpy()
    A = _sketch_matrix(t["sketch_a"], k, 0)
    B = _sketch_matrix(t["sketch_b"], k, 1)
    C = np.sort(np.concatenate([A, B], axis=1), axis=1)
    D = C[:, 1:] == C[:, :-1]  # adjacent dup = value in BOTH sketches
    CD = np.cumsum(D, axis=1)
    j = np.arange(D.shape[1], dtype=np.int64)[None, :]
    dist_idx = j - (CD - D)  # distinct rank of each matched value
    matches = D.sum(axis=1)
    union_sk = np.minimum(ga, k) + np.minimum(gb, k) - matches
    k_eff = np.maximum(np.minimum(k, union_sk), 1)
    in_bottom = (D & (dist_idx < k_eff[:, None])).sum(axis=1)
    est = in_bottom / k_eff
    exact = (ga <= k) & (gb <= k)
    margin = np.where(exact, 1e-6, 3.5 / np.sqrt(k_eff))
    size_bound = np.minimum(ga, gb) / np.maximum(np.maximum(ga, gb), 1)
    keep = (
        (np.minimum(ga, gb) > 0)
        & (size_bound >= threshold - 1e-6)
        & (est + margin >= threshold)
    )
    kept = t.filter(pa.array(keep))
    return kept.select(["doc_a", "doc_b", "tlen_a", "tlen_b"])


def _sketch_prefilter_pairs(
    pairs: ray.data.Dataset, texts: ray.data.Dataset, n: int, threshold: float,
    num_partitions: int, want_bytes: bool,
) -> tuple[ray.data.Dataset, dict]:
    """The shared sketch-pre-filter stage of both Jaccard dedup paths:
    sketch the (already candidate-scoped) texts once, ride the sketches
    through the two candidate joins, keep only pairs that could still clear
    ``threshold``.  Returns (survivor pairs, stats); ``want_bytes`` adds the
    bytes-through-join reduction stat (two extra tiny aggregate passes)."""
    sketches = texts.map_batches(
        GramSketcher, fn_constructor_kwargs={"n": n},
        batch_format="pyarrow", batch_size=1024, concurrency=(1, 4),
        max_restarts=0,  # ray#53727
    ).materialize()
    sk_a = _attach_cols(
        pairs, sketches, "doc_a", "_a", ("sketch", "gsize", "tlen"), num_partitions
    ).materialize()
    sk_ab = _attach_cols(
        sk_a, sketches, "doc_b", "_b", ("sketch", "gsize", "tlen"), num_partitions
    ).materialize()
    pre = sk_ab.map_batches(
        lambda t: _sketch_prefilter(t, threshold),
        batch_format="pyarrow", batch_size=4096,
    ).materialize()
    stats = {"prefilter_survivors": int(pre.count())}
    if want_bytes:
        # bytes the verify join ships now vs. attaching text to every
        # candidate (the round-2/3 behavior) — the reduction the sketch buys
        kept_bytes = _sum_pair_tlen(pre)
        all_bytes = _sum_pair_tlen(sk_ab)
        stats["text_bytes_attached"] = kept_bytes
        stats["text_bytes_saved"] = all_bytes - kept_bytes
    return pre, stats


def _sum_pair_tlen(pairs: ray.data.Dataset) -> int:
    """Σ(tlen_a + tlen_b) over a pair Dataset — the text bytes a verify
    join would ship for it (tiny partial-agg pass, driver gets one int)."""
    import pyarrow.compute as pc

    s = pairs.map_batches(
        lambda t: pa.table({"b": pa.array(
            [int((pc.sum(t["tlen_a"]).as_py() or 0)
                 + (pc.sum(t["tlen_b"]).as_py() or 0))], pa.int64())}),
        batch_format="pyarrow",
    ).to_pandas()
    return int(s["b"].sum()) if len(s) else 0


def _bucketed_pair_candidates(
    bands: ray.data.Dataset, num_partitions: int, cap: int = _LSH_BUCKET_CAP,
    carry: tuple[str, ...] = (), dedupe: bool = True,
    stats_out: dict | None = None,
) -> ray.data.Dataset:
    """Deduped candidate pairs (doc_a < doc_b) from a ``(band, bucket,
    doc_id)`` Dataset — the shared candidate-generation engine of the
    MinHash-LSH and SimHash dedup families.

    Bucket sizes are a tiny vectorized aggregate; only the OVER-CAP tail (a
    >cap bucket means >cap mutually-near-identical docs) is collected on the
    driver and broadcast, instead of joining sizes back onto every band row.
    Normal buckets pair up via Ray Data's native hash SELF-join (vectorized,
    fully distributed); degenerate buckets get a capped per-group expansion
    (few groups, smallest doc_ids win, deterministic).  A pair surfacing
    from multiple bands is deduped DISTRIBUTED (candidate-scale shuffle).
    Returns a MATERIALIZED (doc_a, doc_b) Dataset — consumed twice
    downstream, and chained joins deadlock the 2.49 streaming executor.

    ``carry``: SMALL int64 per-doc columns already present on the band rows
    (e.g. an 8-byte signature — NOT document text) that ride through the
    self-join and come back as ``{col}_a`` / ``{col}_b``, so downstream
    verification needs no attach joins.  Values must be functions of doc_id
    (identical across a doc's band rows — the pair dedup folds duplicates
    with Min, which is exact for constant values).

    ``dedupe=False`` skips the GLOBAL pair dedup and returns the (mostly)
    band-duplicated, unmaterialized candidate stream: right when per-pair
    verification is cheaper than the candidate-scale shuffle (measured here:
    the dedup groupby costs ~10 µs/row to remove ~9%% duplicates, while a
    duplicated verification costs ~8 µs — so verify-then-dedup-the-OUTPUT
    wins).  The degenerate-bucket branch is still deduped even then: a
    cluster of >cap identical docs repeats its capped pair set once per
    band, an UNBOUNDED duplication factor the cap exists to prevent."""
    from ray.data.aggregate import Count, Min

    sizes = bands.groupby(["band", "bucket"]).aggregate(Count(alias_name="bsize"))
    big = sizes.map_batches(
        lambda t: t.filter(pa.compute.greater(t["bsize"], cap)),
        batch_format="pyarrow",
    ).to_pandas()
    if stats_out is not None:
        # loud, not silent: per over-cap bucket the capped expansion loses at
        # most C(size,2) - C(cap,2) pairs (a pair may still surface through
        # another band, so this is an upper bound on coverage loss)
        bs = big["bsize"].to_numpy() if "bsize" in big.columns else np.zeros(0)
        stats_out["overcap_buckets"] = int(len(bs))
        stats_out["dropped_pairs_bound"] = int(
            (bs * (bs - 1) // 2 - cap * (cap - 1) // 2).sum()
        ) if len(bs) else 0
    big_keys = (
        set(zip(big["band"].tolist(), big["bucket"].tolist()))
        if "band" in big.columns and not big.empty
        else set()
    )

    if big_keys:
        # pack (band, bucket) into one int64 (wraparound-consistent on both
        # sides) → vectorized sorted-membership, no per-row Python even when
        # a degenerate bucket exists
        def pack(band: np.ndarray, bucket: np.ndarray) -> np.ndarray:
            return band.astype(np.int64) * np.int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF) + bucket.astype(np.int64)

        big_arr = np.sort(pack(
            np.array([b for b, _ in big_keys], dtype=np.int64),
            np.array([k for _, k in big_keys], dtype=np.int64),
        ))
        big_ref = ray.put(big_arr)

        def split(t: pa.Table, keep_big: bool) -> pa.Table:
            keys = ray.get(big_ref)
            packed = pack(t["band"].to_numpy(), t["bucket"].to_numpy())
            pos = np.searchsorted(keys, packed)
            pos[pos == len(keys)] = len(keys) - 1
            mask = keys[pos] == packed
            return t.filter(pa.array(mask if keep_big else ~mask))

        # materialize the (cheap, key-only) normal side: when EVERY bucket is
        # degenerate it is empty, and joining an empty Dataset loses the
        # schema inside the hash-shuffle aggregator (ArrowInvalid on the key)
        normal = bands.map_batches(
            lambda t: split(t, False), batch_format="pyarrow"
        ).materialize()
        if normal.count() == 0:
            normal = None
        oversized = bands.map_batches(lambda t: split(t, True), batch_format="pyarrow")
        # degenerate buckets: capped per-group expansion (few groups)
        cand_big = oversized.groupby(["band", "bucket"]).map_groups(
            lambda g: _pairs_in_bucket(g, carry, cap), batch_format="pandas"
        )
        if not dedupe:
            # even in no-global-dedup mode the degenerate branch is deduped:
            # an over-cap cluster repeats its capped pair set once PER BAND
            # (unbounded duplication); this shuffle moves only big-bucket
            # pairs, never the main candidate stream
            big_aggs = [Min(f"{c}{s}", alias_name=f"{c}{s}")
                        for c in carry for s in ("_a", "_b")]
            cand_big = (
                cand_big.groupby(["doc_a", "doc_b"])
                .aggregate(Count(alias_name="__n"), *big_aggs)
                .drop_columns(["__n"])
            )
    else:
        # arrow-normalize (the join requires arrow blocks; a pandas-emitting
        # signature stage upstream is fine)
        normal = bands.map_batches(
            lambda t: t.select(["band", "bucket", "doc_id", *carry]),
            batch_format="pyarrow",
        )
        cand_big = None
    if normal is not None:
        # normal buckets: pairs = bucket SELF-JOIN (native hash join, vectorized)
        right = normal.map_batches(
            lambda t: pa.table({"band": t["band"], "bucket": t["bucket"], "doc_id_r": t["doc_id"],
                                **{f"{c}_r": t[c] for c in carry}}),
            batch_format="pyarrow",
        )
        pair_rows = normal.join(right, "inner", num_partitions, on=("band", "bucket"))
        cand = pair_rows.map_batches(
            lambda t: pa.table(
                {"doc_a": t["doc_id"], "doc_b": t["doc_id_r"],
                 **{f"{c}_a": t[c] for c in carry},
                 **{f"{c}_b": t[f"{c}_r"] for c in carry}}
            ).filter(pa.compute.less(t["doc_id"], t["doc_id_r"])),
            batch_format="pyarrow",
        )
        if cand_big is not None:
            cand = cand.union(cand_big)
    else:
        cand = cand_big
    if not dedupe:
        return cand
    # a pair surfacing from multiple bands must verify once: vectorized
    # distributed dedup by pair key (candidate-scale shuffle); carried
    # columns are constant per pair, so Min reproduces them exactly
    carry_aggs = [
        Min(f"{c}{s}", alias_name=f"{c}{s}") for c in carry for s in ("_a", "_b")
    ]
    return (
        cand.groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="__n"), *carry_aggs)
        .drop_columns(["__n"])
        .materialize()
    )


def _gram_set_np(s: str, n: int = 4) -> np.ndarray:
    """Unique CHARACTER n-grams of ``s`` as a sorted numpy void array (each
    element = n UTF-32 code points, compared by memcmp) — exact set
    semantics identical to ``_char_ngrams`` (no hashing, no collisions),
    but intersectable with vectorized ``np.intersect1d``."""
    cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    if len(cp) < n:
        return np.zeros(0, dtype=np.dtype((np.void, 4 * n)))
    win = np.lib.stride_tricks.sliding_window_view(cp, n)
    v = np.ascontiguousarray(win).view(np.dtype((np.void, 4 * n))).reshape(-1)
    return np.unique(v)


def _verify_pairs(batch: pd.DataFrame, threshold: float, n: int = 4) -> pd.DataFrame:
    """Exact n-gram Jaccard per candidate pair — gram sets built ONCE per
    distinct doc in the batch (a near-dup hub appears in many pairs), pair
    intersections via sorted-array numpy kernels (no per-gram Python)."""
    grams: dict[int, np.ndarray] = {}

    def gs(doc_id: int, text) -> np.ndarray:
        g = grams.get(doc_id)
        if g is None:
            g = _gram_set_np((text or "").lower(), n)
            grams[doc_id] = g
        return g

    rows = []
    for a, b, ta, tb in zip(batch["doc_a"], batch["doc_b"], batch["text_a"], batch["text_b"]):
        sa, sb = gs(int(a), ta), gs(int(b), tb)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        u = len(sa) + len(sb) - inter
        jac = (inter / u) if u else 0.0
        if round(jac, 6) >= threshold:
            rows.append((int(a), int(b), round(jac, 6)))
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"]).astype(
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"}
    )


def minhash_lsh_candidates(
    sf_dir: str, verify_threshold: float = 0.6, num_partitions: int | None = None,
    return_stats: bool = False, sketch: bool | None = None,
) -> pa.Table | tuple[pa.Table, dict]:
    """MinHash+LSH near-dup: shingle → minhash → band buckets → candidate
    pairs via a DISTRIBUTED bucket self-join → DISTRIBUTED exact-Jaccard
    verification (numpy gram-set intersections) → output-scale pair dedup.  Deterministic (seeded permutations).  Everything is
    Dataset-shaped and vectorized: no driver ``take_all()``, no per-group
    Python on the candidate path (degenerate over-cap buckets — thousands of
    mutually-identical docs — fall back to a capped per-group expansion), and
    nothing candidate- or corpus-scale on the driver: the text semi-join runs
    as a native distributed hash join against the distinct candidate ids.

    At 16 bands × 4 rows, a pair at the 0.6 verify threshold is caught with
    p ≈ 0.89 and a real near-dup (jaccard ≥ 0.9, which is all the test
    corpora contain) with p ≈ 1-1e-7, so verified output equals the exact
    all-pairs Jaccard (``test_minhash_lsh_distributed_verify``)."""
    from ray.data.aggregate import Count

    ds = _docs_ds(sf_dir, ["doc_id", "text"])
    # bands are consumed twice (size aggregate + join side) — materialize the
    # ONE minhash pass; ~24 B/row of band keys, never corpus text
    bands = ds.map_batches(
        MinHasher, batch_format="pyarrow", batch_size=1024, concurrency=(1, 4),
        max_restarts=0,  # ray#53727
    ).materialize()
    num_partitions = _shuffle_width(bands.count(), 4096, num_partitions)
    # candidate generation: shared bucket-self-join engine (degenerate-bucket
    # guard + native hash join + distributed pair dedup)
    # no GLOBAL pair dedup: band-duplication on real corpora is small (~9%
    # measured on the template-similar bench corpus) and a duplicated
    # verification costs less than the candidate-scale dedup shuffle did
    # (~16 s of a 45 s run); the verified OUTPUT-scale result is deduped
    # instead, and the degenerate-bucket branch (unbounded duplication) is
    # still deduped inside the engine
    cand = _bucketed_pair_candidates(
        bands, num_partitions, dedupe=False
    ).materialize()  # consumed twice (id-set + attach join)
    stats = {"candidates": int(cand.count())}
    if stats["candidates"] == 0:
        return (_empty_pairs(), stats) if return_stats else _empty_pairs()
    # semi-join texts down to candidate ids with the native distributed hash
    # join — the candidate-id set NEVER lands on the driver (candidates scale
    # with corpus self-similarity, not with output: a template-heavy corpus
    # can emit O(n²/buckets) candidates).  Distinct ids via a vectorized hash
    # aggregate; the materialize barriers keep each JoinOperator alone in its
    # streaming DAG (two joins in one DAG deadlock the 2.49 executor).
    cand_ids = (
        cand.map_batches(
            lambda t: pa.table({"doc_id": pa.concat_arrays(
                [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()])}),
            batch_format="pyarrow",
        )
        .groupby("doc_id")
        .aggregate(Count(alias_name="__m"))
        .drop_columns(["__m"])
    )
    # join output = left cols + right non-key cols → (doc_id, text) filtered
    # to candidates; candidate texts live in the (spillable) object store
    texts = ds.join(cand_ids, "inner", num_partitions, on=("doc_id",)).materialize()
    # sketch pre-filter (large-doc corpora only, see _SKETCH_MIN_TLEN):
    # fixed-width bottom-k gram sketches ride the candidate joins, FULL
    # text attaches only to survivors
    if sketch is None:
        sketch = _mean_tlen(texts) >= _SKETCH_MIN_TLEN
    stats["sketch_prefilter"] = bool(sketch)
    verify_src = cand
    if sketch:
        verify_src, pre_stats = _sketch_prefilter_pairs(
            cand, texts, 4, verify_threshold, num_partitions, return_stats
        )
        stats.update(pre_stats)
        if stats["prefilter_survivors"] == 0:
            return (_empty_pairs(), stats) if return_stats else _empty_pairs()
    with_a = _attach_text(verify_src, texts, "doc_a", "text_a", num_partitions).materialize()
    with_ab = _attach_text(with_a, texts, "doc_b", "text_b", num_partitions)
    out = with_ab.map_batches(
        lambda b: _verify_pairs(b, verify_threshold), batch_format="pandas"
    ).to_pandas()  # verified pairs: output-scale
    if out.empty:
        return (_empty_pairs(), stats) if return_stats else _empty_pairs()
    out = out.drop_duplicates(["doc_a", "doc_b"])  # band-duplicated copies
    table = pa.Table.from_pandas(
        out.sort_values(["doc_a", "doc_b"], ignore_index=True), preserve_index=False
    )
    return (table, stats) if return_stats else table


class SimHasher:
    """64-bit SimHash over the token multiset (term_hash bits weighted by
    tf) — batch-vectorized: one tokenize + per-(doc, term) tf pass (Arrow
    C++), term_hash per UNIQUE term only, then a segmented signed bit-count
    sum.  Bit-identical to the per-doc Counter formulation (integer sums are
    order-independent)."""

    _BITS = np.arange(64, dtype=np.uint64)
    _WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def simhash(self, texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
        from librecatastro_ray.functions.hashing import term_hash
        from librecatastro_ray.functions.tokenizer import term_frequencies_batch

        n_docs = len(texts)
        tf_table, _dl = term_frequencies_batch(texts)
        acc = np.zeros((n_docs, 64), dtype=np.int64)
        if len(tf_table):
            rows = tf_table["row"].to_numpy()
            tfs = tf_table["tf"].to_numpy()
            terms = tf_table["term"].to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(terms, return_inverse=True)
            hu = np.fromiter((term_hash(t) for t in uniq), dtype=np.uint64, count=len(uniq))
            signed = (2 * ((hu[:, None] >> self._BITS[None, :]) & 1).astype(np.int64) - 1)
            contrib = signed[inv] * tfs[:, None]  # (postings, 64)
            order = np.argsort(rows, kind="stable")
            rows_s = rows[order]
            seg = np.nonzero(np.concatenate([[True], rows_s[1:] != rows_s[:-1]]))[0]
            if len(seg):
                acc[rows_s[seg]] = np.add.reduceat(contrib[order], seg, axis=0)
        sim = ((acc > 0).astype(np.uint64) * self._WEIGHTS[None, :]).sum(axis=1)
        return (sim & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Arrow in/out — see MinHasher.__call__ (hashable schemas downstream)
        texts = pa.compute.fill_null(batch["text"].combine_chunks(), "")
        return pa.table({"doc_id": batch["doc_id"],
                         "simhash": pa.array(self.simhash(texts), pa.int64())})


def simhash_signatures(sf_dir: str) -> ray.data.Dataset:
    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        SimHasher, batch_format="pyarrow", batch_size=1024, concurrency=(1, 4),
        max_restarts=0,  # ray#53727
    )


_SIMHASH_RADIUS = 3


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — numpy<2.0 has no bitwise_count."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _simhash_bands(t: pa.Table, radius: int) -> pa.Table:
    """1→(radius+1) band fan-out of 64-bit signatures: band b = a contiguous
    bit slice, as equal as 64/(radius+1) allows.  Pigeonhole: two signatures
    at Hamming distance ≤ radius differ in ≤ radius bands, so they agree
    EXACTLY on at least one — zero false negatives."""
    sim = t["simhash"].to_numpy().astype(np.uint64)
    doc = t["doc_id"].to_numpy()
    n_bands = radius + 1
    bounds = np.linspace(0, 64, n_bands + 1).astype(np.uint64)

    def band_mask(width: np.uint64) -> np.uint64:
        # width == 64 (radius=0: one band = the whole signature) would be an
        # undefined uint64 shift-by-64 — special-case to the full mask
        if int(width) >= 64:
            return np.uint64(0xFFFFFFFFFFFFFFFF)
        return (np.uint64(1) << width) - np.uint64(1)

    buckets = np.concatenate([
        ((sim >> bounds[b]) & band_mask(bounds[b + 1] - bounds[b])).astype(np.int64)
        for b in range(n_bands)
    ]) if len(sim) else np.zeros(0, dtype=np.int64)
    return pa.table({
        "band": np.repeat(np.arange(n_bands, dtype=np.int64), len(sim)),
        "bucket": buckets,
        "doc_id": np.tile(doc, n_bands),
        # the signature rides the band rows (8 B/row) so candidate pairs
        # come back verification-ready — no attach joins
        "simhash": np.tile(t["simhash"].to_numpy(), n_bands),
    })


def _empty_hamming_pairs() -> pa.Table:
    return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
                     "hamming": pa.array([], pa.int64())})


def dedup_simhash(
    sf_dir: str, radius: int = _SIMHASH_RADIUS, num_partitions: int | None = None,
    bucket_cap: int = _LSH_BUCKET_CAP, return_stats: bool = False,
) -> pa.Table | tuple[pa.Table, dict]:
    """SimHash near-dup: all pairs within Hamming distance ``radius`` of the
    64-bit signature — EXACT (banding has no false negatives; an exact
    vectorized popcount kills the false positives) UP TO the degenerate-
    bucket cap: a (band, bucket) shared by more than ``bucket_cap`` docs is
    deterministically truncated to the ``bucket_cap`` smallest doc_ids, and
    ``return_stats=True`` returns ``(pairs, {overcap_buckets,
    dropped_pairs_bound})`` so the truncation is COUNTED, never silent (the
    test corpora sit far below the cap, so capped and uncapped agree there
    and ``test_dedup_simhash_matches_brute_force``'s all-pairs popcount
    stays exact).

    Scale path is the pigeonhole banding of Manku et al. (WWW'07 simhash
    dedup): split the signature into ``radius+1`` contiguous bit bands — a
    pair at distance ≤ radius agrees exactly on ≥1 band — so candidate
    generation is the same distributed (band, bucket) hash self-join engine
    the MinHash-LSH path uses (degenerate-bucket guard included), and ONLY
    ~24 B/row signature band rows ever shuffle; text never moves.  The 8-byte
    signature itself RIDES the band rows through the self-join (the engine's
    ``carry``), so every candidate pair comes back verification-ready — the
    SWAR-popcount filter needs no attach joins and nothing pair- or
    corpus-scale touches the driver.

    Reference analogue: the G1/G2 dedup family (SURVEY §2) —
    elasticsearch_utils.py:100-136's exact-id dedup generalized to
    near-identity."""
    if not 0 <= radius <= 63:
        # radius+1 bands over 64 bits: radius 0 (exact signature equality,
        # one full-width band) through 63 (every band is a single bit)
        raise ValueError(f"radius must be in [0, 63], got {radius}")
    sigs = simhash_signatures(sf_dir).materialize()  # 16 B/row
    num_partitions = _shuffle_width(sigs.count(), 4096, num_partitions)
    bands = sigs.map_batches(
        lambda t: _simhash_bands(t, radius), batch_format="pyarrow"
    ).materialize()  # consumed twice by the candidate engine (sizes + join)
    # raw (band-duplicated) candidate stream: the popcount verification is
    # ~1 ns/pair, far cheaper than the pair-dedup shuffle, so verify every
    # duplicate inline on the join output and dedup the OUTPUT-scale
    # verified set instead (a pair appears in ≤ radius+1 bands)
    stats: dict = {}
    cand = _bucketed_pair_candidates(
        bands, num_partitions, bucket_cap, carry=("simhash",), dedupe=False,
        stats_out=stats,
    )

    def verify(t: pa.Table) -> pa.Table:
        h = _popcount64(np.bitwise_xor(
            t["simhash_a"].to_numpy().astype(np.uint64),
            t["simhash_b"].to_numpy().astype(np.uint64),
        ))
        keep = h <= radius
        return pa.table({
            "doc_a": pa.array(t["doc_a"].to_numpy()[keep], pa.int64()),
            "doc_b": pa.array(t["doc_b"].to_numpy()[keep], pa.int64()),
            "hamming": pa.array(h[keep], pa.int64()),
        })

    out = cand.map_batches(verify, batch_format="pyarrow").to_pandas()
    # verified pairs: output-scale
    if out.empty:
        result = _empty_hamming_pairs()
        return (result, stats) if return_stats else result
    out = out.drop_duplicates(["doc_a", "doc_b"])  # ≤ radius+1 copies/pair
    result = pa.Table.from_pandas(
        out.sort_values(["doc_a", "doc_b"], ignore_index=True), preserve_index=False
    )
    return (result, stats) if return_stats else result


def repetition_scores(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition quality features per doc (the duplicate
    n-gram filters of Rae et al. 2021, re-expressed token-level for
    single-line code docs): fraction of tokens repeating an earlier token
    (= 1 − distinct/total), the top token's share, and the fraction of
    2-token grams repeating an earlier gram.  One vectorized tokenize pass
    per batch; distinct counts via Arrow group-by + a batch lexsort — no
    per-doc Python."""
    from librecatastro_ray.functions.tokenizer import tokenize_batch

    def fn(batch: pa.Table) -> pa.Table:
        texts = pa.compute.fill_null(batch["text"].combine_chunks(), "")
        parent_idx, terms, dl = tokenize_batch(texts)
        n_rows = len(batch)
        n_distinct = np.zeros(n_rows, dtype=np.int64)
        top = np.zeros(n_rows, dtype=np.int64)
        if len(terms):
            t = pa.table({"row": pa.array(parent_idx, pa.int64()),
                          "term": pa.array(terms, pa.string())})
            g = t.group_by(["row", "term"], use_threads=False).aggregate(
                [([], "count_all")]
            )
            rows_g = g["row"].to_numpy()
            cnt_g = g["count_all"].to_numpy().astype(np.int64)
            n_distinct = np.bincount(rows_g, minlength=n_rows).astype(np.int64)
            np.maximum.at(top, rows_g, cnt_g)
        g2, n_win2 = _gram_hashes_from_tokens(terms, dl, 2)
        nd2 = np.zeros(n_rows, dtype=np.int64)
        if len(g2):
            doc_idx = np.repeat(np.arange(n_rows, dtype=np.int64), n_win2)
            order = np.lexsort((g2, doc_idx))
            gs, ds_ = g2[order], doc_idx[order]
            first = np.concatenate(
                [[True], (gs[1:] != gs[:-1]) | (ds_[1:] != ds_[:-1])]
            )
            nd2 = np.bincount(ds_[first], minlength=n_rows).astype(np.int64)
        tok_div = np.maximum(dl, 1)
        g2_div = np.maximum(n_win2, 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(dl, pa.int64()),
            "dup_token_ratio": pa.array(
                np.round((dl - n_distinct) / tok_div, 6), pa.float64()),
            "top_token_ratio": pa.array(np.round(top / tok_div, 6), pa.float64()),
            "dup_2gram_ratio": pa.array(
                np.round((n_win2 - nd2) / g2_div, 6), pa.float64()),
        })

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", batch_size=4096
    )


def top_terms_per_lang(sf_dir: str, k: int = 10) -> pa.Table:
    """Grouped heavy hitters: the top-``k`` terms per language by total
    corpus term frequency (ties broken by term ascending — pinned).

    Distributed shape: per-batch PARTIAL (lang, term) counts (Arrow
    group-by — token-scale rows never enter the shuffle) → one global
    ``groupby([lang, term]).sum`` at vocabulary scale → per-BLOCK partial
    top-k (a global top-k row beats all but < k rows everywhere, so it is
    in its own block's local top-k — no skewed one-task-per-lang group) →
    a driver fold over ≤ blocks × langs × k survivor rows."""
    import pyarrow.compute as pc

    from librecatastro_ray.functions.tokenizer import tokenize_batch

    partial_schema = pa.schema(
        [("lang", pa.string()), ("term", pa.string()), ("c", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch["text"].combine_chunks(), "")
        parent_idx, terms, _dl = tokenize_batch(texts)
        if len(terms) == 0:
            return partial_schema.empty_table()
        langs = pc.fill_null(batch["lang"].combine_chunks(), "und")
        t = pa.table({
            "lang": langs.take(pa.array(parent_idx, pa.int64())),
            "term": pa.array(terms, pa.string()),
        })
        g = t.group_by(["lang", "term"], use_threads=False).aggregate(
            [([], "count_all")]
        )
        return pa.table({"lang": g["lang"], "term": g["term"],
                         "c": g["count_all"].cast(pa.int64())})

    def _select_topk(t: pa.Table) -> pa.Table:
        lang = np.asarray(t["lang"].to_pylist(), dtype=object)
        term = np.asarray(t["term"].to_pylist(), dtype=object)
        c = t["c"].to_numpy().astype(np.int64)
        # lexsort is last-key-primary: (term asc, -c, lang) → within each
        # lang: count desc, term asc
        order = np.lexsort((term, -c, lang))
        lang_s = lang[order]
        first = np.concatenate([[True], lang_s[1:] != lang_s[:-1]])
        grp = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        rank = np.arange(len(order)) - starts[grp] + 1
        keep = rank <= k
        return pa.table({
            "lang": pa.array(lang_s[keep].tolist(), pa.string()),
            "term": pa.array(term[order][keep].tolist(), pa.string()),
            "c": pa.array(c[order][keep], pa.int64()),
            "rank": pa.array(rank[keep], pa.int64()),
        })

    def block_topk(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.schema([("lang", pa.string()), ("term", pa.string()),
                              ("c", pa.int64()), ("rank", pa.int64())]).empty_table()
        return _select_topk(batch)

    counts = (
        _docs_ds(sf_dir, ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .groupby(["lang", "term"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
    )
    survivors = counts.map_batches(
        block_topk, batch_format="pyarrow", batch_size=65536
    ).to_arrow_refs()
    small = pa.concat_tables([ray.get(r) for r in survivors])
    return _select_topk(small.select(["lang", "term", "c"]))


# ---------------------------------------------------------------------------
# token n-gram hashes (shared by repetition_scores and dedup_substring)
# ---------------------------------------------------------------------------


def _gram_hashes_from_tokens(
    terms: np.ndarray, dl: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling n-token gram hashes from an already-tokenized batch:
    md5-based per-unique-token hashes, then a polynomial fold over each
    n-token window.  Returns ``(gram_hashes, windows_per_doc)`` — equal
    hash ⟺ equal token sequence (w.h.p.)."""
    from librecatastro_ray.functions.hashing import term_hashes

    n_win = np.maximum(dl - (n - 1), 0)
    total = int(n_win.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint64), n_win
    th = term_hashes(terms).astype(np.uint64)
    doc_off = np.zeros(len(dl), dtype=np.int64)
    np.cumsum(dl[:-1], out=doc_off[1:])
    starts = np.repeat(doc_off, n_win) + _segment_arange(n_win)
    g = np.zeros(total, dtype=np.uint64)
    for k in range(n):
        g = g * np.uint64(1000003) + th[starts + k]
    return _splitmix64(g), n_win


def _token_gram_hashes(texts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One vectorized tokenize pass + :func:`_gram_hashes_from_tokens`."""
    from librecatastro_ray.functions.tokenizer import tokenize_batch

    _parent_idx, terms, dl = tokenize_batch(texts)
    return _gram_hashes_from_tokens(terms, dl, n)


# BPE-ish pre-tokenizer (GPT-2-style word/number/punct split, RE2-safe — no
# lookahead, which pyarrow's RE2 kernels reject)
BPE_SPLIT_RE = r" ?[a-z]+| ?[0-9]+| ?[^a-z0-9\s]+"


def token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    """Per-doc token-count estimate under a BPE-ish pre-tokenizer: counts
    word / number / punctuation-run pre-tokens on the lowercased text (the
    cheap proxy for LLM token budgeting; re2 kernel, zero-copy batches)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch["text"].combine_chunks(), ""))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": pa.array(_re_count(low, BPE_SPLIT_RE), pa.int64()),
            }
        )

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", batch_size=4096
    )


def near_dup_clusters(
    sf_dir: str, verify_threshold: float = 0.6, pairs: pa.Table | None = None
) -> pa.Table:
    """The dedup DECISION for the near-dup family: connected components over
    the verified MinHash-LSH pairs; every clustered doc maps to its
    component's smallest doc_id (``cluster_keep`` — keep that one, drop the
    rest).  The pair set is output-scale by construction (it already passed
    the similarity threshold), so the union-find runs on the driver; the
    heavy lifting (candidate generation + verification) is the distributed
    pipeline above.  Pass a pre-computed ``pairs`` table (doc_a, doc_b, ...)
    to reuse an earlier :func:`minhash_lsh_candidates` result instead of
    re-running the LSH pipeline."""
    if pairs is None:
        pairs = minhash_lsh_candidates(sf_dir, verify_threshold)
    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    ids = np.unique(np.concatenate([a, b])) if len(a) else np.zeros(0, np.int64)
    parent = {int(i): int(i) for i in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            # union by smaller root → the root IS the smallest id
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
    out = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "cluster_keep": pa.array([find(int(i)) for i in ids], pa.int64()),
        }
    )
    return out


def curate_corpus_ds(
    sf_dir: str,
    min_tokens: int = 10,
    max_stop_ratio: float = 0.9,
    max_punct_ratio: float = 0.3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """The composite training-data CURATION pipeline: one streaming pass
    computes per-doc sha256 + quality features + language id, exact-dedup
    winners come from a vectorized groupby-min on the sha, and the winner
    flag joins back by sha (native hash join) — a doc survives iff it is
    its content's smallest doc_id AND clears the quality thresholds AND has
    a recognized language.  Output Dataset: (doc_id, lang_pred, n_tokens).
    Everything distributed; nothing corpus-sized on the driver — consume
    with :func:`curate_corpus_to_parquet` (the 100 TB production path) or
    :func:`curate_corpus` (the driver-table shape tests compare)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Min

    langs = sorted(LANG_MARKERS)

    def features(batch: pa.Table) -> pa.Table:
        text_raw = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray) else batch["text"]
        text = pc.fill_null(text_raw, "")
        low = pc.utf8_lower(text)
        n_chars = pc.utf8_length(text).to_numpy().astype(np.int64)
        n_tokens = _re_count(low, _TOKEN_COUNT_RE)
        alpha_chars = _re_count(low, _ALPHA_CHAR_RE)
        ws_chars = _re_count(text, r"\s")
        n_stop = _re_count(low, _alt(STOPWORDS))
        tok_div = np.where(n_tokens > 0, n_tokens, 1)
        chr_div = np.where(n_chars > 0, n_chars, 1)
        stop_ratio = np.round(np.where(n_tokens > 0, n_stop / tok_div, 0.0), 6)
        punct_ratio = np.round(
            np.where(n_chars > 0, (n_chars - alpha_chars - ws_chars) / chr_div, 0.0), 6
        )
        counts = np.stack([_re_count(low, _alt(LANG_MARKERS[g])) for g in langs], axis=1)
        best = np.array(langs, dtype=object)[np.argmax(counts, axis=1)]
        best[counts.max(axis=1) == 0] = "und"
        from librecatastro_ray.functions.hashing import sha256_batch

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sha256": sha256_batch(text_raw),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "stop_ratio": pa.array(stop_ratio, pa.float64()),
                "punct_ratio": pa.array(punct_ratio, pa.float64()),
                "lang_pred": pa.array(best, pa.string()),
            }
        )

    feats = _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        features, batch_format="pyarrow", batch_size=4096
    ).materialize()  # consumed twice (dedup-min side + join side); never text
    num_partitions = _shuffle_width(feats.count(), 4096, num_partitions)
    winners = feats.groupby("sha256").aggregate(Min("doc_id", alias_name="keep_id"))
    joined = feats.join(winners, "inner", num_partitions, on=("sha256",))

    def keep(t: pa.Table) -> pa.Table:
        m = (
            pc.and_(
                pc.and_(
                    pc.equal(t["doc_id"], t["keep_id"]),
                    pc.greater_equal(t["n_tokens"], min_tokens),
                ),
                pc.and_(
                    pc.and_(
                        pc.less_equal(t["stop_ratio"], max_stop_ratio),
                        pc.less_equal(t["punct_ratio"], max_punct_ratio),
                    ),
                    pc.not_equal(t["lang_pred"], "und"),
                ),
            )
        )
        return t.filter(m).select(["doc_id", "lang_pred", "n_tokens"])

    return joined.map_batches(keep, batch_format="pyarrow")


def curate_corpus(
    sf_dir: str,
    min_tokens: int = 10,
    max_stop_ratio: float = 0.9,
    max_punct_ratio: float = 0.3,
    num_partitions: int | None = None,
) -> pa.Table:
    """Driver-table shape of :func:`curate_corpus_ds`: the curated set as
    one sorted table (``test_curate_corpus_to_parquet_matches_gate``
    compares the parquet output to it).
    Do NOT copy this shape into a production pipeline — at 100 TB the
    consumer is :func:`curate_corpus_to_parquet`."""
    out = curate_corpus_ds(
        sf_dir, min_tokens, max_stop_ratio, max_punct_ratio, num_partitions
    ).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values("doc_id", ignore_index=True), preserve_index=False
    )


def curate_corpus_to_parquet(
    sf_dir: str,
    out_dir: str,
    min_tokens: int = 10,
    max_stop_ratio: float = 0.9,
    max_punct_ratio: float = 0.3,
    num_partitions: int | None = None,
) -> dict:
    """PRODUCTION consumer of :func:`curate_corpus_ds`: stream the curated
    set straight to parquet partitioned by predicted language — blocks go
    from the keep() filter to files, so NOTHING corpus-scale ever touches
    the driver (the round-5 production-path ask: the gate-shaped
    :func:`curate_corpus` exists only for the test compare).  Partitioned
    layout doubles as resumable output: a re-run overwrites per-partition
    files, never one giant object.  Returns a small report dict (row count
    per language from parquet metadata, output dir)."""
    import pyarrow.dataset as pads

    os.makedirs(out_dir, exist_ok=True)
    curate_corpus_ds(
        sf_dir, min_tokens, max_stop_ratio, max_punct_ratio, num_partitions
    ).write_parquet(out_dir, partition_cols=["lang_pred"])
    rows_by_lang = {
        d.split("=", 1)[1]: pads.dataset(
            os.path.join(out_dir, d), format="parquet"
        ).count_rows()
        for d in sorted(os.listdir(out_dir)) if d.startswith("lang_pred=")
    }
    return {
        "out_dir": out_dir,
        "rows_by_lang": rows_by_lang,
        "n_rows": sum(rows_by_lang.values()),
    }

# ---------------------------------------------------------------------------
# substring-level dedup (ExactSubstr-lite)
# ---------------------------------------------------------------------------

_SUBSTR_SCRATCH_ROOT = os.environ.get("LCRAY_SUBSTR_SCRATCH", "/tmp/lcray_substr")


def dedup_substring(
    sf_dir: str, k: int = 8, num_partitions: int | None = None,
    stats_out: dict | None = None,
) -> ray.data.Dataset:
    """Substring-level duplication profile (ExactSubstr-lite, after Lee et
    al. 2021 "Deduplicating Training Data Makes Language Models Better"):
    for every document, how many of its ``k``-token windows occur more than
    once in the WHOLE corpus (suffix-array-free formulation: window
    identity via the rolling gram hashes of :func:`_token_gram_hashes`;
    hash equality ⟺ token-sequence equality w.h.p. —
    ``test_dedup_substring_known_values`` checks hand-counted windows, so a
    hashing bug breaks it).

    Distributed shape (the 100 TB design): token-scale windows never leave
    their batch raw — stage 1 emits per-batch-distinct ``(g, doc_id, c)``
    partials and writes them to scratch parquet hash-partitioned by
    ``g % P`` (the "shuffle" rides the filesystem / object store, exactly
    as it would on a 256-node cluster); stage 2 is P INDEPENDENT
    per-partition tasks, each of which loads one partition, sums counts per
    gram locally (partitioning by ``g`` means every occurrence of a gram is
    in the same partition), and folds the >1-count grams straight into
    per-doc duplicate-window partials.  No global groupby of the gram
    table, no JoinOperator (the Ray 2.49 two-join deadlock never arises),
    and — unlike the pre-round-5 shape — NO corpus-wide materialize(): peak
    memory per task is ONE partition, ~1/P of the gram set, so P scales the
    gram set out of any single heap.  The per-doc base (every doc's window
    count, including dl < k docs with 0) rides a UNION into one final
    doc-keyed groupby instead of an outer join.  Every stage is
    Arrow-in/Arrow-out.

    ``stats_out`` (optional dict) receives ``{"n_partitions",
    "partition_rows", "max_partition_rows", "total_gram_rows"}`` measured
    from the scratch parquet metadata — the boundedness evidence the scale
    test asserts on."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    n_cpus = max(2, int(ray.cluster_resources().get("CPU", 4)))
    P = max(2, num_partitions) if num_partitions else min(64, max(16, n_cpus))

    def partial_grams(t: pa.Table) -> pa.Table:
        texts = pc.fill_null(t["text"].combine_chunks(), "")
        g, n_win = _token_gram_hashes(texts, k)
        did = np.repeat(t["doc_id"].to_numpy(), n_win)
        key = g.astype(np.int64)  # wrap-cast: partition/groupby key only
        order = np.lexsort((key, did))
        did_s, key_s = did[order], key[order]
        first = np.ones(len(order), dtype=bool)
        if len(order) > 1:
            first[1:] = (did_s[1:] != did_s[:-1]) | (key_s[1:] != key_s[:-1])
        starts = np.flatnonzero(first)
        c = np.diff(np.append(starts, len(order)))
        ks = key_s[starts]
        return pa.table({
            "g": pa.array(ks, pa.int64()),
            "doc_id": pa.array(did_s[starts], pa.int64()),
            "c": pa.array(c.astype(np.int64), pa.int64()),
            # non-negative partition id from the wrap-cast int64 hash
            "part": pa.array((ks % P + P) % P, pa.int64()),
        })

    def base_rows(t: pa.Table) -> pa.Table:
        from librecatastro_ray.functions.tokenizer import tokenize_batch

        texts = pc.fill_null(t["text"].combine_chunks(), "")
        _i, _t, dl = tokenize_batch(texts)
        n_win = np.maximum(dl - (k - 1), 0).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_windows": pa.array(n_win, pa.int64()),
            "n_dup_windows": pa.array(np.zeros(len(t), np.int64), pa.int64()),
        })

    base = _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        base_rows, batch_format="pyarrow", batch_size=2048
    )

    # stage 1 (eager): per-doc gram partials → scratch parquet, hash-
    # partitioned by g % P.  One directory per partition; a resumable /
    # failed run re-derives only this scratch, never the output.
    import uuid

    scratch = os.path.join(_SUBSTR_SCRATCH_ROOT, uuid.uuid4().hex[:12])
    os.makedirs(scratch, exist_ok=True)
    _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        partial_grams, batch_format="pyarrow", batch_size=2048
    ).write_parquet(scratch, partition_cols=["part"])

    part_dirs = sorted(
        d for d in os.listdir(scratch) if d.startswith("part=")
    ) if os.path.isdir(scratch) else []
    if stats_out is not None:
        rows = {
            d: pads.dataset(os.path.join(scratch, d), format="parquet")
            .count_rows()
            for d in part_dirs
        }
        stats_out["n_partitions"] = len(part_dirs)
        stats_out["partition_rows"] = rows
        stats_out["max_partition_rows"] = max(rows.values(), default=0)
        stats_out["total_gram_rows"] = sum(rows.values())
    if not part_dirs:
        return base  # no doc produced a single k-token window

    part_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_windows", pa.int64()),
         ("n_dup_windows", pa.int64())]
    )

    def per_partition(t: pa.Table) -> pa.Table:
        # one task = one partition: load (g, doc_id, c) rows for this g-range,
        # local gram-count fold, per-doc dup-window partials out.  Peak
        # memory = this partition only.
        out = []
        for d in t["dir"].to_pylist():
            rows = pads.dataset(d, format="parquet").to_table(
                columns=["g", "doc_id", "c"]
            )
            if len(rows) == 0:
                continue
            g = rows["g"].to_numpy()
            did = rows["doc_id"].to_numpy()
            c = rows["c"].to_numpy()
            order = np.argsort(g, kind="stable")
            gs = g[order]
            bnd = np.flatnonzero(np.concatenate([[True], gs[1:] != gs[:-1]]))
            tot = np.add.reduceat(c[order], bnd)
            seg = np.repeat(np.arange(len(bnd)), np.diff(np.append(bnd, len(gs))))
            dup_gram = (tot > 1)[seg]
            keep = order[dup_gram]
            if len(keep) == 0:
                continue
            dd, cc = did[keep], c[keep]
            od = np.argsort(dd, kind="stable")
            dds = dd[od]
            b2 = np.flatnonzero(np.concatenate([[True], dds[1:] != dds[:-1]]))
            out.append(pa.table({
                "doc_id": pa.array(dds[b2], pa.int64()),
                "n_windows": pa.array(np.zeros(len(b2), np.int64), pa.int64()),
                "n_dup_windows": pa.array(
                    np.add.reduceat(cc[od], b2).astype(np.int64), pa.int64()
                ),
            }))
        if not out:
            return part_schema.empty_table()
        return pa.concat_tables(out)

    dup_per_doc = ray.data.from_items(
        [{"dir": os.path.join(scratch, d)} for d in part_dirs],
        override_num_blocks=len(part_dirs),
    ).map_batches(per_partition, batch_format="pyarrow", batch_size=1)
    return (
        base.union(dup_per_doc)
        .groupby("doc_id")
        .aggregate(
            ray.data.aggregate.Sum("n_windows", alias_name="n_windows"),
            ray.data.aggregate.Sum("n_dup_windows", alias_name="n_dup_windows"),
        )
    )
