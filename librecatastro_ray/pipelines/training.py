"""Training-data pipeline operators over the ``documents`` table: text
analysis, splitting, sequence packing, exact-content curation and
substring-level dedup.

These are the large-scale-corpus operations a 100 TB training-data pipeline
needs, expressed Ray-Data-first: vectorized map_batches for per-doc scoring,
a hash join for the curation winners, partial top-k per batch before the
final merge.  The search layer does not import this module.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
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


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] — per-segment position indices."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — decorrelates nearby window hashes."""
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


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


# ---------------------------------------------------------------------------
# curation
# ---------------------------------------------------------------------------


def _shuffle_width(
    row_count: int, rows_per_partition: int, num_partitions: int | None = None
) -> int:
    """Hash-shuffle width of the curation join: the caller's explicit
    override (at least 2), else a CPU clamp (the join's aggregator actor
    pool starves when partitions outnumber what the cluster can host)
    narrowed proportionally to the input rows so tiny corpora don't fan out
    into mostly-empty partitions (whose schema-less bundles trip the
    executor's schema-drift warning).  A 100 TB corpus keeps the CPU
    clamp."""
    if num_partitions is not None:
        return max(2, num_partitions)
    width = max(2, min(64, int(ray.cluster_resources().get("CPU", 4))))
    return max(2, min(width, row_count // rows_per_partition + 1))


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
