"""Benchmark: headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) at $RAY_GRAFT_CPUS CPUs (default 32).

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {"build": s, "query": s, "phrase": s}, "sf": ...,
   "num_cpus": N, "n_docs": ..., "docs_per_sec": ..., "qps": ...,
   "phrase_qps": ..., "range_engine_cache": {hits, misses, evictions,
   hit_rate}}

The positional match_phrase workload (10% of the mix, round 5) is timed
as its own "phrase" phase so cross-round comparisons of "query" stay
apples-to-apples with rounds that predate phrase coverage.

--scaling: runs the same benchmark in fresh processes at N and 4N CPUs
(default 2 vs 8, env LCRAY_SCALING_LO/HI) on the same input, interleaved
best-of-N trials, and reports both throughputs + scaling efficiency (the
in-sandbox stand-in for the N vs 4N node cluster rule; no real cluster
exists here).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# size the object store to 50% of host memory (Ray Data's recommendation;
# silences the resource_manager sizing warning) — must be set before ray.init
os.environ.setdefault("RAY_DEFAULT_OBJECT_STORE_MEMORY_PROPORTION", "0.5")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
AMPLIFY = int(os.environ.get("LCRAY_BENCH_AMPLIFY", "120"))
WORK_ROOT = os.environ.get("LCRAY_BENCH_DIR", "/tmp/lcray_bench")


def make_bench_corpus(sf_dir: str, amplify: int, out_dir: str) -> int:
    """Deterministic amplified corpus from the documents table: each doc
    becomes ``amplify`` variants with distinct (repo, path) keys and
    deterministically varied content.  Cached on disk across runs (so the
    scaling pair times compute, not corpus generation)."""
    import pyarrow as pa
    import ray.data

    marker = os.path.join(out_dir, "_DONE.json")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_docs"]
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)

    def amplify_batch(batch: pa.Table) -> pa.Table:
        repos, paths, commits, langs, contents = [], [], [], [], []
        doc_ids = batch["doc_id"].to_pylist()
        langs_in = batch["lang"].to_pylist()
        srcs = batch["source"].to_pylist()
        texts = batch["text"].to_pylist()
        for doc_id, lang, src, text in zip(doc_ids, langs_in, srcs, texts):
            text = text or ""
            for j in range(amplify):
                repos.append(f"{src}/shard{j % 4}")
                paths.append(f"docs/{lang}/{doc_id:08d}_{j:04d}.txt")
                commits.append(f"{doc_id:020d}{j:020d}")
                langs.append(lang)
                off = (j * 17) % max(len(text), 1)
                contents.append(f"{text}\nvariant_{j:04d} {text[off:off + 240]}")
        return pa.table(
            {
                "repo": pa.array(repos, pa.string()),
                "path": pa.array(paths, pa.string()),
                "commit": pa.array(commits, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "content": pa.array(contents, pa.string()),
            }
        )

    from librecatastro_ray.sources.readers import read_parquet_clean

    ds = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "source", "text"],
    ).map_batches(amplify_batch, batch_format="pyarrow", batch_size=1024)
    ds.write_parquet(out_dir)
    n_docs = ray.data.read_parquet(out_dir).count()
    with open(marker, "w") as f:
        json.dump({"n_docs": n_docs, "amplify": amplify, "sf_dir": sf_dir}, f)
    return n_docs


def make_phrase_pool(sf_dir: str, n: int = 64, skip: int = 16) -> list[str]:
    """Recurring word bigrams from the documents table (bounded sample) —
    phrase queries whose terms actually co-occur adjacently, so the
    positional read path does real work instead of empty-intersecting.
    ``skip`` drops the very top bigrams (the stopword-pair class whose
    positions streams are maximally large): the headline mix uses the
    natural mid-frequency band; the worst-case top-bigram workload is
    measured separately in BASELINE.md."""
    from collections import Counter

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    counts: Counter = Counter()
    for text in t["text"].to_pylist()[:2000]:
        toks = [w for w in (text or "").lower().split() if w.isalnum()]
        counts.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    ranked = [p for p, _c in counts.most_common(skip + n)]
    return ranked[skip:] or ranked


def make_query_set(n: int = 200, phrase_pool: list[str] | None = None) -> list[dict]:
    vocab = [
        "table", "value", "key", "part", "row", "fast", "slow", "hash", "agg",
        "scan", "merge", "batch", "sort", "window", "line", "spark", "the", "a",
    ]
    langs = ["en", "es", "de", "fr"]
    qs = []
    for i in range(n):
        # each kind carries only the keys it takes: batch_search_scatter
        # rejects any other
        base = {"query_id": i, "k": 10}
        kind = ["match", "match", "match", "bool_must", "prefix_content",
                "phrase", "bool_must", "match", "bool_kw_probe", "bool_must"][i % 10]
        if kind == "phrase":
            # 10% positional phrase queries ride in the headline mix (round-5
            # ask: the phrase path can never silently regress); falls back to
            # plain match when the index has no positions to query
            if phrase_pool:
                base.update(kind="match_phrase",
                            text=phrase_pool[i % len(phrase_pool)])
                qs.append(base)
                continue
            kind = "match"
        if kind == "match":
            nterms = 1 + (i % 3)
            terms = [vocab[(i * 7 + j * 3) % len(vocab)] for j in range(nterms)]
            base.update(kind="match", text=" ".join(terms))
            if i % 20 == 5:
                base["from"] = 10  # pagination: second page
        elif kind == "bool_must":
            terms = [vocab[(i * 5) % len(vocab)], vocab[(i * 11 + 1) % len(vocab)]]
            base.update(kind="bool_must", must_terms=list(dict.fromkeys(terms)))
            if i % 30 == 9:
                base["must_not_terms"] = [vocab[(i * 13 + 2) % len(vocab)]]
            if i % 30 == 19:
                base["should_terms"] = [vocab[(i * 17 + 3) % len(vocab)]]
        elif kind == "bool_kw_probe":
            # the reference's 3-clause dedup-probe shape (match + keyword eq +
            # keyword prefix, elasticsearch_utils.py:111-119)
            lang = langs[i % len(langs)]
            base.update(
                kind="bool_must",
                must_terms=[vocab[(i * 5) % len(vocab)]],
                keyword_eq=[["lang", lang]],
                keyword_prefix=[["path", f"docs/{lang}/"]],
            )
        else:
            base.update(kind="prefix_content", prefix=vocab[i % len(vocab)][:2])
        qs.append(base)
    return qs


def run_bench() -> dict:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index
    from librecatastro_ray.state.manifest import drop_index

    sf_tag = os.path.basename(os.path.normpath(SF_DIR))
    corpus_dir = os.path.join(WORK_ROOT, f"corpus_{sf_tag}_x{AMPLIFY}")
    n_docs = make_bench_corpus(SF_DIR, AMPLIFY, corpus_dir)

    # warm the page cache (untimed read), then time the build
    ray.data.read_parquet(corpus_dir).count()
    index_dir = os.path.join(WORK_ROOT, f"idx_{sf_tag}_cpus{NUM_CPUS}")
    drop_index(index_dir)
    cfg = IndexConfig(
        num_partitions=int(os.environ.get("LCRAY_BENCH_PARTITIONS", "16")),
        num_salts=4,
        # positions in the headline build: the phrase queries below
        # need it, and its build cost is inside host noise (BASELINE.md's
        # interleaved plain-vs-positional measurement)
        positions=True)
    t0 = time.monotonic()
    build_out = build_index(corpus_dir, index_dir, cfg, resume=False)
    build_sec = time.monotonic() - t0
    build_phases = build_out["report"].get("phase_seconds", {})

    # batch query evaluation: batch_search_scatter on the range-actor pool.
    # LCRAY_BENCH_PHRASES=0 reproduces the round-4 all-match mix for
    # apples-to-apples comparisons against earlier rounds' readings
    with_phrases = os.environ.get("LCRAY_BENCH_PHRASES", "1") != "0"
    queries = make_query_set(
        int(os.environ.get("LCRAY_BENCH_QUERIES", "4000")),
        phrase_pool=make_phrase_pool(SF_DIR) if with_phrases else None)
    from librecatastro_ray.pipelines.query import batch_search_scatter, range_cache_stats

    # the positional phrase workload is timed as its OWN phase ("phrase" in
    # the queries dict): it is a new round-5 addition to the mix, and folding
    # it into "query" would make the headline read as a regression against
    # rounds that never ran phrases at all
    phrase_queries = [q for q in queries if q["kind"] == "match_phrase"]
    plain_queries = [q for q in queries if q["kind"] != "match_phrase"]

    def _serve(qs: list[dict]) -> int:
        return len(batch_search_scatter(index_dir, qs, n_ranges=NUM_CPUS))

    t0 = time.monotonic()
    out = _serve(plain_queries)
    query_sec = time.monotonic() - t0
    t0 = time.monotonic()
    out += _serve(phrase_queries)
    phrase_sec = time.monotonic() - t0
    # the pool actors' RangeEngine LRU totals for this session (hit_rate near
    # (chunks-1)/chunks: engines are reused across chunks; near 0: the LRU
    # thrashes and every call re-decodes its ranges' postings)
    cache_stats = range_cache_stats()

    ray.shutdown()
    total = build_sec + query_sec + phrase_sec
    return {
        "metric": "index build + BM25 batch query + phrase wall time",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {
            "build": round(build_sec, 3),
            "query": round(query_sec, 3),
            "phrase": round(phrase_sec, 3),
        },
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / build_sec, 1),
        "qps": round(len(plain_queries) / query_sec, 1),
        "phrase_qps": (round(len(phrase_queries) / phrase_sec, 1)
                       if phrase_queries else None),
        "result_rows": out,
        "build_phases": build_phases,
        "range_engine_cache": cache_stats,
    }


def _matmul_procs(n: int) -> float:
    """Wall time for n concurrent single-threaded in-cache matmul processes
    (a fixed no-shared-state workload)."""
    code = ("import numpy as np, time; a=np.random.rand(200,200); "
            "[a@a for _ in range(3000)]")
    t0 = time.monotonic()
    ps = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.DEVNULL,
            env=dict(os.environ, OMP_NUM_THREADS="1"),
        )
        for _ in range(n)
    ]
    for p_ in ps:
        p_.wait()
    return time.monotonic() - t0


def matmul_control(lo: int, hi: int, reps: int = 3) -> float:
    """No-shared-state lo-vs-hi-process scaling of in-cache matmuls: what the
    time-shared host actually delivers right now.  Reported alongside the
    engine pair so a depressed engine reading can be attributed (or not) to
    host contention — see BASELINE.md's paired-window protocol."""
    best_lo = min(_matmul_procs(lo) for _ in range(reps))
    best_hi = min(_matmul_procs(hi) for _ in range(reps))
    return round(((hi / best_hi) / (lo / best_lo)) / (hi / lo), 3)


def host_control(n: int) -> float:
    """Contemporaneous host-capacity reading for the headline bench: wall
    time of ONE matmul process vs min(n, 8) concurrent ones.  1.0 = that
    many free cores; well below ~0.8 = a contended window, self-evident in
    the bench JSON (round-3 verdict: the driver's r03 reading regressed in
    a window whose control read 0.77 — embed the control, don't argue it
    after the fact).  Capped at 8 because the cliff ABOVE ~16 concurrent
    pinned procs is a structural property of this time-shared host
    (measured 1/8/16/32 procs: 4.1/4.3/5.8/44.2 s — same fixed work), not
    of the current window; 1-vs-8 is what separates clean from contended."""
    return round(_matmul_procs(1) / _matmul_procs(min(n, 8)), 3)


def run_scaling() -> dict:
    # scaling pair runs a larger amplification so the 8-CPU side is
    # compute-bound: efficiency measured on a corpus small enough to finish
    # in fixed orchestration overhead would measure overhead, not scaling
    amplify = os.environ.get("LCRAY_SCALING_AMPLIFY", "120")

    def one(ncpu: int) -> dict:
        # one trial per subprocess: run_scaling does its own interleaved
        # best-of-trials across the lo/hi pair
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), LCRAY_BENCH_AMPLIFY=amplify,
                   LCRAY_BENCH_TRIALS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # the sandbox host is time-shared and interference varies minute to
    # minute; interleave lo/hi trials and take the least-interfered
    # (fastest-build) run per side
    trials = int(os.environ.get("LCRAY_SCALING_TRIALS", "2"))
    # default pair 2 vs 8: this host is oversubscribed above ~8-16 procs
    # (see BASELINE.md's control microbenchmark), so 8-vs-32 measures the
    # virtualization, not the engine; 2-vs-8 is the meaningful N-vs-4N pair
    lo = int(os.environ.get("LCRAY_SCALING_LO", "2"))
    hi = int(os.environ.get("LCRAY_SCALING_HI", "8"))
    pairs = []
    for _ in range(trials):
        r_lo = one(lo)
        r_hi = one(hi)
        tput_lo = r_lo["n_docs"] / r_lo["queries"]["build"]
        tput_hi = r_hi["n_docs"] / r_hi["queries"]["build"]
        pairs.append({
            "r_lo": r_lo, "r_hi": r_hi,
            "eff": round((tput_hi / tput_lo) / (hi / lo), 3),
            # each side's run embeds its own adjacent matmul control; a pair
            # is CLEAN only when both sides ran in uncontended windows (a
            # contended hi side under-reads efficiency, a contended lo side
            # over-reads it — either way the pair is not evidence)
            "ctrl_lo": r_lo.get("control_efficiency"),
            "ctrl_hi": r_hi.get("control_efficiency"),
            "tput_lo": tput_lo, "tput_hi": tput_hi,
        })
    # report the best pair measured in a clean window; pairing the luckiest
    # lo with the luckiest hi across windows (the old best-of-per-side)
    # mixes windows and biases the ratio
    clean = [p for p in pairs
             if (p["ctrl_lo"] or 0) >= 0.9 and (p["ctrl_hi"] or 0) >= 0.9]
    best = (max(clean, key=lambda p: p["eff"]) if clean
            else max(pairs, key=lambda p: min(p["ctrl_lo"] or 0, p["ctrl_hi"] or 0)))
    r_lo, r_hi = best["r_lo"], best["r_hi"]
    return {
        "metric": f"scaling efficiency (fresh processes, num_cpus {lo} vs {hi}; in-sandbox stand-in for N vs 4N nodes)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "build_sec_lo": r_lo["queries"]["build"],
        "build_sec_hi": r_hi["queries"]["build"],
        "docs_per_sec_lo": round(best["tput_lo"], 1),
        "docs_per_sec_hi": round(best["tput_hi"], 1),
        "total_sec_lo": r_lo["value"],
        "total_sec_hi": r_hi["value"],
        "qps_lo": r_lo["qps"],
        "qps_hi": r_hi["qps"],
        "scaling_efficiency": best["eff"],
        "pair_efficiencies": [p["eff"] for p in pairs],
        "pair_controls": [[p["ctrl_lo"], p["ctrl_hi"]] for p in pairs],
        # contemporaneous no-shared-state control: the host's own ceiling
        "control_efficiency": matmul_control(lo, hi),
    }


def run_bench_best() -> dict:
    """Best of LCRAY_BENCH_TRIALS (default 4) interleaved trials — the
    sandbox host is time-shared and a single reading can land in an
    interference window (BASELINE.md documents swings of 24%+ at fixed
    code); every trial's total is reported so the spread is visible, and a
    no-shared-state matmul control runs AFTER EACH trial so a contended
    window shows up in the same JSON line (``controls`` per trial;
    ``control_efficiency`` = the control adjacent to the reported best
    trial)."""
    n_trials = int(os.environ.get("LCRAY_BENCH_TRIALS", "4"))
    trials, controls = [], []
    for _ in range(n_trials):
        trials.append(run_bench())
        controls.append(host_control(NUM_CPUS))
    best_i = min(range(n_trials), key=lambda i: trials[i]["value"])
    best = trials[best_i]
    best["trials_sec"] = [r["value"] for r in trials]
    best["controls"] = controls
    best["control_efficiency"] = controls[best_i]
    return best


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench_best()))
