"""Seeded input generators.

Everything the program under test receives is made here from the workload
seed: the corpus and write batches come from ``sources.synth.make_corpus``;
query streams draw terms from the corpus dictionary (the terms the built
index holds) and phrases from adjacent tokens of real documents, either in
proportion to corpus frequency (search) or in bench.py's own traffic shape
(batch; see ``QueryGen``).  The same seed gives byte-identical inputs (see
``fingerprint``).
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.sources.synth import make_corpus

# Query kinds of the repository's bench.py (make_query_set), per 10
# queries: 4 match, 3 bool_must, 1 prefix_content, 1 match_phrase and 1
# keyword dedup probe.  Streams shuffle their mix block by block, so every
# stretch of a run sees the same mix.
BENCH_PY_MIX = ["match"] * 4 + ["bool_must"] * 3 + ["prefix_content", "match_phrase", "kw_probe"]
# search: that mix doubled to 20, where the kinds it leaves out take one
# slot of their closest kind: of the 8 match slots one becomes match_wand
# (the same query through WAND), one a second page (from=10) and one a
# count (a match's hit total); of the 2 prefix slots one becomes fuzzy (the
# other expansion query)
SEARCH_MIX = (
    ["match"] * 5 + ["match_page", "match_wand", "count"] + ["bool_must"] * 6
    + ["kw_probe"] * 2 + ["match_phrase"] * 2 + ["prefix_content", "fuzzy"]
)
# batch: the bench.py mix and vocabulary size as they are; bench.py sends
# this traffic through the scatter path
BATCH_MIX = BENCH_PY_MIX
BATCH_VOCAB = 18  # bench.py make_query_set's vocabulary
# bench.py puts a must_not term on 1 in 10 bool_must queries and a should
# term on another 1 in 10
MUST_NOT_FRAC = SHOULD_FRAC = 0.1


def sub_seed(seed: int, *purpose: int) -> np.random.RandomState:
    """An independent, stable random stream for one purpose of one seed."""
    return np.random.RandomState([seed % (1 << 32), *purpose])


def corpus(seed: int, n_docs: int) -> pa.Table:
    return make_corpus(n_docs=n_docs, seed=seed % (1 << 32))


def content_sha(content: str | None) -> str:
    return hashlib.sha256((content or "").encode("utf-8")).hexdigest()


def live_rows(table: pa.Table) -> list[dict]:
    """One row per (repo, path) key, the engine's upsert rule (the row with
    the largest content sha256 wins), in doc-id order (sorted keys)."""
    best: dict[tuple[str, str], tuple[str, dict]] = {}
    for r in table.to_pylist():
        key = (r["repo"], r["path"])
        sha = content_sha(r["content"])
        if key not in best or sha > best[key][0]:
            best[key] = (sha, r)
    return [best[k][1] for k in sorted(best)]


def delta(seed: int, gen: int, n_docs: int, upsert_keys: list[tuple[str, str]]) -> pa.Table:
    """Write batch ``gen``: ``n_docs`` fresh documents under paths no other
    batch uses, the first ``len(upsert_keys)`` of them re-keyed onto existing
    documents (upserts).  Every row carries a unique marker token
    ``mark_<gen>_<i>`` so a probe can find exactly that row."""
    t = make_corpus(n_docs=n_docs, seed=(seed * 7919 + 101 * gen) % (1 << 32), dup_frac=0.0)
    repos = t["repo"].to_pylist()
    paths = [f"src/delta{gen}/mod_{i:06d}.py" for i in range(n_docs)]
    for i, (repo, path) in enumerate(upsert_keys):
        repos[i], paths[i] = repo, path
    contents = [
        (c or "") + f"\n{marker(gen, i)}" for i, c in enumerate(t["content"].to_pylist())
    ]
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": t["commit"],
            "lang": t["lang"],
            "content": pa.array(contents, pa.string()),
        }
    )


def marker(gen: int, i: int) -> str:
    return f"mark_{gen}_{i:06d}"


class QueryGen:
    """Query streams over one corpus.  By default a term is drawn with
    probability proportional to its number of occurrences in the corpus and
    a phrase is 2-3 adjacent tokens of a random document.  With
    ``vocab_size`` the traffic is shaped as bench.py shapes its own (a fixed
    vocabulary of common words, phrases from recurring bigrams): terms are
    drawn uniformly from the ``vocab_size`` most frequent ones and phrases
    from the corpus's most recurring bigrams, skipping the very top ones as
    bench.py's make_phrase_pool does."""

    PHRASE_POOL, PHRASE_SKIP = 64, 16  # bench.py's make_phrase_pool defaults

    def __init__(self, rows: list[dict], rng: np.random.RandomState,
                 vocab_size: int | None = None):
        self.rng = rng
        cf: Counter = Counter()
        self.doc_tokens = []
        for r in rows:
            toks = tokenize(r["content"])
            self.doc_tokens.append(toks)
            cf.update(toks)
        if vocab_size is None:
            self.terms = sorted(cf)
            w = np.array([cf[t] for t in self.terms], dtype=np.float64)
            self.phrase_pool = None
        else:
            self.terms = [t for t, _ in sorted(cf.items(), key=lambda kv: (-kv[1], kv[0]))]
            self.terms = self.terms[:vocab_size]
            w = np.ones(len(self.terms))
            bigrams: Counter = Counter()
            for toks in self.doc_tokens:
                bigrams.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
            ranked = [p for p, _ in sorted(bigrams.items(), key=lambda kv: (-kv[1], kv[0]))]
            self.phrase_pool = ranked[self.PHRASE_SKIP:self.PHRASE_SKIP + self.PHRASE_POOL]
        self.cdf = np.cumsum(w / w.sum())
        self.phrase_docs = [i for i, toks in enumerate(self.doc_tokens) if len(toks) >= 3]
        self.langs = [r["lang"] for r in rows]
        self.dirs = [r["path"].rsplit("/", 1)[0] + "/" for r in rows]

    def term(self) -> str:
        i = int(np.searchsorted(self.cdf, self.rng.random_sample(), side="right"))
        return self.terms[min(i, len(self.terms) - 1)]

    def phrase(self) -> str:
        rng = self.rng
        if self.phrase_pool:
            return self.phrase_pool[rng.randint(len(self.phrase_pool))]
        toks = self.doc_tokens[self.phrase_docs[rng.randint(len(self.phrase_docs))]]
        n = 2 + rng.randint(2)
        start = rng.randint(len(toks) - n + 1)
        return " ".join(toks[start:start + n])

    def query(self, qid: int, kind: str) -> dict:
        rng = self.rng
        q: dict = {"query_id": qid, "kind": kind, "k": 10}
        if kind in ("match", "match_page", "match_wand", "count"):
            q["text"] = " ".join(self.term() for _ in range(1 + rng.randint(3)))
            if kind == "match_page":
                q["kind"], q["from"] = "match", 10
        elif kind == "bool_must":
            q["must_terms"] = list(dict.fromkeys(self.term() for _ in range(2)))
            u = rng.rand()
            if u < MUST_NOT_FRAC:
                q["must_not_terms"] = [self.term()]
            elif u < MUST_NOT_FRAC + SHOULD_FRAC:
                q["should_terms"] = [self.term()]
        elif kind == "kw_probe":
            # the reference application's dedup probe: one content term, a
            # keyword equality and a keyword prefix, here the lang and the
            # directory of a real document
            d = rng.randint(len(self.langs))
            q["kind"] = "bool_must"
            q["must_terms"] = [self.term()]
            q["keyword_eq"] = [["lang", self.langs[d]]]
            q["keyword_prefix"] = [["path", self.dirs[d]]]
        elif kind == "match_phrase":
            q["text"] = self.phrase()
        elif kind == "prefix_content":
            # a term of 3+ characters less its last one (~10 terms for
            # id_NNNNN); a one-letter stem such as "i" would expand to the
            # whole id_ vocabulary
            t = self.term()
            while len(t) < 3:
                t = self.term()
            q["prefix"] = t[:-1]
        elif kind == "fuzzy":
            t = self.term()
            i = rng.randint(len(t))
            q["term"] = t[:i] + "qxz"[rng.randint(3)] + t[i + 1:]
        else:
            raise ValueError(kind)
        return q

    def stream(self, mix: list[str], first_id: int = 0):
        """Endless query stream: ``mix`` shuffled block after block."""
        qid = first_id
        while True:
            block = list(mix)
            self.rng.shuffle(block)
            for kind in block:
                yield self.query(qid, kind)
                qid += 1


def fingerprint(*parts) -> str:
    """sha256 over tables (as parquet bytes) and JSON-able values."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, pa.Table):
            buf = io.BytesIO()
            pq.write_table(p, buf)
            h.update(buf.getvalue())
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()
