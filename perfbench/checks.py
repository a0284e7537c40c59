"""Answer checks.

``Reference`` answers every query kind of the benchmark from
``oracle.OracleIndex``: by calling it for ``match``, ``match_wand``,
``count``, ``prefix_content`` and ``bool_must`` without ``must_not`` or
``should`` terms, and by composing its per-term BM25 scores for what it
does not model (``must_not``/``should``, phrases, fuzzy expansion).  An
engine answer is right when its doc ids equal the reference's in rank order
and every score is within ``SCORE_TOL``.
"""

from __future__ import annotations

import functools
import heapq
import json

import numpy as np

from librecatastro_ray.functions.bm25 import idf, tf_norm
from librecatastro_ray.functions.tokenizer import tokenize
from librecatastro_ray.oracle import OracleIndex

SCORE_TOL = 1e-6


def run_query(engine, q: dict):
    """Send one benchmark query to a direct ``QueryEngine`` and return its
    answer as the engine gives it: a ``pa.Table`` for ranked kinds, an int
    for ``count``.  ``pairs`` turns it into the checked shape."""
    kind, k, frm = q["kind"], q.get("k", 10), q.get("from", 0)
    if kind == "count":
        return engine.count(q["text"])
    if kind == "match":
        return engine.match(q["text"], k, offset=frm)
    elif kind == "match_wand":
        return engine.match_wand(q["text"], k, offset=frm)
    elif kind == "bool_must":
        return engine.bool_must(
            q["must_terms"], k,
            keyword_eq=[tuple(p) for p in q.get("keyword_eq", [])],
            keyword_prefix=[tuple(p) for p in q.get("keyword_prefix", [])],
            must_not_terms=q.get("must_not_terms"),
            should_terms=q.get("should_terms"),
            offset=frm,
        )
    elif kind == "match_phrase":
        return engine.match_phrase(q["text"], k, offset=frm)
    elif kind == "prefix_content":
        return engine.prefix_content(q["prefix"], k, offset=frm)
    elif kind == "fuzzy":
        return engine.fuzzy_content(q["term"], k, offset=frm, max_edits=1)
    raise ValueError(kind)


def pairs(answer):
    """A ``run_query`` answer as ``[(doc_id, score)]`` (a count stays an int)."""
    if isinstance(answer, int):
        return answer
    return list(zip(answer["doc_id"].to_pylist(), answer["score"].to_pylist()))


def scatter_answers(table) -> dict[int, object]:
    """``batch_search_scatter`` output → {query_id: answer} in the
    ``pairs`` shape (count rows carry the count as their score)."""
    out: dict[int, list] = {}
    for qid, rank, doc, score in zip(
        table["query_id"].to_pylist(), table["rank"].to_pylist(),
        table["doc_id"].to_pylist(), table["score"].to_pylist(),
    ):
        if rank == 0 and doc == -1:
            out[qid] = int(score)
        else:
            out.setdefault(qid, []).append((doc, score))
    return out


def same(got, want) -> bool:
    if isinstance(want, int) or isinstance(got, int):
        return isinstance(got, int) and isinstance(want, int) and got == want
    return len(got) == len(want) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= SCORE_TOL for g, w in zip(got, want)
    )


def _within_one_edit(a: str, b: str) -> bool:
    """Optimal-string-alignment distance(a, b) <= 1."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    i = 0
    while i < min(la, lb) and a[i] == b[i]:
        i += 1
    if la == lb:
        if a[i + 1:] == b[i + 1:]:
            return True  # one substitution
        return i + 1 < la and a[i] == b[i + 1] and a[i + 1] == b[i] and a[i + 2:] == b[i + 2:]
    if la > lb:
        return a[i + 1:] == b[i:]
    return a[i:] == b[i + 1:]


def _one_deletions(s: str) -> set[str]:
    return {s} | {s[:i] + s[i + 1:] for i in range(len(s))}


class Reference:
    """Reference answers over a corpus given as live rows in doc-id order."""

    def __init__(self, rows: list[dict]):
        self.oracle = OracleIndex.build(
            [r["repo"] for r in rows], [r["path"] for r in rows],
            [r["lang"] for r in rows], [r["content"] for r in rows],
        )
        # the oracle rescores a term on every call; the corpus is fixed, so
        # its per-term scores are kept
        self.oracle.score_term = functools.lru_cache(maxsize=None)(self.oracle.score_term)
        self.contents = [r["content"] for r in rows]
        # symmetric-delete index: every term under itself and under each
        # one-character deletion of it, so one-edit neighbours share a key
        self._deletes: dict[str, set[str]] = {}
        for t in self.oracle.postings:
            for key in _one_deletions(t):
                self._deletes.setdefault(key, set()).add(t)
        self._stream: tuple | None = None
        self._answers: dict[str, object] = {}

    @staticmethod
    def _top(scores: dict[int, float], k: int, frm: int) -> list[tuple[int, float]]:
        ranked = heapq.nsmallest(frm + k, scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[frm:]

    def answer(self, q: dict):
        """The reference answer; a query repeated in the stream is answered once."""
        key = json.dumps({f: v for f, v in q.items() if f != "query_id"}, sort_keys=True)
        if key not in self._answers:
            self._answers[key] = self._answer(q)
        return self._answers[key]

    def _answer(self, q: dict):
        kind, k, frm = q["kind"], q.get("k", 10), q.get("from", 0)
        o = self.oracle
        if kind == "count":
            return o.count(q["text"])
        if kind in ("match", "match_wand"):
            return o.match(q["text"], frm + k)[frm:]
        if kind == "bool_must":
            if q.get("must_not_terms") or q.get("should_terms"):
                return self._bool(q, k, frm)
            return o.bool_must(q["must_terms"], frm + k, q.get("keyword_eq"),
                               q.get("keyword_prefix"))[frm:]
        if kind == "match_phrase":
            return self._phrase(q["text"], k, frm)
        if kind == "prefix_content":
            return o.prefix_content(q["prefix"], frm + k)[frm:]
        if kind == "fuzzy":
            near = set().union(*(self._deletes.get(key, ()) for key in _one_deletions(q["term"])))
            docs = sorted({d for t in near if _within_one_edit(q["term"], t)
                           for d in o.postings[t]})
            return [(d, 1.0) for d in docs[frm:frm + k]]
        raise ValueError(kind)

    def _bool(self, q, k, frm):
        """must terms (scored) ∧ keyword clauses (1.0 each); should terms add
        score and, with no other clause, are required; docs holding a
        must_not term are excluded."""
        o = self.oracle
        cand: set[int] | None = None
        parts: list[dict[int, float]] = []
        for term in q["must_terms"]:
            s = o.score_term(term)
            cand = set(s) if cand is None else cand & set(s)
            parts.append(s)
        for clause, prefix in (("keyword_eq", False), ("keyword_prefix", True)):
            for field, value in q.get(clause, []):
                docs = o._keyword_docs(field, value, prefix=prefix)
                cand = docs if cand is None else cand & docs
                parts.append({d: 1.0 for d in docs})
        should = [o.score_term(t) for t in q.get("should_terms", [])]
        if cand is None:
            cand = set().union(*should) if should else set()
        for term in q.get("must_not_terms", []):
            cand -= set(o.postings.get(term, {}))
        scores = {d: 0.0 for d in cand}
        for s in parts + should:
            for d in cand:
                if d in s:
                    scores[d] += s[d]
        return self._top(scores, k, frm)

    def _token_stream(self) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Every document's token ids end to end, one -1 between documents,
        with each document's start offset."""
        if self._stream is None:
            ids = {t: i for i, t in enumerate(self.oracle.postings)}
            parts, starts, pos = [], [], 0
            for c in self.contents:
                toks = [ids[t] for t in tokenize(c)] + [-1]
                starts.append(pos)
                pos += len(toks)
                parts.append(toks)
            flat = np.fromiter((t for p in parts for t in p), dtype=np.int64, count=pos)
            self._stream = (flat, np.array(starts, dtype=np.int64), ids)
        return self._stream

    def _phrase(self, text, k, frm):
        """Lucene phrase scoring: idf summed over query positions, tf = the
        number of positions where the whole phrase occurs."""
        o = self.oracle
        terms = tokenize(text)
        flat, starts, ids = self._token_stream()
        if not terms or any(t not in ids for t in terms):
            return []
        n = len(terms)
        hit = np.ones(len(flat) - n + 1, dtype=bool)
        for j, t in enumerate(terms):
            hit &= flat[j:len(flat) - n + 1 + j] == ids[t]
        docs = np.searchsorted(starts, np.nonzero(hit)[0], side="right") - 1
        d, pf = np.unique(docs, return_counts=True)
        if not len(d):
            return []
        w = 0.0
        for t in terms:
            w += float(idf(len(o.postings[t]), o.n_docs))
        dl = np.array([o.dl[int(x)] for x in d], dtype=np.int64)
        scores = w * tf_norm(pf.astype(np.int64), dl, o.avgdl, o.k1, o.b)
        return self._top(dict(zip(d.tolist(), scores.tolist())), k, frm)
