"""Pluggable analysis strategies: the Analyzer / Scorer extension surface.

SURVEY.md §2.J promises the reference's strategy-object pattern — a ``Parser``
ABC whose HTML/XML implementations are constructor-injected and selected by a
flag (reference: src/librecatastro/scrapping/parser.py:12-28, swapped by
``--html`` in libreCatastro.py) — re-expressed for the engine's two analysis
axes:

- **Analyzer** (tokenization): how ``content`` becomes terms, at build and at
  query time.  The canonical default (``code_standard_v1``) is the pinned
  tokenizer every SQL oracle replays; ``whitespace_v1`` ships as the second
  built-in (lowercase + whitespace-run split).
- **Scorer** (ranking): per-term ``idf`` weight and per-posting ``tf_norm``.
  The default (``bm25_v1``) is the exact ES 6.x BM25 the reference relies on;
  ``tfidf_v1`` ships as a dl-independent alternative.

An index is built WITH a strategy pair and records both ids in its manifest
(via ``IndexConfig``); query engines resolve the ids from the registry and
REJECT an explicitly-passed mismatching strategy — querying an index with a
different tokenizer than it was built with silently returns garbage, so it is
an error, not a fallback.

Registry constraint (Ray): strategies resolve BY ID inside remote tasks and
actors, so implementations must be importable module-level objects —
register at import time (a module your workers import), never inside a
closure.  The id string, not the object, is what travels through
``fn_kwargs`` and the manifest.

Scorer contract required by block-max bounds: a document's score must be
``Σ_t idf(df_t, N) · tf_norm(tf_td, dl_d)`` with ``idf ≥ 0`` and ``tf_norm``
nondecreasing in ``tf`` — a block's ``max_tfnorm`` (derived at read time,
``QueryEngine._block_meta``) is then a valid upper bound for any Scorer.
"""

from __future__ import annotations

import re
from typing import Protocol, runtime_checkable

import numpy as np
import pyarrow as pa

from librecatastro_ray.functions import bm25, tokenizer


@runtime_checkable
class Analyzer(Protocol):
    analyzer_id: str

    def tokenize(self, s: str | None) -> list[str]:
        """Per-string tokenize (query side / pure-Python oracle)."""
        ...

    def tokenize_batch(
        self, arr: pa.Array | pa.ChunkedArray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized tokenize of a string column → (parent_idx, terms, dl);
        MUST agree with :meth:`tokenize` row-for-row (build/query identity
        depends on it — test both sides of any new implementation)."""
        ...


def _scalar_via_batch(tokenize_batch, s: str | None, ascii_fast=None) -> list[str]:
    """Scalar tokenize routed through the BATCH kernel, so the two Analyzer
    paths agree by construction.  This matters beyond ASCII: Python
    ``str.lower()`` applies full Unicode case mapping while Arrow's
    ``utf8_lower`` applies utf8proc's simple mapping (e.g. ``İ`` → ``i̇`` vs
    ``i``), so a hand-rolled scalar twin silently diverges and a query for
    text that is literally in the corpus can return zero hits.

    ``ascii_fast``: optional pure-Python tokenizer used when ``s`` is ASCII —
    the two case mappings are identical there, and the Arrow kernel's
    per-call overhead (~0.6 ms) is ~15% of a whole match query."""
    if s is None:
        return []
    if ascii_fast is not None and s.isascii():
        return ascii_fast(s)
    _parents, terms, _dl = tokenize_batch(pa.array([s], pa.string()))
    return [str(t) for t in terms]


class CodeAnalyzer:
    """The pinned canonical tokenizer (lowercase maximal ``[a-z0-9_]+``
    runs) — delegates to :mod:`librecatastro_ray.functions.tokenizer`, the
    module every DuckDB oracle mirrors."""

    analyzer_id = "code_standard_v1"

    @staticmethod
    def tokenize(s: str | None) -> list[str]:
        return _scalar_via_batch(
            tokenizer.tokenize_batch, s, ascii_fast=tokenizer.tokenize
        )

    @staticmethod
    def tokenize_batch(arr):
        return tokenizer.tokenize_batch(arr)


_WS_CLASS = "[ \\t\\n\\r\\f\\v]+"  # explicit ASCII class: identical in re + RE2
_WS_RE = re.compile(_WS_CLASS)


class WhitespaceAnalyzer:
    """Lowercase + whitespace-run split (the ES ``whitespace`` analyzer plus
    a lowercase filter).  Tokens keep their punctuation: ``Foo.bar(x)`` is
    one term.  The scalar path is the batch kernel applied to one row, so
    both sides match by construction (see ``_scalar_via_batch``)."""

    analyzer_id = "whitespace_v1"

    def tokenize(self, s: str | None) -> list[str]:
        return _scalar_via_batch(self.tokenize_batch, s, ascii_fast=self._ascii_tokenize)

    @staticmethod
    def _ascii_tokenize(s: str) -> list[str]:
        return [t for t in _WS_RE.split(s.lower()) if t]

    def tokenize_batch(self, arr):
        return tokenizer.tokenize_batch_pattern(arr, _WS_CLASS)


def term_frequencies_with(
    analyzer: Analyzer, arr: pa.Array | pa.ChunkedArray
) -> tuple[pa.Table, np.ndarray]:
    """Per-(row, term) frequencies under an arbitrary Analyzer (the build-side
    hot path; Arrow C++ group-by shared with the canonical tokenizer)."""
    return tokenizer.term_frequencies_from(*analyzer.tokenize_batch(arr))


@runtime_checkable
class Scorer(Protocol):
    scorer_id: str

    def idf(self, df: float | np.ndarray, n_docs: int) -> float | np.ndarray:
        """Per-term weight; must be ≥ 0."""
        ...

    def tf_norm(self, tf: np.ndarray, dl: np.ndarray, avgdl: float) -> np.ndarray:
        """Per-posting normalized tf; must be nondecreasing in ``tf`` (the
        WAND block-max bound contract)."""
        ...


class BM25Scorer:
    """Exact Lucene/ES 6.x BM25 (the reference's implicit similarity) —
    delegates to :mod:`librecatastro_ray.functions.bm25`."""

    scorer_id = "bm25_v1"

    def __init__(self, k1: float = bm25.K1_DEFAULT, b: float = bm25.B_DEFAULT):
        self.k1, self.b = float(k1), float(b)

    def idf(self, df, n_docs):
        return bm25.idf(df, n_docs)

    def tf_norm(self, tf, dl, avgdl):
        return bm25.tf_norm(tf, dl, avgdl, self.k1, self.b)


class TfIdfScorer:
    """Classic sublinear tf-idf: ``idf = ln(1 + N/(df+1))``,
    ``tf_norm = 1 + ln(tf)`` — dl-independent, monotone in tf (WAND-safe).
    ``k1``/``b`` are accepted and ignored (uniform factory signature)."""

    scorer_id = "tfidf_v1"

    def __init__(self, k1: float = 0.0, b: float = 0.0):
        pass

    def idf(self, df, n_docs):
        return np.log(1.0 + n_docs / (np.asarray(df, dtype=np.float64) + 1.0))

    def tf_norm(self, tf, dl, avgdl):
        # postings guarantee tf >= 1, but the Scorer protocol doesn't state
        # that precondition — clamp so a zero tf can't emit -inf / warnings
        return 1.0 + np.log(np.maximum(np.asarray(tf, dtype=np.float64), 1.0))


_ANALYZERS: dict[str, Analyzer] = {
    a.analyzer_id: a for a in (CodeAnalyzer(), WhitespaceAnalyzer())
}
_SCORERS: dict[str, type] = {
    c.scorer_id: c for c in (BM25Scorer, TfIdfScorer)
}


def register_analyzer(analyzer: Analyzer) -> None:
    _ANALYZERS[analyzer.analyzer_id] = analyzer


def register_scorer(factory: type) -> None:
    _SCORERS[factory.scorer_id] = factory


def get_analyzer(analyzer_id: str) -> Analyzer:
    try:
        return _ANALYZERS[analyzer_id]
    except KeyError:
        raise ValueError(
            f"unknown analyzer {analyzer_id!r} (registered: "
            f"{sorted(_ANALYZERS)}); register_analyzer() it in a module "
            f"your workers import"
        ) from None


def get_scorer(scorer_id: str, k1: float, b: float) -> Scorer:
    try:
        factory = _SCORERS[scorer_id]
    except KeyError:
        raise ValueError(
            f"unknown scorer {scorer_id!r} (registered: {sorted(_SCORERS)}); "
            f"register_scorer() it in a module your workers import"
        ) from None
    return factory(k1, b)
