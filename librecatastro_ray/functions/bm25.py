"""BM25 scoring — the exact Lucene/ES 6.x formula the reference's queries use
implicitly (ES 6.3.2 default similarity; reference: docker-compose.yml
elasticsearch image, src/utils/elasticsearch_utils.py:115-123 issues the BM25
``match`` queries).

    idf(t)        = ln(1 + (N - df + 0.5) / (df + 0.5))
    tfnorm(t, d)  = tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl))
    score(q, d)   = sum over query tokens t (in query order) idf(t) * tfnorm(t, d)

Unlike Lucene we use the EXACT document length dl (Lucene quantizes dl into a
1-byte norm); the pure-Python oracle and the DuckDB oracle SQL share this
formula, so rank identity is well-defined.  All math is float64.
"""

from __future__ import annotations

import numpy as np

K1_DEFAULT = 1.2
B_DEFAULT = 0.75


def idf(df: float | np.ndarray, n_docs: int) -> float | np.ndarray:
    return np.log(1.0 + (n_docs - np.asarray(df, dtype=np.float64) + 0.5) / (np.asarray(df, dtype=np.float64) + 0.5))


def tf_norm(
    tf: np.ndarray,
    dl: np.ndarray,
    avgdl: float,
    k1: float = K1_DEFAULT,
    b: float = B_DEFAULT,
) -> np.ndarray:
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def topk_indices(scores: np.ndarray, doc_ids: np.ndarray, k: int) -> np.ndarray:
    """Deterministic top-k: score desc, doc_id asc.  Returns indices into the
    input arrays, ordered by rank (the reference's default ES sort,
    reference: src/utils/elasticsearch_utils.py:120-122)."""
    n = len(scores)
    if n == 0 or k <= 0:
        return np.zeros(0, dtype=np.int64)
    k = min(k, n)
    if n > 4 * k:
        # pre-select by score: everything >= the k-th score (ties included so
        # the (score desc, doc_id asc) tiebreak stays exact)
        kth = np.partition(scores, n - k)[n - k]
        part = np.nonzero(scores >= kth)[0]
        if len(part) > max(4 * k, 4096):
            # degenerate tie plateau (constant-score queries: every doc ties
            # at kth) — among the tied, the k smallest doc_ids win, so
            # partition doc_ids instead of lexsorting the whole plateau
            above = part[scores[part] > kth]
            tied = part[scores[part] == kth]
            need = k - len(above)
            tsel = tied[np.argpartition(doc_ids[tied], need - 1)[:need]]
            part = np.concatenate([above, tsel])
    else:
        part = np.arange(n)
    order = np.lexsort((doc_ids[part], -scores[part]))
    return part[order[:k]]
