"""Vectorized bounded edit distance for fuzzy term expansion.

Optimal-string-alignment (OSA) distance — Levenshtein plus adjacent
transpositions counted as ONE edit, Lucene FuzzyQuery's default
(``transpositions=true``) and DuckDB's ``damerau_levenshtein`` on
non-degenerate inputs — computed simultaneously for N candidate terms
against one query term: the DP iterates over CHARACTER POSITIONS
(O(|q|·maxlen) numpy ops), never over candidates.

Used by ``QueryEngine.expand_fuzzy`` to scan the term dictionary (the small
index artifact); the matching oracle replays with DuckDB's
``damerau_levenshtein`` and the test suite pins the two equal over real
dictionaries.
"""

from __future__ import annotations

import numpy as np


def _lengths(terms: np.ndarray) -> np.ndarray:
    return np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))


def _codepoint_matrix(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N × maxlen int32 codepoint matrix padded with -1, lengths int64):
    one UTF-32 encode of the concatenated terms, scattered row by row."""
    lens = _lengths(terms)
    maxlen = int(lens.max()) if len(lens) else 0
    mat = np.full((len(terms), maxlen), -1, dtype=np.int32)
    flat = np.frombuffer("".join(terms).encode("utf-32-le"), dtype=np.uint32)
    rows = np.repeat(np.arange(len(terms)), lens)
    mat[rows, np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)] = flat
    return mat, lens


def osa_within(
    terms: np.ndarray, query: str, max_edits: int, transpositions: bool = True
) -> np.ndarray:
    """Boolean mask: distance(terms[i], query) <= max_edits, where distance
    is OSA when ``transpositions`` (the Lucene FuzzyQuery default) else plain
    Levenshtein (exactly DuckDB's ``levenshtein`` — the oracle-replayable
    variant; DuckDB's ``damerau_levenshtein`` is FULL Damerau, which differs
    from OSA on degenerate inputs like ca→abc, so the SQL-gated path pins
    the Levenshtein flavor).

    Length-band prefilter (distance >= |len difference|), then one banded DP
    over all surviving candidates at once.
    """
    n = len(terms)
    if n == 0:
        return np.zeros(0, dtype=bool)
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32).astype(np.int32)
    m = len(q)
    lens = _lengths(terms)
    band = np.abs(lens - m) <= max_edits
    out = np.zeros(n, dtype=bool)
    if not band.any():
        return out
    cand = terms[band]
    mat, clens = _codepoint_matrix(cand)
    N, L = mat.shape
    BIG = np.int32(max_edits + 1)  # saturation value — all we need is <= max_edits
    # rows of the DP over query prefix length i; each row is (N, L+1)
    prev2 = None
    prev = np.minimum(np.arange(L + 1, dtype=np.int32), BIG)[None, :].repeat(N, axis=0)
    for i in range(1, m + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = min(i, int(BIG))
        sub_cost = (mat != q[i - 1]).astype(np.int32)  # (N, L)
        diag = prev[:, :-1] + sub_cost
        up = prev[:, 1:] + 1
        cand_min = np.minimum(diag, up)
        if transpositions and prev2 is not None and i >= 2:
            # transposition: q[i-2..i-1] == c[j-1], c[j-2] swapped
            tr = np.full((N, L), BIG, dtype=np.int32)
            if L >= 2:
                ok = (mat[:, 1:] == q[i - 2]) & (mat[:, :-1] == q[i - 1])
                tr[:, 1:] = np.where(ok, prev2[:, :-2] + 1, BIG)
            cand_min = np.minimum(cand_min, tr)
        # the left-dependency needs a scan: cur[j] = min(cand_min[j-1 col], cur[j-1]+1)
        # do it as a running minimum — np.minimum.accumulate over (cand - j)
        # trick: cur[j] = min over j' <= j of (base[j'] + (j - j')) where
        # base[j] = cand_min[j] and base[0] = cur[0]
        base = np.concatenate([cur[:, :1], cand_min], axis=1)  # (N, L+1)
        shifted = base - np.arange(L + 1, dtype=np.int32)[None, :]
        runmin = np.minimum.accumulate(shifted, axis=1)
        cur = np.minimum(runmin + np.arange(L + 1, dtype=np.int32)[None, :], BIG)
        prev2, prev = prev, cur
    final = prev[np.arange(N), clens]
    out[np.nonzero(band)[0]] = final <= max_edits
    return out


def osa_distance(a: str, b: str, transpositions: bool = True) -> int:
    """Scalar OSA / Levenshtein distance (test oracle / tiny inputs)."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if transpositions and i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[la][lb]
