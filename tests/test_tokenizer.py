"""Tokenizer golden vectors + vectorized/pure-Python agreement
(the analogue of the reference's hermetic Address-extractor unit tests,
reference: src/tests/parsers/parser_html_tests.py:21-38)."""

import numpy as np
import pyarrow as pa

from librecatastro_ray.functions.tokenizer import (
    term_frequencies_from,
    tokenize,
    tokenize_batch,
)

GOLDEN = [
    ("def foo(bar):\n    return bar + 1", ["def", "foo", "bar", "return", "bar", "1"]),
    ("MyClass.my_method(x_1, Y2)", ["myclass", "my_method", "x_1", "y2"]),
    ("", []),
    ("   \t\n ", []),
    ("__init__", ["__init__"]),
    ("a-b_c.d", ["a", "b_c", "d"]),
    ("CamelCase", ["camelcase"]),
    ("x=1;y=2", ["x", "1", "y", "2"]),
    ("éclair café", ["clair", "caf"]),  # non-ascii letters are separators
    ("100_000", ["100_000"]),
    ("foo()bar", ["foo", "bar"]),
    ("A", ["a"]),
    (None, []),
]


def test_tokenize_golden():
    for text, expected in GOLDEN:
        assert tokenize(text) == expected, text


def test_tokenize_batch_matches_pure_python():
    texts = [t for t, _ in GOLDEN]
    arr = pa.array(texts, pa.string())
    parent_idx, terms, dl = tokenize_batch(arr)
    for i, (text, expected) in enumerate(GOLDEN):
        got = list(terms[parent_idx == i])
        assert got == expected, text
        assert dl[i] == len(expected)


def test_term_frequencies_batch():
    arr = pa.array(["a a b", "b", ""], pa.string())
    tf_table, dl = term_frequencies_from(*tokenize_batch(arr))
    assert list(dl) == [3, 1, 0]
    rows = {(r["row"], r["term"]): r["tf"] for r in tf_table.to_pylist()}
    assert rows == {(0, "a"): 2, (0, "b"): 1, (1, "b"): 1}


def test_tokenize_batch_nulls():
    arr = pa.array(["x", None, "y"], pa.string())
    parent_idx, terms, dl = tokenize_batch(arr)
    assert list(dl) == [1, 0, 1]
    assert list(terms) == ["x", "y"]
    assert list(parent_idx) == [0, 2]
