"""Every search-layer entry of ``__ray_entry__.queries()`` equals its DuckDB
twin in ``oracle_sql()`` on the sf0.001 test-data tables (TESTDATA.md; a
``testdata`` directory beside the checkout): same column names, same row
count, and the same values order-insensitively (floats within 1e-9)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "testdata", "sf0.001",
)

pytestmark = pytest.mark.skipif(
    not os.path.isfile(os.path.join(SF_DIR, "documents.parquet")),
    reason=f"no test-data tables at {SF_DIR}",
)


def test_every_entry_has_its_oracle_sql():
    assert entrymod.queries().keys() == entrymod.oracle_sql().keys()


@pytest.fixture(scope="module")
def oracle_con(tmp_path_factory):
    """A DuckDB view over the documents table, with the entries' index cache
    under a pytest temp dir for the module's lifetime."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entrymod, "CACHE_ROOT", str(tmp_path_factory.mktemp("idx_cache")))
        mp.setattr(entrymod, "_ENGINES", {})
        con = duckdb.connect()
        con.sql("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{os.path.join(SF_DIR, 'documents.parquet')}')")
        yield con
        con.close()


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), ignore_index=True)


@pytest.mark.parametrize("name", list(entrymod.queries()))
def test_entry_matches_oracle_sql(oracle_con, name):
    got = _normalize(entrymod.queries()[name](SF_DIR).to_pandas())
    exp = _normalize(oracle_con.sql(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    for c in got.columns:
        g, e = got[c], exp[c]
        if g.dtype.kind == "f" or e.dtype.kind == "f":
            assert np.allclose(g.astype(float), e.astype(float), atol=1e-9, rtol=0,
                               equal_nan=True), c
        else:
            bad = np.flatnonzero(g.astype(str).values != e.astype(str).values)
            assert not len(bad), (
                f"column {c} differs; first at row {bad[0]}: "
                f"got={g.iloc[bad[0]]} exp={e.iloc[bad[0]]}"
            )


def test_changed_corpus_is_rebuilt_not_served_stale(oracle_con, tmp_path, monkeypatch):
    """The entries' index cache keys on the identity of ``documents.parquet``:
    a corpus cut in place at the same path is rebuilt, not served from the
    index of the old one, and the rebuild removes the superseded dir."""
    import shutil

    import pyarrow.parquet as pq

    monkeypatch.setattr(entrymod, "_ENGINES", {})
    docs = tmp_path / "documents.parquet"
    shutil.copyfile(os.path.join(SF_DIR, "documents.parquet"), docs)
    full = entrymod._engine(str(tmp_path)).n_docs
    pq.write_table(pq.read_table(docs).slice(0, 100), docs)
    entrymod._ENGINES.clear()
    assert full > 100
    assert entrymod._engine(str(tmp_path)).n_docs == 100
    prefix = entrymod._md5(f"{os.path.abspath(str(tmp_path))}:flagship")
    assert len([d for d in os.listdir(entrymod.CACHE_ROOT) if d.startswith(prefix + "-")]) == 1


def test_entry_indexes_salt_hot_terms(oracle_con):
    """The entries' indexes hold range-salted hot terms, so the oracle
    comparisons above cover reads that merge a term's salt runs."""
    for make in (entrymod._engine, entrymod._engine_del, entrymod._engine_add,
                 entrymod._engine_pos, entrymod._engine_pathfield):
        eng = make(SF_DIR)
        assert eng.hot, make.__name__
        assert any(sum(eng._span(t, s) is not None for s in eng._salts(t)) > 1
                   for t in eng.hot), make.__name__
