import pytest
import ray
import ray.data


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_small():
    """Deterministic 400-doc synthetic corpus (with dup keys and edge rows)."""
    from librecatastro_ray.sources.synth import make_corpus

    return make_corpus(n_docs=400, seed=42, vocab_size=800, mean_tokens=60)


@pytest.fixture(scope="session")
def built_index(tmp_path_factory, corpus_small):
    """Index over corpus_small, built once per session."""
    from librecatastro_ray.config import IndexConfig
    from librecatastro_ray.pipelines.build import build_index

    index_dir = str(tmp_path_factory.mktemp("index") / "idx")
    cfg = IndexConfig(num_partitions=4, num_salts=2, block_size=16, blocks_row_group_size=5)
    result = build_index(corpus_small, index_dir, cfg)
    return index_dir, result


@pytest.fixture(scope="session")
def oracle_small(corpus_small):
    """Oracle over the DEDUPED corpus (same upsert semantics as the engine:
    keep max-sha row per (repo, path))."""
    from librecatastro_ray.functions.hashing import sha256_hex
    from librecatastro_ray.oracle import OracleIndex

    rows = corpus_small.to_pylist()
    best = {}
    for r in rows:
        key = (r["repo"], r["path"])
        sha = sha256_hex(r["content"] or "")
        if key not in best or sha > best[key][0]:
            best[key] = (sha, r)
    kept = [r for _, r in best.values()]
    return OracleIndex.build(
        [r["repo"] for r in kept],
        [r["path"] for r in kept],
        [r["lang"] for r in kept],
        [r["content"] for r in kept],
    )
