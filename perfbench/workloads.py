"""The three workloads: ``ingest``, ``search`` and ``batch``.

Each workload object has the same life cycle, driven by ``run.py``:

    __init__(ctx)    makes the inputs and the expected answers (untimed)
    setup()          the library work before measuring — index build,
                     warm-up that starts Ray workers and fills caches;
                     repeated, the median of its wall times is ``setup_s``
    measure(s, f)    timed operations for ``s`` seconds → list of Op; the
                     optional ``f(i)`` is called before operation group i
                     (a query, an ingest cycle, a batch cycle) and says
                     whether that group is traced
    check()          verifies every recorded answer → (attempted, failed)
    summary(ops)     end-to-end metrics plus workload details

Sizes are per unit of ``scale`` (1.0 in real runs; the smoke test shrinks
them).  Why each size fits one core is in README.md.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import librecatastro_ray as lcr
from librecatastro_ray.config import IndexConfig
from librecatastro_ray.state.manifest import load_deleted

from perfbench import checks, inputs, spans
from perfbench.procs import Steal

CONFIG = IndexConfig(positions=True)
# An operation group during which the hypervisor stole at most this share
# of the machine's CPU time counts as undisturbed; see Window and quiet().
QUIET_STEAL = 0.02


@dataclass
class Op:
    kind: str
    seconds: float  # wall time of the whole operation
    items: int  # documents written (ingest) or queries answered
    call_s: float = 0.0  # ingest: the write call alone, without the probes
    failed: bool = False
    payload: object = None  # what check() needs: query + answer
    traced: bool = False
    group: int = 0  # the operation group (100 queries, a cycle) it belongs to


@dataclass
class Ctx:
    work: str
    seed: int
    scale: float = 1.0

    def size(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))


def _write_corpus(table, path: str) -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(table, os.path.join(path, "part-0.parquet"))
    return path


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    v = sorted(values)
    return v[min(len(v) - 1, max(0, int(np.ceil(q / 100.0 * len(v))) - 1))]


def _per_s(n: float, seconds: float) -> float:
    return n / seconds if seconds else 0.0


class Window:
    """The measured window.  It closes once ``seconds`` of operation groups
    the host left undisturbed have been measured, or after EXTEND times
    ``seconds`` of groups in all: a run that meets another guest's load
    measures longer instead of reporting that load.  A traced run (its
    per-layer metrics are not filtered) measures exactly ``seconds``."""

    EXTEND = 1.5

    def __init__(self, seconds: float, traced: bool = False):
        self.seconds = seconds
        self.limit = seconds if traced else self.EXTEND * seconds
        self.quiet_s = self.total_s = 0.0

    def open(self) -> bool:
        return self.quiet_s < self.seconds and self.total_s < self.limit

    def add(self, seconds: float, steal_share: float) -> None:
        """Count one finished group of ``seconds`` measured time."""
        self.total_s += seconds
        if steal_share <= QUIET_STEAL:
            self.quiet_s += seconds


def quiet(items: list, share) -> list:
    """The items the host left undisturbed: each whose steal share
    ``share(item)`` is at most QUIET_STEAL, and never fewer than the quietest
    quarter, so a run spent wholly under another guest's load still reports."""
    ranked = sorted(items, key=share)
    n = -(-len(ranked) // 4)
    return [x for i, x in enumerate(ranked) if i < n or share(x) <= QUIET_STEAL]


def _latency_metrics(ops: list[Op], steal: dict[int, float]) -> tuple[dict, dict]:
    """End-to-end metrics over the quiet operation groups (``steal`` maps a
    group to its steal share).  Throughput is the median over those groups
    of the group's items per second; a group holds the whole mix of its
    workload, so dropping one keeps the mix."""
    groups: dict[int, list[Op]] = {}
    for o in ops:
        groups.setdefault(o.group, []).append(o)
    kept = [groups[g] for g in quiet(sorted(groups), lambda g: steal.get(g, 0.0))]
    lat = [1000.0 * o.seconds for g in kept for o in g]
    e2e = {
        "items_per_s": statistics.median(
            _per_s(sum(o.items for o in g), sum(o.seconds for o in g)) for g in kept
        ),
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": _pct(lat, 99.0),
    }
    return e2e, {"quiet_groups": (len(kept) / len(groups), "ratio")}


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


class Ingest:
    """Fresh positional build, three add batches (10% upserts), one delete;
    after every write a new QueryEngine answers visibility probes."""

    BASE_DOCS = 1000
    DELTA_DOCS = 100
    N_DELTAS = 3
    UPSERT_FRAC = 0.1
    N_DELETE = 5

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.cycles = 0
        self.steal = Steal()
        self.index_bytes: list[int] = []  # index size at the end of each cycle
        base = inputs.corpus(ctx.seed, ctx.size(self.BASE_DOCS, 50))
        rng = inputs.sub_seed(ctx.seed, 1)
        # the expected index state, simulated write by write
        rows = inputs.live_rows(base)
        id_of = {(r["repo"], r["path"]): i for i, r in enumerate(rows)}
        content = {(r["repo"], r["path"]): r["content"] for r in rows}
        n_docs, dead = len(rows), set()
        plan = [("build", base.num_rows, self._expect(id_of, n_docs, dead,
                                                      self._sample(rng, sorted(id_of), 4), []))]
        deltas = []
        n_delta = ctx.size(self.DELTA_DOCS, 10)
        for g in range(1, self.N_DELTAS + 1):
            live = sorted(id_of)
            ups = self._sample(rng, live, max(1, int(round(self.UPSERT_FRAC * n_delta))))
            t = inputs.delta(ctx.seed, g, n_delta, ups)
            deltas.append(t)
            new_keys = sorted(zip(t["repo"].to_pylist(), t["path"].to_pylist()))
            for key in ups:
                dead.add(id_of[key])
            for j, key in enumerate(new_keys):
                id_of[key] = n_docs + j
            for r in t.to_pylist():
                content[(r["repo"], r["path"])] = r["content"]
            n_docs += len(new_keys)
            fresh = [k for k in new_keys if k not in set(ups)]
            markers = [(inputs.marker(g, i), id_of[k]) for i, k in
                       enumerate(zip(t["repo"].to_pylist(), t["path"].to_pylist()))][-2:]
            probe_keys = ups[:2] + self._sample(rng, fresh, 2)
            plan.append(("add", t.num_rows, self._expect(id_of, n_docs, dead, probe_keys, markers)))
        gone = self._sample(rng, sorted(id_of), ctx.size(self.N_DELETE))
        self.delete_ids = sorted(id_of[k] for k in gone)
        for k in gone:
            dead.add(id_of.pop(k))
        plan.append(("delete", len(gone), self._expect(id_of, n_docs, dead, gone[:4], [])))
        self.plan, self.deltas = plan, deltas
        # what every live doc id serves at the end of a cycle
        self.live = {id_of[k]: content[k] for k in id_of}
        # content bytes of every document the cycle writes
        self.input_bytes = sum(
            len((c or "").encode()) for t in [base, *deltas] for c in t["content"].to_pylist()
        )
        root = os.path.join(ctx.work, "ingest")
        shutil.rmtree(root, ignore_errors=True)
        self.corpus_dir = _write_corpus(base, os.path.join(root, "corpus"))
        self.root = root

    def setup(self) -> None:
        # warm-up: a build of the first batch starts the workers
        lcr.build_index(self.deltas[0], os.path.join(self.root, "warmup"), CONFIG)
        lcr.drop_index(os.path.join(self.root, "warmup"))

    @staticmethod
    def _sample(rng, keys: list, n: int) -> list:
        idx = rng.choice(len(keys), size=min(n, len(keys)), replace=False)
        return [keys[i] for i in sorted(idx)]

    @staticmethod
    def _expect(id_of, n_docs, dead, probe_keys, markers) -> dict:
        """Snapshot of what a reader must see after one write."""
        return {
            "n_docs": n_docs,
            "dead": sorted(dead),
            "keys": [(k, [id_of[k]] if k in id_of else []) for k in probe_keys],
            "markers": markers,
        }

    def _write(self, step: int, idx: str) -> None:
        kind = self.plan[step][0]
        if kind == "build":
            lcr.build_index(self.corpus_dir, idx, CONFIG)
        elif kind == "add":
            lcr.add_documents(self.deltas[step - 1], idx)
        else:
            lcr.delete_docs(idx, self.delete_ids)

    def measure(self, seconds: float, trace_group=None) -> list[Op]:
        ops: list[Op] = []
        win = Window(seconds, traced=trace_group is not None)
        while win.open():
            idx = os.path.join(self.root, f"idx-{self.cycles}")
            traced = bool(trace_group and trace_group(self.cycles))
            self.cycles += 1
            self.steal.begin(self.cycles)
            cycle_ok = True
            for step, (kind, items, expect) in enumerate(self.plan):
                t0 = time.perf_counter()
                try:
                    self._write(step, idx)
                    t1 = time.perf_counter()
                    eng = lcr.QueryEngine(idx)
                    seen = {
                        "n_docs": eng.n_docs,
                        "keys": [eng.bool_must([], 10, keyword_eq=[("repo", k[0]), ("path", k[1])])
                                 ["doc_id"].to_pylist() for k, _ in expect["keys"]],
                        "markers": [eng.match(m, 3)["doc_id"].to_pylist()
                                    for m, _ in expect["markers"]],
                    }
                    t2 = time.perf_counter()
                    ok = (seen["n_docs"] == expect["n_docs"]
                          and seen["keys"] == [ids for _, ids in expect["keys"]]
                          and seen["markers"] == [[d] for _, d in expect["markers"]])
                except Exception as e:  # a failed write counts; the run goes on
                    print(f"ingest {kind} failed: {e!r}", flush=True)
                    t1 = t2 = time.perf_counter()
                    ok = False
                ops.append(Op(kind, t2 - t0, items, call_s=t1 - t0, failed=not ok,
                              traced=traced, group=self.cycles))
                cycle_ok &= ok
                if not ok:
                    break
            if cycle_ok:
                if not self._invariants(idx, self.plan[-1][2], self.live):
                    ops[-1].failed = True
                self.index_bytes.append(sum(
                    os.path.getsize(os.path.join(r, f))
                    for r, _d, fs in os.walk(idx) for f in fs
                    if not os.path.relpath(r, idx).startswith("shuffle")
                ))
            win.add(sum(o.seconds for o in ops if o.group == self.cycles), self.steal.end())
            lcr.drop_index(idx)
        return ops

    @staticmethod
    def _invariants(idx: str, expect: dict, live: dict) -> bool:
        """Per-row sha256(content) holds, every live doc id serves the
        expected content, and the tombstones are exactly the deleted and
        upserted-away ids."""
        t = pads.dataset(os.path.join(idx, "docs"), format="parquet").to_table(
            columns=["doc_id", "content", "sha256"]
        )
        ids = t["doc_id"].to_pylist()
        contents = t["content"].to_pylist()
        if len(ids) != expect["n_docs"] or sorted(ids) != list(range(expect["n_docs"])):
            return False
        by_id = dict(zip(ids, contents))
        return (
            all(inputs.content_sha(c) == s for c, s in zip(contents, t["sha256"].to_pylist()))
            and all(by_id[d] == c for d, c in live.items())
            and load_deleted(idx).tolist() == expect["dead"]
        )

    def check(self, ops: list[Op]) -> tuple[int, int]:
        return len(ops), sum(o.failed for o in ops)

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        e2e, detail = _latency_metrics(ops, self.steal.share)
        builds = [o for o in ops if o.kind == "build"]
        adds = [o for o in ops if o.kind == "add"]
        detail |= {
            "build_docs_per_s": (_per_s(sum(o.items for o in builds), sum(o.call_s for o in builds)),
                                 "1/s"),
            "add_docs_per_s": (_per_s(sum(o.items for o in adds), sum(o.call_s for o in adds)), "1/s"),
            "index_bytes_per_input_byte": (
                _per_s(statistics.median(self.index_bytes or [0]), self.input_bytes), "ratio"),
            "cycles": (self.cycles, "count"),
        }
        return e2e, detail


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


class Search:
    """One closed-loop client sending a seeded query mix to a direct
    QueryEngine over an index built during set-up."""

    N_DOCS = 1000
    # An operation group is five blocks of the query mix.  A group lasts
    # about half a second, long enough that its steal share is not mostly
    # the luck of one 10 ms tick, which would favour the shortest groups.
    GROUP_QUERIES = 5 * len(inputs.SEARCH_MIX)
    SETUP_QUERIES = 30  # first queries on each new engine, part of set-up
    # Untimed queries of the measured traffic, once, right before measuring,
    # so the engine's term caches are near their steady state: about a
    # quarter of term draws still miss to parquet reads, falling to a fifth
    # over a run.  Without them that share falls from ~60% during the run,
    # and a run the host lets serve more queries would also be a warmer one.
    WARMUP_QUERIES = 1000

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.n_setups = 0
        self.steal = Steal()
        table = inputs.corpus(ctx.seed, ctx.size(self.N_DOCS, 50))
        self.rows = inputs.live_rows(table)
        self.corpus_dir = _write_corpus(table, os.path.join(ctx.work, "search", "corpus"))
        self.gen = inputs.QueryGen(self.rows, inputs.sub_seed(ctx.seed, 2))
        self.stream = self.gen.stream(inputs.SEARCH_MIX)

    def setup(self) -> None:
        self.idx = os.path.join(self.ctx.work, "search", f"idx-{self.n_setups}")
        lcr.build_index(self.corpus_dir, self.idx, CONFIG)
        self.engine = lcr.QueryEngine(self.idx)
        self.n_setups += 1
        for _ in range(self.SETUP_QUERIES):
            checks.run_query(self.engine, next(self.stream))

    def measure(self, seconds: float, trace_group=None) -> list[Op]:
        ops: list[Op] = []
        eng = self.engine
        for _ in range(self.WARMUP_QUERIES):
            checks.run_query(eng, next(self.stream))
        win = Window(seconds, traced=trace_group is not None)
        group, traced, group_s = None, False, 0.0
        while True:
            q = next(self.stream)
            if q["query_id"] // self.GROUP_QUERIES != group:
                if group is not None:
                    win.add(group_s, self.steal.end())
                    if not win.open():
                        break
                group, group_s = q["query_id"] // self.GROUP_QUERIES, 0.0
                self.steal.begin(group)
                traced = bool(trace_group and trace_group(group))
            t0 = time.perf_counter()
            try:
                ans = checks.run_query(eng, q)
            except Exception as e:
                print(f"search {q} failed: {e!r}", flush=True)
                ans = None
            ops.append(Op(q["kind"], time.perf_counter() - t0, 1, payload=(q, ans),
                          traced=traced, group=group))
            group_s += ops[-1].seconds
        return ops

    def check(self, ops: list[Op]) -> tuple[int, int]:
        ref = checks.Reference(self.rows)
        for o in ops:
            q, ans = o.payload
            o.failed = ans is None or not checks.same(checks.pairs(ans), ref.answer(q))
        return len(ops), sum(o.failed for o in ops)

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        e2e, detail = _latency_metrics(ops, self.steal.share)
        return e2e, detail | {"queries": (len(ops), "count")}


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


class Batch:
    """Rounds of batch_search_scatter over distinct query sets; a one-row
    delete_docs precedes every fifth round, so each cycle is one round right
    after a write (every cached range engine is stale) and four warm
    rounds."""

    N_DOCS = 1000
    QUERIES = 100
    WARMUP_QUERIES = 20
    N_RANGES = 2
    ROUNDS_PER_WRITE = 5

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.n_setups = 0
        table = inputs.corpus(ctx.seed, ctx.size(self.N_DOCS, 50))
        self.rows = inputs.live_rows(table)
        self.corpus_dir = _write_corpus(table, os.path.join(ctx.work, "batch", "corpus"))
        self.gen = inputs.QueryGen(self.rows, inputs.sub_seed(ctx.seed, 3),
                                   vocab_size=inputs.BATCH_VOCAB)
        self.stream = self.gen.stream(inputs.BATCH_MIX)
        self.rng = inputs.sub_seed(ctx.seed, 4)
        self.n_queries = ctx.size(self.QUERIES, 10)
        self.failed_queries = 0
        self.checked_queries = 0
        self.cycles = 0
        self.steal = Steal()

    def setup(self) -> None:
        self.idx = os.path.join(self.ctx.work, "batch", f"idx-{self.n_setups}")
        lcr.build_index(self.corpus_dir, self.idx, CONFIG)
        self.live = list(range(len(self.rows)))
        self.n_setups += 1
        lcr.batch_search_scatter(self.idx, self._queries(self.WARMUP_QUERIES),
                                 n_ranges=self.N_RANGES)

    def _queries(self, n: int) -> list[dict]:
        return [next(self.stream) for _ in range(n)]

    def measure(self, seconds: float, trace_group=None) -> list[Op]:
        ops: list[Op] = []
        # serving time only: deletes and checks are excluded
        win = Window(seconds, traced=trace_group is not None)
        while win.open():
            traced = bool(trace_group and trace_group(self.cycles))
            self.cycles += 1
            self.steal.begin(self.cycles)
            victim = self.live.pop(int(self.rng.randint(len(self.live))))
            lcr.delete_docs(self.idx, [victim])
            with spans.paused():
                direct = lcr.QueryEngine(self.idx)
            for r in range(self.ROUNDS_PER_WRITE):
                qs = self._queries(self.n_queries)
                t0 = time.perf_counter()
                try:
                    out = lcr.batch_search_scatter(self.idx, qs, n_ranges=self.N_RANGES)
                except Exception as e:  # the whole round fails
                    print(f"batch round failed: {e!r}", flush=True)
                    out = None
                dt = time.perf_counter() - t0
                if out is None:
                    bad = len(qs)
                else:
                    got = checks.scatter_answers(out)
                    with spans.paused():
                        want = [checks.pairs(checks.run_query(direct, q)) for q in qs]
                    bad = sum(
                        not checks.same(got.get(q["query_id"], 0 if q["kind"] == "count" else []), w)
                        for q, w in zip(qs, want)
                    )
                self.failed_queries += bad
                self.checked_queries += len(qs)
                ops.append(Op("after_write" if r == 0 else "warm", dt, len(qs), failed=bad > 0,
                              traced=traced, group=self.cycles))
            win.add(sum(o.seconds for o in ops if o.group == self.cycles), self.steal.end())
        return ops

    def check(self, ops: list[Op]) -> tuple[int, int]:
        return self.checked_queries, self.failed_queries

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        e2e, detail = _latency_metrics(ops, self.steal.share)

        def qps(kind):
            sel = [o for o in ops if o.kind == kind]
            return _per_s(sum(o.items for o in sel), sum(o.seconds for o in sel))

        return e2e, detail | {
            "qps_warm": (qps("warm"), "1/s"),
            "qps_after_write": (qps("after_write"), "1/s"),
            "rounds": (len(ops), "count"),
        }


WORKLOADS = {"ingest": Ingest, "search": Search, "batch": Batch}
