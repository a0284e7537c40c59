"""Span tracing for the traced benchmark run (``--trace 1``).

Wrappers around the library's layer entry points record one span per call:
its name, start and end (``time.perf_counter``, i.e. CLOCK_MONOTONIC, so
spans of different processes on one machine share a time base), the
enclosing span of the same thread, the outermost span of that call tree
(the request the span serves) and counts read at the boundary (rows
emitted, postings decoded, bytes written, ...).

The driver installs the wrappers itself; Ray worker processes install them
from ``worker_hook``, named as the ``worker_process_setup_hook`` of the Ray
runtime env.  Functions that Ray ships to workers (map_batches UDFs) are
wrapped only inside workers: the driver keeps the originals so they still
pickle by reference and resolve to the worker's wrapped attribute.

Spans stay in memory.  The driver writes its spans when the run ends.  Ray
kills its workers without running exit handlers, so a worker writes its
buffered spans when the outermost span of a task closes.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import statistics
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ACTIVE_FLAG = "ACTIVE"

# span fields: id, parent id (-1: none), outermost span id, name, start, end,
# counts, process id
SID, PARENT, ROOT, NAME, T0, T1, COUNTS, PID = range(8)


class Recorder:
    """In-memory span buffer of one process."""

    def __init__(self, out_dir: str, worker: bool):
        self.out_dir = out_dir
        self.worker = worker
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.active = False  # driver switch; workers read the ACTIVE flag file
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _on(self) -> bool:
        if self.worker:
            return os.path.exists(os.path.join(self.out_dir, ACTIVE_FLAG))
        return self.active

    def call(self, name, fn, args, kwargs, count, before):
        stack = self._stack()
        # a span nested directly in a span of the same name is the same call
        # seen through two bindings (a function and its re-export)
        if (stack and stack[-1][NAME] == name) or (not stack and not self._on()):
            return fn(*args, **kwargs)
        with self._lock:
            sid = self._next
            self._next += 1
        parent, root = (stack[-1][SID], stack[0][SID]) if stack else (-1, sid)
        pre = before(args, kwargs) if before is not None else None
        span = [sid, parent, root, name, time.perf_counter(), 0.0, {}, self.pid]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[T1] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if count is not None:
            span[COUNTS] = count(args, kwargs, result, pre)
        if self.worker and not stack:
            self.flush()
        return result

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.jsonl"), "a") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")


_recorder: Recorder | None = None


def _wrap(name, fn, count=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _recorder
        if rec is None:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, count, before)

    wrapper.__perfbench_traced__ = True
    return wrapper


# ---------------------------------------------------------------------------
# counts read at layer boundaries (after the span has closed)
# ---------------------------------------------------------------------------


def _dir_stats(path: str) -> tuple[int, int]:
    """(total bytes, file count) of every file under ``path``."""
    total = files = 0
    for root, _dirs, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(root, n))
            files += 1
    return total, files


def _corpus_stats(corpus) -> tuple[int, int]:
    """(rows, content bytes) of a corpus table or parquet path."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    if not isinstance(corpus, pa.Table):
        corpus = pads.dataset(corpus, format="parquet").to_table(columns=["content"])
    col = pc.fill_null(corpus["content"], "")
    return corpus.num_rows, int(pc.sum(pc.binary_length(col)).as_py() or 0)


def _count_build(args, kwargs, result, pre):
    index_dir = args[1] if len(args) > 1 else kwargs["index_dir"]
    rows, content = _corpus_stats(args[0])
    spill_bytes, spill_files = _dir_stats(os.path.join(index_dir, "shuffle"))
    return {
        "rows": rows,
        "input_bytes": content,
        "n_docs": int(result["manifest"]["n_docs"]),
        "parts_bytes": _dir_stats(os.path.join(index_dir, "parts"))[0],
        "spill_bytes": spill_bytes,
        "spill_files": spill_files,
    }


def _count_add(args, kwargs, result, pre):
    index_dir = args[1] if len(args) > 1 else kwargs["index_dir"]
    parts = result["manifest"].get("parts_dir", "parts")
    return {
        "input_bytes": _corpus_stats(args[0])[1],
        "parts_bytes": _dir_stats(os.path.join(index_dir, parts))[0],
    }


def _count_len(args, kwargs, result, pre):
    return {"n": len(result)}


def _count_tokens(args, kwargs, result, pre):
    return {"n": len(result[1])}


def _count_decode(args, kwargs, result, pre):
    return {"n": len(result[0]), "blocks": args[0].num_rows}


def _postings_cached(args, kwargs):
    self, term = args[0], args[1]
    return term in self._postings_cache


def _count_hit(args, kwargs, result, pre):
    return {"hit": 1 if pre else 0}


def _count_wand_blocks(args, kwargs, result, pre):
    """Posting blocks of the query's terms: WAND's decode denominator."""
    eng, text = args[0], args[1]
    total = 0
    for term in eng.analyzer.tokenize(text):
        for salt in eng._salts(term):
            bm = eng._block_meta(term, salt)
            if bm is not None:
                total += len(bm[1])
    return {"n": len(result), "blocks": total}


def _count_queries(args, kwargs, result, pre):
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    return {"n": len(result), "queries": len(queries)}


class _ParquetProxy:
    """Stands in for ``pyarrow.parquet`` inside one library module so its
    ``read_table`` calls become ``parquet.read`` spans without touching the
    module every other caller sees."""

    def __init__(self, real):
        self._real = real
        self.read_table = _wrap("parquet.read", real.read_table)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


_Q = "librecatastro_ray.pipelines.query"
_B = "librecatastro_ray.pipelines.build"
# (module, attribute, span name, count fn, before fn, where); where is
# "driver" (calls the driver makes), "worker" (functions Ray ships to
# workers) or "both"
TARGETS = [
    ("librecatastro_ray", "build_index", "build", _count_build, None, "driver"),
    (_B, "build_index", "build", _count_build, None, "driver"),
    ("librecatastro_ray", "add_documents", "add", _count_add, None, "driver"),
    (_B, "add_documents", "add", _count_add, None, "driver"),
    (_B, "dedup_assign_write", "doc_ids", None, None, "driver"),
    (_B, "estimate_hot_terms", "hot_terms", _count_len, None, "driver"),
    ("librecatastro_ray", "delete_docs", "manifest.delete", None, None, "driver"),
    ("librecatastro_ray.state.manifest", "delete_docs", "manifest.delete", None, None, "driver"),
    ("ray.data", "Dataset.write_parquet", "data.write_parquet", None, None, "driver"),
    ("ray.data", "Dataset.to_pandas", "data.to_pandas", None, None, "driver"),
    ("ray.data", "Dataset.materialize", "data.materialize", None, None, "driver"),
    ("librecatastro_ray", "batch_search_scatter", "scatter.round", _count_queries, None, "driver"),
    (_Q, "batch_search_scatter", "scatter.round", _count_queries, None, "driver"),
    (_Q, "QueryEngine.match", "engine.match", _count_len, None, "driver"),
    (_Q, "QueryEngine.match_wand", "engine.wand", _count_wand_blocks, None, "driver"),
    (_Q, "QueryEngine.bool_must", "engine.bool", _count_len, None, "driver"),
    (_Q, "QueryEngine.match_phrase", "engine.phrase", _count_len, None, "driver"),
    (_Q, "QueryEngine.count", "engine.count", None, None, "driver"),
    (_Q, "QueryEngine.prefix_content", "engine.expand", _count_len, None, "driver"),
    (_Q, "QueryEngine.fuzzy_content", "engine.expand", _count_len, None, "driver"),
    (_Q, "QueryEngine.load_postings", "engine.load_postings", _count_hit, _postings_cached, "both"),
    (_Q, "decode_blocks_table", "codec.decode", _count_decode, None, "both"),
    ("librecatastro_ray.stages.postings", "flat_postings", "postings.emit", _count_len, None, "worker"),
    ("librecatastro_ray.stages.postings", "flat_postings_positional", "postings.emit", _count_len,
     None, "worker"),
    ("librecatastro_ray.stages.merge", "merge_partition", "merge.partition", None, None, "worker"),
    ("librecatastro_ray.functions.tokenizer", "tokenize_batch_pattern", "tokenizer", _count_tokens,
     None, "worker"),
    (_Q, "_eval_range_batch", "scatter.range_task", _count_len, None, "worker"),
    (_Q, "_merge_query_buckets", "scatter.merge", None, None, "worker"),
    (_Q, "_process_range_engine", "scatter.engine_lookup", None, None, "worker"),
    (_Q, "RangeEngine.__init__", "scatter.engine_build", None, None, "worker"),
]


def install(out_dir: str, worker: bool) -> Recorder:
    """Create this process's recorder and wrap the layer entry points."""
    global _recorder
    if _recorder is not None:
        return _recorder
    _recorder = Recorder(out_dir, worker)
    for mod_name, attr, name, count, before, where in TARGETS:
        if where == ("driver" if worker else "worker"):
            continue
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        fn = getattr(owner, leaf)
        if not getattr(fn, "__perfbench_traced__", False):
            setattr(owner, leaf, _wrap(name, fn, count, before))
    query = importlib.import_module(_Q)
    query.pq = _ParquetProxy(query.pq)
    return _recorder


def worker_hook() -> None:
    """``worker_process_setup_hook``: trace this Ray worker process."""
    install(os.environ[TRACE_DIR_ENV], worker=True)


def set_active(on: bool) -> None:
    """Switch recording on or off in the driver and every worker."""
    flag = os.path.join(_recorder.out_dir, ACTIVE_FLAG)
    _recorder.active = on
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


@contextlib.contextmanager
def paused():
    """Record nothing in the driver inside the block (benchmark-side checks
    that call the library).  A no-op when tracing is not installed."""
    rec = _recorder
    was = rec is not None and rec.active
    if rec is not None:
        rec.active = False
    try:
        yield
    finally:
        if rec is not None:
            rec.active = was


def load_spans(out_dir: str) -> list[list]:
    """Every span written by the driver and the workers."""
    _recorder.flush()
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f)
    return spans


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _dur(spans) -> float:
    return sum(s[T1] - s[T0] for s in spans)


def _c(s, key: str) -> int:
    return s[COUNTS].get(key, 0)


class SpanIndex:
    """Lookups over one run's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_key = {(s[PID], s[SID]): s for s in spans}
        self.children: dict[tuple[int, int], list[list]] = {}
        for s in spans:
            if s[PARENT] >= 0:
                self.children.setdefault((s[PID], s[PARENT]), []).append(s)

    def named(self, name: str, window: tuple[float, float] | None = None) -> list[list]:
        out = [s for s in self.spans if s[NAME] == name]
        if window is not None:
            out = [s for s in out if window[0] <= s[T0] and s[T1] <= window[1]]
        return out

    def kids(self, s, name: str) -> list[list]:
        return [c for c in self.children.get((s[PID], s[SID]), []) if c[NAME] == name]

    def self_time(self, s) -> float:
        """Duration minus the part its same-process children cover."""
        return (s[T1] - s[T0]) - _dur(self.children.get((s[PID], s[SID]), []))

    def root_name(self, s) -> str:
        return self.by_key[(s[PID], s[ROOT])][NAME]

    def during(self, name: str, outer: list[list]) -> list[list]:
        """Spans called ``name`` (any process) that ran inside one of ``outer``."""
        iv = [(o[T0], o[T1]) for o in outer]
        return [s for s in self.named(name) if any(a <= s[T0] and s[T1] <= b for a, b in iv)]


def layer_metrics(spans: list[list], window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics (each is defined in README.md).  Build, add and
    delete metrics are medians over every call of the run, set-up included;
    query and scatter metrics use the spans of the measured ``window``."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    builds = ix.named("build")
    per_build = {
        "doc_ids.s": lambda b: _dur(ix.kids(b, "doc_ids")),
        "doc_ids.unique_ratio": lambda b: _ratio(_c(b, "n_docs"), _c(b, "rows")),
        "hot_terms.s": lambda b: _dur(ix.kids(b, "hot_terms")),
        "hot_terms.n": lambda b: sum(_c(h, "n") for h in ix.kids(b, "hot_terms")),
        "postings.s": lambda b: _dur(ix.kids(b, "data.write_parquet")),
        "postings.rows": lambda b: sum(_c(p, "n") for p in ix.during("postings.emit", [b])),
        "postings.spill_bytes_per_input_byte":
            lambda b: _ratio(_c(b, "spill_bytes"), _c(b, "input_bytes")),
        "postings.spill_files": lambda b: _c(b, "spill_files"),
        "merge.s": lambda b: _dur(ix.during("merge.partition", [b])),
        "merge.bytes_written": lambda b: _c(b, "parts_bytes"),
        "build.self_s": ix.self_time,
    }
    for name, fn in per_build.items():
        m[name] = _median(fn(b) for b in builds)
    tok = ix.named("tokenizer")
    m["tokenizer.tokens_per_s"] = _ratio(sum(_c(s, "n") for s in tok), _dur(tok))

    adds = ix.named("add")
    for key, call in (("probe", "data.to_pandas"), ("spill", "data.write_parquet"),
                      ("remerge", "data.materialize")):
        m[f"add.{key}_s"] = _median(_dur(ix.kids(a, call)) for a in adds)
    m["add.bytes_rewritten_per_added_byte"] = _median(
        _ratio(_c(a, "parts_bytes"), _c(a, "input_bytes")) for a in adds
    )
    m["manifest.delete_s"] = _median(s[T1] - s[T0] for s in ix.named("manifest.delete"))

    # direct-engine queries: root spans of the engine's query methods
    queries = [s for s in spans if s[NAME].startswith("engine.") and s[PARENT] < 0
               and s[NAME] != "engine.load_postings"
               and window[0] <= s[T0] and s[T1] <= window[1]]
    nq = len(queries)
    for kind in ("match", "wand", "bool", "phrase", "count", "expand"):
        m[f"engine.{kind}_p50_ms"] = _median(
            1000.0 * (s[T1] - s[T0]) for s in queries if s[NAME] == f"engine.{kind}"
        )

    def under_query(name):
        return [s for s in ix.named(name, window) if ix.root_name(s).startswith("engine.")]

    reads = under_query("parquet.read")
    m["engine.parquet_reads_per_query"] = _ratio(len(reads), nq)
    m["engine.read_s"] = _ratio(_dur(reads), nq)
    lp = under_query("engine.load_postings")
    m["engine.postings_hit_ratio"] = _ratio(sum(_c(s, "hit") for s in lp), len(lp))
    wand = [s for s in queries if s[NAME] == "engine.wand"]
    wand_decoded = sum(_c(d, "blocks") for w in wand for d in ix.kids(w, "codec.decode"))
    m["engine.wand_blocks_decoded_ratio"] = _ratio(wand_decoded, sum(_c(w, "blocks") for w in wand))
    m["engine.score_s"] = _ratio(sum(ix.self_time(s) for s in queries), nq)
    dec = under_query("codec.decode")
    m["codec.decode_s"] = _ratio(_dur(dec), nq)
    m["codec.postings_decoded"] = _ratio(sum(_c(s, "n") for s in dec), nq)

    rounds = ix.named("scatter.round", window)
    nr = len(rounds)
    nrq = sum(_c(r, "queries") for r in rounds)
    tasks = ix.during("scatter.range_task", rounds)
    merges = ix.during("scatter.merge", rounds)
    in_tasks = [s for s in ix.during("codec.decode", rounds)
                if ix.root_name(s) == "scatter.range_task"]
    task_reads = [s for s in ix.during("parquet.read", rounds)
                  if ix.root_name(s) == "scatter.range_task"]
    lookups = ix.during("scatter.engine_lookup", rounds)
    built = ix.during("scatter.engine_build", rounds)
    m["scatter.range_decode_s"] = _ratio(_dur(in_tasks), nrq)
    m["scatter.parquet_reads_per_query"] = _ratio(len(task_reads), nrq)
    m["scatter.engine_hit_rate"] = _ratio(len(lookups) - len(built), len(lookups))
    m["scatter.range_task_s"] = _ratio(_dur(tasks), nr)
    m["scatter.merge_s"] = _ratio(_dur(merges), nr)
    m["scatter.partial_rows_per_query"] = _ratio(sum(_c(s, "n") for s in tasks), nrq)
    m["scatter.overhead_s"] = _ratio(_dur(rounds) - _dur(tasks) - _dur(merges), nr)
    m["trace.spans"] = float(len(spans))
    return m
