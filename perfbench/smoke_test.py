"""Smoke test of the benchmark itself (not part of the repository's test
suite): each workload end to end at a few hundred documents, one traced run,
and seed determinism of the generated inputs.

    python3 -m pytest perfbench/smoke_test.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.15"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_end_to_end(workload):
    out = _run(workload, trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload,layer", [
    ("ingest", "postings.s"), ("search", "engine.match_p50_ms"), ("batch", "scatter.range_task_s"),
])
def test_traced_run_reports_every_layer(workload, layer):
    out = _run(workload, trace=1)
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert out["metrics"][layer]["value"] > 0


def _inputs(seed: int, work: str) -> str:
    from perfbench import inputs
    from perfbench.workloads import Batch, Ctx, Ingest, Search

    ctx = Ctx(work=work, seed=seed, scale=0.15)
    ingest = Ingest(ctx)
    streams = []
    for cls in (Search, Batch):
        wl = cls(ctx)
        streams.append([next(wl.stream) for _ in range(200)])
    base = inputs.corpus(seed, ctx.size(Ingest.BASE_DOCS, 50))
    return inputs.fingerprint(base, *ingest.deltas, ingest.delete_ids, *streams)


def test_same_seed_same_inputs(tmp_path):
    a = _inputs(11, str(tmp_path / "a"))
    b = _inputs(11, str(tmp_path / "b"))
    c = _inputs(12, str(tmp_path / "c"))
    assert a == b
    assert a != c
