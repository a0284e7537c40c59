#!/usr/bin/env python3
"""Run one benchmark workload against the librecatastro_ray checkout this
file sits in, and print its metrics.

    python3 perfbench/run.py --workload {ingest,search,batch} --seed N \\
        --seconds S --trace {0,1}

Every metric is printed as a ``metric <name> <value> <unit>`` line; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones of
a traced run plus its tracing overhead.  Everything the run writes goes
under ``.bench_build/`` in the checkout and is removed at the end (Ray's
session directory included).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_SETUPS = 3
# Ray's socket paths live under its temp dir and may not exceed 107 bytes
RAY_SOCKET_SUFFIX_LEN = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def nproc() -> int:
    """CPUs this process may use, capped by OMP_NUM_THREADS like nproc(1)."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.isdigit() and int(omp) > 0:
        n = min(n, int(omp))
    return n


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["ingest", "search", "batch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every input size (the smoke test uses ~0.1)")
    return p.parse_args(argv)


def prepare_env(work: str, trace_dir: str | None) -> str | None:
    """Environment for the driver and the Ray workers it starts; returns
    Ray's temp dir."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    if trace_dir is not None:
        from perfbench.spans import TRACE_DIR_ENV

        os.environ[TRACE_DIR_ENV] = trace_dir
    ray_tmp = os.path.join(ROOT, ".bench_build", "ray")
    if len(ray_tmp) + RAY_SOCKET_SUFFIX_LEN > 107:
        print(f"perfbench: {ray_tmp} is too long for Ray's socket paths; "
              "Ray falls back to its default temp dir", file=sys.stderr)
        return None
    return ray_tmp


def start_ray(ray_tmp: str | None, trace: bool) -> None:
    import ray
    import ray.data

    runtime_env = {"worker_process_setup_hook": "perfbench.spans.worker_hook"} if trace else None
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=ray_tmp,
        runtime_env=runtime_env,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    logging.getLogger("ray").setLevel(logging.WARNING)


def rate(ops) -> float:
    """Items per second over a set of operations (0 for none)."""
    seconds = sum(o.seconds for o in ops)
    return sum(o.items for o in ops) / seconds if seconds else 0.0


def run(args, work: str, trace_dir: str | None) -> tuple[dict, dict, int, int]:
    from perfbench import spans as trace
    from perfbench.procs import PeakRss
    from perfbench.workloads import WORKLOADS, Ctx

    if trace_dir is not None:
        trace.install(trace_dir, worker=False)
    rss = PeakRss()
    rss.start()
    wl = WORKLOADS[args.workload](Ctx(work=work, seed=args.seed, scale=args.scale))
    setups = []
    for _ in range(N_SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    if trace_dir is None:
        ops = wl.measure(args.seconds)
        peak_mb = rss.stop()
        attempted, failed = wl.check(ops)
        e2e, detail = wl.summary(ops)
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = peak_mb
        return e2e, detail, attempted, failed
    # traced run: twice the measured time, every other operation group
    # traced, so both halves see the same cache history
    def trace_group(i: int) -> bool:
        trace.set_active(i % 2 == 0)
        return i % 2 == 0

    w0 = time.perf_counter()
    ops = wl.measure(2 * args.seconds, trace_group)
    window = (w0, time.perf_counter())
    trace.set_active(False)
    rss.stop()
    attempted, failed = wl.check(ops)
    layers = trace.layer_metrics(trace.load_spans(trace_dir), window)
    plain, traced = rate([o for o in ops if not o.traced]), rate([o for o in ops if o.traced])
    layers["trace.overhead_pct"] = 100.0 * (plain / traced - 1.0) if plain and traced else 0.0
    return layers, {}, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "librecatastro_ray")):
        print(f"perfbench: no librecatastro_ray package in {ROOT}", file=sys.stderr)
        return 2
    sys.path[0] = ROOT  # not perfbench/: its module names must not shadow others
    work = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    trace_dir = os.path.join(work, "trace") if args.trace else None
    if trace_dir is not None:
        os.makedirs(trace_dir)
    ray_tmp = prepare_env(work, trace_dir)

    import ray

    session_dir = None
    try:
        start_ray(ray_tmp, bool(args.trace))
        session_dir = ray._private.worker._global_node.get_session_dir_path()
        metrics, detail, attempted, failed = run(args, work, trace_dir)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if session_dir and ray_tmp:
            shutil.rmtree(session_dir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    out = {}
    for name in sorted(metrics):
        out[name] = {"value": metrics[name], "unit": units[name]}
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in detail.items():
        print(f"detail {args.workload}.{name} {value:.6g} {unit}")
    print(f"detail {args.workload}.failed_frac {failed / max(attempted, 1):.6g} ratio")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
