"""CLI — the analogue of the reference's entry points
(libreCatastro.py:21-72 argument surface + initialize_elasticsearch.py DDL):

    python -m librecatastro_ray.cli build   --corpus DIR --index DIR [--partitions P] [--salts S] [--no-resume] [--positions]
    python -m librecatastro_ray.cli add     --corpus DIR --index DIR
    python -m librecatastro_ray.cli compact --index DIR --target DIR
    python -m librecatastro_ray.cli delete  --index DIR (--doc-ids ID ... | --text "...")
    python -m librecatastro_ray.cli query   --index DIR --text "..." [--k 10] [--from N] [--must t1 t2]
                                            [--must-not ...] [--should ...] [--lang L] [--path-prefix P]
                                            [--prefix p] [--count]
    python -m librecatastro_ray.cli search-batch --index DIR --queries FILE.jsonl [--ranges 8] [--out DIR]
    python -m librecatastro_ray.cli drop    --index DIR
    python -m librecatastro_ray.cli info    --index DIR
    python -m librecatastro_ray.cli list    --index DIR [--field repo|lang|commit]

The library never calls ray.init: the subcommands that run Ray tasks
(``build``, ``add``, ``compact``, ``search-batch``) start a local session
when none is running and shut down only a session they started, so an
in-process caller keeps its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# the subcommands that run Ray tasks and so need a session
_RAY_COMMANDS = {"build", "add", "compact", "search-batch"}


def _init_ray() -> bool:
    """Start a local Ray session unless one is running; True when this call
    started it (and so the caller owns its shutdown)."""
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return started


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="librecatastro_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an index from a parquet corpus")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--partitions", type=int, default=8)
    b.add_argument("--salts", type=int, default=4)
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--positions", action="store_true",
                   help="positional index (enables phrase queries)")

    a = sub.add_parser("add", help="incrementally add/upsert documents "
                       "(Lucene merge semantics; content never re-tokenized)")
    a.add_argument("--corpus", required=True)
    a.add_argument("--index", required=True)

    cp = sub.add_parser("compact", help="rebuild without tombstones "
                        "(Lucene merge; target must be a new dir)")
    cp.add_argument("--index", required=True)
    cp.add_argument("--target", required=True)

    dd = sub.add_parser("delete", help="tombstone documents by id or by query")
    dd.add_argument("--index", required=True)
    dd.add_argument("--doc-ids", nargs="*", type=int, default=None)
    dd.add_argument("--text", default=None, help="delete every match hit")

    q = sub.add_parser("query", help="query an index")
    q.add_argument("--index", required=True)
    q.add_argument("--text", default=None, help="BM25 match query")
    q.add_argument("--must", nargs="*", default=None, help="bool.must conjunction terms")
    q.add_argument("--must-not", nargs="*", default=None, help="bool.must_not exclusion terms")
    q.add_argument("--should", nargs="*", default=None, help="bool.should score-boost terms")
    q.add_argument("--lang", default=None, help="keyword equality filter on lang")
    q.add_argument("--path-prefix", default=None, help="keyword prefix filter on path")
    q.add_argument("--prefix", default=None, help="prefix on the analyzed field")
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--from", dest="offset", type=int, default=0,
                   help="pagination offset (ES 'from')")
    q.add_argument("--count", action="store_true", help="print hits.total only")

    sb = sub.add_parser("search-batch", help="batch evaluation via doc-range "
                        "scatter-gather; queries from a JSONL file, results to "
                        "stdout or partitioned parquet")
    sb.add_argument("--index", required=True)
    sb.add_argument("--queries", required=True,
                    help="JSONL file, one query object per line "
                         '({"query_id", "kind", "text"|"must_terms"|"prefix", '
                         '"k", "from", "keyword_eq", ...})')
    sb.add_argument("--ranges", type=int, default=8)
    sb.add_argument("--out", default=None,
                    help="write results to this parquet dir (streaming) "
                         "instead of stdout")

    d = sub.add_parser("drop", help="delete an index (idempotent)")
    d.add_argument("--index", required=True)

    i = sub.add_parser("info", help="print the index manifest summary")
    i.add_argument("--index", required=True)

    ls = sub.add_parser("list", help="distinct values of a keyword column "
                        "(the reference's --listprovinces/--listcities analogue)")
    ls.add_argument("--index", required=True)
    ls.add_argument("--field", default="repo", choices=["repo", "lang", "commit"])

    args = p.parse_args(argv)
    started = args.cmd in _RAY_COMMANDS and _init_ray()
    try:
        return _run(p, args)
    finally:
        if started:
            import ray

            ray.shutdown()


def _run(p: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.cmd == "build":
        from librecatastro_ray.config import IndexConfig
        from librecatastro_ray.pipelines.build import build_index

        cfg = IndexConfig(
            num_partitions=args.partitions,
            num_salts=args.salts,
            positions=bool(args.positions),
        )
        res = build_index(args.corpus, args.index, cfg, resume=not args.no_resume)
        m = res["manifest"]
        print(json.dumps({
            "n_docs": m["n_docs"],
            "n_postings": m["lineage"]["n_postings"],
            "partitions": len(m["segments"][0]["partitions"]),
            "hot_terms": len(m["segments"][0]["hot_terms"]),
            "report": res["report"],
        }))
        return 0

    if args.cmd == "add":
        from librecatastro_ray.pipelines.build import add_documents

        res = add_documents(args.corpus, args.index)
        print(json.dumps(res["report"]))
        return 0

    if args.cmd == "compact":
        from librecatastro_ray.pipelines.build import compact_index

        res = compact_index(args.index, args.target)
        print(json.dumps({"n_docs": res["manifest"]["n_docs"],
                          "target": args.target}))
        return 0

    if args.cmd == "delete":
        from librecatastro_ray.pipelines.query import delete_by_query
        from librecatastro_ray.state.manifest import delete_docs, load_deleted

        if args.doc_ids:
            delete_docs(args.index, args.doc_ids)
            print(json.dumps({"tombstones_total": len(load_deleted(args.index))}))
        elif args.text:
            n = delete_by_query(args.index, {"kind": "match", "text": args.text})
            print(json.dumps({"tombstoned": n}))
        else:
            print(json.dumps({"error": "pass --doc-ids or --text"}))
            return 2
        return 0

    if args.cmd == "query":
        from librecatastro_ray.pipelines.query import QueryEngine

        eng = QueryEngine(args.index)
        if args.count:
            print(json.dumps({"total": eng.count(args.text or "")}))
            return 0
        kw_eq = [("lang", args.lang)] if args.lang else None
        kw_pre = [("path", args.path_prefix)] if args.path_prefix else None
        if args.must or args.must_not or args.should or kw_eq or kw_pre:
            # --text combined with bool/keyword flags = the ES shape
            # bool{must:[match text], filter:[...]} — the match clause becomes
            # required should terms (OR-scored, minimum_should_match=1).
            # Tokenize with the INDEX's analyzer (manifest-pinned), not the
            # module default — a whitespace_v1 index tokenizes differently
            if args.text and args.should:
                p.error("--text and --should cannot be combined (the text match "
                        "is required, should terms are optional — pass the text "
                        "terms via --should explicitly if optional is intended)")
                return 2
            text_terms = eng.analyzer.tokenize(args.text) if args.text else []
            res = eng.bool_must(
                list(args.must or []), k=args.k, keyword_eq=kw_eq,
                keyword_prefix=kw_pre, must_not_terms=args.must_not,
                should_terms=(list(args.should or []) + text_terms) or None,
                require_should=bool(text_terms), offset=args.offset,
            )
        elif args.prefix is not None:
            res = eng.prefix_content(args.prefix, k=args.k, offset=args.offset)
        elif args.text is not None:
            res = eng.match(args.text, k=args.k, offset=args.offset)
        else:
            p.error("query needs --text, --must, --must-not, --should, "
                    "--lang, --path-prefix or --prefix")
            return 2
        hyd = {r["doc_id"]: r for r in eng.hydrate(res["doc_id"].to_numpy()).to_pylist()}
        for row in res.to_pylist():
            h = hyd.get(row["doc_id"], {})
            print(json.dumps({
                "rank": row["rank"], "doc_id": row["doc_id"],
                "score": round(row["score"], 6),
                "repo": h.get("repo"), "path": h.get("path"),
            }))
        return 0

    if args.cmd == "search-batch":
        from librecatastro_ray.pipelines.query import batch_search_scatter

        with open(args.queries) as f:
            queries = [json.loads(line) for line in f if line.strip()]
        out = batch_search_scatter(
            args.index, queries, n_ranges=args.ranges, output_dir=args.out
        )
        if args.out:
            print(json.dumps(out.to_pylist()[0]))
        else:
            for row in out.to_pylist():
                print(json.dumps(row))
        return 0

    if args.cmd == "list":
        import pyarrow.dataset as pads

        from librecatastro_ray.state.manifest import doc_files, load_manifest

        t = pads.dataset(doc_files(args.index, load_manifest(args.index)),
                         format="parquet").to_table(columns=[args.field])
        for v in sorted(set(t[args.field].to_pylist())):
            print(v)
        return 0

    if args.cmd == "drop":
        from librecatastro_ray.state.manifest import drop_index

        existed = drop_index(args.index)
        print(json.dumps({"dropped": existed}))
        return 0

    if args.cmd == "info":
        from librecatastro_ray.state.manifest import load_manifest

        m = load_manifest(args.index)
        print(json.dumps({
            "n_docs": m["n_docs"],
            "avgdl": round(m["sum_dl"] / max(m["n_docs"], 1), 3),
            "config": m["config"],
            "n_segments": len(m["segments"]),
            "n_partitions": sum(len(seg["partitions"]) for seg in m["segments"]),
            "n_postings": m["lineage"]["n_postings"],
            "hot_terms": sorted({t for seg in m["segments"] for t in seg["hot_terms"]})[:20],
        }))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
