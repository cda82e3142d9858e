"""Command-line interface: load a program, run queries, pick an engine.

Usage::

    python -m repro --source family.pl --query "gf(sam, G)"
    python -m repro --demo --query "gf(sam, G)" --engine blog --tree
    python -m repro --demo              # interactive REPL
    python -m repro --nrev 30           # the LIPS benchmark

Engines: ``prolog`` (depth-first baseline), ``blog`` (adaptive
best-first, the default), ``machine`` (the simulated parallel machine).

The ``serve`` subcommand runs the concurrent query service instead::

    python -m repro serve --demo --port 8750
    python -m repro serve --source family.pl --workers 8 --max-pending 128
    python -m repro serve --demo --selfcheck   # start, query itself, exit
    python -m repro serve --demo --data-dir var/blog   # durable weights:
                                  # WAL + checkpoints, SIGTERM drains

Clients speak one JSON object per line over TCP; see
:mod:`repro.service`.

The ``recover`` subcommand replays a ``--data-dir`` offline — report
what a boot would restore, or compact the journal into a fresh
snapshot (see ``docs/OPERATIONS.md``)::

    python -m repro recover var/blog
    python -m repro recover var/blog --compact --format json

The ``lint`` subcommand runs blogcheck, the repo's AST invariant
linter (see :mod:`repro.analysis` and ``docs/ANALYSIS.md``)::

    python -m repro.cli lint                 # lint the repro package
    python -m repro.cli lint src tests --format json
    python -m repro.cli lint --select BLG001,BLG005 --github
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import BLogConfig, BLogEngine
from .logic import ParseError, Program, Solver
from .machine import MachineConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="B-LOG: branch-and-bound execution of logic programs "
        "(Lipovski & Hermenegildo, ICPP 1985)",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--source", metavar="FILE", help="program file to consult")
    src.add_argument(
        "--demo", action="store_true", help="load the paper's figure-1 program"
    )
    p.add_argument("--query", "-q", metavar="GOALS", help="query to run (one shot)")
    p.add_argument(
        "--engine",
        choices=("prolog", "blog", "machine"),
        default="blog",
        help="execution engine (default: blog)",
    )
    p.add_argument(
        "--max-solutions", type=int, default=None, metavar="N",
        help="stop after N answers",
    )
    p.add_argument(
        "--processors", type=int, default=4, metavar="N",
        help="machine engine: processor count (default 4)",
    )
    p.add_argument("--n", type=float, default=16.0, help="target bound N (§5)")
    p.add_argument("--a", type=int, default=16, help="max chain length A (§5)")
    p.add_argument("--max-depth", type=int, default=256, help="resolution depth bound")
    p.add_argument(
        "--tree", action="store_true", help="print the developed OR-tree"
    )
    p.add_argument(
        "--listing", action="store_true", help="print the loaded program and exit"
    )
    p.add_argument(
        "--nrev", type=int, metavar="LEN", default=None,
        help="run the naive-reverse LIPS benchmark at list length LEN",
    )
    p.add_argument(
        "--load-store", metavar="JSON", default=None,
        help="seed the engine with a saved weight store",
    )
    p.add_argument(
        "--save-store", metavar="JSON", default=None,
        help="write the learned weight store after the query/session",
    )
    sub = p.add_subparsers(dest="command", metavar="command")
    serve = sub.add_parser(
        "serve",
        help="run the concurrent query service (line-JSON over TCP)",
        description="Serve one or more programs concurrently: session-"
        "affinity routing, answer caching, backpressure; see repro.service.",
    )
    serve.add_argument(
        "--source", metavar="FILE", action="append", default=[],
        help="program file to serve (repeatable; served under its stem)",
    )
    serve.add_argument(
        "--demo", action="store_true",
        help="serve the paper's figure-1 program as 'family'",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8750, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker lanes (default 4)",
    )
    serve.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="lane execution backend: 'thread' (shared GIL-bound executor) "
        "or 'process' (one warm subprocess per lane — real parallelism; "
        "see docs/API.md for when each wins)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="admission bound on in-flight queries (default 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="default per-query deadline (default 30)",
    )
    serve.add_argument(
        "--processors", type=int, default=4, metavar="N",
        help="machine-engine processor count (default 4)",
    )
    serve.add_argument("--n", type=float, default=16.0, help="target bound N (§5)")
    serve.add_argument("--a", type=int, default=16, help="max chain length A (§5)")
    serve.add_argument(
        "--max-depth", type=int, default=256, help="resolution depth bound"
    )
    serve.add_argument(
        "--trace-log", metavar="PATH", default=None,
        help="append one JSON object per finished span to PATH "
        "(size-rotated JSONL; see docs/OBSERVABILITY.md)",
    )
    serve.add_argument(
        "--trace-log-max-bytes", type=int, default=10_000_000, metavar="N",
        help="rotate the trace log past N bytes (default 10MB)",
    )
    serve.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="dump the full span tree of any request slower than MS "
        "milliseconds to stderr (the slow-query log)",
    )
    serve.add_argument(
        "--selfcheck", action="store_true",
        help="start, run a few queries against itself over TCP, "
        "print stats, and exit (smoke test)",
    )
    serve.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="durable weight stores: WAL-journal every acknowledged "
        "session merge under DIR/<program>/ and recover on boot "
        "(see docs/OPERATIONS.md)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="write a compacting snapshot every SECONDS (with --data-dir; "
        "default: only at shutdown)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-drain deadline for in-flight work on SIGTERM/SIGINT "
        "(default 10)",
    )
    recover = sub.add_parser(
        "recover",
        help="inspect or compact a service data directory offline",
        description="Replay each program's snapshot + WAL under DIR "
        "(exactly what `serve --data-dir DIR` does at boot) and report "
        "what recovery would see; --compact additionally writes a fresh "
        "snapshot and truncates the journal. Exits 1 when any store is "
        "corrupt.",
    )
    recover.add_argument(
        "data_dir", metavar="DIR", help="the service's --data-dir"
    )
    recover.add_argument(
        "--program", default=None, metavar="NAME",
        help="only this program's store (default: every subdirectory)",
    )
    recover.add_argument(
        "--compact", action="store_true",
        help="write a fresh snapshot and truncate each journal",
    )
    recover.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    recover.add_argument("--n", type=float, default=16.0, help="target bound N (§5)")
    recover.add_argument("--a", type=int, default=16, help="max chain length A (§5)")
    lint = sub.add_parser(
        "lint",
        help="run blogcheck, the AST invariant linter (see docs/ANALYSIS.md)",
        description="Check the concurrency, telemetry, and durability "
        "contracts (BLG001, BLG002, BLG005, BLG007). Exits 1 when findings "
        "remain, 0 on a clean run.",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to check (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--github", action="store_true",
        help="also emit GitHub Actions ::error annotations per finding",
    )
    lint.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return p


def _load_program(args) -> Optional[Program]:
    if args.demo:
        from .workloads import family_program

        return family_program()
    if args.source:
        with open(args.source) as fh:
            return Program.from_source(fh.read())
    return None


def _make_engine(args, program: Program, out) -> Optional[BLogEngine]:
    """The engine a query or the shell runs on, over the ``--load-store``
    weights if given; None after printing the error when that file
    cannot be read."""
    store = None
    if getattr(args, "load_store", None):
        from .weights.persist import StoreCorruptError, load_store

        try:
            store = load_store(args.load_store)
        except (StoreCorruptError, OSError) as exc:
            print(f"error: {exc}", file=out)
            return None
    return BLogEngine(
        program, BLogConfig(n=args.n, a=args.a, max_depth=args.max_depth), global_store=store
    )


def _save_store_arg(args, engine) -> None:
    if getattr(args, "save_store", None):
        from .weights.persist import save_store

        save_store(engine.sessions.global_store, args.save_store)


def _run_query(args, program: Program, query: str, out) -> int:
    if args.engine == "prolog":
        solver = Solver(program, max_depth=args.max_depth)
        count = 0
        for sol in solver.solve(query, max_solutions=args.max_solutions):
            print(sol, file=out)
            count += 1
        if count == 0:
            print("false.", file=out)
        print(
            f"% {solver.stats.inferences} inferences, "
            f"{solver.stats.resolutions} resolutions",
            file=out,
        )
        return 0 if count else 1
    engine = _make_engine(args, program, out)
    if engine is None:
        return 2
    if args.engine == "machine":
        res = engine.run_machine(
            query,
            MachineConfig(n_processors=args.processors),
            max_solutions=args.max_solutions,
        )
        for answer in res.answers:
            line = ", ".join(f"{k} = {v}" for k, v in sorted(answer.items()))
            print(line or "true", file=out)
        if not res.answers:
            print("false.", file=out)
        print(
            f"% makespan {res.makespan:.0f} cycles, "
            f"{res.expansions} expansions, "
            f"utilization {res.mean_utilization:.2f}, "
            f"{res.migrations} migrations",
            file=out,
        )
        _save_store_arg(args, engine)
        return 0 if res.answers else 1
    result = engine.query(query, max_solutions=args.max_solutions, keep_tree=args.tree)
    for answer in result.answers:
        line = ", ".join(f"{k} = {v}" for k, v in sorted(answer.items()))
        print(line or "true", file=out)
    if not result.answers:
        print("false.", file=out)
    print(
        f"% {result.expansions} expansions "
        f"({result.expansions_to_first} to first answer), "
        f"{result.failures} failed chains",
        file=out,
    )
    if args.tree and result.tree is not None:
        print(result.tree.render(), file=out)
    _save_store_arg(args, engine)
    return 0 if result.answers else 1


def _repl(args, program: Program, out) -> int:
    engine = _make_engine(args, program, out)
    if engine is None:
        return 2
    print(
        "B-LOG interactive shell — enter goals, ':listing', or ':quit'.",
        file=out,
    )
    engine.begin_session()
    while True:
        try:
            line = input("?- ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line in (":quit", ":q", "halt."):
            break
        if line == ":listing":
            print(program.listing(), file=out)
            continue
        if line == ":store":
            print(engine.store, file=out)
            continue
        try:
            result = engine.query(line, max_solutions=args.max_solutions)
        except ParseError as exc:
            print(f"syntax error: {exc}", file=out)
            continue
        except Exception as exc:  # engine errors shouldn't kill the REPL
            print(f"error: {exc}", file=out)
            continue
        for answer in result.answers:
            text = ", ".join(f"{k} = {v}" for k, v in sorted(answer.items()))
            print(text or "true", file=out)
        if not result.answers:
            print("false.", file=out)
    engine.end_session()
    _save_store_arg(args, engine)
    return 0


def _serve_programs(args) -> dict[str, Program]:
    """The {name: program} registry a `serve` invocation asked for."""
    from pathlib import Path

    programs: dict[str, Program] = {}
    if args.demo:
        from .workloads import family_program

        programs["family"] = family_program()
    for path in args.source:
        with open(path) as fh:
            programs[Path(path).stem] = Program.from_source(fh.read())
    return programs


async def _selfcheck(service, host: str, port: int, out) -> int:
    """Connect to our own TCP endpoint and push a few requests through."""
    import asyncio
    import json

    reader, writer = await asyncio.open_connection(host, port)
    from .logic.terms import Struct

    name = next(iter(service.programs))
    head = next(iter(service.programs[name].program)).head
    if isinstance(head, Struct):
        holes = ", ".join(f"SC{i}" for i in range(len(head.args)))
        probe = f"{head.functor}({holes})"
    else:
        probe = str(head)
    requests = [
        {"op": "query", "id": "c1", "program": name, "query": probe, "session": "check"},
        {"op": "query", "id": "c2", "program": name, "query": probe, "session": "check"},
        {"op": "end_session", "program": name, "session": "check"},
        {"op": "stats"},
    ]
    ok = True
    for msg in requests:
        writer.write((json.dumps(msg) + "\n").encode())
        await writer.drain()
        reply = json.loads(await reader.readline())
        ok = ok and bool(reply.get("ok"))
        print(f"selfcheck {msg.get('op')}: ok={reply.get('ok')}", file=out)
    writer.close()
    await writer.wait_closed()
    return 0 if ok else 1


def _run_serve(args, out) -> int:
    import asyncio

    from .core.config import BLogConfig
    from .machine import MachineConfig
    from .service import BLogService, format_stats

    programs = _serve_programs(args)
    if not programs:
        print("error: serve needs --source FILE and/or --demo", file=out)
        return 2
    service = BLogService(
        programs,
        config=BLogConfig(n=args.n, a=args.a, max_depth=args.max_depth),
        machine=MachineConfig(n_processors=args.processors),
        n_workers=args.workers,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        backend=args.backend,
        slow_query_ms=args.slow_query_ms,
        trace_log=args.trace_log,
        trace_log_max_bytes=args.trace_log_max_bytes,
        data_dir=args.data_dir,
        checkpoint_interval=args.checkpoint_interval,
        drain_timeout=args.drain_timeout,
    )

    async def run() -> int:
        server = await service.serve_tcp(args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        # SIGTERM/SIGINT -> graceful drain -> terminated -> exit 0; wired
        # before the banner so a signal arriving the instant we announce
        # readiness already drains instead of killing the process
        service.lifecycle.install_signal_handlers(asyncio.get_running_loop())
        print(
            f"serving {', '.join(sorted(programs))} on {host}:{port} "
            f"({args.workers} {args.backend} lanes, "
            f"max {args.max_pending} pending)",
            file=out,
        )
        if args.data_dir:
            print(f"durable weight stores under {args.data_dir}", file=out)
        try:
            if args.selfcheck:
                return await _selfcheck(service, host, port, out)
            await service.lifecycle.terminated.wait()
            print("drained.", file=out)
            return 0
        finally:
            from .service import LifecycleState

            service.lifecycle.remove_signal_handlers()
            if service.lifecycle.state is not LifecycleState.STOPPED:
                await service.stop()
            print(format_stats(service.stats()), file=out)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted.", file=out)
        return 0


def _run_recover(args, out) -> int:
    """Offline recovery: replay each program's snapshot + journal the
    way ``serve --data-dir`` would at boot, report what happened, and
    (with ``--compact``) write a fresh snapshot truncating the journal."""
    import json
    from pathlib import Path

    from .weights.persist import StoreCorruptError
    from .weights.wal import DurableStore, WalCorruptError

    root = Path(args.data_dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=out)
        return 2
    if args.program:
        names = [args.program]
    else:
        names = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not names:
        print(f"error: no program directories under {root}", file=out)
        return 2
    reports: list[dict] = []
    corrupt = False
    for name in names:
        ds = DurableStore(root / name, n=args.n, a=args.a)
        try:
            store, info = ds.recover()
        except (StoreCorruptError, WalCorruptError) as exc:
            corrupt = True
            reports.append({"program": name, "ok": False, "error": str(exc)})
            ds.close()
            continue
        report = {
            "program": name,
            "ok": True,
            "entries": len(list(store.keys())),
            "generation": store.generation,
            **info.to_dict(),
            "compacted": False,
        }
        if args.compact:
            ds.checkpoint(store)
            report["compacted"] = True
        ds.close()
        reports.append(report)
    if args.format == "json":
        print(json.dumps(reports, indent=1), file=out)
    else:
        for r in reports:
            if not r["ok"]:
                print(f"{r['program']}: CORRUPT — {r['error']}", file=out)
                continue
            line = (
                f"{r['program']}: {r['entries']} entries at generation "
                f"{r['generation']} (snapshot seq {r['snapshot_seq']}, "
                f"{r['records_replayed']} replayed, "
                f"{r['records_skipped']} skipped"
            )
            if r["torn_tail"]:
                line += ", torn tail dropped"
            line += ")"
            if r["compacted"]:
                line += "  [compacted]"
            print(line, file=out)
    return 1 if corrupt else 0


def _run_lint(args, out) -> int:
    from pathlib import Path

    from .analysis import (
        analyze_paths,
        render_github,
        render_json,
        render_text,
        rules_by_code,
    )

    if args.list_rules:
        for code, cls in rules_by_code().items():
            print(f"{code}  {cls.name:<28} {cls.summary}", file=out)
        return 0
    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [Path(__file__).resolve().parent]  # the repro package
    select = args.select.split(",") if args.select else None
    try:
        result = analyze_paths(paths, select=select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return 2
    if args.format == "json":
        print(render_json(result), file=out)
    else:
        print(render_text(result), file=out)
    if args.github and result.findings:
        print(render_github(result), file=out)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "serve":
        return _run_serve(args, out)
    if getattr(args, "command", None) == "recover":
        return _run_recover(args, out)
    if getattr(args, "command", None) == "lint":
        return _run_lint(args, out)
    if args.nrev is not None:
        from .workloads import run_nrev

        res = run_nrev(args.nrev, repeats=10)
        print(
            f"nrev/{args.nrev}: {res.resolutions} resolutions in "
            f"{res.seconds:.3f}s = {res.lips / 1000:.1f} kLIPS "
            f"(reversed correctly: {res.reversed_ok})",
            file=out,
        )
        return 0
    program = _load_program(args)
    if program is None:
        build_parser().print_usage(out)
        print("error: provide --source FILE, --demo, or --nrev", file=out)
        return 2
    if args.listing:
        print(program.listing(), file=out)
        return 0
    if args.query:
        try:
            return _run_query(args, program, args.query, out)
        except ParseError as exc:
            print(f"syntax error: {exc}", file=out)
            return 2
    return _repl(args, program, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
