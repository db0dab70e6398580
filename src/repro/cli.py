"""The ``python -m repro`` command line: run, diff, list, maintenance.

Subcommands
-----------

``run <scenario-or-spec.toml>``
    Run a catalog bench by name (``python -m repro run
    fig05_lasso_lognormal`` reproduces the committed
    ``benchmarks/results`` table bit-identically, and writes the
    provenance-stamped ``fig05.json`` run record next to it — the one
    deliberate way to re-pin the committed record store) or a
    declarative TOML :class:`~repro.evaluation.spec.ExperimentSpec` by
    path (``--record PATH`` captures its record too).
    ``--executor``/``--cache``/``--trials`` control execution exactly
    like the bench environment knobs.

``diff <run-a> <run-b>`` / ``diff <run-a> --against-catalog <name>``
    Mechanically compare two run records, separating value drift from
    provenance drift (code fingerprints, seeds, grid shape).  Exit
    codes: 0 identical, 1 value drift, 2 incompatible provenance, 3
    error (unreadable/corrupt record, or an invalid diff invocation
    such as naming zero or two comparison targets).
    ``--against-catalog`` resolves the second record from the
    committed record store (``benchmarks/results/<stem>.json`` by
    default); an unknown catalog name prints the catalog menu and
    exits 3.

``results list`` / ``results show``
    Inspect a run-record store directory: every record's name, id and
    shape, or one record's full provenance and tables (``--json``
    prints the raw manifest).

``list``
    Every registered component (solvers, losses, distributions,
    datasets, data generators, estimators, metrics) and every catalog
    scenario.  ``--json`` emits the machine-readable listing (the
    server's ``GET /catalog`` payload plus the registries).

``serve``
    Serve the catalog, run records, and cached cells over HTTP and
    accept ``POST /run`` compute requests — concurrent cold requests
    for the same bench coalesce onto one engine computation per cell
    digest (see :mod:`repro.server`).  ``--broker HOST:PORT`` routes
    fleet-executor requests to the networked fleet.

``broker`` / ``fleet-worker``
    The networked fleet backend (see :mod:`repro.fleet.net`): a TCP
    broker server speaking the fleet's lease/heartbeat/complete
    protocol, and real worker processes that lease digest-keyed cells
    from it, compute through the unchanged engine job path, and
    complete with bit-identical values.  ``python -m repro run <bench>
    --executor fleet --broker HOST:PORT`` coordinates a run across
    them.  ``broker --journal PATH`` write-ahead logs (and fsyncs)
    every broker mutation so a killed broker restarts
    into the exact pre-crash state and the in-flight run resumes;
    coordinators and workers ride out the downtime by reconnecting
    under seeded backoff.

``cache stats`` / ``cache prune``
    Inspect or garbage-collect a cell cache directory: ``prune``
    deletes every cell whose digest no current catalog grid claims
    (at laptop or paper scale, default trial counts) *and* no committed
    run record references — a cell a record pins stays put even after
    the code that produced it changes.  Spec-file cells are neither
    catalog-claimed nor (normally) record-pinned — prune treats them as
    orphans.

Every command that reads committed records names the one record store
with ``--results-dir`` (default: ``benchmarks/results`` when run from
the repo root).

Exit status is 0 on success, 2 for usage errors (argparse), and 1 for
resolution failures (unknown names print the registered menu); ``diff``
uses the drift codes above.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .evaluation import EXECUTORS, ExperimentSpec, ResultCache
from .exceptions import ResultsError
from .experiments import bench, bench_names
from .fleet import FleetOptions
from .registry import ALL_REGISTRIES, UnknownNameError
from .results import (
    ResultsStore,
    baseline_digests,
    diff_records,
    load_record,
    save_record,
)
from .service import (
    ServiceCore,
    cache_stats_payload,
    list_payload,
    record_store_entry,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, enumerate, and maintain the paper's experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a catalog bench by name or a spec by .toml path")
    run.add_argument("target",
                     help="catalog scenario name (see `list`) or a path to "
                          "an ExperimentSpec TOML file")
    run.add_argument("--executor", choices=EXECUTORS,
                     default=os.environ.get("REPRO_BENCH_EXECUTOR", "serial"),
                     help="grid executor (default: $REPRO_BENCH_EXECUTOR or "
                          "serial)")
    run.add_argument("--cache", metavar="DIR",
                     default=os.environ.get("REPRO_BENCH_CACHE") or None,
                     help="cell cache directory (default: $REPRO_BENCH_CACHE)")
    run.add_argument("--trials", type=int, default=None, metavar="N",
                     help="override trials per cell (changes the statistics "
                          "and cache keys; results files are not written)")
    run.add_argument("--full", action="store_true",
                     help="paper-scale grids (hours) instead of laptop scale")
    run.add_argument("--max-workers", type=int, default=None, metavar="N",
                     help="pool size for the thread executor, or worker "
                          "threads for --executor fleet without --broker")
    run.add_argument("--broker", metavar="HOST:PORT",
                     default=os.environ.get("REPRO_FLEET_BROKER") or None,
                     help="socket broker address for --executor fleet: "
                          "cells are computed by real `python -m repro "
                          "fleet-worker` processes instead of worker "
                          "threads on a loopback broker (default: "
                          "$REPRO_FLEET_BROKER)")
    run.add_argument("--results-dir", default=None, metavar="DIR",
                     help="where to write the bench results table and run "
                          "record (default: benchmarks/results when it "
                          "exists)")
    run.add_argument("--record", default=None, metavar="PATH",
                     help="write the run record to this explicit path "
                          "(spec runs only record when this is given)")

    diff = sub.add_parser(
        "diff", help="compare two run records: value vs provenance drift")
    diff.add_argument("run_a", help="path to the first run record")
    diff.add_argument("run_b", nargs="?", default=None,
                      help="path to the second run record")
    diff.add_argument("--against-catalog", default=None, metavar="NAME",
                      help="compare run-a against the committed record of "
                           "this catalog bench instead of run-b")
    diff.add_argument("--results-dir", default=None, metavar="DIR",
                      help="committed record store --against-catalog reads "
                           "(default: benchmarks/results when it exists)")
    diff.add_argument("--json", action="store_true",
                      help="emit the full diff as JSON instead of the "
                           "human-readable summary")

    results = sub.add_parser("results", help="run-record store inspection")
    results_sub = results.add_subparsers(dest="results_command", required=True)
    results_list = results_sub.add_parser(
        "list", help="every run record in a store directory")
    results_list.add_argument("--dir", default=None, metavar="DIR",
                              help="record store directory (default: "
                                   "benchmarks/results)")
    results_show = results_sub.add_parser(
        "show", help="one record's provenance and tables")
    results_show.add_argument("record", help="path to a run record")
    results_show.add_argument("--json", action="store_true",
                              help="print the raw manifest JSON")

    list_parser = sub.add_parser(
        "list", help="registered components + catalog scenarios")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable listing (the same "
                                  "payload the server's GET /catalog "
                                  "serves, plus the registries)")

    serve = sub.add_parser(
        "serve", help="serve catalog, records, and cells over HTTP "
                      "(coalesced compute)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="port to listen on (default: 8321; 0 picks an "
                            "ephemeral port)")
    serve.add_argument("--results-dir", default=None, metavar="DIR",
                       help="run-record store served at /records "
                            "(default: benchmarks/results when it exists)")
    serve.add_argument("--cache", metavar="DIR",
                       default=os.environ.get("REPRO_BENCH_CACHE") or None,
                       help="cell cache backing /cells and POST /run "
                            "(default: $REPRO_BENCH_CACHE)")
    serve.add_argument("--broker", metavar="HOST:PORT",
                       default=os.environ.get("REPRO_FLEET_BROKER") or None,
                       help="socket broker address: POST /run requests with "
                            '"executor": "fleet" compute on the networked '
                            "fleet (default: $REPRO_FLEET_BROKER)")

    sub.add_parser(
        "broker", add_help=False,
        help="serve a fleet broker over TCP, crash-safe with --journal "
             "(python -m repro broker --help)")
    sub.add_parser(
        "fleet-worker", add_help=False,
        help="lease and compute fleet cells from a socket broker "
             "(python -m repro fleet-worker --help)")

    cache = sub.add_parser("cache", help="cell cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (("stats", "count cached cells and orphans"),
                            ("prune", "delete cells no catalog grid claims "
                                      "and no committed record references")):
        sub_parser = cache_sub.add_parser(name, help=help_text)
        sub_parser.add_argument(
            "--cache", metavar="DIR",
            default=os.environ.get("REPRO_BENCH_CACHE") or None,
            help="cell cache directory (default: $REPRO_BENCH_CACHE)")
        sub_parser.add_argument(
            "--results-dir", metavar="DIR", default=None,
            help="committed record store whose cells are kept "
                 "(default: benchmarks/results when it exists)")
    cache_sub.choices["prune"].add_argument(
        "--dry-run", action="store_true",
        help="report what would be deleted without deleting")
    cache_sub.choices["stats"].add_argument(
        "--json", action="store_true",
        help="machine-readable stats (shares the server's serializers)")
    return parser


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _print_cache_stats(cache: Optional[ResultCache]) -> None:
    """One machine-greppable line: how the cell cache behaved this run."""
    if cache is not None:
        print(f"[cache] hits={cache.hits} misses={cache.misses} "
              f"dir={cache.directory}")


def _print_fleet_stats(core: ServiceCore) -> None:
    """One machine-greppable line: what the work-queue fleet did this run."""
    stats = core.fleet_stats
    if stats.active():
        recovery = ""
        if stats.reconnects or stats.replayed:
            # Only fleet runs that actually rode out broker downtime
            # grow the line — healthy runs stay byte-stable.
            recovery = (f" reconnects={stats.reconnects} "
                        f"replayed={stats.replayed}")
        print(f"[fleet] leased={stats.leased} completed={stats.completed} "
              f"retried={stats.retried} dead={stats.dead} "
              f"duplicates={stats.duplicates} expired={stats.expired}"
              f"{recovery}")


def _fleet_options(args: argparse.Namespace) -> FleetOptions:
    """The fleet configuration one CLI invocation asks for.

    ``--broker`` only means anything under ``--executor fleet``; an
    ambient ``REPRO_FLEET_BROKER`` with any other executor is silently
    unused, exactly like ``REPRO_BENCH_CACHE`` without a cache consumer.
    """
    broker = getattr(args, "broker", None)
    if broker and getattr(args, "executor", "fleet") == "fleet":
        return FleetOptions(broker=broker)
    return FleetOptions()


def _default_results_dir() -> Optional[Path]:
    """``benchmarks/results`` when run from the repo root, else nothing."""
    candidate = Path("benchmarks")
    return candidate / "results" if candidate.is_dir() else None


def _results_dir(args: argparse.Namespace) -> Optional[Path]:
    """The record store one invocation names: ``--results-dir`` or default."""
    return (Path(args.results_dir) if args.results_dir
            else _default_results_dir())


def _save_record(record, *, results_dir: Optional[Path],
                 explicit: Optional[str]) -> None:
    """Persist a finalized run record and report where it landed.

    ``explicit`` (``--record PATH``) wins over the results directory;
    with neither, nothing is written.
    """
    if explicit:
        target = save_record(record, Path(explicit))
    elif results_dir is not None:
        target = ResultsStore(results_dir).save(record)
    else:
        return
    print(f"[record] wrote {target} run_id={record.run_id}")


def _run_bench(args: argparse.Namespace) -> int:
    """Run one catalog bench; write its results table and run record.

    A thin adapter: execution, recording, and caching all happen inside
    :meth:`repro.service.ServiceCore.run_bench` (the same path the
    benches and ``POST /run`` use); this function only owns the CLI's
    write policy and output.
    """
    results_dir = _results_dir(args)
    write = args.trials is None and results_dir is not None
    if args.trials is not None and args.results_dir:
        print("[run] --trials overrides the bench statistics; not writing "
              "the results table", file=sys.stderr)
        write = False
    core = ServiceCore(results_dir=results_dir, cache=args.cache or None,
                       fleet=_fleet_options(args))
    run = core.run_bench(args.target, full=args.full, n_trials=args.trials,
                         executor=args.executor,
                         max_workers=args.max_workers)
    for block in run.blocks:
        print(block)
    if write:
        # Replace (never stack onto) any stale table, and only once the
        # whole bench has succeeded.
        results_dir.mkdir(parents=True, exist_ok=True)
        out_path = results_dir / f"{run.definition.result_stem}.txt"
        out_path.write_text("".join(run.blocks))
        print(f"[run] wrote {out_path}")
        _save_record(run.record, results_dir=results_dir,
                     explicit=args.record)
    elif args.record:
        # --trials overrides change the statistics and digests; an
        # explicit --record still captures them (clearly not a
        # baseline), but nothing lands in the shared results dir.
        _save_record(run.record, results_dir=None, explicit=args.record)
    _print_cache_stats(core.cache)
    _print_fleet_stats(core)
    return 0


def _run_spec(args: argparse.Namespace, path: Path) -> int:
    """Run a TOML experiment spec; print its table, optionally record it."""
    spec = ExperimentSpec.from_toml(path)
    core = ServiceCore(cache=args.cache or None, fleet=_fleet_options(args))
    run = core.run_spec(spec, executor=args.executor, n_trials=args.trials,
                        max_workers=args.max_workers)
    print(run.block)
    if args.record:
        _save_record(run.record, results_dir=None, explicit=args.record)
    _print_cache_stats(core.cache)
    _print_fleet_stats(core)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.target)
    if args.target.endswith(".toml") or path.is_file():
        if not path.is_file():
            print(f"error: spec file {args.target!r} does not exist",
                  file=sys.stderr)
            return 1
        return _run_spec(args, path)
    return _run_bench(args)


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        core = ServiceCore(results_dir=_default_results_dir())
        print(json.dumps(list_payload(core), indent=1, sort_keys=True))
        return 0
    print("catalog scenarios (python -m repro run <name>):")
    for name in bench_names():
        definition = bench(name)
        panels = len(definition.panels)
        print(f"  {name}  ({panels} panel{'s' if panels != 1 else ''} -> "
              f"results/{definition.result_stem}.txt)")
    for section, registry in ALL_REGISTRIES:
        print(f"\n{section}:")
        for name in registry.names():
            print(f"  {name}")
    return 0


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def _cmd_diff(args: argparse.Namespace) -> int:
    """Compare two run records; exit 0/1/2 by drift class, 3 on errors."""
    if (args.run_b is None) == (args.against_catalog is None):
        print("error: pass exactly one of <run-b> or --against-catalog NAME",
              file=sys.stderr)
        return 3
    try:
        record_a = load_record(args.run_a)
        if args.against_catalog is None:
            label_b, record_b = args.run_b, load_record(args.run_b)
        else:
            definition = bench(args.against_catalog)
            core = ServiceCore(results_dir=_results_dir(args))
            record_b = core.load_record(definition.result_stem)
            label_b = f"baseline {core.store().path_for(record_b.result_stem)}"
    except (ResultsError, UnknownNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    diff = diff_records(record_a, record_b, a_label=str(args.run_a),
                        b_label=label_b)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=1, sort_keys=True))
    else:
        print(diff.format_summary())
    return diff.exit_code


# ---------------------------------------------------------------------------
# results list / show
# ---------------------------------------------------------------------------

def _cmd_results_list(args: argparse.Namespace) -> int:
    """Enumerate every run record in a store directory."""
    directory = Path(args.dir) if args.dir else _default_results_dir()
    if directory is None or not directory.is_dir():
        print("error: no record store directory (pass --dir DIR)",
              file=sys.stderr)
        return 1
    paths = ServiceCore(results_dir=directory).store().runs()
    if not paths:
        print(f"[results] dir={directory} runs=0")
        return 0
    for path in paths:
        try:
            record = load_record(path)
        except ResultsError as exc:
            print(f"  {path.name}: UNREADABLE ({exc})", file=sys.stderr)
            continue
        print(f"  {path.name}  name={record.name} kind={record.kind} "
              f"run_id={record.run_id} panels={len(record.panels)} "
              f"cells={record.n_cells()} executor={record.executor} "
              f"v{record.package_version}")
    return 0


def _cmd_results_show(args: argparse.Namespace) -> int:
    """Print one record's provenance header and its rebuilt tables."""
    try:
        record = load_record(args.record)
    except ResultsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record.to_dict(), indent=1, sort_keys=True))
        return 0
    print(f"run record {args.record}")
    print(f"  name={record.name} kind={record.kind} full={record.full}")
    print(f"  run_id={record.run_id} config_digest={record.config_digest}")
    print(f"  schema={record.schema_version} engine={record.engine_version} "
          f"package={record.package_version} executor={record.executor}")
    for i, panel in enumerate(record.panels):
        print(f"  panel[{i}] seed={panel.seed} trials={panel.n_trials} "
              f"cells={len(panel.cells)} "
              f"fingerprint={panel.point_fingerprint[:16]}…")
    print(record.format_tables(), end="")
    return 0


# ---------------------------------------------------------------------------
# cache stats / prune
# ---------------------------------------------------------------------------

def _cache_dir(args: argparse.Namespace) -> Optional[Path]:
    if not args.cache:
        print("error: no cache directory (pass --cache DIR or set "
              "REPRO_BENCH_CACHE)", file=sys.stderr)
        return None
    path = Path(args.cache)
    if not path.is_dir():
        print(f"error: cache directory {path} does not exist",
              file=sys.stderr)
        return None
    return path


def _record_store(args: argparse.Namespace):
    """The record store whose cells cache maintenance keeps: ``(dir, ok)``.

    An explicitly passed ``--results-dir`` that does not exist is an
    error (the caller asked for pins that cannot be read); an absent
    default is merely "no records here" and returns ``(None, True)``.
    """
    path = _results_dir(args)
    if path is not None and path.is_dir():
        return path, True
    if args.results_dir:
        print(f"error: results directory {path} does not exist",
              file=sys.stderr)
        return None, False
    return None, True


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    path = _cache_dir(args)
    if path is None:
        return 1
    store, ok = _record_store(args)
    if not ok:
        return 1
    core = ServiceCore()
    # Load each record once: it feeds both the keep-set below and the
    # store-size report.
    runs = ResultsStore(store).runs() if store is not None else []
    records = [load_record(p) for p in runs]
    split = core.scan_cache(
        path, set().union(*(r.cell_digests() for r in records)))
    record_entries = []
    if store is not None:
        record_entries.append(record_store_entry(
            store, runs, cells=sum(r.n_cells() for r in records)))
    if args.json:
        print(json.dumps(cache_stats_payload(path, split, record_entries,
                                             fleet=core.fleet_stats),
                         indent=1, sort_keys=True))
        return 0
    total = split["claimed"] + split["baseline"] + split["orphaned"]
    size = sum(cell.stat().st_size for cell in total)
    print(f"[cache] dir={path} cells={len(total)} bytes={size} "
          f"claimed={len(split['claimed'])} "
          f"baseline={len(split['baseline'])} "
          f"orphaned={len(split['orphaned'])}")
    for entry in record_entries:
        print(f"[records] dir={entry['dir']} runs={entry['runs']} "
              f"cells={entry['cells']} bytes={entry['bytes']}")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    path = _cache_dir(args)
    if path is None:
        return 1
    store, ok = _record_store(args)
    if not ok:
        return 1
    if store is None:
        # Pruning without a keep-set would delete exactly the cells the
        # committed records promise to pin — say so out loud instead of
        # silently downgrading (e.g. when run outside the repo root).
        print("[prune] warning: no results directory found (pass "
              "--results-dir DIR or run from the repo root); "
              "record-pinned cells are NOT protected in this run",
              file=sys.stderr)
        keep = set()
    else:
        keep = baseline_digests(store)
    split = ServiceCore().prune_cache(path, keep, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    kept = len(split["claimed"]) + len(split["baseline"])
    print(f"[prune] dir={path} kept={kept} {verb}={len(split['orphaned'])} "
          f"(catalog={len(split['claimed'])}, "
          f"baseline={len(split['baseline'])})")
    return 0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP server over one service core; blocks until Ctrl-C."""
    # Imported lazily: the asyncio server machinery is dead weight for
    # every other subcommand.
    from .server import serve as serve_forever
    core = ServiceCore(results_dir=_results_dir(args),
                       cache=args.cache or None, fleet=_fleet_options(args))
    return serve_forever(core, host=args.host, port=args.port)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The networked-fleet processes own their argument surfaces (they
    # are long-running daemons, not catalog commands); dispatch before
    # the main parser so their --help and defaults live in one place.
    if argv[:1] == ["broker"]:
        from .fleet.net.server import main as broker_main
        return broker_main(argv[1:])
    if argv[:1] == ["fleet-worker"]:
        from .fleet.net.worker import main as worker_main
        return worker_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "results":
            if args.results_command == "list":
                return _cmd_results_list(args)
            return _cmd_results_show(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cache":
            if args.cache_command == "stats":
                return _cmd_cache_stats(args)
            return _cmd_cache_prune(args)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")
