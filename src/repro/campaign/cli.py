"""Command-line campaign runner: ``python -m repro.campaign`` / ``repro-campaign``.

Subcommands
-----------

``run SPECFILE``
    Execute every scenario in a JSON spec file (one spec object or a list),
    optionally fanned out over worker processes and cached in a results
    store::

        repro-campaign run specs.json --workers 4 --store results.json

``list SPECFILE``
    Show the scenarios and their cache hashes without running anything.

``query STORE [STORE...]``
    Query cached results without re-running anything::

        repro-campaign query results.json --table table1
        repro-campaign query results.json --where protocol=hydee \\
            --select tags.benchmark sim.makespan
        repro-campaign query results.json \\
            --pivot tags.oversubscription tags.protocol sim.makespan

``demo``
    Write an example sweep (stencil/ring x protocol grid) to a spec file to
    get started::

        repro-campaign demo --out specs.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultsStore
from repro.errors import ReproError
from repro.fslock import atomic_write_json
from repro.results.query import ResultSet
from repro.results.tables import TableSchema
from repro.scenarios.spec import ProtocolSpec, ScenarioSpec, WorkloadSpec, load_specs
from repro.scenarios.sweep import sweep


def _read_specs(path: str) -> List[ScenarioSpec]:
    with open(path, encoding="utf-8") as fh:
        return list(load_specs(json.load(fh)))


def _demo_specs() -> List[ScenarioSpec]:
    base = ScenarioSpec(
        name="demo",
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=6),
        protocol=ProtocolSpec(name="none"),
    )
    return sweep(
        base,
        {
            "workload.kind": ["stencil2d", "ring"],
            "workload.nprocs": [8, 16],
            "protocol.name": ["none", "hydee-log-all"],
        },
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except (ReproError, OSError, json.JSONDecodeError, TypeError) as exc:
        # User errors (bad paths, malformed spec files, unknown names) get a
        # one-line message, not a traceback.
        print(f"repro-campaign: error: {exc}", file=sys.stderr)
        return 2


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign", description="Run declarative scenario campaigns."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute the scenarios in a spec file")
    run_parser.add_argument("specfile", help="JSON file with one spec or a list of specs")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (1 = serial)")
    run_parser.add_argument("--store", default=None,
                            help="JSON results store (cache) path")
    run_parser.add_argument("--force", action="store_true",
                            help="re-execute scenarios even when cached")
    run_parser.add_argument("--json", action="store_true", dest="as_json",
                            help="print the records as JSON instead of a table")

    list_parser = sub.add_parser("list", help="list the scenarios in a spec file")
    list_parser.add_argument("specfile")

    query_parser = sub.add_parser(
        "query", help="query cached results stores"
    )
    query_parser.add_argument("stores", nargs="*",
                              help="one or more results-store JSON files "
                                   "(optional with --list-tables)")
    query_parser.add_argument("--where", action="append", default=[],
                              metavar="PATH=VALUE",
                              help="filter on a spec field / tag / metric "
                                   "(repeatable; e.g. protocol=hydee, "
                                   "tags.benchmark=cg, sim.ranks_rolled_back=4)")
    query_parser.add_argument("--select", nargs="+", default=None, metavar="PATH",
                              help="print these dotted-path fields, one row per run")
    query_parser.add_argument("--table", default=None,
                              help="rebuild a registered analysis table "
                                   "(see --list-tables)")
    query_parser.add_argument("--pivot", nargs=3, default=None,
                              metavar=("INDEX", "COLUMN", "VALUE"),
                              help="pivot runs: INDEX rows x COLUMN columns of VALUE")
    query_parser.add_argument("--format", choices=("text", "csv", "json"),
                              default="text", dest="fmt")
    query_parser.add_argument("--list-tables", action="store_true",
                              help="list the registered table schemas and exit")

    demo_parser = sub.add_parser("demo", help="write an example spec file")
    demo_parser.add_argument("--out", default="campaign-specs.json")

    args = parser.parse_args(argv)

    if args.command == "query":
        return _query(args)

    if args.command == "demo":
        specs = _demo_specs()
        atomic_write_json(args.out, [s.to_dict() for s in specs])
        print(f"wrote {len(specs)} scenarios to {args.out}")
        print(f"run them with: repro-campaign run {args.out} --workers 2")
        return 0

    specs = _read_specs(args.specfile)
    if args.command == "list":
        for spec in specs:
            print(f"{spec.spec_hash()}  {spec.name:40s} {spec.describe()}")
        return 0

    store = ResultsStore(args.store) if args.store else None
    outcome = run_campaign(
        specs, workers=args.workers, store=store, force=args.force
    )
    if args.as_json:
        json.dump(outcome.records, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print(outcome.summary_table())
    if args.store:
        print(f"results store: {args.store} ({len(store)} records)")
    return 0


def _parse_filters(pairs: Sequence[str]) -> Dict[str, Any]:
    filters: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--where expects PATH=VALUE, got {pair!r}")
        path, _, raw = pair.partition("=")
        try:
            filters[path] = json.loads(raw)
        except json.JSONDecodeError:
            filters[path] = raw
    return filters


def _query(args: argparse.Namespace) -> int:
    if args.list_tables:
        for name, schema in sorted(_tables().items()):
            derivable = "" if schema.rows is not None else "  (live-only)"
            print(f"{name:16s} {schema.title}{derivable}")
        return 0
    if not args.stores:
        raise ReproError("query needs at least one results-store file")

    # A missing path means a fresh cache for `run --store`, but for a query
    # it can only be a typo: fail instead of reporting an empty store.
    import os

    for path in args.stores:
        if not os.path.exists(path):
            raise ReproError(f"results store {path!r} does not exist")
    stores = [ResultsStore(path) for path in args.stores]

    resultset = ResultSet.from_store(*stores).where(**_parse_filters(args.where))

    if args.table:
        tables = _tables()
        if args.table not in tables:
            raise ReproError(
                f"unknown table {args.table!r}; registered: {', '.join(sorted(tables))}"
            )
        schema = tables[args.table]
        if schema.rows is None:
            raise ReproError(
                f"table {args.table!r} cannot be derived from a results store "
                "(it needs live simulation artifacts)"
            )
        print(schema.render(schema.rows(resultset), fmt=args.fmt))
        return 0

    if args.pivot:
        index, column, value = args.pivot
        rows = resultset.pivot(index, column, value)
        _print_plain_rows(rows, fmt=args.fmt)
        return 0

    if args.select:
        rows = [
            dict(zip(args.select, values))
            for values in resultset.select(*args.select)
        ]
        _print_plain_rows(rows, fmt=args.fmt)
        return 0

    rows = resultset.summary_rows()
    _print_plain_rows(rows, fmt=args.fmt,
                      title=f"{len(resultset)} cached runs")
    return 0


def _tables() -> Dict[str, TableSchema]:
    # Imported on use: only --table and --list-tables need the analysis layer.
    from repro.analysis import TABLES

    return TABLES


def _print_plain_rows(rows: List[Dict[str, Any]], fmt: str = "text",
                      title: str = "") -> None:
    """Rows of a selection, pivot or summary: their keys are the columns."""
    if fmt == "json":
        # Each row keeps only the keys it has (a pivot cell a row lacks is
        # absent, not null), unlike a schema's rows.  One write: ``dump``
        # would make one per encoded chunk.
        sys.stdout.write(json.dumps(rows, indent=1, sort_keys=False) + "\n")
    elif fmt == "csv":
        sys.stdout.write(TableSchema.of_rows(rows).render_csv(rows))
    else:
        print(TableSchema.of_rows(rows, title=title).render_text(rows))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
