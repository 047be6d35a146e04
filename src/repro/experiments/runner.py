"""``repro-experiment`` / ``python -m repro.experiments``: the one entry point.

Usage::

    repro-experiment list
    repro-experiment table1 --nprocs 64 --benchmarks bt cg --workers 2
    repro-experiment figure5 --help
    repro-experiment hybrid --report .

The flags of an entry are read off the keyword signature of its ``run``
(name, type and default), so a parameter list is written once.  Three flags
belong to the runner: ``--workers`` and ``--store`` on every entry whose
``run`` goes through the campaign runner, and ``--report DIR`` on all of
them -- "benchmark = experiment + timer": time ``run``, evaluate the
entry's ``checks`` and write ``DIR/BENCH_<name>.json`` (summary,
``elapsed_s``, ``checks``); the exit status is 1 if a check is false.
"""

from __future__ import annotations

import argparse
import collections.abc
import inspect
import json
import os
import sys
import typing
from typing import Any, Callable, Optional, Sequence

from repro.campaign.store import ResultsStore
from repro.errors import ReproError
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.timed import timed
from repro.fslock import atomic_write_json

_RUNNER_FLAGS = {
    "workers": dict(type=int, default=1, help="campaign worker processes"),
    "store": dict(default=None, metavar="PATH", help="JSON campaign results store (cache)"),
}


def add_flags(parser: argparse.ArgumentParser, run: Callable[..., Any]) -> None:
    """One ``--flag`` per keyword parameter of ``run``.

    ``bool`` parameters become switches, ``Sequence[T]`` parameters take one
    or more values, ``Optional[T]`` is ``T`` with default ``None``.
    """
    hints = typing.get_type_hints(run)
    for name, parameter in inspect.signature(run).parameters.items():
        flag = "--" + name.replace("_", "-")
        if name in _RUNNER_FLAGS:
            parser.add_argument(flag, **_RUNNER_FLAGS[name])
            continue
        hint = hints[name]
        if typing.get_origin(hint) is typing.Union:  # Optional[T]
            hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
        if hint is bool:
            parser.add_argument(flag, action="store_true", default=parameter.default)
        elif typing.get_origin(hint) is collections.abc.Sequence:
            parser.add_argument(flag, type=typing.get_args(hint)[0], nargs="+",
                                default=parameter.default,
                                help=f"one or more values (default: {parameter.default})")
        else:
            parser.add_argument(flag, type=hint, default=parameter.default,
                                help=f"(default: {parameter.default})")


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce one artefact of the paper's evaluation, by name.",
    )
    commands = parser.add_subparsers(dest="name", required=True, metavar="<name>")
    commands.add_parser("list", help="print every entry: name, paper artefact, summary")
    for entry in EXPERIMENTS.values():
        command = commands.add_parser(
            entry.name,
            help=entry.title,
            description=inspect.cleandoc(entry.run.__doc__),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        add_flags(command, entry.run)
        command.add_argument(
            "--report", default=None, metavar="DIR",
            help="time the run, evaluate the entry's checks and write "
                 "DIR/BENCH_<name>.json; exit 1 if a check is false",
        )
    params = vars(parser.parse_args(argv))
    name = params.pop("name")
    if name == "list":
        for entry in EXPERIMENTS.values():
            print(f"{entry.name:22s}{entry.artefact:25s}{entry.title}")
        return 0
    entry = EXPERIMENTS[name]
    report_dir = params.pop("report")
    if params.get("store") is not None:
        params["store"] = ResultsStore(params["store"])
    result, elapsed_s = timed(entry.run, **params)
    print(entry.render(result, params))
    if report_dir is None:
        return 0
    checks = entry.checks(result)
    path = os.path.join(report_dir, f"BENCH_{name.replace('-', '_')}.json")
    atomic_write_json(
        path,
        {**entry.summary(result, elapsed_s), "elapsed_s": round(elapsed_s, 3), "checks": checks},
    )
    print(f"wrote {path}", file=sys.stderr)
    failed = [check for check, holds in checks.items() if not holds]
    if failed:
        print(f"repro-experiment: {name}: failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        # User errors (bad store files, unknown benchmark or protocol names)
        # get a one-line message, not a traceback.
        print(f"repro-experiment: error: {exc}", file=sys.stderr)
        return 2
