"""Command line of the observatory.

Single-workload form (what ``BENCHMARK.json`` names)::

    __main__.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

``run`` / ``trace`` measure every workload, one fresh subprocess each, one
at a time, and write one result file; ``compare A.json B.json`` judges two
result files; ``manifest`` prints ``BENCHMARK.json``.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

from repro.simulator.engine import COMPILED_CORE

from . import manifest
from .clock import calibration_s
from .compare import compare_files
from .measure import end_to_end, per_layer, render
from .workloads import BY_NAME, FULL, SMOKE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: everything a run leaves behind lives here (gitignored); per-process
#: subdirectories are removed when the process ends.
WORK_ROOT = os.path.join(ROOT, ".observatory_work")
DEFAULT_SEED = 11
SUBCOMMANDS = ("run", "trace", "compare", "manifest")


# ------------------------------------------------------- single workload
def _measure_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="observatory", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repeat")
    parser.add_argument("--detail", default=None, help="also write the full result here")
    parser.add_argument("--trace-dir", default=None,
                        help="with --trace 1: write trace_<workload>.json here")
    return parser


def measure(argv: Sequence[str]) -> int:
    args = _measure_parser().parse_args(argv)
    workload = BY_NAME[args.workload]
    sizes = SMOKE if args.smoke else FULL
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        if args.trace:
            result = per_layer(workload, args.seed, args.seconds, sizes, workdir,
                               smoke=args.smoke, trace_dir=args.trace_dir)
        else:
            result = end_to_end(workload, args.seed, args.seconds, sizes, workdir,
                                smoke=args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(render(result))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ------------------------------------------------------- every workload
def _git(*arguments: str) -> str:
    try:
        done = subprocess.run(["git", *arguments], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _commit() -> str:
    """HEAD, marked when the working tree differs from it."""
    head, changes = _git("rev-parse", "HEAD"), _git("status", "--porcelain")
    return f"{head}+uncommitted" if changes not in ("", "unknown") else head


def _environment(seed: int, seconds: float, smoke: bool,
                 repeats: Dict[str, int]) -> Dict[str, Any]:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "compiled_core": COMPILED_CORE,
        "seed": seed,
        "seconds": seconds,
        "sizes": "smoke" if smoke else "full",
        "repeats": repeats,
    }


def _sweep(args: argparse.Namespace, trace: int) -> int:
    """One fresh subprocess per workload, one at a time."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    names = args.workloads or [w.name for w in WORKLOADS]
    results: Dict[str, Any] = {}
    entry = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py")
    for name in names:
        descriptor, detail = tempfile.mkstemp(prefix=f"detail-{name}-", suffix=".json",
                                              dir=WORK_ROOT)
        os.close(descriptor)
        command = [sys.executable, entry, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--detail", detail]
        if args.smoke:
            command.append("--smoke")
        if trace:
            command += ["--trace-dir", args.trace_dir]
        try:
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            # The last stdout line is the machine-readable one; show the rest.
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            with open(detail, encoding="utf-8") as handle:
                results[name] = json.load(handle)
        finally:
            os.remove(detail)
    repeats = {name: result["repeats"] for name, result in results.items()}
    report = {
        "kind": "trace" if trace else "run",
        "environment": _environment(args.seed, args.seconds, args.smoke, repeats),
        "host_calib_s": min(calibration_s() for _ in range(5)),
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(result["failed"] for result in results.values())
    print(f"wrote {args.out}: {len(results)} workloads, {failed} failed operations")
    return 1 if failed else 0


def _sweep_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"observatory {command}")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repeat")
    parser.add_argument("--workloads", nargs="+", choices=sorted(BY_NAME), default=None)
    parser.add_argument("--out", default=f"BENCH_observatory_{command}.json")
    if command == "trace":
        parser.add_argument("--trace-dir", default=os.path.join(WORK_ROOT, "traces"),
                            help="where trace_<workload>.json files go")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in SUBCOMMANDS:
        return measure(argv)
    command, rest = argv[0], argv[1:]
    if command == "manifest":
        print(json.dumps(manifest.benchmark_json(), indent=2))
        return 0
    if command == "compare":
        parser = argparse.ArgumentParser(prog="observatory compare")
        parser.add_argument("before")
        parser.add_argument("after")
        args = parser.parse_args(rest)
        return compare_files(args.before, args.after)
    return _sweep(_sweep_parser(command).parse_args(rest), trace=int(command == "trace"))
