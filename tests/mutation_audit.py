"""Mutation audit: which checker catches which product bug.

Each catalogue entry is one ``(file, old, new)`` edit of the product code
under ``src/repro``: a known bug, the revert of a fix, or a tie-order
hazard.  The audit copies the checkout to a temporary directory, applies
one edit there, and runs every checker against the copy:

``tier-1``
    ``python -m pytest -x -q`` (the whole suite, strike-anywhere grid
    included) without the two tests that run repro-lint over the tree
    (``SHIPPED_TREE_LINT``): they are the next column, and with them every
    lint finding would read as a tier-1 catch too;
``repro-lint``
    ``python -m repro.lint src/repro``.

A checker *catches* an edit when it exits non-zero (or runs past its
timeout).  The first row is the unmutated checkout, which every checker must
pass.  Run from the repository root::

    python -m tests.mutation_audit    # every entry, about 30 min

Exit status: 0 when the baseline row passes every checker and every entry is
caught by at least one; 1 otherwise; 2 when an entry's ``old`` text is not
found exactly once (the catalogue went stale).  The audit is its own CI job,
not part of tier-1: every row runs the whole suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800

ML = "src/repro/ftprotocols/message_logging.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    what: str
    file: str
    old: str
    new: str


CATALOGUE: Tuple[Mutant, ...] = (
    Mutant(
        "m1-per-entry-replay",
        "message logging replays one event per log entry (tie order)",
        ML,
        """                    self.pstats.replayed_messages += 1
                self.sim.engine.schedule(
                    request_delay, self._replay_channel, list(entries)
                )
""",
        """                    self.pstats.replayed_messages += 1
                    self.sim.engine.schedule(request_delay, self._replay_channel, [entry])
""",
    ),
    Mutant(
        "ml-fix-b-reverted",
        "survivors fall back to the delivered seq, not below the lowest purged one",
        ML,
        """                if source in lowest:
                    state.arrived_seq[source] = lowest[source] - 1
""",
        """                state.arrived_seq[source] = state.recv_seq.get(source, 0)
""",
    ),
    Mutant(
        "ml-fix-c-reverted",
        "a restored rank does not replay its log to the survivors",
        ML,
        """                entries = log.entries_for(receiver, after_date=after)
                if entries:
""",
        """                entries = log.entries_for(receiver, after_date=after)
                if False:
""",
    ),
    Mutant(
        "arrival-reset-reverted",
        "survivors keep a failed sender's arrival watermark and stash",
        ML,
        """            for source in failed:
                if source in lowest:
                    state.arrived_seq[source] = lowest[source] - 1
                state.stash.pop(source, None)
""",
        "",
    ),
    Mutant(
        "joined-session-reverted",
        "HydEE rejects a strike during an active recovery session",
        "src/repro/core/protocol.py",
        """            clusters += self.clusters_of_ranks(active.report.rolled_back_ranks)
            time = active.report.started_at
""",
        """            raise ProtocolError("a failure occurred while a recovery session is active")
""",
    ),
    Mutant(
        "tie-strikes-fanned-out",
        "strikes armed by one boundary land as one event each (tie order)",
        "src/repro/simulator/failures.py",
        """        self._sim.engine.schedule(0.0, self._fire_armed_batch, indices)
""",
        """        for index in indices:
            self._sim.engine.schedule(0.0, self._fire_armed_batch, [index])
""",
    ),
    Mutant(
        "tie-no-hold-back",
        "message logging releases an early arrival instead of stashing it (tie order)",
        ML,
        """        if seq > last + 1:
            state.stash.setdefault(source, {})[seq] = message
            return ()  # held back, not suppressed
""",
        "",
    ),
    Mutant(
        "blocking-send-rebuilt-per-retry",
        "a deferred blocking send is offered again as a new message, dated a second time",
        "src/repro/simulator/simulation.py",
        """            cpu = self._attempt_send(proc, message, request)
""",
        """            offered = message if request is not None else Message(
                proc.rank, message.dest, message.tag, message.size_bytes, message.payload
            )
            cpu = self._attempt_send(proc, offered, request)
""",
    ),
    Mutant(
        "sends-rewind-reverted",
        "a restarted rank keeps its raw send count, not its checkpoint's",
        "src/repro/simulator/simulation.py",
        """        proc.sends_initiated = sends_at_checkpoint
""",
        "",
    ),
    Mutant(
        "epoch-receives-not-applied",
        "a batched hybrid span does not advance the per-rank receive count",
        "src/repro/simulator/hybrid.py",
        """            rstats.receives += n * delta["rstats.receives"][rank]
""",
        "",
    ),
    Mutant(
        "ckpt-option-checks-reverted",
        "coordinated and message logging accept a checkpoint interval below 1",
        "src/repro/ftprotocols/base.py",
        """        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1 or None")
        if checkpoint_size_bytes < 0:
            raise ConfigurationError("checkpoint_size_bytes must be >= 0")
""",
        "",
    ),
    Mutant(
        "rl03-rollback-set-order",
        "HydEE sends its rollback notifications in set order (iteration order)",
        "src/repro/core/protocol.py",
        """        for rank in sorted(rolled):
""",
        """        for rank in rolled:
""",
    ),
    Mutant(
        "rl04-bare-store-write",
        "the results store is written with a bare open(), not an atomic replace",
        "src/repro/campaign/store.py",
        """            atomic_write_text(path, _HEADER + body + trailer)
""",
        """            with open(path, "w") as handle:
                handle.write(_HEADER + body + trailer)
""",
    ),
    Mutant(
        "rl02-unkeyed-fault-rng",
        "fault traces draw from an unkeyed random.Random()",
        "src/repro/faults/trace.py",
        """        rng = derive_rng("repro.faults.trace", spec_key, nprocs, label)
""",
        """        from random import Random
        rng = Random()
""",
    ),
    Mutant(
        "halt-ignores-armed-fires",
        "the completion flag is set while a strike armed by the last iteration is queued",
        "src/repro/simulator/simulation.py",
        """        self.engine.halt = self._done_count == self.nprocs and (
            injector is None or injector.armed_fires == 0
        )
""",
        """        self.engine.halt = self._done_count == self.nprocs
""",
    ),
    Mutant(
        "enum-member-on-hot-path",
        "matching reads RankState.FAILED through the Enum class on every arrival",
        "src/repro/simulator/process.py",
        """        if self.state is _FAILED:
            return
        if message.dest == self.rank:
""",
        """        if self.state is RankState.FAILED:
            return
        if message.dest == self.rank:
""",
    ),
    Mutant(
        "probe-verifies-nothing",
        "the batching probe returns its last delta without comparing it to the first",
        "src/repro/simulator/hybrid.py",
        """        delta, self.probe_mismatch = self._verified_delta(states, anchors)
""",
        """        delta, self.probe_mismatch = self._verified_delta(states[1:], anchors)
""",
    ),
    Mutant(
        "store-key-fallback-dropped",
        "a store line's sliced key is trusted even with a backslash (an escape) in it",
        "src/repro/campaign/store.py",
        r"""            if end < 0 or "\\" in key or '"' in key:
""",
        """            if end < 0 or '"' in key:
""",
    ),
    Mutant(
        "metric-tree-unvalidated",
        "a record's metric tree is kept without the check that from_tree makes",
        "src/repro/results/metrics.py",
        """            if type(tree) is dict and _well_formed(tree):
""",
        """            if type(tree) is dict:
""",
    ),
    Mutant(
        "wave-fires-one-early",
        "a coordinated checkpoint's wave is released before its last member arrives",
        "src/repro/ftprotocols/base.py",
        """        if wave.arrived == wave.members:
""",
        """        if wave.arrived == wave.members - 1:
""",
    ),
    Mutant(
        "drain-check-skipped",
        "the exact wave cuts a rank without looking for an undelivered intra-cluster message",
        "src/repro/ftprotocols/base.py",
        """        if proc.unexpected:
            self._check_intra_cluster_drained(rank)
        sends_at = proc.sends_initiated
""",
        """        sends_at = proc.sends_initiated
""",
    ),
)


SHIPPED_TREE_LINT = (
    "tests/unit/test_lint.py::TestShippedTree::test_shipped_tree_is_clean",
    "tests/unit/test_lint.py::TestShippedTree::test_cli_exits_zero_on_shipped_tree",
)

#: checker name -> command, run in the mutated copy.
CHECKERS: Dict[str, List[str]] = {
    "tier-1": [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        *(arg for test in SHIPPED_TREE_LINT for arg in ("--deselect", test)),
    ],
    "repro-lint": [sys.executable, "-m", "repro.lint", "src/repro"],
}


def _copy_checkout(dest: Path) -> Path:
    checkout = dest / "checkout"
    shutil.copytree(
        ROOT, checkout,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "BENCH_*.json",
            ".observatory_work", ".bench_build", ".benchmarks",
        ),
    )
    return checkout


def edited(mutant: Mutant, checkout: Path) -> str:
    """The text of ``mutant.file`` with the edit applied; ``old`` must occur once."""
    text = (checkout / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(
            f"{mutant.name}: the text to replace occurs {text.count(mutant.old)} times "
            f"in {mutant.file}, not once"
        )
    return text.replace(mutant.old, mutant.new)


def _run(command: List[str], checkout: Path) -> str:
    """``caught`` / ``caught (timeout)`` / ``pass``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    try:
        completed = subprocess.run(
            command, cwd=checkout, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "caught (timeout)"
    return "pass" if completed.returncode == 0 else "caught"


def audit_row(mutant: Optional[Mutant]) -> Dict[str, str]:
    """Checker name -> verdict for one edit (``None``: the unmutated baseline)."""
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        checkout = _copy_checkout(Path(tmp))
        if mutant is not None:
            (checkout / mutant.file).write_text(edited(mutant, checkout))
        return {tool: _run(command, checkout) for tool, command in CHECKERS.items()}


BASELINE = "baseline (no edit)"
WIDTH = max(len(name) for name in [BASELINE, *(mutant.name for mutant in CATALOGUE)])


def caught(verdict: str) -> bool:
    return verdict.startswith("caught")


def render_row(name: str, cells: Sequence[str]) -> str:
    return "  ".join([f"{name:<{WIDTH}}", *(f"{cell:<16}" for cell in cells)]).rstrip()


def main() -> int:
    try:
        for mutant in CATALOGUE:  # a stale entry fails before any checker runs
            edited(mutant, ROOT)
    except LookupError as error:
        print(f"mutation-audit: error: {error}", file=sys.stderr)
        return 2
    print(render_row("entry", list(CHECKERS)))
    rows = []
    for name, mutant in [(BASELINE, None), *((mutant.name, mutant) for mutant in CATALOGUE)]:
        rows.append((name, audit_row(mutant)))
        print(render_row(name, list(rows[-1][1].values())), flush=True)
    baseline_trips = [tool for tool, verdict in rows[0][1].items() if caught(verdict)]
    catchers = {name: [t for t, v in verdicts.items() if caught(v)] for name, verdicts in rows[1:]}
    uncaught = [name for name, tools in catchers.items() if not tools]
    alone = {tool: [name for name, tools in catchers.items() if tools == [tool]] for tool in CHECKERS}
    print()
    for tool, names in alone.items():
        print(f"caught by {tool} alone: {', '.join(names) or 'none'}")
    if baseline_trips:
        print(f"mutation-audit: the unmutated checkout trips {', '.join(baseline_trips)}")
    if uncaught:
        print(f"mutation-audit: no checker catches {', '.join(uncaught)}")
    return 1 if baseline_trips or uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
