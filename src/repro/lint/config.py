"""Path policy of the determinism-contract rules.

Rules are scoped by *module path* -- the path of a file from the package
root (or the ``benchmarks`` directory) down, in posix form
(``repro/simulator/engine.py``).  Keeping the policy in one module
(instead of inside each rule) makes the exemptions reviewable: this is the
one place a contract hole is declared, and every entry here is a
deliberate, documented one.  No comment in a linted file can open a hole.
"""

from __future__ import annotations

from typing import Tuple

#: The only module allowed to construct ``random.Random`` streams: every
#: other module must go through its ``derive_rng`` (SHA-256-keyed) factory,
#: which is what keeps fault draws replayable across processes (RL02).
RNG_FACTORY_MODULES: Tuple[str, ...] = ("repro/faults/distributions.py",)

#: The two benchmark-timing modules allowed to read host clocks from the
#: ``time`` module: a benchmark report measures real wall and CPU time, and
#: every other timer goes through these two.  The rest of RL02 (datetime,
#: uuid, global RNG, ``id()``) still applies to them.
WALL_CLOCK_MODULES: Tuple[str, ...] = (
    "repro/experiments/timed.py",
    "benchmarks/observatory/clock.py",
)

#: Modules whose file writes persist shared, replayable state (results
#: stores, archived failure traces, spec files).  Any ``open(.., "w")`` /
#: ``os.replace`` here must go through the :mod:`repro.fslock`
#: atomic-replace helper (RL04).
GUARDED_WRITE_MODULES: Tuple[str, ...] = (
    "repro/campaign/",
    "repro/faults/trace.py",
)

#: The helper that implements the locked atomic-replace discipline itself.
FSLOCK_MODULE = "repro/fslock.py"


def module_is_guarded_write(module: str) -> bool:
    if module == FSLOCK_MODULE:
        return False
    return any(
        module == entry or (entry.endswith("/") and module.startswith(entry))
        for entry in GUARDED_WRITE_MODULES
    )
