"""Rule modules. Importing this package populates the registry."""

from repro.lint.rules import (  # noqa: F401
    rl02_nondeterminism,
    rl03_iteration_order,
    rl04_locked_writes,
    rl08_equal_time_ties,
)
