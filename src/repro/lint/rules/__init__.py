"""Rule modules. Importing this package populates the registry."""

from repro.lint.rules import (  # noqa: F401
    rl01_rng,
    rl02_wallclock,
    rl03_iteration_order,
    rl04_locked_writes,
    rl05_frozen_spec,
    rl06_metric_namespace,
    rl08_equal_time_ties,
    rl09_engine_identity,
)
