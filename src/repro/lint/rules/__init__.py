"""Rule modules, and one instance of every rule they define."""

from repro.lint.rules.rl02_nondeterminism import NondeterminismSourceRule
from repro.lint.rules.rl03_iteration_order import IterationOrderRule
from repro.lint.rules.rl04_locked_writes import LockedWriteRule
from repro.lint.rules.rl08_equal_time_ties import EqualTimeTieRule

RULES = (NondeterminismSourceRule(), IterationOrderRule(), LockedWriteRule(), EqualTimeTieRule())
