"""Strike anywhere: message logging recovers from a strike at every instant.

The harsh-sweep scenario (16-rank stencil2d, 6 iterations, checkpoint
interval 1) runs once failure-free, recording every distinct ``engine.now``
its loop passes through.  Then, for each of those instants, one strike on
each of ranks 1, 5, 10 and 14; on every 4th instant also two double strikes
per rank r, the second one 150 us later on ``(r + 5) mod 16``, a rank r
does not talk to, or on ``(r + 1) mod 16``, a neighbour: re-executing r may
still hold messages that neighbour replayed to it when the neighbour fails.
Every struck run must complete and reproduce the protocol's own
failure-free run: the same rank results (``check_recovery_equivalence``)
and the same effective send sequences (``check_send_determinism``).

Sampling strike times (the harsh Monte Carlo sweep) finds a recovery window
only when a draw happens to land in it; enumerating the instants finds every
window the run has.  One test case per instant, so a red case names it.

The last test strikes one rank twice, under every protocol: a rank that
rolls back a second time restores either the checkpoint it restored before
or one it took after the first rollback, and its logical send sequence must
still be the failure-free one.
"""

import dataclasses
import functools

import pytest

from repro.analysis.efficiency import baseline_spec
from repro.core.invariants import check_recovery_equivalence, check_send_determinism
from repro.errors import ReproError
from repro.scenarios.build import build
from repro.simulator.failures import FailureEvent

PROTOCOL = "message-logging"
STRUCK_RANKS = (1, 5, 10, 14)
SECOND_STRIKE_EVERY = 4
SECOND_STRIKE_OFFSETS = (5, 1)
SECOND_STRIKE_DELAY_S = 150e-6
#: distinct event instants of the failure-free run (including t = 0).
INSTANTS = 87


def _traced(spec):
    return dataclasses.replace(
        spec, execution="exact", config={**spec.config, "record_trace_events": True}
    )


@functools.lru_cache(maxsize=None)
def _failure_free():
    """The traced failure-free run and every distinct instant it visits.

    The engine's run is handed a stop predicate that never stops it and
    records the clock before each event: t = 0 and the instant of every
    event but the last.  The engine's completion flag stops the run before
    the predicate is asked again, so the last event's instant is the clock
    the run ends on.
    """
    sim = build(_traced(baseline_spec(PROTOCOL)))
    engine = sim.engine
    instants = set()

    def record_instant():
        instants.add(engine.now)
        return False

    engine.run = functools.partial(engine.run, stop_predicate=record_instant)
    result = sim.run()
    instants.add(engine.now)
    return result, tuple(sorted(instants))


def _strikes(index, instant):
    for rank in STRUCK_RANKS:
        yield (FailureEvent(ranks=(rank,), time=instant),)
        if index % SECOND_STRIKE_EVERY == 0:
            for offset in SECOND_STRIKE_OFFSETS:
                yield (
                    FailureEvent(ranks=(rank,), time=instant),
                    FailureEvent(
                        ranks=((rank + offset) % 16,), time=instant + SECOND_STRIKE_DELAY_S
                    ),
                )


def test_the_failure_free_run_has_the_pinned_instants():
    result, instants = _failure_free()
    assert result.status == "completed"
    assert len(instants) == INSTANTS


@pytest.mark.parametrize("index", range(INSTANTS), ids=lambda index: f"instant{index:02d}")
def test_every_strike_at_this_instant_recovers_to_the_baseline(index):
    baseline, instants = _failure_free()
    spec = _traced(baseline_spec(PROTOCOL))
    wrong = []
    for failures in _strikes(index, instants[index]):
        strikes = [(event.ranks[0], event.time) for event in failures]
        try:
            run = build(dataclasses.replace(spec, failures=failures)).run()
            check_recovery_equivalence(baseline, run)
            check_send_determinism(baseline.trace, run.trace)
        except ReproError as error:
            wrong.append((strikes, f"{type(error).__name__}: {str(error)[:120]}"))
    assert wrong == []


#: protocols struck twice, and the two strike instants as fractions of each
#: protocol's 16-iteration failure-free makespan.
REPEAT_PROTOCOLS = ("coordinated", "hydee", "message-logging")
FIRST_STRIKES = (0.1, 0.2, 0.3)
SECOND_STRIKES = (0.5, 0.6, 0.8)


@pytest.mark.parametrize("protocol", REPEAT_PROTOCOLS)
def test_a_rank_struck_twice_recovers_to_the_baseline(protocol):
    spec = _traced(baseline_spec(protocol, iterations=16))
    baseline = build(spec).run()
    wrong = []
    for a in FIRST_STRIKES:
        for b in SECOND_STRIKES:
            failures = (
                FailureEvent(ranks=(1,), time=a * baseline.makespan),
                FailureEvent(ranks=(1,), time=b * baseline.makespan),
            )
            try:
                run = build(dataclasses.replace(spec, failures=failures)).run()
                check_recovery_equivalence(baseline, run)
                check_send_determinism(baseline.trace, run.trace)
            except ReproError as error:
                wrong.append(((a, b), f"{type(error).__name__}: {str(error)[:120]}"))
    assert wrong == []
