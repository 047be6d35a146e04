"""Unit tests for the discrete-event engine and Condition primitive."""

import pytest

from repro.errors import SimulationError
from repro.simulator.engine import Condition, SimulationEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(3.0, order.append, "c")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(2.0, order.append, "b")
        assert engine.run() == "empty"
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abcde":
            engine.schedule(1.0, order.append, label)
        engine.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_run(self):
        engine = SimulationEngine()
        order = []
        entry = engine.schedule(1.0, order.append, "x")
        engine.schedule(2.0, order.append, "y")
        engine.cancel(entry)
        engine.run()
        assert "x" not in order
        assert order == ["y"]

    def test_events_scheduled_during_run_execute(self):
        engine = SimulationEngine()
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, order.append, "second")

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == 2.0

    def test_stop_predicate(self):
        engine = SimulationEngine()
        hits = []
        for i in range(5):
            engine.schedule(float(i + 1), hits.append, i)
        reason = engine.run(stop_predicate=lambda: len(hits) >= 2)
        assert reason == "stopped"
        assert len(hits) == 2

    def test_halt_flag_stops_before_the_next_event_and_the_predicate(self):
        engine = SimulationEngine()
        hits, asked = [], []

        def hit(i):
            hits.append(i)
            engine.halt = i == 2

        for i in range(4):
            engine.schedule(float(i + 1), hit, i)

        def predicate():
            asked.append(len(hits))
            return False

        assert engine.run(stop_predicate=predicate) == "stopped"
        assert (hits, asked, engine.now) == ([0, 1, 2], [0, 1, 2], 3.0)
        engine.halt = False
        assert engine.run() == "empty"
        assert hits == [0, 1, 2, 3]

    def test_an_entry_cancelled_twice_is_discounted_once(self):
        engine = SimulationEngine()
        order = []
        entry = engine.schedule_at(1.0, order.append, "x")
        engine.schedule_at(1.0, order.append, "y")
        engine.cancel(entry)
        engine.cancel(entry)
        assert engine.pending_events == 1
        assert engine.run() == "empty"
        assert (order, engine.events_processed) == (["y"], 1)

    def test_stop_inside_an_equal_time_group_resumes_in_order(self):
        # The group spans both queue tiers: "a" to "c" become the drain when
        # the run starts, "b2" joins the heap at the same time while "a"
        # runs.  A stop between members must leave the rest where the next
        # run resumes them in (time, seq) order.
        engine = SimulationEngine()
        order = []

        def first(label):
            order.append(label)
            engine.schedule(0.0, order.append, "b2")

        engine.schedule(1.0, first, "a")
        for label in "bc":
            engine.schedule(1.0, order.append, label)
        engine.schedule(2.0, order.append, "d")
        assert engine.run(stop_predicate=lambda: len(order) >= 1) == "stopped"
        assert (order, engine.now, engine.pending_events) == (["a"], 1.0, 4)
        assert engine.run(stop_predicate=lambda: len(order) >= 3) == "stopped"
        assert (order, engine.now, engine.pending_events) == (["a", "b", "c"], 1.0, 2)
        assert engine.run() == "empty"
        assert order == ["a", "b", "c", "b2", "d"]

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2


class TestHeapCompaction:
    """Lazy compaction of cancelled heap entries."""

    def test_cancel_heavy_schedule_triggers_compaction(self):
        engine = SimulationEngine()
        total = 4 * SimulationEngine.COMPACT_MIN_CANCELLED
        entries = [engine.schedule(float(i + 1), lambda: None) for i in range(total)]
        survivors = total // 4
        for entry in entries[survivors:]:
            engine.cancel(entry)
        # Far more cancellations than live events: the heap must have been
        # rebuilt at least once, dropping the cancelled entries.
        assert engine.pending_events == survivors
        assert engine._entry_count() < total
        assert engine._cancelled < total - survivors

    def test_cancel_heavy_schedule_still_runs_survivors_in_order(self):
        engine = SimulationEngine()
        total = 3 * SimulationEngine.COMPACT_MIN_CANCELLED
        order = []
        entries = [
            engine.schedule(float(i + 1), order.append, i) for i in range(total)
        ]
        # Cancel everything except every third event, in scattered order.
        for i, entry in enumerate(entries):
            if i % 3 != 0:
                engine.cancel(entry)
        assert engine.run() == "empty"
        assert order == list(range(0, total, 3))
        assert engine.pending_events == 0

    def test_advance_to_with_cancelled_head_events(self):
        engine = SimulationEngine()
        order = []
        early = [engine.schedule(float(i + 1), order.append, i) for i in range(3)]
        engine.schedule(10.0, order.append, "late")
        for entry in early:
            engine.cancel(entry)
        # The cancelled events head the heap; the clock jump must skip them
        # without executing anything and stop short of the live event.
        engine.advance_to(5.0)
        assert order == []
        assert engine.now == 5.0
        assert engine.pending_events == 1
        assert engine.run() == "empty"
        assert order == ["late"]

    def test_pending_events_consistent_after_peek_pops(self):
        engine = SimulationEngine()
        entries = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
        engine.cancel(entries[0])
        engine.cancel(entries[1])
        # A stop predicate that peeks before the first event: _peek_time
        # pops the two cancelled heads but executes nothing.
        assert engine.run(stop_predicate=lambda: engine._peek_time() > 0.5) == "stopped"
        assert engine.pending_events == 3
        assert engine._entry_count() == 3
        assert engine._cancelled == 0
        assert engine.run() == "empty"
        assert engine.pending_events == 0
        assert engine.events_processed == 3

    def test_peeking_stop_predicate_keeps_the_cancelled_count(self):
        # A stop predicate runs while the unbounded loop holds the drain
        # index in a local; a peek that consumed the cancelled drain entries
        # would have them discounted twice (once more when the loop pops
        # them), leaving the count negative and compaction delayed.
        engine = SimulationEngine()
        doomed = [engine.schedule(float(t), lambda: None) for t in range(2, 12)]
        engine.schedule(20.0, lambda: None)

        def cancel_all():
            for entry in doomed:
                engine.cancel(entry)

        engine.schedule(1.0, cancel_all)
        assert engine.run(stop_predicate=lambda: (engine._peek_time(), False)[1]) == "empty"
        assert engine.events_processed == 2
        assert engine._cancelled == 0

    def test_compaction_inside_a_group_keeps_the_cancelled_count(self):
        # A compaction triggered by a callback of an equal-time group drops
        # the group's own cancelled member along with the others: each is
        # discounted once, by the compaction, never again by the loop.
        engine = SimulationEngine()
        doomed = [
            engine.schedule(2.0 + i, lambda: None)
            for i in range(SimulationEngine.COMPACT_MIN_CANCELLED)
        ]
        engine.schedule(1000.0, lambda: None)
        tie = []

        def cancel_all():
            engine.cancel(tie[0])
            for entry in doomed:
                engine.cancel(entry)

        engine.schedule(1.0, cancel_all)
        tie.append(engine.schedule(1.0, lambda: None))
        assert engine.run() == "empty"
        assert engine.events_processed == 2
        assert engine._cancelled == 0

    def test_cancelling_an_executed_event_is_a_noop(self):
        engine = SimulationEngine()
        ran = []
        entry = engine.schedule(1.0, ran.append, "x")
        engine.run()
        live_before = engine.pending_events
        engine.cancel(entry)
        assert engine.run() == "empty"
        assert ran == ["x"]
        assert engine.pending_events == live_before


class TestCondition:
    def test_waiter_called_on_fire_with_value(self):
        condition = Condition("test")
        seen = []
        condition.add_waiter(seen.append)
        assert not condition.fired
        condition.fire(42)
        assert condition.fired
        assert condition.value == 42
        assert seen == [42]

    def test_waiter_added_after_fire_called_immediately(self):
        condition = Condition()
        condition.fire("done")
        seen = []
        condition.add_waiter(seen.append)
        assert seen == ["done"]

    def test_double_fire_is_idempotent(self):
        condition = Condition()
        seen = []
        condition.add_waiter(seen.append)
        condition.fire(1)
        condition.fire(2)
        assert seen == [1]
        assert condition.value == 1

    def test_multiple_waiters_called_in_registration_order(self):
        condition = Condition()
        seen = []
        condition.add_waiter(lambda _: seen.append("a"))
        condition.add_waiter(lambda _: seen.append("b"))
        condition.fire()
        assert seen == ["a", "b"]

    def test_reset_rearms_condition(self):
        condition = Condition()
        condition.fire(1)
        condition.reset()
        assert not condition.fired
        seen = []
        condition.add_waiter(seen.append)
        condition.fire(2)
        assert seen == [2]


class TestNonFiniteTimes:
    """NaN/inf scheduling would silently corrupt the heap order: NaN compares
    false against everything, so a NaN-timed entry lands at an arbitrary heap
    position and breaks determinism.  All entry points must reject them."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_schedule_rejects_non_finite_delay(self, delay):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(delay, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize(
        "time", [float("nan"), float("inf"), float("-inf")]
    )
    def test_schedule_at_rejects_non_finite_time(self, time):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(time, lambda: None)
        assert engine.pending_events == 0

    def test_schedule_many_rejects_non_finite_delay(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_many(
                [(0.0, lambda: None, ()), (float("nan"), lambda: None, ())]
            )
        # The valid entry scheduled before the bad one is kept.
        assert engine.pending_events == 1

    def test_queue_order_intact_after_rejected_nan(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(2.0, order.append, "b")
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), order.append, "poison")
        engine.schedule(1.0, order.append, "a")
        engine.run()
        assert order == ["a", "b"]


class TestScheduleMany:
    def test_batch_matches_individual_scheduling_order(self):
        individual = SimulationEngine()
        batched = SimulationEngine()
        seen_a, seen_b = [], []
        entries = [(1.0, seen_a.append, (i,)) for i in range(5)]
        for delay, cb, args in entries:
            individual.schedule(delay, cb, *args)
        batched.schedule_many((d, seen_b.append, a) for d, _cb, a in entries)
        individual.run()
        batched.run()
        assert seen_a == seen_b == [0, 1, 2, 3, 4]

    def test_batch_interleaves_with_single_schedules_by_time_then_seq(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, order.append, "x")
        engine.schedule_many([(1.0, order.append, ("y",)), (0.5, order.append, ("z",))])
        engine.schedule(1.0, order.append, "w")
        engine.run()
        assert order == ["z", "x", "y", "w"]
        assert engine.events_processed == 4

    def test_batch_updates_pending_count(self):
        engine = SimulationEngine()
        engine.schedule_many([(0.1, lambda: None, ()) for _ in range(7)])
        assert engine.pending_events == 7


class TestCanonicalEventOrder:
    def test_ties_cancellations_and_nested_scheduling_drain_in_one_order(self):
        # The deterministic pin: a scheduling pattern with ties,
        # cancellations and nested scheduling drains in one canonical order.
        engine = SimulationEngine()
        order = []

        def nested(tag):
            order.append(tag)
            if tag == "b":
                engine.schedule(0.0, order.append, "b-nested")

        engine.schedule(2.0, nested, "c")
        engine.schedule(1.0, nested, "b")
        entry = engine.schedule(1.5, nested, "dropped")
        engine.schedule(1.0, nested, "b-tie")
        engine.cancel(entry)
        assert engine.run() == "empty"
        assert order == ["b", "b-tie", "b-nested", "c"]
