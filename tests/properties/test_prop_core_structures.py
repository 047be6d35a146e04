"""Property-based tests (hypothesis) for HydEE's core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message_log import SenderLog
from repro.core.phase import INITIAL_PHASE, PhaseClock
from repro.core.protocol import HydEEProtocol
from repro.core.rpp import RPPTable
from repro.simulator.engine import SimulationEngine
from repro.simulator.messages import Message
from repro.simulator.simulation import Simulation
from repro.workloads.ring import RingApplication


# --------------------------------------------------------------------- clock
@st.composite
def clock_events(draw):
    """A random sequence of send / intra-delivery / inter-delivery events."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["send", "intra", "inter"]),
                st.integers(min_value=1, max_value=20),
            ),
            max_size=60,
        )
    )
    return events


@given(clock_events())
def test_phase_never_decreases_and_date_counts_events(events):
    clock = PhaseClock()
    previous_phase = clock.phase
    for kind, message_phase in events:
        if kind == "send":
            clock.on_send()
        elif kind == "intra":
            clock.on_deliver_intra(message_phase)
        else:
            clock.on_deliver_inter(message_phase)
        assert clock.phase >= previous_phase           # Lemma 1 on process order
        assert clock.phase >= INITIAL_PHASE
        previous_phase = clock.phase
    assert clock.date == len(events)                   # date == event count


@given(clock_events())
def test_hydee_hooks_apply_the_phase_clock_rules(events):
    # The per-message hooks update the clock in place; PhaseClock's methods
    # are the specification they must keep following.
    protocol = HydEEProtocol(clusters=[[0, 1], [2, 3]])
    Simulation(RingApplication(nprocs=4, iterations=1), nprocs=4, protocol=protocol)
    reference = PhaseClock()
    for kind, message_phase in events:
        if kind == "send":
            message = Message(source=0, dest=2, tag=0, size_bytes=8)
            protocol.on_app_send(0, message)
            stamped = (message.piggyback["date"], message.piggyback["phase"])
            assert stamped == reference.on_send()
            assert message.inter_cluster is True
        else:
            message = Message(source=1 if kind == "intra" else 2, dest=0, tag=0, size_bytes=8)
            message.piggyback = {"date": 1, "phase": message_phase}
            protocol.on_app_deliver(0, message)
            assert message.inter_cluster is (kind == "inter")
            if kind == "intra":
                reference.on_deliver_intra(message_phase)
            else:
                reference.on_deliver_inter(message_phase)
        assert protocol.states[0].clock == reference


@given(clock_events())
def test_inter_delivery_strictly_exceeds_message_phase(events):
    clock = PhaseClock()
    for kind, message_phase in events:
        if kind == "send":
            clock.on_send()
        elif kind == "intra":
            clock.on_deliver_intra(message_phase)
            assert clock.phase >= message_phase
        else:
            clock.on_deliver_inter(message_phase)
            assert clock.phase > message_phase          # Lemma 3 ingredient

@given(clock_events())
def test_clock_snapshot_roundtrip_preserves_state(events):
    clock = PhaseClock()
    for kind, message_phase in events:
        if kind == "send":
            clock.on_send()
        elif kind == "intra":
            clock.on_deliver_intra(message_phase)
        else:
            clock.on_deliver_inter(message_phase)
    restored = PhaseClock.from_snapshot(clock.snapshot())
    assert (restored.date, restored.phase) == (clock.date, clock.phase)


# ----------------------------------------------------------------------- RPP
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),      # sender
            st.integers(min_value=1, max_value=200),    # send date
            st.integers(min_value=1, max_value=50),     # phase
        ),
        max_size=80,
    ),
    st.integers(min_value=0, max_value=200),
)
def test_rpp_orphans_are_exactly_entries_after_restart_date(observations, restart_date):
    rpp = RPPTable()
    per_sender = {}
    for sender, date, phase in observations:
        rpp.observe(sender, date, phase)
        per_sender.setdefault(sender, {})[date] = phase
    for sender, seen in per_sender.items():
        expected = sorted((d, p) for d, p in seen.items() if d > restart_date)
        assert rpp.orphan_entries(sender, restart_date) == expected
        assert rpp.max_date(sender) == max(seen)
    # Snapshot round trip preserves every channel.
    restored = RPPTable.from_snapshot(rpp.snapshot())
    for sender, seen in per_sender.items():
        assert restored.max_date(sender) == max(seen)


rpp_ops = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 3), st.integers(1, 60), st.integers(1, 9)),
    st.tuples(st.just("observe"), st.integers(0, 3), st.integers(1, 60), st.integers(1, 9)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("prune"), st.integers(0, 3), st.integers(0, 60)),
    st.tuples(st.just("restore"), st.integers(0, 1000)),
)


def assert_rpp_matches(rpp, model):
    """``rpp`` answers as the plain-dict model {sender: (max_date, {date: phase})}."""
    for sender in range(4):
        max_date, phases = model.get(sender, (0, {}))
        assert rpp.max_date(sender) == max_date
        for restart_date in (0, 20, 40):
            expected = sorted((d, p) for d, p in phases.items() if d > restart_date)
            assert rpp.orphan_entries(sender, restart_date) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(rpp_ops, max_size=80))
def test_rpp_snapshots_stay_the_table_of_their_moment(program):
    # Observes in any order (appends, older and repeated dates), pruning and
    # restores interleaved with snapshots: the history a snapshot shares is
    # never changed under it.
    rpp, model = RPPTable(), {}
    taken = []  # (snapshot, the model at that moment)
    for op in program:
        if op[0] == "observe":
            _, sender, date, phase = op
            rpp.observe(sender, date, phase)
            max_date, phases = model.get(sender, (0, {}))
            model[sender] = (max(max_date, date), {**phases, date: phase})
        elif op[0] == "snapshot":
            taken.append((rpp.snapshot(), {s: (m, dict(p)) for s, (m, p) in model.items()}))
        elif op[0] == "prune":
            _, sender, date = op
            max_date, phases = model.get(sender, (0, {}))
            kept = {d: p for d, p in phases.items() if d > date}
            assert rpp.prune_channel(sender, date) == len(phases) - len(kept)
            if sender in model:
                model[sender] = (max_date, kept)
        elif taken:
            snapshot, at = taken[op[1] % len(taken)]
            rpp = RPPTable.from_snapshot(snapshot)
            model = {s: (m, dict(p)) for s, (m, p) in at.items()}
        assert_rpp_matches(rpp, model)
        for snapshot, at in taken:
            assert {s: (c["max_date"], c["phases"]) for s, c in snapshot.items()} == at
            assert_rpp_matches(RPPTable.from_snapshot(snapshot), at)


# ----------------------------------------------------------------- sender log
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),       # dest
            st.integers(min_value=1, max_value=100),     # date
            st.integers(min_value=1, max_value=10),      # phase
            st.integers(min_value=1, max_value=4096),    # size
        ),
        max_size=60,
    ),
    st.integers(min_value=0, max_value=100),
)
def test_sender_log_replay_selection_and_gc(entries, after_date):
    log = SenderLog()
    for dest, date, phase, size in entries:
        log.add(dest, date, phase, Message(source=9, dest=dest, tag=0, size_bytes=size))
    total_bytes = sum(size for _, _, _, size in entries)
    assert log.current_bytes == total_bytes
    for dest in {d for d, _, _, _ in entries}:
        selected = log.entries_for(dest, after_date)
        dates = [e.date for e in selected]
        assert dates == sorted(dates)
        assert all(e.dest == dest and e.date > after_date for e in selected)
    # Garbage collection never reclaims more than what was stored and keeps
    # the log consistent.
    freed = sum(log.purge_acknowledged(dest, up_to_date=50) for dest in range(5))
    assert 0 <= freed <= total_bytes
    assert log.current_bytes == total_bytes - freed
    assert all(e.date > 50 for e in log.entries)


# -------------------------------------------------------------------- engine
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40))
@settings(max_examples=50)
def test_engine_executes_events_in_nondecreasing_time_order(delays):
    engine = SimulationEngine()
    executed = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: executed.append(engine.now))
    engine.run()
    assert len(executed) == len(delays)
    assert executed == sorted(executed)
    assert engine.now == max(executed)
