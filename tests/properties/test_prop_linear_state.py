"""Property tests (hypothesis) for the epoch-state contract's two helpers.

An epoch state is ``column -> key -> number``
(:mod:`repro.simulator.protocol_api`).  :func:`linear_delta` and
:func:`delta_mismatch` work a column at a time -- same-keyed columns take a
dict-comprehension / ``dict ==`` fast path -- so the reference here is the
naive one: visit every ``(column, key)`` leaf of either side, a missing leaf
being 0.  The states drawn have missing keys, columns that gain keys, leaves
that go backwards and floats on both sides of the 1e-9 tolerance.  The last
property is the other half of the contract: ``ff_epoch_apply(delta, n)`` of a
participant equals ``n`` single applies.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CoordinatedCheckpointProtocol, HydEEConfig, HydEEProtocol, Simulation
from repro.simulator.hybrid import HybridDirector
from repro.simulator.protocol_api import delta_mismatch, linear_delta
from repro.workloads import RingApplication

COLUMNS = ("a", "b.count", "steady")
KEYS = (0, 1, 2, 3)


def leaves(*states):
    """Every ``(column, key)`` any of ``states`` holds, sorted."""
    return sorted({(c, k) for state in states for c, col in state.items() for k in col})


def leaf(state, column, key):
    return state.get(column, {}).get(key, 0)


def bad_leaf(x, y):
    """The per-leaf rule: neither went backwards, ints equal, floats close."""
    if x < 0 or y < 0:
        return True
    if isinstance(x, float) or isinstance(y, float):
        return not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-18)
    return x != y


int_states = st.dictionaries(
    st.sampled_from(COLUMNS),
    st.dictionaries(st.sampled_from(KEYS), st.integers(0, 4), max_size=4),
    max_size=3,
)
# Deltas: small ints (sometimes negative), and floats that differ from 1.5 by
# nothing, by less than the tolerance, and by more.
numbers = st.one_of(
    st.integers(-1, 3), st.sampled_from([1.5, 1.5 * (1 + 1e-12), 1.5 * (1 + 1e-6), 0.0])
)
deltas = st.dictionaries(
    st.sampled_from(COLUMNS),
    st.dictionaries(st.sampled_from(KEYS), numbers, max_size=4),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(int_states, int_states)
def test_linear_delta_is_the_per_leaf_difference(before, after):
    delta = linear_delta(before, after)
    assert set(delta) == set(before) | set(after)
    assert leaves(delta) == leaves(before, after)
    for column, key in leaves(before, after):
        assert delta[column][key] == leaf(after, column, key) - leaf(before, column, key)
    # Deterministic order whatever the insertion order of the inputs.
    shuffled = linear_delta(dict(reversed(list(before.items()))), after)
    if set(before) != set(after):
        assert list(shuffled) == list(delta) == sorted(delta)


@settings(max_examples=500, deadline=None)
@given(deltas, deltas)
def test_delta_mismatch_names_a_leaf_the_naive_walk_rejects(d1, d2):
    rejected = [
        (column, key) for column, key in leaves(d1, d2)
        if bad_leaf(leaf(d1, column, key), leaf(d2, column, key))
    ]
    found = delta_mismatch(d1, d2)
    assert (found in rejected) if rejected else (found is None)


@given(deltas)
def test_a_delta_matches_itself_unless_a_leaf_went_backwards(delta):
    backwards = [(c, k) for c, k in leaves(delta) if delta[c][k] < 0]
    found = delta_mismatch(delta, {c: dict(col) for c, col in delta.items()})
    assert (found in backwards) if backwards else (found is None)


def test_the_float_tolerance_is_one_part_in_a_billion():
    assert delta_mismatch({"t": {0: 1.5}}, {"t": {0: 1.5 * (1 + 1e-12)}}) is None
    assert delta_mismatch({"t": {0: 1.5}}, {"t": {0: 1.5 * (1 + 1e-6)}}) == ("t", 0)
    assert delta_mismatch({"n": {0: 3}}, {"n": {0: 3.0000000001}}) is None  # mixed: float rule
    assert delta_mismatch({"n": {0: 3}}, {"n": {0: 4}}) == ("n", 0)
    assert delta_mismatch({"n": {0: 3}}, {"n": {0: 3, 1: 0}}) is None  # missing key = 0
    assert delta_mismatch({"n": {0: 3}}, {"n": {0: 3}, "m": {2: 1}}) == ("m", 2)


# ------------------------------------------------------------------- apply
PROTOCOLS = {
    "hydee": lambda: HydEEProtocol(HydEEConfig(clusters=[[0, 1], [2, 3]])),
    "coordinated": lambda: CoordinatedCheckpointProtocol(checkpoint_interval=4),
}
CHANNELS = [(a, b) for a in KEYS for b in KEYS if a != b]


def director_of(name):
    sim = Simulation(RingApplication(nprocs=4, iterations=1), nprocs=4, protocol=PROTOCOLS[name]())
    for channel in CHANNELS:  # a channel exists once a message used it
        sim.trace.channel_volumes[channel] = [1, 8]
    return HybridDirector(sim)


def observable(director):
    """Everything ``apply`` writes: the epoch state, plus HydEE's phantom log
    volume (what its ``hydee.log_bytes`` column turns into)."""
    protocol = director.sim.protocol
    return director._epoch_state(), getattr(protocol, "_ff_phantom_log", None)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROTOCOLS)), st.integers(1, 7), st.data())
def test_apply_n_equals_n_single_applies_on_integer_columns(name, n, data):
    once, repeated = director_of(name), director_of(name)
    template = once._epoch_state()
    for column in ("hydee.rpp", "hydee.log_bytes", "hydee.log_entries"):
        if column in template:  # keyed by channel: empty before any message
            template[column] = dict.fromkeys(CHANNELS, 0)
    delta = {
        column: {
            key: 0 if column == "rstats.compute_time" else data.draw(st.integers(0, 3))
            for key in keys
        }
        for column, keys in template.items()
    }
    for director, times, count in ((once, 1, n), (repeated, n, 1)):
        for _ in range(times):
            director.sim.protocol.ff_epoch_apply(delta, count)
            director._apply_epoch_delta(delta, count)
    assert observable(once) == observable(repeated)
    # ... and it is the delta that was applied: n times, leaf by leaf.
    moved = linear_delta(template, once._epoch_state())
    for column in set(template) - {"hydee.log_bytes", "hydee.log_entries", "steady"}:
        assert moved[column] == {key: n * by for key, by in delta[column].items()}, column
