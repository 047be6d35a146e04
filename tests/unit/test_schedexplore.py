"""Unit tests for the schedule-space explorer's building blocks.

Covers the canonical fingerprinter (structural equality, engine-identity
stripping, address-dependent-repr rejection), the schedule policies
(decision recording, seeded determinism, adversarial bias, replay
fallback) and witnesses (round-trips, divergence matching, greedy
shrinking).  End-to-end exploration of real scenarios lives in
``tests/integration/test_schedule_explore.py``.
"""

from types import MappingProxyType

import numpy as np
import pytest

from repro.core.rpp import RPPTable
from repro.schedexplore.fingerprint import fingerprint_value
from repro.schedexplore.policies import (
    AdversarialPolicy,
    FifoPolicy,
    ReplayPolicy,
)
from repro.schedexplore.witness import (
    ScheduleWitness,
    same_divergence,
    shrink,
    shrink_witness,
)
from repro.simulator.messages import Message


class TestFingerprintCanonicalization:
    def test_dict_insertion_order_does_not_matter(self):
        forward = {"alpha": 1, "beta": [2, 3], "gamma": {"x": 4}}
        backward = {"gamma": {"x": 4}, "beta": [2, 3], "alpha": 1}
        assert fingerprint_value(forward) == fingerprint_value(backward)

    def test_set_iteration_order_does_not_matter(self):
        assert fingerprint_value({3, 1, 2}) == fingerprint_value({2, 3, 1})
        assert fingerprint_value({"b", "a"}) == fingerprint_value({"a", "b"})

    def test_tuple_and_list_hash_identically(self):
        assert fingerprint_value((1, "x", 2.5)) == fingerprint_value([1, "x", 2.5])

    def test_any_mapping_hashes_like_the_dict_of_its_items(self):
        # An RPP snapshot holds read-only views of the reception history;
        # their object repr is address-dependent, their content is not.
        rpp = RPPTable()
        for date, phase in ((2, 1), (5, 3)):
            rpp.observe(sender=4, send_date=date, phase=phase)
        view = rpp.snapshot()[4]["phases"]
        assert fingerprint_value(view) == fingerprint_value({5: 3, 2: 1})
        assert fingerprint_value(MappingProxyType({"a": 1})) == fingerprint_value({"a": 1})

    def test_numpy_scalars_and_arrays_match_python_values(self):
        assert fingerprint_value(np.int64(7)) == fingerprint_value(7)
        assert fingerprint_value(np.float64(1.5)) == fingerprint_value(1.5)
        assert fingerprint_value(np.array([1, 2, 3])) == fingerprint_value([1, 2, 3])

    def test_distinct_values_hash_differently(self):
        assert fingerprint_value({"a": 1}) != fingerprint_value({"a": 2})
        assert fingerprint_value("1") != fingerprint_value(1)
        assert fingerprint_value(b"x") != fingerprint_value("x")
        # bools are not conflated with 0/1.
        assert fingerprint_value(True) != fingerprint_value(1)
        assert fingerprint_value(False) != fingerprint_value(0)

    def test_message_engine_identity_is_stripped(self):
        # Same content, different engine-assigned msg_id / transport times:
        # the fingerprint must not see the difference.
        a = Message(source=0, dest=1, tag=7, size_bytes=64, payload="p", msg_id=10)
        b = Message(source=0, dest=1, tag=7, size_bytes=64, payload="p", msg_id=9999)
        a.send_time, b.send_time = 1.0, 2.0
        assert fingerprint_value(a) == fingerprint_value(b)

    def test_message_content_is_not_stripped(self):
        a = Message(source=0, dest=1, tag=7, size_bytes=64, payload="p", msg_id=1)
        b = Message(source=0, dest=1, tag=7, size_bytes=64, payload="q", msg_id=1)
        assert fingerprint_value(a) != fingerprint_value(b)

    def test_address_dependent_repr_is_rejected(self):
        with pytest.raises(TypeError, match="address-dependent"):
            fingerprint_value(object())


def _group(n, callbacks=None):
    """A synthetic equal-time group of queue entries [time, seq, cb, args, state]."""
    callbacks = callbacks or [None] * n
    return [[0.0, seq, callbacks[seq], (), 0] for seq in range(n)]


def _plain_callback():
    pass


def _fire_guard_window():  # qualname matches an adversary marker ("fire")
    pass


class TestPolicies:
    def test_fifo_policy_records_no_decisions(self):
        policy = FifoPolicy()
        for _ in range(5):
            assert policy.choose(0.0, _group(4)) == 0
        assert policy.tie_dispatches == 5
        assert policy.decisions == {}

    def test_adversarial_policy_is_seed_deterministic(self):
        runs = []
        for _ in range(2):
            policy = AdversarialPolicy(seed=5)
            picks = [policy.choose(0.0, _group(6)) for _ in range(40)]
            runs.append((picks, dict(policy.decisions)))
        assert runs[0] == runs[1]
        # A different seed explores a different schedule.
        other = AdversarialPolicy(seed=6)
        other_picks = [other.choose(0.0, _group(6)) for _ in range(40)]
        assert other_picks != runs[0][0]

    def test_decisions_record_chosen_seq_not_index(self):
        policy = AdversarialPolicy(seed=0)
        group = _group(4)
        index = policy.choose(0.0, group)
        if index != 0:
            assert policy.decisions[0] == group[index][1]  # entry seq
        else:
            assert 0 not in policy.decisions

    def test_adversarial_policy_prefers_marked_callbacks(self):
        policy = AdversarialPolicy(seed=0, bias=1.0)
        group = _group(3, [_plain_callback, _fire_guard_window, _plain_callback])
        picks = {policy.choose(0.0, group) for _ in range(10)}
        assert picks == {1}

    def test_adversarial_policy_is_anti_fifo_without_marks(self):
        policy = AdversarialPolicy(seed=0, bias=1.0)
        group = _group(4, [_plain_callback] * 4)
        picks = {policy.choose(0.0, group) for _ in range(10)}
        assert picks == {3}

    def test_replay_policy_applies_recorded_seqs_and_falls_back_to_fifo(self):
        policy = ReplayPolicy({0: 2, 1: 99})
        assert policy.choose(0.0, _group(4)) == 2  # seq 2 lives at index 2
        assert policy.choose(0.0, _group(4)) == 0  # seq 99 absent: FIFO
        assert policy.choose(0.0, _group(4)) == 0  # tie 2 unrecorded: FIFO


def _divergence(kind="final-fingerprint", index=None, observed="got"):
    return {"kind": kind, "index": index, "baseline": "want", "observed": observed}


class TestSameDivergence:
    def test_matches_on_kind_and_index_only(self):
        assert same_divergence(_divergence(observed="x"), _divergence(observed="y"))
        assert not same_divergence(_divergence(), _divergence(kind="status"))
        assert not same_divergence(
            _divergence("checkpoint-fingerprint", 1),
            _divergence("checkpoint-fingerprint", 2),
        )

    def test_none_never_matches(self):
        assert not same_divergence(None, _divergence())
        assert not same_divergence(_divergence(), None)
        assert not same_divergence(None, None)


class TestWitness:
    def test_dict_round_trip_preserves_int_decision_keys(self):
        witness = ScheduleWitness(
            policy="adversarial",
            seed=3,
            decisions={17: 42, 4: 8},
            divergence=_divergence(),
            scenario={"name": "s"},
            original_decisions=12,
            metadata={"label": "adversarial-3"},
        )
        data = witness.to_dict()
        assert set(data["decisions"]) == {"4", "17"}  # JSON-safe string keys
        back = ScheduleWitness.from_dict(data)
        assert back == witness

    def test_file_round_trip(self, tmp_path):
        witness = ScheduleWitness(
            policy="adversarial", seed=0, decisions={1: 2}, divergence=_divergence()
        )
        path = str(tmp_path / "w.witness.json")
        witness.save(path)
        assert ScheduleWitness.load(path) == witness


class TestShrinkWitness:
    def _witness(self, decisions):
        return ScheduleWitness(
            policy="adversarial", seed=0, decisions=dict(decisions),
            divergence=_divergence(),
        )

    def test_drops_irrelevant_decisions(self):
        # Only decision 7 matters; the rest must be shrunk away.
        def diverges(decisions):
            return _divergence() if 7 in decisions else None

        shrunk = shrink_witness(self._witness({1: 10, 4: 11, 7: 12, 9: 13}), diverges)
        assert shrunk.decisions == {7: 12}
        assert shrunk.original_decisions == 4
        assert same_divergence(shrunk.divergence, _divergence())

    def test_keeps_jointly_necessary_decisions(self):
        def diverges(decisions):
            return _divergence() if {1, 4} <= set(decisions) else None

        shrunk = shrink_witness(self._witness({1: 10, 4: 11, 9: 13}), diverges)
        assert shrunk.decisions == {1: 10, 4: 11}

    def test_does_not_chase_a_different_divergence(self):
        # Dropping decision 7 still diverges, but at a different place; the
        # shrinker must keep 7 rather than redefine what it is witnessing.
        def diverges(decisions):
            if 7 in decisions:
                return _divergence()
            return _divergence("checkpoint-fingerprint", 2)

        shrunk = shrink_witness(self._witness({3: 9, 7: 12}), diverges)
        assert 7 in shrunk.decisions
        assert shrunk.divergence["kind"] == "final-fingerprint"


class TestShrink:
    def test_shrinks_a_plain_list_to_the_item_the_check_needs(self):
        # A synthetic failure trace: only the strike of rank 11 reproduces
        # the outcome.  Later items are tried first, so the check sees the
        # list lose its tail one item at a time.
        failures = [(0, 0.1), (11, 0.4), (3, 0.5), (14, 0.9)]
        tried = []

        def check(trial):
            tried.append(list(trial))
            return "deadlock" if (11, 0.4) in trial else None

        shrunk, result = shrink(failures, check, max_rounds=4)
        assert (shrunk, result) == ([(11, 0.4)], "deadlock")
        assert tried[0] == failures[:-1]
        # The final round tries dropping the one item left, and keeps it.
        assert tried[-1] == []

    def test_nothing_to_drop_leaves_the_list_and_no_result(self):
        shrunk, result = shrink([1, 2], lambda trial: None)
        assert (shrunk, result) == ([1, 2], None)
