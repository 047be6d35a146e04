"""Property test (hypothesis) for the indexed :class:`StableStorage`.

The store holds records per rank keyed by iteration and answers ``latest``,
``checkpoint_at`` and ``latest_common_iteration`` from that index.  It used
to append every record to a per-rank list and scan the list on each query;
that implementation is kept here as the slow reference model.  The property
drives both with random sequences of saves -- new iterations in any order,
the same iteration saved again (a cluster re-executing after a rollback) --
interleaved with queries, and requires equal answers throughout; restoring
one record twice must never alias mutable structure.

A second property interleaves releases: a cluster whose members all hold
iteration *i* (its coordinated checkpoint at *i* is complete) releases
their older records.  The store must still answer every query a rollback
makes of that cluster as the model that keeps everything does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator.stable_storage import StableStorage

RANKS = range(4)


class ListScanModel:
    """The pre-index store: every save appended, every query a scan."""

    def __init__(self):
        self.saved = {}

    def save(self, rank, iteration, tag):
        self.saved.setdefault(rank, []).append((iteration, tag))

    def latest(self, rank):
        records = self.saved.get(rank)
        return records[-1] if records else None

    def checkpoint_at(self, rank, iteration):
        for it, tag in reversed(self.saved.get(rank, [])):
            if it == iteration:
                return it, tag
        return None

    def latest_common_iteration(self, ranks):
        iterations = None
        for rank in ranks:
            have = {it for it, _ in self.saved.get(rank, [])}
            iterations = have if iterations is None else (iterations & have)
        return max(iterations) if iterations else None


saves = st.tuples(st.just("save"), st.sampled_from(RANKS), st.integers(0, 6))
queries = st.tuples(st.just("query"), st.sets(st.sampled_from(RANKS)).map(sorted),
                    st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(saves, saves, queries), max_size=40))
def test_indexed_store_matches_the_list_scan_reference(program):
    storage = StableStorage(write_bandwidth_bytes_per_s=None)
    model = ListScanModel()
    for tag, (op, who, iteration) in enumerate(program):
        if op == "save":
            storage.save(rank=who, iteration=iteration, app_state={"tag": [tag]},
                         time=float(tag), size_bytes=tag)
            model.save(who, iteration, tag)
            continue
        assert storage.latest_common_iteration(who) == model.latest_common_iteration(who)
        for rank in RANKS:
            latest, expected = storage.latest(rank), model.latest(rank)
            if expected is None:
                assert latest is None
            else:
                assert (latest.iteration, latest.size_bytes) == expected
            expected = model.checkpoint_at(rank, iteration)
            if expected is None:
                with pytest.raises(SimulationError):
                    storage.checkpoint_at(rank, iteration)
                continue
            record = storage.checkpoint_at(rank, iteration)
            assert (record.rank, record.iteration, record.size_bytes) == (rank, *expected)
            first, second = record.restore_app_state(), record.restore_app_state()
            assert first == second == {"tag": [expected[1]]}
            assert first is not second and first["tag"] is not second["tag"]
            first["tag"].append(-1)
            assert record.restore_app_state() == {"tag": [expected[1]]}
    assert storage.writes == sum(len(records) for records in model.saved.values())
    assert storage.bytes_written == sum(
        tag for records in model.saved.values() for _, tag in records
    )


CLUSTERS = ([0, 1], [2, 3])
releases = st.tuples(st.just("release"), st.sampled_from(range(len(CLUSTERS))),
                     st.integers(0, 6))


def holds(storage, rank, iteration):
    try:
        storage.checkpoint_at(rank, iteration)
    except SimulationError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(saves, saves, saves, releases), max_size=60))
def test_releasing_completed_lines_answers_as_the_full_store(program):
    storage = StableStorage(write_bandwidth_bytes_per_s=None)
    model = ListScanModel()
    released = {}  # rank -> the highest iteration released below
    for tag, (op, who, iteration) in enumerate(program):
        if op == "save":
            storage.save(rank=who, iteration=iteration, app_state={"tag": [tag]},
                         time=float(tag), size_bytes=tag)
            model.save(who, iteration, tag)
        elif all(holds(storage, rank, iteration) for rank in CLUSTERS[who]):
            storage.release_below(CLUSTERS[who], iteration)
            for rank in CLUSTERS[who]:
                released[rank] = max(released.get(rank, 0), iteration)
        for members in CLUSTERS:
            assert storage.latest_common_iteration(members) == (
                model.latest_common_iteration(members))
        for rank in RANKS:
            latest, expected = storage.latest(rank), model.latest(rank)
            assert (latest and (latest.iteration, latest.size_bytes)) == expected
            for it in range(7):
                expected = model.checkpoint_at(rank, it)
                if holds(storage, rank, it):
                    record = storage.checkpoint_at(rank, it)
                    assert (record.iteration, record.size_bytes) == expected
                else:
                    assert expected is None or it < released.get(rank, 0)
    held = sum(holds(storage, rank, it) for rank in RANKS for it in range(7))
    assert storage.count() == held
    assert storage.saves == storage.writes == sum(len(r) for r in model.saved.values())
