"""Property test (hypothesis) for the indexed :class:`StableStorage`.

The store holds records per rank keyed by iteration and answers ``latest``,
``checkpoint_at`` and ``latest_common_iteration`` from that index.  It used
to append every record to a per-rank list and scan the list on each query;
that implementation is kept here as the slow reference model.  The property
drives both with random sequences of saves -- new iterations in any order,
the same iteration saved again (a cluster re-executing after a rollback) --
interleaved with queries, and requires equal answers throughout; restoring
one record twice must never alias mutable structure.
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
