"""Unit tests for messages, matching and request handles."""

import pytest

from repro.errors import InvalidOperationError
from repro.simulator.messages import ANY_SOURCE, ANY_TAG, Message
from repro.simulator.requests import RecvRequest, RequestState, SendRequest


class TestMessage:
    def test_matches_exact_source_and_tag(self):
        message = Message(source=2, dest=5, tag=7, size_bytes=10)
        assert message.matches(2, 7)
        assert not message.matches(3, 7)
        assert not message.matches(2, 8)

    def test_matches_wildcards(self):
        message = Message(source=2, dest=5, tag=7, size_bytes=10)
        assert message.matches(ANY_SOURCE, 7)
        assert message.matches(2, ANY_TAG)
        assert message.matches(ANY_SOURCE, ANY_TAG)

    def test_message_ids_unique_and_increasing(self):
        first = Message(source=0, dest=1, tag=0, size_bytes=1)
        second = Message(source=0, dest=1, tag=0, size_bytes=1)
        assert second.msg_id > first.msg_id

    def test_total_bytes_includes_piggyback(self):
        message = Message(source=0, dest=1, tag=0, size_bytes=100)
        message.piggyback_bytes = 12
        assert message.total_bytes == 112

    def test_clone_for_replay_copies_metadata(self):
        message = Message(source=0, dest=1, tag=3, size_bytes=64, payload="x")
        message.piggyback = {"date": 4, "phase": 2}
        message.piggyback_bytes = 12
        message.inter_cluster = True
        clone = message.clone_for_replay()
        assert clone.replayed and not message.replayed
        assert clone.msg_id != message.msg_id
        assert clone.piggyback == {"date": 4, "phase": 2}
        assert clone.payload == "x"
        assert clone.inter_cluster is True
        # The clone's piggyback is an independent dict.
        clone.piggyback["date"] = 99
        assert message.piggyback["date"] == 4


class TestRequests:
    def test_send_request_completion(self):
        message = Message(source=0, dest=1, tag=0, size_bytes=1)
        request = SendRequest(0, message)
        assert request.state is RequestState.PENDING
        request._complete(None, 1.0)
        assert request.complete
        assert request.completion_time == 1.0

    def test_double_completion_raises(self):
        request = SendRequest(0, Message(source=0, dest=1, tag=0, size_bytes=1))
        request._complete(None, 1.0)
        with pytest.raises(InvalidOperationError):
            request._complete(None, 2.0)

    def test_cancel_prevents_completion_and_waiters(self):
        request = RecvRequest(1, source=0, tag=5)
        seen = []
        request.add_waiter(seen.append)
        request.cancel()
        request._complete("late", 3.0)
        assert request.cancelled
        assert not request.complete
        # Cancellation silently drops registered waiters and later completions.
        assert seen == []

    def test_waiter_added_after_cancellation_is_never_called(self):
        request = RecvRequest(1, source=0, tag=5)
        request.cancel()
        seen = []
        request.add_waiter(seen.append)
        request._complete("late", 3.0)
        assert seen == []

    def test_waiter_called_on_completion(self):
        request = RecvRequest(1, source=0, tag=5)
        seen = []
        request.add_waiter(lambda req: seen.append(req.value))
        message = Message(source=0, dest=1, tag=5, size_bytes=4, payload="hello")
        request._complete(message, 2.0)
        assert seen == [message]

    def test_waiter_added_after_completion_runs_immediately(self):
        request = RecvRequest(1, source=0, tag=5)
        request._complete("value", 2.0)
        seen = []
        request.add_waiter(lambda req: seen.append(req.value))
        assert seen == ["value"]

    def test_recv_request_matching(self):
        request = RecvRequest(3, source=ANY_SOURCE, tag=9)
        good = Message(source=7, dest=3, tag=9, size_bytes=1)
        wrong_dest = Message(source=7, dest=4, tag=9, size_bytes=1)
        wrong_tag = Message(source=7, dest=3, tag=8, size_bytes=1)
        assert request.matches(good)
        assert not request.matches(wrong_dest)
        assert not request.matches(wrong_tag)

    def test_test_is_non_destructive(self):
        request = RecvRequest(0, source=1, tag=0)
        assert request.test() is False
        request._complete("x", 0.0)
        assert request.test() is True
        assert request.test() is True
