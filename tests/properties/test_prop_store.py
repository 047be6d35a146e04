"""Property-based tests (hypothesis) for the results store's line-per-record file.

The file is split back into ``key -> line`` by string work, so the
properties throw at it exactly what could break string work: keys and
values full of quotes, backslashes, raw newlines, ``U+2028``, control
characters, lone surrogates and look-alikes of the file's own delimiters.
"""

import hashlib
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.store import STORE_VERSION, ResultsStore

HOSTILE = [
    '"', "\\", "\\\\", "\n", "\r\n", ",\n", '":', '":{', "\u2028", "\u2029", "\x00",
    "\x1f", "\x7f", "é", "日本", "\U0001f600", "\ud800", "{", "}", "[",
    '},"digest":"', '{"records":{',
]

hostile_text = st.lists(
    st.one_of(st.text(max_size=4), st.sampled_from(HOSTILE)), max_size=5
).map("".join)

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False),
        hostile_text,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(hostile_text, children, max_size=3),
    ),
    max_leaves=8,
)

stores = st.dictionaries(
    hostile_text, st.dictionaries(hostile_text, json_values, max_size=3), max_size=6
)


def parent_read(path):
    """What the build before the line layout did to read a store."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert isinstance(data, dict) and "records" in data
    assert data.get("version", 1) == STORE_VERSION
    return dict(data["records"])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=150, deadline=None)
@given(stores)
@example({})
@example({'k"1\n': {"name": 'a",\n"b":{'}, "k\u20282": {"\\": ["\ud800", 1.5e300]}})
@example({":": {}, ":x": {"y": 1}})
def test_store_round_trips_hostile_keys_and_values(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.json")
        store = ResultsStore(path)
        for key, record in records.items():
            store.put(key, record)
        store.save()
        written = read_bytes(path)

        reopened = ResultsStore(path)
        assert reopened.records() == records
        assert sorted(reopened) == sorted(records) and len(reopened) == len(records)
        for key, record in records.items():  # the one-record decode path
            assert key in reopened and ResultsStore(path).get(key) == record
        # A plain JSON document, read by the parent build's reader as it is.
        assert parent_read(path) == records
        # One record per line, the digest covers exactly those lines.
        header, _, rest = written.decode("ascii").partition("\n")
        body, _, trailer = rest.rpartition('},"digest":"')
        assert header == '{"records":{'
        assert body.count("\n") == len(records)
        assert trailer == f'{hashlib.sha256(body.encode()).hexdigest()}","version":2}}\n'
        # Saving a freshly reopened store reproduces the file byte for byte.
        reopened.save()
        assert read_bytes(path) == written


@settings(max_examples=60, deadline=None)
@given(stores, stores)
def test_merge_under_the_lock_keeps_every_hostile_record(mine, theirs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.json")
        first, second = ResultsStore(path), ResultsStore(path)
        for key, record in theirs.items():
            first.put(key, record)
        for key, record in mine.items():
            second.put(key, record)
        first.save()
        second.save()  # merges the lines `first` wrote; its own records win
        assert ResultsStore(path).records() == {**theirs, **mine}
        assert parent_read(path) == {**theirs, **mine}
