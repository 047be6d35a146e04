"""Damaged, foreign and older results-store files.

A store file is trusted as line-per-record text only when header, trailer
and digest prove this build's writer produced every byte.  Everything else
takes the full-parse path, which must accept exactly what a plain
``json.load`` plus the shape and version checks accept -- silently for a
file that never carried a digest (every store of an older build), with one
``warning:`` line on stderr for a file whose digest no longer matches -- and
reject the rest with the CLI's one-line error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.campaign import ResultsStore
from repro.campaign.cli import main as campaign_main
from repro.campaign.store import _split_lines, _verified_body

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
PARENT_STORE = os.path.join(DATA_DIR, "v2_indent_store.json")
PARENT_QUERIES = os.path.join(DATA_DIR, "v2_indent_store.queries.json")

RECORDS = {
    f"hash-{i}": {
        "name": f"rec-{i}",
        "analysis": "simulate",
        "spec_hash": f"hash-{i}",
        "spec": {"name": f"rec-{i}", "tags": {"index": i}},
        "result": {"status": "completed", "metrics": {"sim": {"makespan": 0.5 * i}}, "data": {}},
    }
    for i in range(4)
}


def good_bytes(tmp_path) -> bytes:
    path = str(tmp_path / "good.json")
    store = ResultsStore(path)
    for key, record in RECORDS.items():
        store.put(key, record)
    store.save()
    with open(path, "rb") as fh:
        return fh.read()


def with_digest_of(lines) -> bytes:
    """A file with a *valid* digest over arbitrary record lines."""
    body = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return ('{"records":{\n' + body + f'}},"digest":"{digest}","version":2}}\n').encode()


def truncated_mid_record(good):
    return good[: good.index(b'"hash-2"') + 40]


def byte_flipped_still_json(good):
    return good.replace(b'"name":"rec-1"', b'"name":"rec-9"', 1)


def byte_flipped_broken_json(good):
    at = good.index(b'"hash-1":{') + len(b'"hash-1":')
    return good[:at] + b"[" + good[at + 1:]


def record_line_deleted(good):
    lines = good.split(b"\n")
    return b"\n".join(line for line in lines if not line.startswith(b'"hash-1"'))


def last_record_line_deleted(good):
    lines = good.split(b"\n")  # leaves a trailing comma: no longer JSON
    return b"\n".join(line for line in lines if not line.startswith(b'"hash-3"'))


def trailer_digest_edited(good):
    at = good.index(b'"digest":"') + len(b'"digest":"')
    return good[:at] + (b"0" if good[at:at + 1] != b"0" else b"1") + good[at + 1:]


def trailer_whitespace_edited(good):
    return good.replace(b',"version":2}', b', "version": 2}')


def indent_layout(good):
    records = json.loads(good)["records"]
    document = {"version": 2, "records": records}
    return (json.dumps(document, sort_keys=True, indent=1) + "\n").encode()


def hand_edited(good):
    records = json.loads(good)["records"]
    records["hash-0"]["name"] = "edited by hand"
    document = {"records": records, "version": 2, "note": "mine"}
    return ("\n\n  " + json.dumps(document, indent=4)).encode()


def version_less(good):
    return json.dumps({"records": json.loads(good)["records"]}).encode()


def version_one_with_digest(good):
    return good.replace(b'"version":2}', b'"version":1}')


def records_not_a_mapping(good):
    return json.dumps({"version": 2, "records": list(json.loads(good)["records"])}).encode()


#: (case, damage, "loads" | fragment of the one-line error, warning lines on stderr)
MATRIX = [
    ("truncated-mid-record", truncated_mid_record, "not valid JSON", 0),
    ("byte-flipped-still-json", byte_flipped_still_json, "loads", 1),
    ("byte-flipped-broken-json", byte_flipped_broken_json, "not valid JSON", 0),
    ("record-line-deleted", record_line_deleted, "loads", 1),
    ("last-record-line-deleted", last_record_line_deleted, "not valid JSON", 0),
    ("trailer-digest-edited", trailer_digest_edited, "loads", 1),
    ("trailer-whitespace-edited", trailer_whitespace_edited, "loads", 1),
    ("zero-length", lambda good: b"", "not valid JSON", 0),
    ("indent-layout-of-older-builds", indent_layout, "loads", 0),
    ("hand-edited-valid-json", hand_edited, "loads", 0),
    ("version-less", version_less, "unsupported results-store version 1", 0),
    ("version-1-with-digest", version_one_with_digest, "unsupported results-store version 1", 0),
    ("records-not-a-mapping", records_not_a_mapping, "not a campaign results store", 0),
    ("not-json-at-all", lambda good: b"\x89PNG\r\n\x1a\n\xff\xfe", "not valid JSON", 0),
]


@pytest.fixture
def specfile(tmp_path):
    path = str(tmp_path / "specs.json")
    assert campaign_main(["demo", "--out", path]) == 0
    return path


def assert_one_line_error(capsys, fragment, path):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("repro-campaign: error: ")
    assert fragment in lines[0] and path in lines[0]
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("case,damage,expected,warnings", MATRIX, ids=[m[0] for m in MATRIX])
def test_corrupt_store_matrix(case, damage, expected, warnings, tmp_path, capsys, specfile):
    data = damage(good_bytes(tmp_path))
    path = str(tmp_path / "store.json")
    with open(path, "wb") as fh:
        fh.write(data)
    capsys.readouterr()

    if expected != "loads":
        assert campaign_main(["query", path]) == 2
        assert_one_line_error(capsys, expected, path)
        assert campaign_main(["run", specfile, "--store", path]) == 2
        assert_one_line_error(capsys, expected, path)
        with open(path, "rb") as fh:
            assert fh.read() == data  # a rejected file is left alone
        return

    # Accepted means: the records a full json.load of the same bytes yields.
    reference = json.loads(data)["records"]
    store = ResultsStore(path)
    assert store.records() == reference
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == warnings
    for line in stderr:
        assert line.startswith("warning: ") and path in line

    assert campaign_main(["query", path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)) == len(reference)  # stdout is the table only
    assert "warning" not in captured.out
    assert len(captured.err.splitlines()) == warnings

    # A save after the fallback load loses nothing and leaves a file that
    # the next open trusts as it is (checksummed, no warning).
    store.put("new", {"name": "new"})
    store.save()
    capsys.readouterr()
    upgraded = ResultsStore(path)
    assert upgraded.records() == {**reference, "new": {"name": "new"}}
    assert capsys.readouterr().err == ""
    with open(path, "rb") as fh:
        text = fh.read().decode("ascii")
    body = text[len('{"records":{\n'):text.rindex('},"digest":"')]
    assert json.loads(text)["digest"] == hashlib.sha256(body.encode()).hexdigest()
    assert body.count("\n") == len(reference) + 1


def test_record_line_that_does_not_decode_is_a_one_line_error(tmp_path, capsys):
    """Only reachable by forging the digest: the lines are trusted, the record
    text is not, so decoding it on demand still fails loudly and by name."""
    path = str(tmp_path / "forged.json")
    with open(path, "wb") as fh:
        fh.write(with_digest_of(['"ok":{"name":"ok"},', '"bad":{"name":']))
    store = ResultsStore(path)  # nothing is decoded on open
    assert sorted(store) == ["bad", "ok"]
    assert store.get("ok") == {"name": "ok"}
    with pytest.raises(ValueError, match="do not decode"):
        store.get("bad")
    capsys.readouterr()
    assert campaign_main(["query", path]) == 2
    assert_one_line_error(capsys, "do not decode", path)


def test_forged_digest_over_non_line_text_takes_the_full_parse(tmp_path, capsys):
    path = str(tmp_path / "forged.json")
    with open(path, "wb") as fh:
        fh.write(with_digest_of(['  "a" : {"name": "a"}']))
    assert ResultsStore(path).records() == {"a": {"name": "a"}}
    assert capsys.readouterr().err.startswith("warning: ")


class TestStoreWrittenByTheParentBuild:
    """``v2_indent_store.json`` and the query output pinned next to it were
    written by the build before the line layout (``indent=1`` writer)."""

    def queries(self):
        with open(PARENT_QUERIES, encoding="utf-8") as fh:
            return json.load(fh)

    def test_loads_silently_and_queries_to_the_parent_output(self, tmp_path, capsys):
        with open(PARENT_STORE, encoding="utf-8") as fh:
            reference = json.load(fh)
        assert "digest" not in reference
        assert ResultsStore(PARENT_STORE).records() == reference["records"]
        assert capsys.readouterr().err == ""
        for query in self.queries():
            assert campaign_main(["query", PARENT_STORE, *query["argv"]]) == 0
            captured = capsys.readouterr()
            assert captured.out == query["stdout"] and captured.err == ""

    def test_merges_with_new_records_and_is_upgraded_by_the_save(self, tmp_path, capsys):
        path = str(tmp_path / "store.json")
        shutil.copyfile(PARENT_STORE, path)
        with open(PARENT_STORE, encoding="utf-8") as fh:
            reference = json.load(fh)["records"]
        store = ResultsStore(path)
        store.save()  # the upgrade alone changes the layout, not the answers
        with open(path, encoding="utf-8") as fh:
            upgraded = json.load(fh)
        assert upgraded["records"] == reference and upgraded["version"] == 2
        assert "digest" in upgraded
        for query in self.queries():
            assert campaign_main(["query", path, *query["argv"]]) == 0
            assert capsys.readouterr().out == query["stdout"]
        # A concurrent old-layout writer and a new-layout writer still merge.
        other = ResultsStore(path)
        shutil.copyfile(PARENT_STORE, path)
        other.put("fresh", dict(RECORDS["hash-1"]))
        other.save()
        assert ResultsStore(path).records() == {**reference, "fresh": RECORDS["hash-1"]}
        assert capsys.readouterr().err == ""


#: keys whose line is not a plain slice: a quote, a backslash, a '":' inside
#: the key, non-ASCII (written as \u escapes), and plain ones next to them.
AWKWARD_KEYS = ['a"b', "a\\b", 'a":b', "ends\\", '"', '":', "é", "日本",
                " ", "\U0001f600", "plain", "0123456789abcdef"]


def test_awkward_keys_round_trip_through_the_line_layout(tmp_path, capsys):
    path = str(tmp_path / "keys.json")
    store = ResultsStore(path)
    records = {key: {"name": key, "n": index} for index, key in enumerate(AWKWARD_KEYS)}
    for key, record in records.items():
        store.put(key, record)
    store.save()
    with open(path, "rb") as fh:
        lines = _split_lines(_verified_body(fh.read()))
    assert lines is not None and sorted(lines) == sorted(records)
    reopened = ResultsStore(path)
    assert sorted(reopened) == sorted(records)
    assert reopened.records() == records
    assert all(ResultsStore(path).get(key) == record for key, record in records.items())
    # Read as this writer's bytes: no full parse, no warning.
    assert capsys.readouterr().err == ""


def test_a_save_merges_what_another_writer_saved_since_the_load(tmp_path):
    path = str(tmp_path / "store.json")
    seed = ResultsStore(path)
    seed.put("hash-0", RECORDS["hash-0"])
    seed.save()
    mine, theirs = ResultsStore(path), ResultsStore(path)  # both read one file
    theirs.put("hash-1", RECORDS["hash-1"])
    theirs.save()
    mine.put("hash-2", RECORDS["hash-2"])
    mine.save()  # the trailer on disk is no longer the one it read: merge
    assert ResultsStore(path).records() == {k: RECORDS[k] for k in ("hash-0", "hash-1", "hash-2")}
    mine.put("hash-3", RECORDS["hash-3"])
    mine.save()  # the trailer is its own: nothing to merge, nothing lost
    assert ResultsStore(path).records() == RECORDS


def test_a_body_edited_under_a_kept_trailer_is_merged_by_a_full_parse(tmp_path, capsys):
    path = str(tmp_path / "store.json")
    store = ResultsStore(path)
    store.put("hash-0", RECORDS["hash-0"])
    store.save()
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:  # same trailer, different record text
        fh.write(data.replace(b'"rec-0"', b'"rec-X"', 1))
    store.put("hash-1", RECORDS["hash-1"])
    store.save()
    assert capsys.readouterr().err.startswith("warning: ")
    saved = ResultsStore(path).records()
    assert saved["hash-0"] == RECORDS["hash-0"]  # this store's record wins
    assert saved["hash-1"] == RECORDS["hash-1"]
