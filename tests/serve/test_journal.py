"""Journal and checkpoint durability semantics."""

import pytest

from repro.exceptions import ServeError
from repro.serve.journal import CheckpointStore, Journal


@pytest.fixture()
def journal(tmp_path):
    return Journal(tmp_path / "journal.jsonl")


class TestJournal:
    def test_append_and_replay(self, journal):
        journal.append(1, {"kind": "depart", "chain": "a"})
        journal.append(2, {"kind": "depart", "chain": "b"})
        records = journal.replay()
        assert [r["seq"] for r in records] == [1, 2]
        assert records[0]["command"]["chain"] == "a"

    def test_replay_after_skips_prefix(self, journal):
        for seq in (1, 2, 3):
            journal.append(seq, {"kind": "depart", "chain": f"c{seq}"})
        assert [r["seq"] for r in journal.replay(after=2)] == [3]

    def test_head_seq(self, journal):
        assert journal.head_seq() == 0
        journal.append(1, {"kind": "depart", "chain": "a"})
        assert journal.head_seq() == 1

    def test_missing_file_is_empty(self, journal):
        assert journal.replay() == []

    def test_torn_trailing_line_is_dropped(self, journal):
        journal.append(1, {"kind": "depart", "chain": "a"})
        with open(journal.path, "a") as fh:
            fh.write('{"seq": 2, "comm')  # crash mid-append
        assert [r["seq"] for r in journal.replay()] == [1]

    def test_malformed_interior_record_fails_loudly(self, journal):
        journal.append(1, {"kind": "depart", "chain": "a"})
        with open(journal.path, "a") as fh:
            fh.write("not json\n")
        journal.append(2, {"kind": "depart", "chain": "b"})
        with pytest.raises(ServeError, match="malformed"):
            journal.replay()

    def test_out_of_sequence_fails_loudly(self, journal):
        journal.append(1, {"kind": "depart", "chain": "a"})
        journal.append(5, {"kind": "depart", "chain": "b"})
        with pytest.raises(ServeError, match="out of sequence"):
            journal.replay()


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoint.pkl")
        assert store.load() == (None, None)
        store.save({"seq": 4, "core": [1, 2, 3]})
        assert store.load() == ({"seq": 4, "core": [1, 2, 3]}, None)

    def test_save_requires_seq(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoint.pkl")
        with pytest.raises(ServeError, match="seq"):
            store.save({"core": None})

    def test_crash_mid_save_keeps_previous(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoint.pkl")
        store.save({"seq": 1})
        # a crash between tmp write and rename leaves only the tmp file
        tmp = store.path.with_suffix(store.path.suffix + ".tmp")
        tmp.write_bytes(b"half-written")
        assert store.load() == ({"seq": 1}, None)
