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

    def test_torn_tail_is_cut_before_the_next_append(self, journal):
        """Left in place, the tail merges with the next append: that
        acknowledged record is dropped by the restart after, and the
        one after that makes the journal unreadable for good."""
        journal.append(1, {"kind": "depart", "chain": "a"})
        journal.append(2, {"kind": "depart", "chain": "b"})
        with open(journal.path, "a") as fh:
            fh.write('{"command": {"kind": "depart"}, "se')
        assert journal.repair() is True
        assert journal.path.read_bytes().endswith(b'"seq": 2}\n')
        assert journal.repair() is False  # nothing left to cut
        for seq in (3, 4):
            journal.append(seq, {"kind": "depart", "chain": f"c{seq}"})
            assert [r["seq"] for r in journal.replay()] == \
                list(range(1, seq + 1))

    def test_tail_is_whatever_follows_the_last_newline(self, journal):
        """Even a whole record: its newline never reached the disk, so
        it was never acknowledged, and an append would land on its line."""
        journal.append(1, {"kind": "depart", "chain": "a"})
        with open(journal.path, "a") as fh:
            fh.write('{"command": {"kind": "depart"}, "seq": 2}')
        assert [r["seq"] for r in journal.replay()] == [1]
        assert journal.repair() is True
        assert [r["seq"] for r in journal.replay()] == [1]

    def test_repair_leaves_a_clean_or_missing_journal_alone(self, journal):
        assert journal.repair() is False
        assert not journal.path.exists()
        journal.append(1, {"kind": "depart", "chain": "a"})
        before = journal.path.read_bytes()
        assert journal.repair() is False
        assert journal.path.read_bytes() == before

    def test_a_journal_that_is_only_a_torn_tail_repairs_to_empty(
            self, journal):
        journal.path.write_text('{"seq": 1, "comm')
        assert journal.replay() == []
        assert journal.repair() is True
        assert journal.path.read_bytes() == b""
        journal.append(1, {"kind": "depart", "chain": "a"})
        assert journal.head_seq() == 1

    def test_malformed_complete_last_line_fails_loudly(self, journal):
        """A newline-terminated line is a record, not a torn write —
        e.g. what the merge above used to leave behind."""
        journal.append(1, {"kind": "depart", "chain": "a"})
        with open(journal.path, "a") as fh:
            fh.write('{"command": {}, "se{"seq": 2, "command": {}}\n')
        with pytest.raises(ServeError, match="record 2 is malformed"):
            journal.replay()
        assert journal.repair() is False

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
