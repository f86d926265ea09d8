"""Tests for the per-shard append-only intent log."""

import pytest

from repro.shard.intent_log import Intent, IntentLog, IntentLogCorrupt

RUN = {"kind": "test-fleet", "seed": 1}


def filled_log(path, n=5):
    log = IntentLog(path, run_key=RUN)
    for i in range(n):
        kind = "real" if i % 2 == 0 else "dummy"
        log.append(Intent(i, kind, addr=i * 3, op="read"))
    log.close()
    return path


class TestRoundTrip:
    def test_reopen_replays_history(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        log = IntentLog(path, run_key=RUN)
        assert log.length == 5
        entries = log.entries_from(0)
        assert [e.ordinal for e in entries] == list(range(5))
        assert entries[1].kind == "dummy"
        log.close()

    def test_append_continues_after_reopen(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        log = IntentLog(path, run_key=RUN)
        log.append(Intent(5, "real", addr=9, op="write", value="v"))
        log.close()
        again = IntentLog(path, run_key=RUN)
        assert again.length == 6
        assert again.entries_from(5)[0].value == "v"
        again.close()

    def test_append_enforces_dense_ordinals(self, tmp_path):
        log = IntentLog(tmp_path / "intents.log", run_key=RUN)
        log.append(Intent(0, "real", addr=1, op="read"))
        with pytest.raises(IntentLogCorrupt, match="out of order"):
            log.append(Intent(2, "real", addr=1, op="read"))
        log.close()

    def test_suffix_selection(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        log = IntentLog(path, run_key=RUN)
        assert [e.ordinal for e in log.entries_from(3)] == [3, 4]
        with pytest.raises(IntentLogCorrupt):
            log.entries_from(99)
        log.close()


class TestFailureModel:
    def test_torn_tail_is_dropped(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        with open(path, "a") as fh:
            fh.write('{"n":5,"k":"real","a')  # crash mid-append
        log = IntentLog(path, run_key=RUN)
        assert log.length == 5
        assert log.torn_tail_dropped == 1
        log.close()

    def test_mid_history_damage_is_fatal(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # torn, but not last
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntentLogCorrupt, match="before"):
            IntentLog(path, run_key=RUN)

    def test_ordinal_gap_is_fatal(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        lines = path.read_text().splitlines()
        del lines[2]  # remove intent 1: history no longer dense
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntentLogCorrupt, match="ordinal gap"):
            IntentLog(path, run_key=RUN)

    def test_foreign_run_key_refused(self, tmp_path):
        path = filled_log(tmp_path / "intents.log")
        with pytest.raises(IntentLogCorrupt, match="different run"):
            IntentLog(path, run_key={"kind": "test-fleet", "seed": 2})

    def test_unreadable_header_refused(self, tmp_path):
        path = tmp_path / "intents.log"
        path.write_text("not json\n")
        with pytest.raises(IntentLogCorrupt, match="header"):
            IntentLog(path, run_key=RUN)
