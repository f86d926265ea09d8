"""Per-shard append-only intent log: the replayable access history.

Every slot the supervisor dispatches to a shard — real client accesses
and padding dummies alike — is appended here *before* the shard executes
it (write-ahead).  Because a shard's ORAM state is a pure function of
its applied intent sequence (the serve-bridge determinism of DESIGN.md
§10), the log plus the newest checkpoint is a complete recovery recipe:
restore the snapshot taken after intent ``c``, replay entries
``c..tail``, and the respawned shard is bit-identical to the moment of
death — including an intent that was in flight when the worker died,
which the replay applies exactly once.

Failure model, mirroring :mod:`repro.system.checkpoint`:

* each append is a single unbuffered ``write`` of one
  ``\\n``-terminated JSON line; a crash mid-append can only tear the
  *final* line;
* reading tolerates exactly that: a torn last line is dropped (the
  intent never executed anywhere that matters — its shard died before
  acknowledging it, and the supervisor re-dispatches);
* anything else — a torn line *followed by* valid lines, an ordinal
  gap, a header mismatch — is :class:`IntentLogCorrupt`: the history is
  no longer trustworthy and the fleet must fail loudly rather than
  resurrect a shard into a guessed state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.serialize import SCHEMA_VERSION

#: Intent kinds: a client-requested access vs. a padding dummy slot.
KIND_REAL = "real"
KIND_DUMMY = "dummy"

# One compact encoder for every line (``json.dumps`` with non-default
# separators would build a fresh encoder per call).
_encode = json.JSONEncoder(separators=(",", ":")).encode


class IntentLogCorrupt(RuntimeError):
    """The log's recorded history is torn mid-sequence or inconsistent."""


@dataclass(slots=True, frozen=True)
class Intent:
    """One dispatched slot: what a shard must (re)apply at ``ordinal``.

    Attributes:
        ordinal: 0-based dense position in this shard's intent sequence.
        kind: ``"real"`` or ``"dummy"``.
        addr: Shard-local block address.
        op: ``"read"`` or ``"write"`` (dummies are always reads).
        value: Write payload (JSON-safe; ``None`` for reads).
    """

    ordinal: int
    kind: str
    addr: int
    op: str
    value: object = None

    def to_payload(self) -> dict[str, object]:
        return {
            "n": self.ordinal,
            "k": self.kind,
            "a": self.addr,
            "o": self.op,
            "v": self.value,
        }

    def to_line(self) -> str:
        return _encode(self.to_payload())

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "Intent":
        return cls(
            ordinal=int(payload["n"]),
            kind=str(payload["k"]),
            addr=int(payload["a"]),
            op=str(payload["o"]),
            value=payload.get("v"),
        )


class IntentLog:
    """Append-only write-ahead log of one shard's intent sequence.

    Args:
        path: Log file location (parent directories created).
        run_key: Identity of the run writing the log; stored in the
            header line and checked on reopen, so a directory reused
            across configurations can never replay a foreign history.

    Attributes:
        length: Number of durable intents (== the next ordinal).
    """

    def __init__(self, path: str | Path, run_key: dict[str, object]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_key = run_key
        self._entries: list[Intent] = []
        self.torn_tail_dropped = 0
        # Unbuffered binary: every line below is exactly one write(2).
        if self.path.exists():
            self._load()
            self._fh = self.path.open("ab", buffering=0)
        else:
            self._fh = self.path.open("wb", buffering=0)
            header = {"schema": SCHEMA_VERSION, "run": run_key}
            self._fh.write((_encode(header) + "\n").encode())

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        return len(self._entries)

    def append(self, intent: Intent) -> None:
        """Durably record one intent (must be the next dense ordinal)."""
        if intent.ordinal != len(self._entries):
            raise IntentLogCorrupt(
                f"append out of order: got ordinal {intent.ordinal}, "
                f"expected {len(self._entries)}"
            )
        self._fh.write((intent.to_line() + "\n").encode())
        self._entries.append(intent)

    def entries_from(self, start: int) -> list[Intent]:
        """The replay suffix: every durable intent from ``start`` on."""
        if start < 0 or start > len(self._entries):
            raise IntentLogCorrupt(
                f"replay start {start} outside durable history "
                f"0..{len(self._entries)}"
            )
        return list(self._entries[start:])

    def close(self) -> None:
        self._fh.close()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        raw_lines = self.path.read_text(encoding="utf-8").split("\n")
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        if not raw_lines:
            raise IntentLogCorrupt(f"{self.path}: empty log file")
        try:
            header = json.loads(raw_lines[0])
        except json.JSONDecodeError as exc:
            raise IntentLogCorrupt(f"{self.path}: unreadable header") from exc
        if header.get("schema") != SCHEMA_VERSION:
            raise IntentLogCorrupt(f"{self.path}: schema mismatch")
        if header.get("run") != self.run_key:
            raise IntentLogCorrupt(
                f"{self.path}: log belongs to a different run"
            )
        parsed: list[Intent] = []
        for i, line in enumerate(raw_lines[1:]):
            try:
                parsed.append(Intent.from_payload(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                if i == len(raw_lines) - 2:
                    # Torn tail: the crash interrupted the final append.
                    self.torn_tail_dropped += 1
                    break
                raise IntentLogCorrupt(
                    f"{self.path}: unreadable line {i + 1} before "
                    f"end of log — history is not trustworthy"
                ) from None
        for i, intent in enumerate(parsed):
            if intent.ordinal != i:
                raise IntentLogCorrupt(
                    f"{self.path}: ordinal gap at line {i + 1} "
                    f"(got {intent.ordinal}, expected {i})"
                )
        self._entries = parsed
