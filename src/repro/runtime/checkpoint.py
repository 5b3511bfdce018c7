"""Sweep checkpointing: a JSONL journal of completed evaluations.

Each completed evaluation — successful *or* exhausted-after-retries —
appends one self-contained JSON line::

    {"key": "sel:4x2x1:ABBA:-", "status": "ok",
     "payload": {"values": {...}, "cost": 12.3, "simulations": 4}}
    {"key": "sel:8x1x1:ABAB:-", "status": "failed",
     "failures": [{"code": "CONV-DC", ...}]}

Append-plus-flush keeps the journal crash-consistent: killing a sweep
mid-evaluation loses at most the in-flight evaluation.  On resume the
journal is replayed into a key -> entry map; the runtime answers cached
keys without re-simulating and re-records journaled failures into the
live :class:`~repro.runtime.failures.FailureLog` so resumed reports
account for every failure of the whole logical run.

A crash mid-append leaves a *torn tail*: a final line that is not valid
JSON.  Resume **truncates** the torn tail (recording how many bytes were
cut on :attr:`SweepJournal.truncated_tail`) before reopening the file
for append, so the resumed journal is clean JSONL end-to-end — a second
crash/resume cycle sees no artifact of the first.  An unreadable
*interior* line is different: it means the file was corrupted some other
way, and silently dropping completed work would be worse than stopping,
so it raises :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import CheckpointError
from repro.runtime import shutdown
from repro.runtime.failures import EvalFailure

STATUS_OK = "ok"
STATUS_FAILED = "failed"
#: Status of lines older journals wrote for candidates a since-removed
#: learned sweep pruner skipped without simulating.  They carry no
#: result, so replay drops them: the key reads as not-completed and a
#: resumed run evaluates it.
STATUS_PRUNED = "pruned"


class SweepJournal:
    """Append-only JSONL journal of completed evaluations.

    Args:
        path: Journal file path (parent directories are created).
        resume: Replay an existing journal when True; truncate and start
            fresh when False.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, dict] = {}
        #: Bytes cut off the journal tail on resume (0 for a clean file).
        self.truncated_tail = 0
        if resume and self.path.exists():
            self._replay()
        elif not resume:
            self.path.write_text("")
        self._file = self.path.open("a", encoding="utf-8")
        shutdown.register_flushable(self)

    def _replay(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        nonempty = [i for i, chunk in enumerate(lines) if chunk.strip()]
        last = nonempty[-1] if nonempty else -1
        offset = 0
        good_end = 0  # byte offset just past the last well-formed line
        for i, chunk in enumerate(lines):
            end = offset + len(chunk) + (1 if i < len(lines) - 1 else 0)
            stripped = chunk.strip()
            if not stripped:
                offset = end
                continue
            try:
                entry = json.loads(stripped.decode("utf-8"))
                key = entry["key"]
                status = entry["status"]
            except (
                UnicodeDecodeError,
                json.JSONDecodeError,
                KeyError,
                TypeError,
            ):
                # A torn *final* line is the expected crash artifact:
                # truncate it so the resumed journal appends to clean
                # JSONL.  A torn *interior* line means some other
                # corruption; skipping it would drop completed work.
                if i == last:
                    self.truncated_tail = len(raw) - good_end
                    break
                raise CheckpointError(
                    f"{self.path}:{i + 1}: unreadable journal entry"
                ) from None
            if status not in (STATUS_OK, STATUS_FAILED, STATUS_PRUNED):
                raise CheckpointError(
                    f"{self.path}:{i + 1}: unknown status {status!r}"
                )
            if status != STATUS_PRUNED:
                self._entries[key] = entry
            offset = end
            good_end = end
        if self.truncated_tail:
            with self.path.open("rb+") as handle:
                handle.truncate(good_end)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def lookup(self, key: str) -> dict | None:
        """The journal entry for ``key``, or None if not completed."""
        return self._entries.get(key)

    def journaled_failures(self, key: str) -> list[EvalFailure]:
        """Failures journaled for ``key`` (empty for successes)."""
        entry = self._entries.get(key)
        if entry is None:
            return []
        return [EvalFailure.from_dict(f) for f in entry.get("failures", ())]

    # -- writes ----------------------------------------------------------

    def _append(self, entry: dict) -> None:
        self._entries[entry["key"]] = entry
        self._file.write(json.dumps(entry, sort_keys=True) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def record_success(
        self, key: str, payload: dict, failures: list[EvalFailure] | None = None
    ) -> None:
        """Journal a completed successful evaluation.

        ``failures`` carries any retried-then-recovered attempts so a
        resumed run replays the *complete* failure accounting of the
        logical run, not just its exhausted evaluations.
        """
        entry: dict = {"key": key, "status": STATUS_OK, "payload": payload}
        if failures:
            entry["failures"] = [f.to_dict() for f in failures]
        self._append(entry)

    def record_failure(self, key: str, failures: list[EvalFailure]) -> None:
        """Journal an evaluation that exhausted its retry budget."""
        self._append(
            {
                "key": key,
                "status": STATUS_FAILED,
                "failures": [f.to_dict() for f in failures],
            }
        )

    def flush(self) -> None:
        """Force buffered appends to disk (signal-handler durability hook).

        Every :meth:`_append` already flushes and fsyncs, so this is
        normally a no-op — it exists so
        :func:`repro.runtime.shutdown.graceful_shutdown` can flush all
        registered sinks without knowing their types.
        """
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
