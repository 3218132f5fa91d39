"""Durable write-ahead journal for :class:`~repro.core.live.LiveDataset`.

PR 8 made the dataset a continuously-written structure, but every live
session existed only in process memory: a SIGKILL lost every acknowledged
mutation.  This module adds the durability layer underneath it — an
**append-only, per-record-checksummed, segment-rotated** journal whose
replay reconstructs the live state byte-for-byte:

* every record is one line, ``<sha256-of-payload> <canonical-json>``, so
  a torn write (process killed mid-append, disk full) is detectable per
  record, not per file;
* segments rotate at a configurable byte ceiling
  (``segment-00000001.log``, ``segment-00000002.log``, …) so compaction
  can drop history without rewriting live files;
* :meth:`LiveJournal.snapshot` writes a checksummed **snapshot** of the
  full live state — the rankings *and* the delta-maintained before/tied
  matrices — then deletes every older segment and snapshot.  Replay from
  a snapshot adopts the stored matrices and text lines
  (:meth:`~repro.core.live.LiveDataset.adopt_lines`) instead of
  re-counting them, which is what makes recovery a fast tail-replay
  rather than a full rebuild;
* mutation records are applied through
  :meth:`~repro.core.live.LiveDataset.apply`, the same code that applies
  a live session's writes, so a journal replays exactly what was
  acknowledged;
* :func:`replay_journal` tolerates exactly one kind of damage — a torn
  *tail* on the newest segment, which it truncates (the unacknowledged
  write that was in flight when the process died).  A bad record with
  valid records after it is real corruption and raises
  :class:`JournalCorruptionError`: silently skipping it would replay a
  different history than was acknowledged.

Durability contract
-------------------

Appends are flushed to the OS page cache before :meth:`LiveJournal.append`
returns, whatever the fsync policy — so an acknowledged mutation survives
the *process* being SIGKILLed.  The ``fsync`` policy governs survival of a
*machine* crash:

``"always"``
    ``fsync`` after every record.  Slowest, zero-loss.
``"batch"`` (default)
    ``fsync`` every ``batch_records`` appends and on rotation, snapshot
    and close.  Bounded loss window on power failure, near-zero overhead.
``"never"``
    Leave it to the OS.  Process-crash-safe only.

Because PR 8's delta updates are associative int64 arithmetic, the state
produced by replaying a journal is **byte-identical** to a from-scratch
:func:`~repro.core.prepared.prepare_rankings` over the same mutation
history — the invariant the recovery test suite pins.

Fault-injection sites (:mod:`repro.testing.faults`): ``journal.append``
fires before a record is written, ``journal.fsync`` before each fsync.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..telemetry import runtime as _telemetry
from ..testing import faults as _faults
from .exceptions import ReproError
from .live import LiveDataset
from .ranking import Ranking, format_ranking, parse_ranking

__all__ = [
    "JournalError",
    "JournalCorruptionError",
    "LiveJournal",
    "ReplayResult",
    "replay_journal",
    "journal_exists",
    "init_record",
    "mutation_record",
    "repair_record",
    "FSYNC_POLICIES",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_BATCH_RECORDS",
]

#: Accepted ``fsync`` policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "never")

#: Segment rotation ceiling: a segment that would exceed this many bytes
#: is closed and a new one opened.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: ``fsync="batch"``: records between forced fsyncs.  Every append is
#: still flushed to the OS (process death loses nothing acknowledged);
#: the batch interval only bounds loss on a machine crash, so it trades
#: a larger bound for keeping the write path out of fsync latency
#: (amortized fsync is what dominates the journal tax otherwise).
DEFAULT_BATCH_RECORDS = 256

# Telemetry instrument names (pinned; core cannot import repro.service).
JOURNAL_APPENDS = "journal.appends"
JOURNAL_FSYNCS = "journal.fsyncs"
JOURNAL_ROTATIONS = "journal.rotations"
JOURNAL_SNAPSHOTS = "journal.snapshots"
JOURNAL_REPLAYED = "journal.replayed_records"
JOURNAL_TRUNCATED = "journal.truncated_records"
JOURNAL_RECOVERED = "journal.recovered_sessions"

_SEGMENT_PATTERN = re.compile(r"^segment-(\d{8})\.log$")
_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{8})\.json$")
_MUTATION_TYPES = frozenset({"add", "remove", "update"})


class JournalError(ReproError, RuntimeError):
    """A journal operation that cannot proceed (bad policy, closed writer,
    opening a fresh session over a non-empty journal, …)."""


class JournalCorruptionError(JournalError):
    """Journal content that cannot be trusted.

    Raised on a checksum/parse failure that is *not* a torn tail — a bad
    record followed by valid ones, an undecodable snapshot with its
    history already compacted away, or a record stream inconsistent with
    the dataset it replays onto.  Unlike a torn tail (truncated quietly:
    the write was never acknowledged), this damage means acknowledged
    history is unrecoverable, which must never be papered over.
    """


def _canonical(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode_matrix(matrix: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(matrix, dtype=np.int64).tobytes()).decode("ascii")


def _decode_matrix(data: str, n: int) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data), dtype=np.int64).reshape(n, n)


# --------------------------------------------------------------------------- #
# Record constructors (the pinned journal vocabulary)
# --------------------------------------------------------------------------- #
def init_record(
    name: str,
    rankings: Any,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The journal's first record: the initial population of the dataset.

    Parameters
    ----------
    name:
        The live dataset's name.
    rankings:
        The initial rankings (serialized to the paper's text format).
    metadata:
        Free-form dataset metadata (must be JSON-representable).
    """
    return {
        "type": "init",
        "name": name,
        "rankings": [format_ranking(ranking) for ranking in rankings],
        "metadata": dict(metadata or {}),
    }


def mutation_record(
    kind: str,
    generation: int,
    *,
    index: int | None = None,
    ranking: Ranking | str | None = None,
) -> dict[str, Any]:
    """One acknowledged write: ``add`` / ``remove`` / ``update``.

    Parameters
    ----------
    kind:
        The mutation kind.
    generation:
        The dataset generation *after* the mutation applied.
    index:
        The position the mutation touched (the resolved position for
        ``add``, so replay is deterministic even for append-at-end).
    ranking:
        The ranking added or substituted (absent for ``remove``).  An
        already-serialized text line is stored as-is — callers holding a
        cached serialization (:meth:`~repro.core.live.LiveDataset.line_at`)
        skip re-formatting on the hot write path.
    """
    if kind not in _MUTATION_TYPES:
        raise JournalError(f"unknown mutation kind {kind!r}")
    record: dict[str, Any] = {"type": kind, "generation": generation, "index": index}
    if ranking is not None:
        record["ranking"] = (
            ranking if isinstance(ranking, str) else format_ranking(ranking)
        )
    return record


def repair_record(
    generation: int,
    consensus: Ranking,
    score: int,
    algorithm: str,
) -> dict[str, Any]:
    """One published consensus: what recovery warm-starts from.

    Parameters
    ----------
    generation:
        The dataset generation the consensus was repaired up to.
    consensus:
        The published consensus ranking.
    score:
        Its generalized Kemeny score against that generation's weights.
    algorithm:
        Registry name of the algorithm that produced it.
    """
    return {
        "type": "repair",
        "generation": generation,
        "consensus": [list(bucket) for bucket in consensus.buckets],
        "score": int(score),
        "algorithm": algorithm,
    }


# --------------------------------------------------------------------------- #
# Segment scanning
# --------------------------------------------------------------------------- #
def _scan_segment(path: Path) -> tuple[list[dict[str, Any]], int, int]:
    """Parse one segment file.

    Returns ``(records, valid_bytes, torn_records)`` where ``valid_bytes``
    is the byte offset after the last valid record.  A damaged record is
    tolerated only as the *tail* (everything after the valid prefix holds
    no further valid record); damage followed by a valid record raises
    :class:`JournalCorruptionError`.
    """
    data = path.read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    valid_bytes = 0
    torn = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline + 1
        line = data[offset:end]
        record = _parse_record_line(line) if newline >= 0 else None
        if record is None:
            # Invalid (or unterminated) line: a torn tail only if no
            # valid record follows anywhere after it.
            remainder = data[offset:]
            torn = sum(1 for part in remainder.split(b"\n") if part.strip())
            for part in remainder.split(b"\n"):
                if _parse_record_line(part + b"\n") is not None:
                    raise JournalCorruptionError(
                        f"corrupt record mid-segment in {path.name} at byte "
                        f"{offset}: valid records follow the damage"
                    )
            break
        records.append(record)
        offset = end
        valid_bytes = end
    return records, valid_bytes, torn


def _parse_record_line(line: bytes) -> dict[str, Any] | None:
    """Decode one ``<checksum> <json>\\n`` line; ``None`` when invalid."""
    if not line.endswith(b"\n"):
        return None
    try:
        text = line[:-1].decode("utf-8")
    except UnicodeDecodeError:
        return None
    checksum, _, payload = text.partition(" ")
    if len(checksum) != 64 or not payload:
        return None
    if _checksum(payload) != checksum:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _list_indexed(directory: Path, pattern: re.Pattern[str]) -> list[tuple[int, Path]]:
    entries = []
    if directory.is_dir():
        for path in directory.iterdir():
            match = pattern.match(path.name)
            if match:
                entries.append((int(match.group(1)), path))
    entries.sort()
    return entries


def journal_exists(directory: str | Path) -> bool:
    """Whether ``directory`` holds any journal content (segments/snapshots).

    Parameters
    ----------
    directory:
        The journal directory to probe.
    """
    directory = Path(directory)
    return bool(
        _list_indexed(directory, _SEGMENT_PATTERN)
        or _list_indexed(directory, _SNAPSHOT_PATTERN)
    )


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
class LiveJournal:
    """Append-only writer over one journal directory.

    Opening a writer on a directory with existing segments first truncates
    any torn tail off the newest segment (the same repair replay performs),
    then continues appending to it — or rotates, if it already reached the
    segment ceiling.

    Parameters
    ----------
    directory:
        The journal directory (created if missing).
    fsync:
        Disk-durability policy, one of :data:`FSYNC_POLICIES`.
    batch_records:
        ``fsync="batch"``: records between forced fsyncs.
    segment_max_bytes:
        Rotation ceiling per segment file.
    name:
        Label used in telemetry and fault-injection keys (defaults to the
        directory name).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "batch",
        batch_records: int = DEFAULT_BATCH_RECORDS,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        name: str | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if batch_records < 1:
            raise JournalError(f"batch_records must be >= 1, got {batch_records}")
        if segment_max_bytes < 1:
            raise JournalError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.batch_records = batch_records
        self.segment_max_bytes = segment_max_bytes
        self.name = name if name is not None else self.directory.name
        self._closed = False
        self._appended = 0
        self._since_fsync = 0
        self._since_snapshot = 0
        segments = _list_indexed(self.directory, _SEGMENT_PATTERN)
        snapshots = _list_indexed(self.directory, _SNAPSHOT_PATTERN)
        self._had_records = bool(segments or snapshots)
        if segments:
            index, last = segments[-1]
            _, valid_bytes, torn = _scan_segment(last)
            if torn:
                with open(last, "r+b") as handle:
                    handle.truncate(valid_bytes)
                if _telemetry.is_enabled():
                    _telemetry.count(JOURNAL_TRUNCATED, torn, journal=self.name)
            self._segment_index = index
            self._segment_bytes = last.stat().st_size
        else:
            self._segment_index = (snapshots[-1][0] if snapshots else 1)
            self._segment_bytes = 0
        self._handle = open(self._segment_path(self._segment_index), "ab")

    # ------------------------------------------------------------------ #
    @property
    def appended(self) -> int:
        """Records appended through this writer instance."""
        return self._appended

    @property
    def appended_since_snapshot(self) -> int:
        """Records appended since this writer last wrote a snapshot."""
        return self._since_snapshot

    @property
    def had_records(self) -> bool:
        """Whether the directory held journal content when the writer opened."""
        return self._had_records

    @property
    def segment_index(self) -> int:
        """Index of the segment currently being appended to."""
        return self._segment_index

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran."""
        return self._closed

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"segment-{index:08d}.log"

    def _snapshot_path(self, index: int) -> Path:
        return self.directory / f"snapshot-{index:08d}.json"

    # ------------------------------------------------------------------ #
    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (write-ahead acknowledgement point).

        The record is flushed to the OS page cache before this returns —
        an acknowledged append survives SIGKILL; the fsync policy decides
        when it also survives power loss.

        Parameters
        ----------
        record:
            A JSON-representable record (see the record constructors).
        """
        if self._closed:
            raise JournalError(f"journal {self.name!r} is closed")
        _faults.maybe_fire(
            "journal.append", key=f"{self.name}:{record.get('type', '')}",
            attempt=self._appended,
        )
        payload = _canonical(record)
        data = f"{_checksum(payload)} {payload}\n".encode("utf-8")
        if self._segment_bytes and self._segment_bytes + len(data) > self.segment_max_bytes:
            self._rotate()
        self._handle.write(data)
        self._handle.flush()
        self._segment_bytes += len(data)
        self._appended += 1
        self._since_snapshot += 1
        self._since_fsync += 1
        if _telemetry.is_enabled():
            _telemetry.count(
                JOURNAL_APPENDS, journal=self.name, type=str(record.get("type", ""))
            )
        if self.fsync_policy == "always" or (
            self.fsync_policy == "batch" and self._since_fsync >= self.batch_records
        ):
            self._fsync()

    def flush(self) -> None:
        """Flush and fsync the current segment, whatever the policy."""
        if self._closed:
            return
        self._handle.flush()
        self._fsync()

    def _fsync(self) -> None:
        _faults.maybe_fire("journal.fsync", key=self.name)
        os.fsync(self._handle.fileno())
        self._since_fsync = 0
        if _telemetry.is_enabled():
            _telemetry.count(JOURNAL_FSYNCS, journal=self.name)

    def _rotate(self) -> None:
        """Close the full segment (fsynced) and open the next one."""
        self._handle.flush()
        if self.fsync_policy != "never":
            self._fsync()
        self._handle.close()
        self._segment_index += 1
        self._segment_bytes = 0
        self._handle = open(self._segment_path(self._segment_index), "ab")
        if _telemetry.is_enabled():
            _telemetry.count(JOURNAL_ROTATIONS, journal=self.name)

    # ------------------------------------------------------------------ #
    def snapshot(
        self,
        dataset: LiveDataset,
        *,
        consensus: Ranking | None = None,
        score: int | None = None,
        algorithm: str | None = None,
        repair_generation: int | None = None,
    ) -> Path:
        """Write a compaction snapshot and drop the history it covers.

        The snapshot carries the full recoverable state — rankings, the
        delta-maintained before/tied matrices (so replay adopts instead of
        recounting), generation and the latest published consensus.  Every
        segment and snapshot older than it is deleted; subsequent appends
        go to a fresh segment.

        Parameters
        ----------
        dataset:
            The live dataset whose current generation is snapshot.
        consensus, score, algorithm:
            The latest published consensus (recovery warm-starts from it).
        repair_generation:
            The generation that consensus was repaired up to (defaults to
            the snapshot generation, i.e. a fresh consensus).
        """
        if self._closed:
            raise JournalError(f"journal {self.name!r} is closed")
        weights = dataset.weights()
        payload: dict[str, Any] = {
            "type": "snapshot",
            "name": dataset.name,
            "metadata": dict(dataset.metadata),
            "generation": dataset.generation,
            "num_elements": dataset.num_elements,
            "elements": list(dataset.elements),
            "rankings": [dataset.line_at(i) for i in range(dataset.num_rankings)],
            "before": _encode_matrix(weights.before_matrix),
            "tied": _encode_matrix(weights.tied_matrix),
        }
        if consensus is not None:
            payload["consensus"] = [list(bucket) for bucket in consensus.buckets]
            payload["score"] = None if score is None else int(score)
            payload["algorithm"] = algorithm
            payload["repair_generation"] = (
                dataset.generation if repair_generation is None else repair_generation
            )
        text = _canonical(payload)
        document = json.dumps({"checksum": _checksum(text), "payload": payload})
        # Seal the current segment first so the snapshot index cleanly
        # partitions history: everything < index is covered by it.
        self._handle.flush()
        if self.fsync_policy != "never":
            self._fsync()
        self._handle.close()
        covered = self._segment_index
        index = covered + 1
        path = self._snapshot_path(index)
        temporary = path.with_suffix(".json.tmp")
        temporary.write_text(document, encoding="utf-8")
        with open(temporary, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        for seg_index, seg_path in _list_indexed(self.directory, _SEGMENT_PATTERN):
            if seg_index <= covered:
                seg_path.unlink()
        for snap_index, snap_path in _list_indexed(self.directory, _SNAPSHOT_PATTERN):
            if snap_index < index:
                snap_path.unlink()
        self._segment_index = index
        self._segment_bytes = 0
        self._since_snapshot = 0
        self._handle = open(self._segment_path(index), "ab")
        if _telemetry.is_enabled():
            _telemetry.count(JOURNAL_SNAPSHOTS, journal=self.name)
        return path

    def close(self) -> None:
        """Flush, fsync and release the current segment (idempotent)."""
        if self._closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "LiveJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"LiveJournal({str(self.directory)!r}, fsync={self.fsync_policy!r}, "
            f"segment={self._segment_index}, appended={self._appended})"
        )


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReplayResult:
    """Everything :func:`replay_journal` reconstructed.

    Attributes
    ----------
    dataset:
        The recovered live dataset, generation aligned with the journal.
    generation:
        The dataset generation the journal reached.
    consensus:
        The last published consensus (``None`` if none was journaled).
    score:
        Its journaled score (against the weights of
        :attr:`repair_generation`).
    algorithm:
        Registry name of the algorithm that published it.
    repair_generation:
        The generation :attr:`consensus` was repaired up to (recovery is
        stale when it trails :attr:`generation`).
    replayed_records:
        Mutation/repair records applied on top of the starting state.
    truncated_records:
        Torn trailing records dropped from the newest segment.
    from_snapshot:
        Whether replay started from a compaction snapshot (fast path)
        rather than the init record.
    """

    dataset: LiveDataset
    generation: int
    consensus: Ranking | None
    score: int | None
    algorithm: str | None
    repair_generation: int | None
    replayed_records: int
    truncated_records: int
    from_snapshot: bool


def _load_snapshot(path: Path) -> dict[str, Any] | None:
    """Decode and verify one snapshot document; ``None`` when damaged."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return None
    if not isinstance(document, dict):
        return None
    payload = document.get("payload")
    if not isinstance(payload, dict):
        return None
    if _checksum(_canonical(payload)) != document.get("checksum"):
        return None
    return payload


def replay_journal(
    directory: str | Path, *, truncate: bool = True
) -> ReplayResult:
    """Reconstruct the live state a journal directory describes.

    Starts from the newest verifiable snapshot when one exists (adopting
    its matrices — no recount), else from the init record, then applies
    every later mutation in order.  A torn tail on the newest segment is
    dropped (and physically truncated when ``truncate`` is set); any other
    damage raises :class:`JournalCorruptionError`.

    Parameters
    ----------
    directory:
        The journal directory to replay.
    truncate:
        Physically truncate a torn tail off the newest segment (the
        repair a recovering writer would perform anyway).
    """
    directory = Path(directory)
    segments = _list_indexed(directory, _SEGMENT_PATTERN)
    snapshots = _list_indexed(directory, _SNAPSHOT_PATTERN)
    if not segments and not snapshots:
        raise JournalError(f"no journal content in {directory}")

    snapshot: dict[str, Any] | None = None
    snapshot_index = 0
    for index, path in reversed(snapshots):
        snapshot = _load_snapshot(path)
        if snapshot is not None:
            snapshot_index = index
            break
        # A damaged snapshot is only survivable while the history it
        # compacted away still exists (an older snapshot or the init
        # record); keep looking.
    if snapshots and snapshot is None and not any(
        index < snapshots[0][0] for index, _ in segments
    ):
        covered = min(index for index, _ in snapshots)
        if not any(index < covered for index, _ in segments):
            raise JournalCorruptionError(
                f"every snapshot in {directory} is damaged and the history "
                "they compacted away has been deleted"
            )

    dataset: LiveDataset | None = None
    consensus: Ranking | None = None
    score: int | None = None
    algorithm: str | None = None
    repair_generation: int | None = None
    generation = 0
    if snapshot is not None:
        n = int(snapshot["num_elements"])
        generation = int(snapshot["generation"])
        # Adopt the canonical text lines without parsing: only rankings
        # the tail actually touches get parsed, which keeps replay O(tail)
        # instead of O(m).
        dataset = LiveDataset.adopt_lines(
            snapshot["rankings"],
            snapshot["elements"],
            _decode_matrix(snapshot["before"], n),
            _decode_matrix(snapshot["tied"], n),
            name=str(snapshot.get("name", directory.name)),
            metadata=snapshot.get("metadata") or {},
            generation=generation,
        )
        if snapshot.get("consensus") is not None:
            consensus = Ranking(snapshot["consensus"])
            score = snapshot.get("score")
            score = None if score is None else int(score)
            algorithm = snapshot.get("algorithm")
            repair_generation = int(snapshot.get("repair_generation", generation))

    replayed = 0
    truncated_total = 0
    live_segments = [
        (index, path) for index, path in segments if index >= snapshot_index
    ]
    for position, (index, path) in enumerate(live_segments):
        records, valid_bytes, torn = _scan_segment(path)
        if torn:
            if position != len(live_segments) - 1:
                raise JournalCorruptionError(
                    f"segment {path.name} has a damaged tail but newer "
                    "segments follow it"
                )
            truncated_total += torn
            if truncate:
                with open(path, "r+b") as handle:
                    handle.truncate(valid_bytes)
        for record in records:
            kind = record.get("type")
            if kind == "init":
                if dataset is not None:
                    raise JournalCorruptionError(
                        f"unexpected init record mid-journal in {path.name}"
                    )
                dataset = LiveDataset(
                    [parse_ranking(line) for line in record["rankings"]],
                    name=str(record.get("name", directory.name)),
                    metadata=record.get("metadata") or {},
                )
                replayed += 1
                continue
            if dataset is None:
                raise JournalCorruptionError(
                    f"record of type {kind!r} before any init record or "
                    f"snapshot in {path.name}"
                )
            if kind in _MUTATION_TYPES:
                write = {
                    "op": kind,
                    "index": record.get("index"),
                    "ranking": record.get("ranking"),
                }
                try:
                    dataset.apply(write)
                except ValueError as error:
                    raise JournalCorruptionError(
                        f"{kind} record in {path.name} does not apply to the "
                        f"replayed dataset: {error}"
                    ) from error
            elif kind == "repair":
                consensus = Ranking(record["consensus"])
                score = int(record["score"])
                algorithm = record.get("algorithm")
                repair_generation = int(record["generation"])
                replayed += 1
                continue
            else:
                raise JournalCorruptionError(
                    f"unknown record type {kind!r} in {path.name}"
                )
            generation = int(record.get("generation", dataset.generation))
            replayed += 1
    if dataset is None:
        raise JournalCorruptionError(
            f"journal in {directory} holds no init record and no snapshot"
        )
    # Align the in-memory mutation counter with the journaled history so
    # resumed writers and stream offsets agree on how far the state got.
    dataset._generation = generation
    if _telemetry.is_enabled():
        _telemetry.count(JOURNAL_REPLAYED, replayed, journal=directory.name)
        if truncated_total:
            _telemetry.count(
                JOURNAL_TRUNCATED, truncated_total, journal=directory.name
            )
    return ReplayResult(
        dataset=dataset,
        generation=generation,
        consensus=consensus,
        score=score,
        algorithm=algorithm,
        repair_generation=repair_generation,
        replayed_records=replayed,
        truncated_records=truncated_total,
        from_snapshot=snapshot is not None,
    )
