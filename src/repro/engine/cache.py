"""Disk-backed, content-addressed cache of (algorithm, dataset) results.

Every run executed by the engine is persisted as one small JSON record
under ``<cache_dir>/<key[:2]>/<key>.json``, where ``key`` is the content
address computed by :mod:`repro.engine.fingerprint` from the dataset
fingerprint, the algorithm name, the parameter hash, the time budget and
the library version.  Re-running an experiment therefore re-executes
nothing: every (algorithm, dataset) pair resolves to a cache hit, and the
engine rebuilds the report from the stored scores.

There is no locking and no eviction.  Records are written atomically
(write-to-temp + rename), so concurrent workers and processes can share a
cache directory; the worst case of a race is the same record being
written twice with identical content.

**Dataset index.**  Live serving purges every record of one dataset on
each acknowledged write, so :meth:`ResultCache.invalidate` with a
``dataset_fingerprint`` must not open every record.  Next to the records
lives an index from dataset fingerprint to record keys: one empty marker
file ``<cache_dir>/by-dataset/<h[:2]>/<h>/<key>`` per record, where ``h``
is the sha256 hex digest of the record's ``dataset_fingerprint`` string
(so any fingerprint is a safe path component).  Markers carry no
``.json`` suffix and sit one level deeper than records, so the record glob
never sees them.  The index stays correct under concurrent writers:

* ``store`` writes the marker *before* the atomic record rename, so a
  crash in between leaves a harmless dangling marker, never a record the
  index does not know.  After the rename it checks the marker again and
  recreates it if a concurrent invalidation removed it.
* ``invalidate(dataset_fingerprint=...)`` lists only that fingerprint's
  marker directory and re-reads each record before unlinking it, applying
  the same filters as a full scan, so a stale marker never deletes a
  record that does not match.  The record is unlinked before its marker;
  a dropped marker is restored if a concurrent store has re-written a
  matching record meanwhile.  Invalidation by ``algorithm`` alone keeps
  the full scan and removes the marker of every record it deletes (and
  the marker directory once empty); with no criterion it is :meth:`clear`.
* A directory without ``by-dataset/FORMAT`` (written before the index
  existed, or interrupted mid-``clear``) is indexed by one full scan when
  a :class:`ResultCache` opens it; ``FORMAT`` is written last.

A writer of the index-less layout sharing a directory *concurrently* with
this one is not supported: its records get no marker, so fingerprint
invalidation by this version does not see them until the directory is
re-indexed.

It is self-healing: a lookup that finds an unparseable or structurally
invalid record **quarantines** the file (renamed to ``*.corrupt-*``, which
no record glob matches) instead of silently re-parsing the same broken
JSON on every lookup, ticks the ``cache.corrupt`` telemetry counter, and
reports a miss so the engine recomputes and re-stores a good record.  The
``"cache.store"`` fault-injection site (:mod:`repro.testing.faults`) can
garble a just-written record deterministically to exercise exactly that
path.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..telemetry import runtime as _telemetry
from ..testing import faults as _faults

__all__ = ["CacheStats", "ResultCache"]

# The dataset index: ``<cache_dir>/by-dataset/<h[:2]>/<h>/<key>`` markers,
# complete once ``by-dataset/FORMAT`` exists.
_INDEX_DIR = "by-dataset"
_INDEX_FORMAT = "FORMAT"


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the cache content plus this session's hit/miss counters.

    Attributes
    ----------
    directory:
        Filesystem location of the cache.
    entries:
        Number of records currently on disk.
    size_bytes:
        Total size of the records on disk.
    hits, misses:
        Lookup counters of this session (not persisted).
    corrupt:
        Corrupt records quarantined by lookups this session.
    """

    directory: str
    entries: int
    size_bytes: int
    hits: int
    misses: int
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> dict[str, object]:
        return {
            "directory": self.directory,
            "entries": self.entries,
            "size_bytes": self.size_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "corrupt": self.corrupt,
        }


class ResultCache:
    """Persistent result store addressed by run content keys.

    Parameters
    ----------
    directory:
        Cache directory; created (with parents) when missing.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._index = self.directory / _INDEX_DIR
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        if not (self._index / _INDEX_FORMAT).exists():
            self._build_index()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def lookup(self, key: str) -> dict[str, Any] | None:
        """Return the stored record for ``key``, or ``None`` on a miss.

        A present-but-corrupt record (unparseable JSON, or not a JSON
        object) is quarantined on the spot — renamed to a ``*.corrupt-*``
        sibling that no record glob matches — so the next lookup is a
        clean miss and the engine recomputes, instead of re-parsing the
        same broken bytes forever.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise json.JSONDecodeError("record is not an object", "", 0)
        except FileNotFoundError:
            self._misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._quarantine(path)
            self._misses += 1
            return None
        self._hits += 1
        return record

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt record file out of the cache's namespace."""
        self._corrupt += 1
        if _telemetry.is_enabled():
            _telemetry.count("cache.corrupt", file=path.name)
        target = path.with_name(
            f"{path.name}.corrupt-{os.getpid()}-{self._corrupt}"
        )
        try:
            os.replace(path, target)
        except OSError:
            # Lost a quarantine race with another process, or the file
            # vanished — either way the bad bytes are gone from this path.
            pass

    def store(self, key: str, record: dict[str, Any]) -> None:
        """Persist ``record`` under ``key`` (atomic write, indexed first)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(record)
        payload.setdefault("key", key)
        payload.setdefault("created_at", time.time())
        fingerprint = payload.get("dataset_fingerprint")
        marker = (
            self._mark(fingerprint, key) if isinstance(fingerprint, str) else None
        )
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if marker is not None and not marker.exists():
            # A concurrent invalidation dropped the marker before the rename.
            self._mark(fingerprint, key)
        # Fault-injection site "cache.store": a ``corrupt`` rule garbles the
        # just-written record, simulating disk corruption deterministically.
        rule = _faults.maybe_decide("cache.store", key)
        if rule is not None and rule.kind == "corrupt":
            path.write_text("{corrupted-record", encoding="utf-8")

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    # ------------------------------------------------------------------ #
    # Introspection / invalidation
    # ------------------------------------------------------------------ #
    def _record_paths(self) -> Iterator[Path]:
        if not self.directory.exists():
            return
        for path in sorted(self.directory.glob("*/*.json")):
            if not path.name.startswith("."):
                yield path

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Yield every stored record (skipping unreadable files)."""
        for path in self._record_paths():
            try:
                with path.open("r", encoding="utf-8") as handle:
                    yield json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue

    def invalidate(
        self,
        *,
        algorithm: str | None = None,
        dataset_fingerprint: str | None = None,
    ) -> int:
        """Remove the records matching the given criteria; return the count.

        With no criterion this clears the whole cache (same as
        :meth:`clear`).
        """
        if algorithm is None and dataset_fingerprint is None:
            return self.clear()
        if isinstance(dataset_fingerprint, str):
            return self._invalidate_indexed(dataset_fingerprint, algorithm)
        removed = 0
        for path in list(self._record_paths()):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if algorithm is not None and record.get("algorithm") != algorithm:
                continue
            if (
                dataset_fingerprint is not None
                and record.get("dataset_fingerprint") != dataset_fingerprint
            ):
                continue
            path.unlink(missing_ok=True)
            removed += 1
            fingerprint = record.get("dataset_fingerprint")
            if isinstance(fingerprint, str):
                marker_dir = self._marker_dir(fingerprint)
                self._drop_marker(marker_dir, fingerprint, path)
                _remove_if_empty(marker_dir)
        return removed

    def clear(self) -> int:
        """Remove every record and index marker; return the records removed.

        The markers go before the records, so a record that a concurrent
        store renames in after the records are listed keeps its marker:
        that store re-checks the marker after its rename.  ``FORMAT`` is
        dropped first and written back last, so an interrupted clear is
        re-indexed on the next open.
        """
        (self._index / _INDEX_FORMAT).unlink(missing_ok=True)
        shutil.rmtree(self._index, ignore_errors=True)
        removed = 0
        for path in list(self._record_paths()):
            path.unlink(missing_ok=True)
            removed += 1
        self._write_format()
        return removed

    # ------------------------------------------------------------------ #
    # Dataset index
    # ------------------------------------------------------------------ #
    def _marker_dir(self, fingerprint: str) -> Path:
        digest = hashlib.sha256(
            fingerprint.encode("utf-8", "surrogatepass")
        ).hexdigest()
        return self._index / digest[:2] / digest

    def _mark(self, fingerprint: str, key: str) -> Path:
        """Create the (empty) marker of ``key`` under ``fingerprint``."""
        marker = self._marker_dir(fingerprint) / key
        while True:
            try:
                os.close(os.open(marker, os.O_WRONLY | os.O_CREAT, 0o644))
                return marker
            except FileNotFoundError:
                # First marker of this fingerprint, or a concurrent
                # invalidation just removed the emptied directory.
                marker.parent.mkdir(parents=True, exist_ok=True)

    def _drop_marker(self, marker_dir: Path, fingerprint: str, path: Path) -> None:
        """Unlink the marker of record ``path``; restore it if the record is back."""
        key = path.name[: -len(".json")]
        (marker_dir / key).unlink(missing_ok=True)
        if path.exists():
            # A concurrent store may have re-written a matching record
            # after the caller's read, seeing the marker still in place.
            record = _read_record(path)
            if record is not None and record.get("dataset_fingerprint") == fingerprint:
                self._mark(fingerprint, key)

    def _write_format(self) -> None:
        self._index.mkdir(exist_ok=True)
        (self._index / _INDEX_FORMAT).write_text("1\n", encoding="utf-8")

    def _build_index(self) -> None:
        """Index a directory that has no complete index: one full scan."""
        for path in self._record_paths():
            record = _read_record(path)
            fingerprint = None if record is None else record.get("dataset_fingerprint")
            if isinstance(fingerprint, str):
                self._mark(fingerprint, path.name[: -len(".json")])
        self._write_format()

    def _invalidate_indexed(self, fingerprint: str, algorithm: str | None) -> int:
        """Fingerprint invalidation that opens only the indexed records."""
        marker_dir = self._marker_dir(fingerprint)
        try:
            keys = sorted(os.listdir(marker_dir))
        except FileNotFoundError:
            return 0
        removed = 0
        for key in keys:
            path = self._path(key)
            record = _read_record(path)
            if record is not None and record.get("dataset_fingerprint") == fingerprint:
                if algorithm is not None and record.get("algorithm") != algorithm:
                    continue
                path.unlink(missing_ok=True)
                removed += 1
            # Matched and removed, or a stale marker: the record is missing,
            # unreadable, or re-stored under another fingerprint.
            self._drop_marker(marker_dir, fingerprint, path)
        _remove_if_empty(marker_dir)
        return removed

    def stats(self) -> CacheStats:
        """Entries / size on disk plus the session's hit and miss counters."""
        entries = 0
        size = 0
        for path in self._record_paths():
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                continue
        return CacheStats(
            directory=str(self.directory),
            entries=entries,
            size_bytes=size,
            hits=self._hits,
            misses=self._misses,
            corrupt=self._corrupt,
        )

    def __repr__(self) -> str:
        return f"ResultCache(directory={str(self.directory)!r})"


def _remove_if_empty(marker_dir: Path) -> None:
    try:
        marker_dir.rmdir()
    except OSError:
        pass  # still holds markers (kept records, or concurrent stores)


def _read_record(path: Path) -> dict[str, Any] | None:
    """Parse one record file; ``None`` when missing, unreadable or not an object."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None
