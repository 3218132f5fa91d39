"""Result-cache invalidation by scanning every record, plus an open counter.

:class:`ScanInvalidateOracle` is :class:`~repro.engine.cache.ResultCache`
with the invalidation that predates the dataset index: every filtered
invalidation opens and parses every record in the directory.  The index
must remove exactly the records this scan removes.

:func:`count_record_opens` counts the record files a block of code opens
for reading, through the interpreter's ``open`` audit event, so it sees
every ``open`` / ``Path.open`` / ``os.open`` whatever code path issues it.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.engine.cache import ResultCache


class ScanInvalidateOracle(ResultCache):
    """:class:`~repro.engine.cache.ResultCache` invalidating by a full scan."""

    def invalidate(
        self,
        *,
        algorithm: str | None = None,
        dataset_fingerprint: str | None = None,
    ) -> int:
        if algorithm is None and dataset_fingerprint is None:
            return self.clear()
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
        return removed


# (cache directory, [count]) pairs of the active counters.  An audit hook
# cannot be removed once added, so one hook serves every counter.
_counters: list[tuple[str, list[int]]] = []
_hook_installed = False


def _audit(event: str, args: tuple) -> None:
    if event != "open" or not _counters:
        return
    target, mode = args[0], args[1]
    if isinstance(target, int) or (mode is not None and "r" not in mode):
        return
    path = os.path.abspath(os.fsdecode(target))
    name = os.path.basename(path)
    if not name.endswith(".json") or name.startswith("."):
        return
    directory = os.path.dirname(os.path.dirname(path))
    for cache_dir, count in _counters:
        if directory == cache_dir:
            count[0] += 1


@contextmanager
def count_record_opens(directory: str | Path) -> Iterator[list[int]]:
    """Count reads of ``<directory>/<xx>/<key>.json`` records in the block.

    Yields a one-element list whose item is the running count.
    """
    global _hook_installed
    if not _hook_installed:
        sys.addaudithook(_audit)
        _hook_installed = True
    entry = (os.path.abspath(os.fspath(directory)), [0])
    _counters.append(entry)
    try:
        yield entry[1]
    finally:
        _counters.remove(entry)
