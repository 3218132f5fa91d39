"""The result cache's dataset index: fingerprint invalidation without a scan.

``ResultCache.invalidate(dataset_fingerprint=...)`` reads only the records
the ``by-dataset/`` index lists.  These tests pin that it removes exactly
what the full scan of :class:`oracles.ScanInvalidateOracle` removes, across
two handles sharing one directory, and that it opens only the matching
records.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ScanInvalidateOracle, count_record_opens

from repro.engine import ResultCache
from repro.engine import cache as cache_module

_KEYS = [f"{index:02d}" + "k" * 6 for index in range(5)]
_FINGERPRINTS = ["fp-a", "fp-b", "../x", "a/b"]
_ALGORITHMS = ["X", "Y"]


def _record(fingerprint, algorithm="X", score=1):
    return {"dataset_fingerprint": fingerprint, "algorithm": algorithm, "score": score}


def _surviving(cache: ResultCache) -> dict[str, dict]:
    """Every record on disk by key, minus its store time."""
    return {
        record["key"]: {k: v for k, v in record.items() if k != "created_at"}
        for record in cache.iter_records()
    }


def _markers(directory: Path) -> list[Path]:
    return [
        path
        for path in (directory / "by-dataset").rglob("*")
        if path.is_file() and path.name != "FORMAT"
    ]


_handle = st.integers(0, 1)
_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"),
            _handle,
            st.sampled_from(_KEYS),
            st.sampled_from(_FINGERPRINTS),
            st.sampled_from(_ALGORITHMS),
            st.integers(0, 9),
        ),
        st.tuples(st.just("by_dataset"), _handle, st.sampled_from(_FINGERPRINTS)),
        st.tuples(st.just("by_algorithm"), _handle, st.sampled_from(_ALGORITHMS)),
        st.tuples(
            st.just("by_both"),
            _handle,
            st.sampled_from(_ALGORITHMS),
            st.sampled_from(_FINGERPRINTS),
        ),
        st.tuples(st.just("clear"), _handle),
        st.tuples(st.just("corrupt"), _handle, st.sampled_from(_KEYS)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(operations=_operations)
def test_index_invalidates_exactly_what_the_scan_does(tmp_path_factory, operations):
    root = tmp_path_factory.mktemp("index")
    handles = [ResultCache(root / "cache"), ResultCache(root / "cache")]
    oracle = ScanInvalidateOracle(root / "oracle")
    for operation in operations:
        kind, handle = operation[0], handles[operation[1]]
        if kind == "store":
            _, _, key, fingerprint, algorithm, score = operation
            record = _record(fingerprint, algorithm, score)
            got, want = handle.store(key, record), oracle.store(key, record)
        elif kind == "by_dataset":
            got = handle.invalidate(dataset_fingerprint=operation[2])
            want = oracle.invalidate(dataset_fingerprint=operation[2])
        elif kind == "by_algorithm":
            got = handle.invalidate(algorithm=operation[2])
            want = oracle.invalidate(algorithm=operation[2])
        elif kind == "by_both":
            _, _, algorithm, fingerprint = operation
            got = handle.invalidate(algorithm=algorithm, dataset_fingerprint=fingerprint)
            want = oracle.invalidate(algorithm=algorithm, dataset_fingerprint=fingerprint)
        elif kind == "clear":
            got, want = handle.clear(), oracle.clear()
        else:
            # Garble the record (where present), then look it up: the
            # lookup quarantines it and reports a miss.
            key = operation[2]
            for cache in (handle, oracle):
                if cache._path(key).exists():
                    cache._path(key).write_text("{garbled", encoding="utf-8")
            got, want = handle.lookup(key), oracle.lookup(key)
        assert got == want, operation
        assert _surviving(handles[0]) == _surviving(oracle), operation


def test_parent_layout_directory_is_indexed_on_open(tmp_path):
    directory = tmp_path / "cache"
    for index, fingerprint in enumerate(["fp-a", "fp-a", "fp-b"]):
        key = f"{index:02d}record"
        path = directory / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key, **_record(fingerprint)}), encoding="utf-8")
    assert not (directory / "by-dataset").exists()

    cache = ResultCache(directory)
    assert (directory / "by-dataset" / "FORMAT").exists()
    assert len(_markers(directory)) == 3
    assert cache.invalidate(dataset_fingerprint="fp-a") == 2
    assert [record["dataset_fingerprint"] for record in cache.iter_records()] == ["fp-b"]


def test_dangling_marker_counts_nothing(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.store("aa-record", _record("fp-a"))
    cache._path("aa-record").unlink()  # as if a crash hit between marker and rename
    assert cache.invalidate(dataset_fingerprint="fp-a") == 0
    assert _markers(cache.directory) == []


def test_stale_marker_never_deletes_a_non_matching_record(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.store("aa-record", _record("fp-a"))
    cache.store("aa-record", _record("fp-b"))  # same key, re-stored elsewhere
    assert cache.invalidate(dataset_fingerprint="fp-a") == 0
    assert cache.lookup("aa-record")["dataset_fingerprint"] == "fp-b"
    assert cache.invalidate(dataset_fingerprint="fp-b") == 1


def test_store_restores_a_marker_dropped_before_the_rename(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    real_replace = os.replace

    def replace_after_concurrent_invalidation(source, target):
        # A concurrent invalidation found no record yet and dropped the marker.
        for marker in _markers(cache.directory):
            marker.unlink()
        real_replace(source, target)

    monkeypatch.setattr(cache_module.os, "replace", replace_after_concurrent_invalidation)
    cache.store("aa-record", _record("fp-a"))
    monkeypatch.undo()
    assert len(_markers(cache.directory)) == 1
    assert cache.invalidate(dataset_fingerprint="fp-a") == 1


def test_invalidation_restores_a_marker_of_a_record_stored_meanwhile(
    tmp_path, monkeypatch
):
    cache = ResultCache(tmp_path / "cache")
    other = ResultCache(tmp_path / "cache")
    cache.store("aa-record", _record("fp-a"))
    record_path = cache._path("aa-record")
    real_unlink = Path.unlink

    def unlink_then_concurrent_store(path, missing_ok=False):
        real_unlink(path, missing_ok=missing_ok)
        if path == record_path:
            # Another process re-stores the record after the invalidation
            # unlinked it but before it drops the marker; that store's own
            # post-rename check still sees the marker.
            monkeypatch.setattr(Path, "unlink", real_unlink)
            other.store("aa-record", _record("fp-a", score=2))

    monkeypatch.setattr(Path, "unlink", unlink_then_concurrent_store)
    assert cache.invalidate(dataset_fingerprint="fp-a") == 1
    monkeypatch.undo()
    assert cache.lookup("aa-record")["score"] == 2
    assert cache.invalidate(dataset_fingerprint="fp-a") == 1


def test_path_like_fingerprints_stay_inside_the_cache(tmp_path):
    directory = tmp_path / "nested" / "cache"
    cache = ResultCache(directory)
    for index, fingerprint in enumerate(["../x", "a/b", "/etc/passwd", ".."]):
        cache.store(f"{index:02d}record", _record(fingerprint))
    outside = [
        path
        for path in tmp_path.rglob("*")
        if path not in (directory, directory.parent) and directory not in path.parents
    ]
    assert outside == []
    assert cache.invalidate(dataset_fingerprint="../x") == 1
    assert cache.invalidate(dataset_fingerprint="a/b") == 1
    assert len(cache) == 2


def test_introspection_ignores_the_index_and_clear_removes_it(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.store("aa-record", _record("fp-a"))
    cache.store("bb-record", _record("fp-b"))
    size = sum(cache._path(key).stat().st_size for key in ("aa-record", "bb-record"))
    assert len(_markers(cache.directory)) == 2
    stats = cache.stats()
    assert len(cache) == stats.entries == 2
    assert stats.size_bytes == size
    assert sorted(record["key"] for record in cache.iter_records()) == [
        "aa-record",
        "bb-record",
    ]
    assert cache.clear() == 2
    assert _markers(cache.directory) == []
    assert len(cache) == 0
    # The (empty) index stays complete, so a new handle need not rescan.
    assert (cache.directory / "by-dataset" / "FORMAT").exists()


def test_fingerprint_invalidation_opens_only_matching_records(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for index in range(497):
        cache.store(f"{index:04d}-other", _record(f"other-{index}"))
    for index in range(3):
        cache.store(f"{index:04d}-target", _record("target"))
    assert len(cache) == 500
    with count_record_opens(cache.directory) as opened:
        assert cache.invalidate(dataset_fingerprint="target") == 3
    assert opened[0] == 3
    with count_record_opens(cache.directory) as opened:
        assert ScanInvalidateOracle(cache.directory).invalidate(
            dataset_fingerprint="other-0"
        ) == 1
    assert opened[0] == 497


def test_algorithm_invalidation_removes_the_deleted_records_markers(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.store("aa-shared", _record("fp-shared", "A"))
    cache.store("bb-shared", _record("fp-shared", "B"))
    cache.store("cc-only-a", _record("fp-only-a", "A"))
    cache.store("dd-only-b", _record("fp-only-b", "B"))
    cache.store("ee-unindexed", _record(7, "A"))  # non-string: never indexed
    assert len(_markers(cache.directory)) == 4

    assert cache.invalidate(algorithm="A") == 3
    indexed_left = [
        record
        for record in cache.iter_records()
        if isinstance(record["dataset_fingerprint"], str)
    ]
    assert len(_markers(cache.directory)) == len(indexed_left) == 2
    # fp-only-a's emptied marker directory went with its last marker.
    marker_dirs = [
        path for path in (cache.directory / "by-dataset").glob("*/*") if path.is_dir()
    ]
    assert sorted(cache._marker_dir(fp) for fp in ("fp-only-b", "fp-shared")) == sorted(
        marker_dirs
    )
    assert cache.invalidate(dataset_fingerprint="fp-shared") == 1
    assert [record["key"] for record in cache.iter_records()] == ["dd-only-b"]
