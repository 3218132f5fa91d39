"""Journal format pin: a checked-in journal must keep replaying the same.

``journal_pin/`` holds two journal directories a journaled
``LiveAggregationSession`` (BioConsert, seed 3) wrote over
``uniform_dataset(5, 6, 2015)``, written before the write path moved
behind :meth:`~repro.core.live.LiveDataset.apply`:

* ``uncompacted/`` — the init record, an append, an add at the front, a
  remove, an update, a repair, one more update, and a torn tail (half an
  ``update`` record, as a kill mid-append leaves it);
* ``compacted/`` — the same history compacted into a snapshot, then an
  add, a remove, an update, a repair, an append and a torn tail.

``expected.json`` holds what replaying each gave when it was written:
content fingerprint, generation, consensus and a digest of the weight
bytes.  Replay runs on a copy, because it truncates the torn tail.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.core import prepare_rankings, replay_journal

PIN = Path(__file__).resolve().parent / "journal_pin"
EXPECTED = json.loads((PIN / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned_journal_replays_unchanged(tmp_path, name):
    directory = tmp_path / name
    shutil.copytree(PIN / name, directory)
    result = replay_journal(directory)
    expected = EXPECTED[name]
    weights = result.dataset.weights()
    assert result.dataset.content_fingerprint() == expected["fingerprint"]
    assert result.generation == expected["generation"]
    assert result.dataset.num_rankings == expected["num_rankings"]
    assert result.repair_generation == expected["repair_generation"]
    assert [list(bucket) for bucket in result.consensus.buckets] == expected["consensus"]
    assert result.score == expected["score"]
    assert hashlib.sha256(weights.before_matrix.tobytes()).hexdigest() == expected["before_sha256"]
    assert hashlib.sha256(weights.tied_matrix.tobytes()).hexdigest() == expected["tied_sha256"]
    assert result.replayed_records == expected["replayed_records"]
    assert result.truncated_records == expected["truncated_records"]
    assert result.from_snapshot == expected["from_snapshot"]
    # The replayed weights are the weights of the replayed rankings.
    fresh = prepare_rankings(list(result.dataset.rankings)).weights
    assert weights.before_matrix.tobytes() == fresh.before_matrix.tobytes()
    assert weights.tied_matrix.tobytes() == fresh.tied_matrix.tobytes()
