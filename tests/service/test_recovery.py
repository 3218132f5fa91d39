"""Session crash recovery: journaled mutations, replay, warm-started repair.

The contract under test is the ISSUE 10 durability invariant: every
*acknowledged* mutation survives the process, replay reconstructs pairwise
weights byte-identical to :func:`~repro.core.prepared.prepare_rankings`
over the same history, and recovery resumes serving warm-started from the
last published consensus instead of solving cold.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import JournalError, prepare_rankings
from repro.core.ranking import Ranking
from repro.datasets.io import dumps, format_ranking
from repro.generators import uniform_dataset
from repro.service.frontend import ServiceFrontend
from repro.service.http import AsyncHttpClient, HttpAggregationServer
from repro.service.live import LiveAggregationSession
from repro.testing.faults import FaultInjector, FaultRule, TransientRunError, injected


def _add(ranking):
    return {"op": "add", "index": None, "ranking": format_ranking(ranking)}


def _update(index, ranking):
    return {"op": "update", "index": index, "ranking": format_ranking(ranking)}


def _session(tmp_path, **kwargs):
    dataset = uniform_dataset(5, 8, 2015)
    defaults = dict(budget_seconds=0.05, seed=7, journal_dir=tmp_path / "wal")
    defaults.update(kwargs)
    return LiveAggregationSession(list(dataset.rankings), **defaults), dataset


def test_recovered_session_matches_crashed_state(tmp_path):
    session, dataset = _session(tmp_path)
    first = session.repair()
    session.mutate(_add(dataset.rankings[0]))
    session.mutate(_update(2, dataset.rankings[1]))
    second = session.repair()
    session.mutate({"op": "remove", "index": 0})
    # No close(): simulate the process dying with the journal mid-flight.
    # Appends are flushed per record, so everything acknowledged is on disk.
    recovered = LiveAggregationSession.recover(
        tmp_path / "wal", budget_seconds=0.05, seed=7
    )
    assert recovered.dataset.content_fingerprint() == session.dataset.content_fingerprint()
    assert recovered.dataset.generation == session.dataset.generation
    assert recovered.consensus == second.consensus
    assert recovered.score == second.score
    assert recovered.algorithm_name == session.algorithm_name
    assert recovered.is_stale  # the remove happened after the last repair
    fresh = prepare_rankings(list(session.dataset.rankings))
    weights = recovered.dataset.weights()
    assert weights.before_matrix.tobytes() == fresh.weights.before_matrix.tobytes()
    assert weights.tied_matrix.tobytes() == fresh.weights.tied_matrix.tobytes()
    report = recovered.repair()
    assert report.warm_start
    assert not recovered.is_stale
    assert first.consensus is not None  # silence unused-variable linters
    recovered.close()


def test_failed_journal_append_rolls_the_mutation_back(tmp_path):
    session, dataset = _session(tmp_path)
    before_fingerprint = session.dataset.content_fingerprint()
    before_generation = session.dataset.generation
    injector = FaultInjector(
        seed=5, rules=(FaultRule(site="journal.append", kind="exception"),)
    )
    with injected(injector):
        with pytest.raises(TransientRunError):
            session.mutate(_add(dataset.rankings[0]))
        with pytest.raises(TransientRunError):
            session.mutate({"op": "remove", "index": 1})
        with pytest.raises(TransientRunError):
            session.mutate(_update(0, dataset.rankings[3]))
    # Un-acknowledged mutations left no trace: content identical, and the
    # recovered state agrees (acknowledged ⊆ journaled).
    assert session.dataset.content_fingerprint() == before_fingerprint
    assert session.dataset.num_rankings == 5
    session.close()
    recovered = LiveAggregationSession.recover(tmp_path / "wal")
    assert recovered.dataset.content_fingerprint() == before_fingerprint
    assert recovered.dataset.generation == before_generation
    recovered.close()
    fresh = prepare_rankings(list(session.dataset.rankings))
    assert (
        session.dataset.weights().before_matrix.tobytes()
        == fresh.weights.before_matrix.tobytes()
    )


def test_compaction_keeps_recovery_identical(tmp_path):
    session, dataset = _session(tmp_path, compact_every=3)
    for step in range(4):
        session.mutate(_add(dataset.rankings[step % len(dataset.rankings)]))
        session.repair()  # compaction triggers inside repair
    snapshots = list((tmp_path / "wal").glob("snapshot-*.json"))
    assert snapshots, "compact_every never produced a snapshot"
    session.close()
    recovered = LiveAggregationSession.recover(tmp_path / "wal")
    assert (
        recovered.dataset.content_fingerprint()
        == session.dataset.content_fingerprint()
    )
    assert recovered.consensus == session.consensus
    assert not recovered.is_stale
    recovered.close()


def test_fresh_session_refuses_existing_journal(tmp_path):
    session, dataset = _session(tmp_path)
    session.close()
    with pytest.raises(JournalError, match="recover"):
        _session(tmp_path)


def test_recovery_warm_start_republishes_to_frontend(tmp_path):
    frontend = ServiceFrontend(
        str(tmp_path / "cache"), default_budget_seconds=0.05, seed=7
    )
    session, dataset = _session(tmp_path, frontend=frontend)
    session.repair()
    session.mutate(_add(dataset.rankings[1]))
    session.close()
    recovered = LiveAggregationSession.recover(
        tmp_path / "wal", frontend=frontend, budget_seconds=0.05, seed=7
    )
    report = recovered.repair()
    assert report.warm_start
    # The repaired consensus is published: a frontend request for the
    # post-recovery content is a cache hit.
    from repro.service.frontend import ServiceRequest

    response = frontend.submit(
        ServiceRequest(
            dataset=recovered.dataset.snapshot(),
            algorithm=recovered.algorithm_name,
            budget_seconds=0.05,
        )
    )
    assert response.source in ("memory", "disk")
    assert response.score == report.score
    recovered.close()


def test_server_restart_recovers_live_sessions(tmp_path):
    """The HTTP layer: journaled sessions survive a full server restart."""

    async def scenario():
        dataset = uniform_dataset(5, 8, 6)
        text = dumps(dataset, include_header=False)
        journal_root = tmp_path / "journals"
        server = HttpAggregationServer(
            str(tmp_path / "cache"),
            shards=1,
            seed=11,
            default_budget_seconds=0.05,
            journal_dir=journal_root,
        )
        await server.start()
        client = AsyncHttpClient(server.host, server.port)
        code, opened = await client.request(
            "POST", "/live/rt/open", {"dataset": text, "budget_seconds": 0.05}
        )
        assert code == 200
        line = format_ranking(dataset.rankings[0])
        code, _ = await client.request(
            "POST", "/live/rt/mutate", {"op": "add", "ranking": line}
        )
        assert code == 200
        code, repaired = await client.request("POST", "/live/rt/repair", {})
        assert code == 200
        code, mutated = await client.request(
            "POST", "/live/rt/mutate", {"op": "remove", "index": 0}
        )
        assert code == 200
        expected_fingerprint = mutated["fingerprint"]
        await client.close()
        await server.drain()

        # A brand-new server process over the same journal directory.
        revived = HttpAggregationServer(
            str(tmp_path / "cache"),
            shards=1,
            seed=11,
            default_budget_seconds=0.05,
            journal_dir=journal_root,
        )
        await revived.start()
        assert revived.recovered_sessions == ("rt",)
        client = AsyncHttpClient(revived.host, revived.port)
        try:
            code, stats = await client.server_stats()
            assert code == 200
            entry = stats["live"]["rt"]
            assert entry["journaled"] and entry["recovered"]
            # Startup recovery already warm-repaired the stale tail.
            assert entry["stale"] is False
            code, served = await client.request("GET", "/live/rt")
            assert code == 200
            assert served["fingerprint"] == expected_fingerprint
            assert served["generation"] == mutated["generation"]
            assert served["consensus"]
            # The recovered session keeps accepting journaled writes.
            code, _ = await client.request(
                "POST", "/live/rt/mutate", {"op": "add", "ranking": line}
            )
            assert code == 200
        finally:
            await client.close()
            await revived.drain()
        assert repaired["score"] is not None

    asyncio.run(scenario())


def test_recovery_survives_torn_tail_from_kill(tmp_path):
    """A torn trailing record — half a write at death — is truncated."""
    session, dataset = _session(tmp_path)
    session.mutate(_add(dataset.rankings[0]))
    session.close()
    segment = sorted((tmp_path / "wal").glob("segment-*.log"))[-1]
    with open(segment, "ab") as handle:
        handle.write(b"ffff0000 {\"type\": \"add\", \"trunc")
    recovered = LiveAggregationSession.recover(tmp_path / "wal")
    assert recovered.dataset.content_fingerprint() == session.dataset.content_fingerprint()
    assert recovered.dataset.num_rankings == 6
    recovered.close()
    ranking = Ranking([[e] for e in recovered.dataset.elements])
    assert ranking is not None
