"""The live write path: one record, applied by ``LiveDataset.apply``.

A write is the ``POST /live/{name}/mutate`` body ``{"op", "index",
"ranking"}``.  These tests drive it through a thread-mode server with a
journal and check the durability contract after every request: an
accepted write replays from the journal to the session's fingerprint, and
a refused one changes neither the session nor the journal.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import format_ranking, parse_ranking, prepare_rankings, replay_journal
from repro.datasets.io import dumps
from repro.generators import uniform_dataset
from repro.service.http import AsyncHttpClient, HttpAggregationServer
from repro.testing.faults import FaultInjector, FaultRule, injected


def _journal_bytes(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class _Probe:
    """One journaled live session on a thread-mode server."""

    def __init__(self, server, client, name, journal_dir):
        self.server = server
        self.client = client
        self.name = name
        self.journal_dir = journal_dir

    @property
    def session(self):
        return self.server._sessions[self.name]

    async def mutate(self, body):
        return await self.client.request(
            "POST", f"/live/{self.name}/mutate", body
        )

    def state(self):
        dataset = self.session.dataset
        return (
            dataset.generation,
            dataset.content_fingerprint(),
            _journal_bytes(self.journal_dir),
        )

    def assert_replays(self):
        """The journal replays to the session's content and generation."""
        replayed = replay_journal(self.journal_dir, truncate=False)
        dataset = self.session.dataset
        assert replayed.dataset.content_fingerprint() == dataset.content_fingerprint()
        assert replayed.dataset.num_rankings == dataset.num_rankings
        assert replayed.generation == dataset.generation


async def _open(tmp_path, rankings, name="w"):
    journal_root = tmp_path / "journals"
    server = HttpAggregationServer(
        str(tmp_path / "cache"),
        shards=1,
        mode="thread",
        seed=11,
        default_budget_seconds=0.05,
        journal_dir=journal_root,
    )
    await server.start()
    client = AsyncHttpClient(server.host, server.port)
    text = "\n".join(format_ranking(ranking) for ranking in rankings) + "\n"
    code, opened = await client.request(
        "POST", f"/live/{name}/open", {"dataset": text, "algorithm": "BioConsert"}
    )
    assert code == 200, opened
    return _Probe(server, client, name, journal_root / name)


async def _close(probe):
    await probe.client.close()
    await probe.server.drain()


def _run_refused(tmp_path, bodies):
    """Each body answers 400 ``invalid`` and changes nothing."""

    async def scenario():
        dataset = uniform_dataset(4, 6, 5)
        probe = await _open(tmp_path, dataset.rankings)
        try:
            line = format_ranking(uniform_dataset(1, 6, 9).rankings[0])
            for body in bodies(line):
                before = probe.state()
                code, payload = await probe.mutate(body)
                assert code == 400, (body, payload)
                assert payload["status"] == "invalid"
                assert probe.state() == before, body
                probe.assert_replays()
        finally:
            await _close(probe)

    asyncio.run(scenario())


@pytest.mark.parametrize("index", [-2, 99, 5])
def test_out_of_range_add_is_refused_and_replays(tmp_path, index):
    """A negative or past-the-end add index used to land somewhere else
    (or stay in memory behind a 400) while the journal said otherwise."""
    _run_refused(tmp_path, lambda line: [{"op": "add", "index": index, "ranking": line}])


@pytest.mark.parametrize("index", [True, 1.9, -1, 4, "1", None])
def test_remove_index_must_be_an_in_range_int(tmp_path, index):
    _run_refused(tmp_path, lambda line: [{"op": "remove", "index": index}])


def test_malformed_records_are_refused(tmp_path):
    _run_refused(
        tmp_path,
        lambda line: [
            {"op": "upsert", "index": 0, "ranking": line},
            {"index": 0, "ranking": line},
            {"op": "update", "index": False, "ranking": line},
            {"op": "update", "index": 0},
            {"op": "update", "index": 0, "ranking": ["not", "a", "line"]},
            {"op": "add", "ranking": "[[0],[1]]"},  # wrong domain
            {"op": "add", "ranking": "[]"},
        ],
    )


@pytest.mark.parametrize("op", ["add", "remove", "update"])
def test_failed_journal_append_answers_500_and_rolls_back(tmp_path, op):
    """A write the journal could not take is a server failure, not a bad
    record: it answers 500 and the session keeps its previous content and
    generation, which the journal replays to."""

    async def scenario():
        dataset = uniform_dataset(4, 6, 5)
        probe = await _open(tmp_path, dataset.rankings)
        injector = FaultInjector(
            seed=5, rules=(FaultRule(site="journal.append", kind="exception"),)
        )
        try:
            line = format_ranking(uniform_dataset(1, 6, 9).rankings[0])
            before = probe.state()
            with injected(injector):
                code, payload = await probe.mutate({"op": op, "index": 1, "ranking": line})
            assert code == 500, payload
            assert payload["status"] == "failed"
            assert probe.state() == before  # generation, fingerprint and journal
            probe.assert_replays()
        finally:
            await _close(probe)

    asyncio.run(scenario())


@pytest.mark.parametrize("action", ["open", "repair"])
@pytest.mark.parametrize("budget", ["abc", math.nan, -1, 0, True, [1]])
def test_live_budget_is_validated(tmp_path, action, budget):
    async def scenario():
        dataset = uniform_dataset(4, 6, 5)
        server = HttpAggregationServer(
            str(tmp_path / "cache"), shards=1, mode="thread", seed=11,
            default_budget_seconds=0.05,
        )
        await server.start()
        client = AsyncHttpClient(server.host, server.port)
        try:
            body = {"dataset": dumps(dataset, include_header=False)}
            if action == "open":
                body["budget_seconds"] = budget
            code, payload = await client.request("POST", "/live/b/open", body)
            if action == "open":
                assert code == 400, payload
                assert payload["status"] == "invalid"
                assert "budget_seconds" in payload["error"]
                assert server.live_sessions == ()
                return
            assert code == 200
            code, payload = await client.request(
                "POST", "/live/b/repair", {"budget_seconds": budget}
            )
            assert code == 400, payload
            assert payload["status"] == "invalid"
            assert "budget_seconds" in payload["error"]
            assert server._sessions["b"].consensus is None  # no repair ran
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# Contract: random valid and invalid record sequences
# --------------------------------------------------------------------- #
@st.composite
def _ranking_lines(draw, n):
    order = draw(st.permutations(list(range(n))))
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    buckets = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    return "[" + ",".join(
        "[" + ",".join(str(e) for e in bucket) + "]" for bucket in buckets
    ) + "]"


@st.composite
def _scenarios(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 6))
    initial = [draw(_ranking_lines(n)) for _ in range(m)]
    index = st.one_of(
        st.none(), st.integers(-3, 9), st.booleans(),
        st.floats(-2, 9, allow_nan=False), st.just("1"),
    )
    ranking = st.one_of(
        _ranking_lines(n), _ranking_lines(n), _ranking_lines(n + 1),
        st.none(), st.just("[]"), st.just(7),
    )
    record = st.fixed_dictionaries(
        {"op": st.sampled_from(["add", "remove", "update", "add", "remove",
                                "update", "swap"])},
        optional={"index": index, "ranking": ranking},
    )
    return n, initial, draw(st.lists(record, min_size=1, max_size=10))


def _is_valid(record, n, m) -> bool:
    """The documented acceptance rule, written out independently."""
    op, index, line = record["op"], record.get("index"), record.get("ranking")
    if op not in ("add", "remove", "update"):
        return False
    if op == "remove" and m == 1:
        return False
    if not (op == "add" and index is None):
        if type(index) is not int or not 0 <= index < m + (op == "add"):
            return False
    if op == "remove":
        return True
    return (
        isinstance(line, str)
        and line != "[]"
        and parse_ranking(line).domain == frozenset(range(n))
    )


@settings(max_examples=100, deadline=None)
@given(scenario=_scenarios())
def test_random_records_keep_session_and_journal_equal(tmp_path_factory, scenario):
    n, initial, records = scenario
    tmp_path = tmp_path_factory.mktemp("contract")

    async def run():
        probe = await _open(tmp_path, [parse_ranking(line) for line in initial])
        try:
            for record in records:
                before = probe.state()
                valid = _is_valid(record, n, len(probe.session.dataset))
                code, payload = await probe.mutate(record)
                if not valid:
                    assert code == 400, (record, payload)
                    assert probe.state() == before, record
                    continue
                assert code == 200, (record, payload)
                dataset = probe.session.dataset
                assert payload["generation"] == before[0] + 1
                assert payload["fingerprint"] == dataset.content_fingerprint()
                probe.assert_replays()
                fresh = prepare_rankings(list(dataset.rankings)).weights
                weights = dataset.weights()
                assert np.array_equal(weights.before_matrix, fresh.before_matrix)
                assert np.array_equal(weights.tied_matrix, fresh.tied_matrix)
        finally:
            await _close(probe)

    asyncio.run(run())
