"""Property suite for LiveDataset: delta maintenance == from-scratch rebuild."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BioConsert, BordaCount
from repro.algorithms.anytime import run_anytime
from repro.core import (
    DomainMismatchError,
    EmptyDatasetError,
    LiveDataset,
    Ranking,
    format_ranking,
    prepare_rankings,
    rankings_fingerprint,
)
from repro.datasets import Dataset
from repro.engine import dataset_fingerprint

from oracles import BioConsertOracle

ELEMENTS = ["A", "B", "C", "D", "E", "F"]


@st.composite
def rankings_with_ties(draw, elements=tuple(ELEMENTS)):
    """A random bucket order over the fixed element domain."""
    order = draw(st.permutations(list(elements)))
    if len(order) > 1:
        cuts = draw(st.sets(st.integers(1, len(order) - 1)))
    else:
        cuts = set()
    boundaries = [0, *sorted(cuts), len(order)]
    buckets = [
        order[start:stop]
        for start, stop in zip(boundaries, boundaries[1:])
        if stop > start
    ]
    return Ranking(buckets)


# One mutation as data: the kind, a position selector (reduced modulo the
# current size at application time) and a fresh ranking for add/update.
mutations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "update"]),
        st.integers(0, 63),
        rankings_with_ties(),
    ),
    min_size=0,
    max_size=12,
)


def apply_mutations(live: LiveDataset, steps) -> int:
    """Replay a drawn mutation sequence as write records through
    :meth:`LiveDataset.apply`; returns how many were applied."""
    applied = 0
    for kind, position, ranking in steps:
        if kind == "remove" and len(live) == 1:
            continue
        index = position % (len(live) + (kind == "add"))
        live.apply({"op": kind, "index": index, "ranking": format_ranking(ranking)})
        applied += 1
    return applied


class TestDeltaEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(rankings_with_ties(), min_size=1, max_size=5),
        steps=mutations,
    )
    def test_weights_byte_identical_to_rebuild(self, initial, steps):
        """After any mutation sequence the maintained state equals a fresh
        O(m·n²) preparation bit for bit."""
        live = LiveDataset(initial)
        apply_mutations(live, steps)
        fresh = prepare_rankings(list(live.rankings))
        maintained = live.prepared()
        assert np.array_equal(maintained.weights.before_matrix, fresh.weights.before_matrix)
        assert np.array_equal(maintained.weights.tied_matrix, fresh.weights.tied_matrix)
        assert np.array_equal(maintained.positions, fresh.positions)
        assert maintained.elements == fresh.elements
        # Derived cost carriers (memoized lazily) agree as well.
        assert np.array_equal(maintained.weights.cost_before(), fresh.weights.cost_before())
        assert np.array_equal(maintained.weights.cost_tied(), fresh.weights.cost_tied())
        live_flat = maintained.weights.flat_cost_vectors()
        fresh_flat = fresh.weights.flat_cost_vectors()
        assert live_flat[0].dtype == fresh_flat[0].dtype
        assert np.array_equal(live_flat[0], fresh_flat[0])
        assert np.array_equal(live_flat[1], fresh_flat[1])

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(rankings_with_ties(), min_size=1, max_size=5),
        steps=mutations,
    )
    def test_fingerprint_coherent_across_mutations(self, initial, steps):
        live = LiveDataset(initial)
        applied = apply_mutations(live, steps)
        assert live.generation == applied
        assert live.content_fingerprint() == rankings_fingerprint(live.rankings)
        snapshot = live.snapshot()
        assert snapshot.content_fingerprint() == live.content_fingerprint()
        assert dataset_fingerprint(snapshot) == live.content_fingerprint()
        assert snapshot.metadata["generation"] == live.generation

    @settings(max_examples=25, deadline=None)
    @given(
        initial=st.lists(rankings_with_ties(), min_size=1, max_size=4),
        steps=mutations,
        extra=rankings_with_ties(),
    )
    def test_snapshot_isolation(self, initial, steps, extra):
        """A snapshot is frozen: later mutations never touch its arrays."""
        live = LiveDataset(initial)
        apply_mutations(live, steps)
        snapshot = live.snapshot()
        before = snapshot.prepared().weights.before_matrix.copy()
        tied = snapshot.prepared().weights.tied_matrix.copy()
        fingerprint = snapshot.content_fingerprint()
        live.add_ranking(extra)
        live.update_ranking(0, extra)
        assert np.array_equal(snapshot.prepared().weights.before_matrix, before)
        assert np.array_equal(snapshot.prepared().weights.tied_matrix, tied)
        assert snapshot.content_fingerprint() == fingerprint
        # And the new generation is a distinct dataset object.
        assert live.snapshot() is not snapshot


class TestWarmStartEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        initial=st.lists(rankings_with_ties(), min_size=2, max_size=4),
        steps=mutations,
    )
    def test_trajectories_match_fresh_preparation(self, initial, steps):
        """Warm-started anytime runs over a live snapshot reproduce the runs
        over an independently prepared dataset, for BioConsert and its
        scalar oracle."""
        live = LiveDataset(initial)
        apply_mutations(live, steps)
        previous = BordaCount().aggregate(live.snapshot()).consensus
        fresh = Dataset(live.rankings, name="fresh")
        for algorithm in (BioConsert(), BioConsertOracle()):
            from_live = run_anytime(algorithm, live.snapshot(), None, initial=previous)
            from_fresh = run_anytime(algorithm, fresh, None, initial=previous)
            assert from_live.consensus == from_fresh.consensus
            assert from_live.score == from_fresh.score
            assert from_live.details["steps"] == from_fresh.details["steps"]
            assert from_live.details["warm_start"] is True


class TestMutationContract:
    def test_requires_initial_ranking(self):
        with pytest.raises(EmptyDatasetError):
            LiveDataset([])

    def test_cannot_remove_last(self):
        live = LiveDataset([Ranking([["A"], ["B"]])], name="tiny")
        with pytest.raises(EmptyDatasetError):
            live.remove_ranking(0)
        assert live.generation == 0

    def test_domain_mismatch_rejected_without_state_change(self):
        live = LiveDataset([Ranking([["A"], ["B"]])])
        fingerprint = live.content_fingerprint()
        with pytest.raises(DomainMismatchError):
            live.add_ranking(Ranking([["A"], ["C"]]))
        with pytest.raises(DomainMismatchError):
            live.update_ranking(0, Ranking([["X"], ["B"]]))
        assert live.generation == 0
        assert live.content_fingerprint() == fingerprint

    def test_update_returns_previous_and_add_respects_index(self):
        first = Ranking([["A"], ["B"]])
        second = Ranking([["B"], ["A"]])
        third = Ranking([["A", "B"]])
        live = LiveDataset([first])
        assert live.add_ranking(second, index=0) == 0
        assert live.rankings == (second, first)
        assert live.update_ranking(1, third) == first
        assert live.rankings == (second, third)
        removed = live.remove_ranking(0)
        assert removed == second
        assert live.rankings == (third,)
        assert live.generation == 3

    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_add_index_outside_zero_to_m_is_refused(self, index):
        live = LiveDataset([Ranking([["A"], ["B"]])])
        with pytest.raises(IndexError):
            live.add_ranking(Ranking([["B"], ["A"]]), index=index)
        assert live.generation == 0
        assert live.num_rankings == 1

    def test_sequence_protocol(self):
        first = Ranking([["A"], ["B"]])
        second = Ranking([["B"], ["A"]])
        live = LiveDataset([first, second], name="seq")
        assert len(live) == 2
        assert list(live) == [first, second]
        assert live[1] == second
        assert live.num_elements == 2
        assert live.elements == ["A", "B"]
        assert "seq" in repr(live)

    def test_snapshot_memoized_per_generation(self):
        live = LiveDataset([Ranking([["A"], ["B"]]), Ranking([["B"], ["A"]])])
        snapshot = live.snapshot()
        assert live.snapshot() is snapshot
        live.update_ranking(0, Ranking([["A", "B"]]))
        assert live.snapshot() is not snapshot

    def test_last_delta_seconds_updates(self):
        live = LiveDataset([Ranking([["A"], ["B"]])])
        assert live.last_delta_seconds == 0.0
        live.add_ranking(Ranking([["B"], ["A"]]))
        assert live.last_delta_seconds > 0.0


class TestApplyRecords:
    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.lists(rankings_with_ties(), min_size=1, max_size=5),
        steps=mutations,
    )
    def test_inverse_undoes_and_resolved_replays(self, initial, steps):
        """Applying a record's inverse restores the content; applying the
        resolved records to a fresh copy reproduces it."""
        live = LiveDataset(initial)
        copy = LiveDataset(initial)
        for kind, position, ranking in steps:
            if kind == "remove" and len(live) == 1:
                continue
            index = position % (len(live) + (kind == "add"))
            record = {"op": kind, "index": index, "ranking": format_ranking(ranking)}
            before = live.content_fingerprint()
            resolved, inverse = live.apply(record)
            after = live.content_fingerprint()
            assert resolved["index"] == index
            if kind != "remove":
                assert resolved["ranking"] == live.line_at(index)
            live.apply(inverse)
            assert live.content_fingerprint() == before
            live.apply(resolved)
            assert live.content_fingerprint() == after
            copy.apply(resolved)
            assert copy.content_fingerprint() == after
        fresh = prepare_rankings(list(live.rankings))
        assert np.array_equal(live.weights().before_matrix, fresh.weights.before_matrix)
        assert np.array_equal(live.weights().tied_matrix, fresh.weights.tied_matrix)

    def test_add_without_index_appends(self):
        live = LiveDataset([Ranking([["A"], ["B"]])])
        resolved, inverse = live.apply({"op": "add", "ranking": "[B],[A]"})
        assert resolved == {"op": "add", "index": 1, "ranking": "[[B],[A]]"}
        assert inverse == {"op": "remove", "index": 1}

    @pytest.mark.parametrize(
        "record",
        [
            {"op": "insert", "index": 0, "ranking": "[[A],[B]]"},
            {"op": "remove", "index": True},
            {"op": "remove", "index": 1.0},
            {"op": "remove", "index": -1},
            {"op": "remove", "index": 2},
            {"op": "remove"},
            {"op": "update", "index": 0},
            {"op": "update", "index": 0, "ranking": "[[A],[C]]"},
            {"op": "add", "index": -1, "ranking": "[[A],[B]]"},
            {"op": "add", "index": 3, "ranking": "[[A],[B]]"},
            {"op": "add", "index": "0", "ranking": "[[A],[B]]"},
            {"op": "add", "ranking": ""},
        ],
    )
    def test_refused_record_changes_nothing(self, record):
        live = LiveDataset([Ranking([["A"], ["B"]]), Ranking([["B"], ["A"]])])
        fingerprint = live.content_fingerprint()
        with pytest.raises(ValueError):
            live.apply(record)
        assert live.generation == 0
        assert live.content_fingerprint() == fingerprint

    def test_removing_the_last_ranking_is_refused(self):
        live = LiveDataset([Ranking([["A"], ["B"]])])
        with pytest.raises(EmptyDatasetError):
            live.apply({"op": "remove", "index": 0})
        assert live.generation == 0


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_snapshot_scores_identical_across_backends(self, backend, tmp_path):
        """A live snapshot behaves like any dataset on every backend."""
        from repro.engine import ExecutionEngine, make_backend
        from repro.evaluation import evaluate_algorithms

        live = LiveDataset(
            [
                Ranking([["A"], ["B", "C"], ["D"], ["E"], ["F"]]),
                Ranking([["B"], ["A"], ["D", "C"], ["F"], ["E"]]),
                Ranking([["C"], ["B"], ["A"], ["E"], ["D"], ["F"]]),
            ],
            name="backend-eq",
        )
        live.update_ranking(0, Ranking([["D"], ["A", "B"], ["C"], ["F"], ["E"]]))
        live.add_ranking(Ranking([["F"], ["E"], ["D"], ["C"], ["B"], ["A"]]))
        report = evaluate_algorithms(
            [live.snapshot()],
            {"BordaCount": BordaCount(), "BioConsert": BioConsert()},
            engine=ExecutionEngine(backend=make_backend(backend, workers=2)),
        )
        scores = {
            (run.dataset, run.algorithm): run.score for run in report.runs
        }
        fresh = prepare_rankings(list(live.rankings))
        for algorithm in (BordaCount(), BioConsert()):
            result = algorithm.aggregate(Dataset(live.rankings, name="backend-eq"))
            assert scores[("backend-eq", algorithm.name)] == result.score
            assert fresh.score(result.consensus) == result.score
