"""LiveDataset: streaming writes with delta-maintained pairwise weights.

Everything else in the library treats a dataset as immutable: any change
rebuilds the :class:`~repro.core.prepared.PreparedDataset` plan and re-runs
aggregation from scratch, paying the O(m·n²) pairwise construction per
write.  A :class:`LiveDataset` is the mutable counterpart built for write
traffic:

* ``add_ranking`` / ``remove_ranking`` / ``update_ranking`` maintain the
  before/tied count matrices by **delta updates** — one O(n²) comparison
  plane per touched ranking, independent of the dataset size ``m`` —
  instead of recounting all ``m`` rankings;
* :meth:`~LiveDataset.apply` is the one entry point for a write given as
  a record (wire body, churn stream item, journal record): it validates
  the record, applies it through those three methods and returns it
  resolved, together with the record that undoes it;
* the content fingerprint is kept coherent across every mutation (the
  canonical per-ranking text lines are cached, so re-digesting is O(total
  text), never O(m·n²));
* :meth:`snapshot` packages the maintained state as an ordinary immutable
  :class:`~repro.datasets.Dataset` whose memoized preparation plan is
  *adopted*, not rebuilt — the whole existing engine / portfolio / service
  stack consumes live state unchanged, and the handed-out arrays are
  frozen copies so later mutations can never corrupt an earlier snapshot.

The maintained state is **byte-identical** to a from-scratch rebuild after
any mutation sequence: the delta planes are exactly the per-ranking terms
of :func:`repro.core.arrays.pairwise_order_counts`'s sum, added and
subtracted in int64 (associative, no rounding), and the property suite in
``tests/core/test_live.py`` asserts equality of weights, fingerprints and
consensus trajectories against fresh preparation.

The domain is fixed at construction: every ranking, initial or added
later, must cover the same elements (the completeness requirement all
aggregation algorithms share).  Incomplete streams should be normalized
first (:mod:`repro.datasets.normalization`).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

import numpy as np

from .arrays import position_tensor
from .exceptions import DomainMismatchError, EmptyDatasetError
from .pairwise import PairwiseWeights
from .prepared import PreparedDataset, lines_fingerprint, store_plan
from .ranking import Element, Ranking, format_ranking, parse_ranking

__all__ = ["LiveDataset"]


class LiveDataset:
    """A mutable dataset maintaining its pairwise weights under writes.

    Parameters
    ----------
    rankings:
        The initial rankings (at least one; they establish the fixed
        element domain every later write must cover).
    name:
        Human-readable identifier, carried onto every snapshot.
    metadata:
        Free-form mapping copied onto every snapshot (the snapshot adds a
        ``generation`` entry of its own).
    """

    def __init__(
        self,
        rankings: Iterable[Ranking],
        name: str = "live",
        metadata: Mapping[str, Any] | None = None,
    ):
        initial = list(rankings)
        # position_tensor validates the shared domain; _init_state refuses
        # an empty dataset.
        elements, _ = position_tensor(initial) if initial else ([], None)
        n = len(elements)
        self._init_state(
            name, metadata, elements, initial, [None] * len(initial),
            np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64), 0,
        )
        for index in range(len(initial)):
            self._apply_delta(self._plane_at(index), +1)

    @classmethod
    def adopt_lines(
        cls,
        lines: Iterable[str],
        elements: Iterable[Element],
        before: np.ndarray,
        tied: np.ndarray,
        *,
        name: str = "live",
        metadata: Mapping[str, Any] | None = None,
        generation: int = 0,
    ) -> "LiveDataset":
        """Adopt maintained state from canonical text lines, parsing lazily.

        The snapshot fast path of :mod:`repro.core.journal`: a snapshot
        carries the count matrices, the element domain and every ranking's
        canonical text line, so recovery needs to *parse* a ranking only
        when a later journal record actually touches its position.  The
        lines double as the fingerprint cache, which makes the adopted
        fingerprint byte-identical to continuous maintenance without
        materialising a single :class:`~repro.core.ranking.Ranking`.

        The caller vouches for consistency (the journal's snapshot is
        checksummed end to end); per-ranking domain validation happens on
        the lazy parse, exactly when a ranking is first needed.

        Parameters
        ----------
        lines:
            The canonical text lines (:meth:`line_at` format), in dataset
            order.
        elements:
            The fixed element domain, in canonical sorted order.
        before, tied:
            The (n × n) int64 before/tied count matrices.
        name:
            Human-readable identifier, carried onto every snapshot.
        metadata:
            Free-form mapping copied onto every snapshot.
        generation:
            Mutation counter to resume from (the journal's record count).
        """
        text = [str(line) for line in lines]
        elements = list(elements)
        expected = (len(elements), len(elements))
        for matrix in (before, tied):
            if matrix.shape != expected:
                raise ValueError(
                    f"adopted matrix has shape {matrix.shape}, expected {expected}"
                )
        dataset = object.__new__(cls)
        dataset._init_state(
            name, metadata, elements, [None] * len(text), text,
            np.array(before, dtype=np.int64), np.array(tied, dtype=np.int64),
            generation,
        )
        return dataset

    def _init_state(
        self,
        name: str,
        metadata: Mapping[str, Any] | None,
        elements: list[Element],
        rankings: list[Ranking | None],
        lines: list[str | None],
        before: np.ndarray,
        tied: np.ndarray,
        generation: int,
    ) -> None:
        """Set every field; ``None`` rankings and lines are filled lazily."""
        if not rankings:
            raise EmptyDatasetError(
                "a LiveDataset needs at least one initial ranking to fix its domain"
            )
        self.name = name
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._elements: list[Element] = elements
        self._domain: frozenset[Element] = frozenset(elements)
        # ``None`` entries are lazy: a ranking is parsed from its line, its
        # dense bucket-id vector and its comparison plane derived from it,
        # only when its position is touched (see :meth:`_plane_at`).
        self._rankings: list[Ranking | None] = rankings
        self._vectors: list[np.ndarray | None] = [None] * len(rankings)
        planes: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(rankings)
        self._planes = planes
        # Canonical text lines back the fingerprint; formatting is deferred
        # out of the mutation hot path (None = not formatted yet).
        self._lines: list[str | None] = lines
        # Writable master matrices; snapshots receive frozen copies.
        self._before = before
        self._tied = tied
        self._generation = generation
        self._fingerprint: str | None = None
        self._snapshot: Any = None  # Dataset of the current generation, lazily built
        self._last_delta_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """Mutation counter: increments on every successful write."""
        return self._generation

    @property
    def num_rankings(self) -> int:
        """Number of rankings currently in the dataset ``m``."""
        return len(self._rankings)

    @property
    def num_elements(self) -> int:
        """Number of elements ``n`` in the fixed domain."""
        return len(self._elements)

    @property
    def elements(self) -> list[Element]:
        """The fixed domain in canonical sorted order (copy)."""
        return list(self._elements)

    @property
    def rankings(self) -> tuple[Ranking, ...]:
        """The current rankings, in dataset order (immutable view)."""
        return tuple(
            self._ranking_at(index) for index in range(len(self._rankings))
        )

    @property
    def last_delta_seconds(self) -> float:
        """Wall-clock cost of the most recent delta update."""
        return self._last_delta_seconds

    def __len__(self) -> int:
        return len(self._rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self.rankings)

    def __getitem__(self, index: int) -> Ranking:
        if index < 0:
            index += len(self._rankings)
        return self._ranking_at(index)

    def line_at(self, index: int) -> str:
        """The canonical text line of one ranking, formatted once and cached.

        The same cache backs :meth:`content_fingerprint`, so a caller that
        needs the serialization anyway (e.g. the write-ahead journal) does
        not pay for formatting twice.

        Parameters
        ----------
        index:
            Position of the ranking.
        """
        line = self._lines[index]
        if line is None:
            line = self._lines[index] = format_ranking(self._rankings[index])
        return line

    def content_fingerprint(self) -> str:
        """Digest of the current content (same canonical-text digest the
        engine's result cache and the plan cache key on), memoized per
        generation."""
        if self._fingerprint is None:
            lines = self._lines
            for index, line in enumerate(lines):
                if line is None:
                    lines[index] = format_ranking(self._rankings[index])
            self._fingerprint = lines_fingerprint(lines)
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Mutations (each O(n²) in the touched ranking, independent of m)
    # ------------------------------------------------------------------ #
    def add_ranking(self, ranking: Ranking, index: int | None = None) -> int:
        """Insert one ranking, delta-updating the maintained weights.

        Parameters
        ----------
        ranking:
            The ranking to add; must cover exactly the dataset's domain.
        index:
            Insertion position, ``0 <= index <= m`` (defaults to appending
            at the end); anything else raises :class:`IndexError` before
            any state changes.

        Returns
        -------
        int
            The position the ranking now occupies.
        """
        vector = self._validated_vector(ranking)
        if index is None:
            index = len(self._rankings)
        elif not 0 <= index <= len(self._rankings):
            raise IndexError(
                f"insertion index {index} outside 0..{len(self._rankings)}"
            )
        start = time.perf_counter()
        plane = self._plane(vector)
        self._apply_delta(plane, +1)
        self._rankings.insert(index, ranking)
        self._vectors.insert(index, vector)
        self._planes.insert(index, plane)
        self._lines.insert(index, None)
        self._bump(start)
        return index

    def remove_ranking(self, index: int) -> Ranking:
        """Remove the ranking at ``index``, delta-updating the weights.

        The last ranking cannot be removed (pairwise weights of an empty
        dataset are undefined); :class:`EmptyDatasetError` is raised
        instead.

        Parameters
        ----------
        index:
            Position of the ranking to remove.
        """
        if len(self._rankings) == 1:
            raise EmptyDatasetError(
                f"cannot remove the last ranking of LiveDataset {self.name!r}"
            )
        removed = self._ranking_at(index)  # IndexError before any state change
        start = time.perf_counter()
        self._apply_delta(self._plane_at(index), -1)
        del self._rankings[index]
        del self._vectors[index]
        del self._planes[index]
        del self._lines[index]
        self._bump(start)
        return removed

    def update_ranking(self, index: int, ranking: Ranking) -> Ranking:
        """Replace the ranking at ``index``; returns the previous one.

        A single remove+add delta: two O(n²) plane updates, never a
        rebuild.

        Parameters
        ----------
        index:
            Position of the ranking to replace.
        ranking:
            The replacement; must cover exactly the dataset's domain.
        """
        vector = self._validated_vector(ranking)
        previous = self._ranking_at(index)  # IndexError before any state change
        start = time.perf_counter()
        plane = self._plane(vector)
        self._apply_delta(self._plane_at(index), -1)
        self._apply_delta(plane, +1)
        self._rankings[index] = ranking
        self._vectors[index] = vector
        self._planes[index] = plane
        self._lines[index] = None
        self._bump(start)
        return previous

    def apply(
        self, record: Mapping[str, Any]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Apply one write record; return it resolved, with its inverse.

        A record is the one description of a write: ``{"op": "add" |
        "remove" | "update", "index": int | None, "ranking": "<text
        line>"}``.  It is the body of ``POST /live/{name}/mutate``, an item
        of a churn stream and, with ``op`` stored as ``type``, a journal
        mutation record.  It is refused with :class:`ValueError` before
        any state changes unless ``op`` is one of the three kinds,
        ``index`` is an ``int`` (not a bool) with ``0 <= index < m`` for
        remove/update and ``0 <= index <= m`` or ``None`` (append) for
        add, and ``ranking`` is a text line over the dataset's domain for
        add/update; removing the last ranking is refused too.  The line is
        parsed once and written through :meth:`add_ranking`,
        :meth:`remove_ranking` or :meth:`update_ranking`.

        Parameters
        ----------
        record:
            The write to apply (keys other than the three are ignored).

        Returns
        -------
        tuple[dict, dict]
            The resolved record (``index`` is the position written and
            ``ranking`` its canonical :meth:`line_at` text: what the
            journal stores) and the record that undoes it.
        """
        op = record.get("op")
        if op not in ("add", "remove", "update"):
            raise ValueError(f"'op' must be add/remove/update, got {op!r}")
        index = record.get("index")
        if not (op == "add" and index is None):
            stop = len(self._rankings) + (op == "add")
            if isinstance(index, bool) or not isinstance(index, int):
                raise ValueError(f"'index' must be an integer, got {index!r}")
            if not 0 <= index < stop:
                raise ValueError(f"{op} index {index} outside 0..{stop - 1}")
        if op != "remove":
            line = record.get("ranking")
            if not isinstance(line, str):
                raise ValueError(f"{op} needs a 'ranking' text line, got {line!r}")
            ranking = parse_ranking(line)
        if op == "add":
            index = self.add_ranking(ranking, index)
            return (
                {"op": op, "index": index, "ranking": self.line_at(index)},
                {"op": "remove", "index": index},
            )
        previous = self.line_at(index)
        if op == "remove":
            self.remove_ranking(index)
            return (
                {"op": op, "index": index},
                {"op": "add", "index": index, "ranking": previous},
            )
        self.update_ranking(index, ranking)
        return (
            {"op": op, "index": index, "ranking": self.line_at(index)},
            {"op": op, "index": index, "ranking": previous},
        )

    def revert(self, inverse: Mapping[str, Any]) -> None:
        """Undo the last :meth:`apply` with the inverse record it returned.

        Content and generation both return to their values before that
        write, as if it never happened (a write a journal refused leaves
        the session at the generation the journal replays to).

        Parameters
        ----------
        inverse:
            The second item :meth:`apply` returned for the last write.
        """
        generation = self._generation - 1
        self.apply(inverse)
        self._generation = generation

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Any:
        """The current content as an ordinary immutable ``Dataset``.

        The snapshot's preparation plan adopts the delta-maintained
        weights (frozen copies — later mutations cannot touch them), its
        fingerprint is the live fingerprint, and its metadata records the
        live ``generation``, so downstream consumers (engine, portfolio,
        service frontend) use it exactly like any other dataset.  Memoized
        per generation: repeated calls between writes return the same
        object.
        """
        if self._snapshot is not None:
            return self._snapshot
        # Imported lazily: repro.datasets imports repro.core at module load.
        from ..datasets.dataset import Dataset

        start = time.perf_counter()
        rankings = self.rankings
        positions = np.vstack(
            [self._vector_at(index) for index in range(len(rankings))]
        )
        before = self._before.copy()
        tied = self._tied.copy()
        weights = PairwiseWeights.from_state(
            self._elements, positions, before, tied, len(rankings)
        )
        fingerprint = self.content_fingerprint()
        plan = PreparedDataset.from_weights(
            rankings,
            weights,
            fingerprint=fingerprint,
            prepare_seconds=self._last_delta_seconds + time.perf_counter() - start,
        )
        metadata = dict(self.metadata)
        metadata["generation"] = self._generation
        dataset = Dataset(rankings, name=self.name, metadata=metadata)
        object.__setattr__(dataset, "_content_fingerprint", fingerprint)
        object.__setattr__(dataset, "_plan", plan)
        # Publish the adopted plan under its fingerprint so sibling dataset
        # instances (unpickled copies, re-parsed files) reuse it; the LRU
        # bound of the plan cache is what keeps write churn from leaking.
        store_plan(fingerprint, plan)
        self._snapshot = dataset
        return dataset

    def prepared(self) -> PreparedDataset:
        """The current generation's preparation plan (adopted, not rebuilt)."""
        return self.snapshot().prepared()

    def weights(self) -> PairwiseWeights:
        """The current generation's pairwise weights (frozen snapshot view)."""
        return self.prepared().weights

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _validated_vector(self, ranking: Ranking) -> np.ndarray:
        if ranking.domain != self._domain:
            raise DomainMismatchError(
                f"ranking is over a different domain than LiveDataset {self.name!r}; "
                "all writes must cover the dataset's fixed element set "
                "(normalize first: projection or unification)"
            )
        return ranking.dense_positions()

    def _ranking_at(self, index: int) -> Ranking:
        """The ranking at ``index``, parsed from its text line on demand.

        Line-backed datasets (:meth:`adopt_lines`) hold canonical text
        until a position is actually needed; parsing validates the domain
        exactly as a direct construction would.
        """
        ranking = self._rankings[index]
        if ranking is None:
            ranking = parse_ranking(self._lines[index])
            if ranking.domain != self._domain:
                raise DomainMismatchError(
                    f"adopted line {index} of LiveDataset {self.name!r} covers "
                    "a different domain than the dataset's fixed element set"
                )
            self._rankings[index] = ranking
        return ranking

    def _vector_at(self, index: int) -> np.ndarray:
        """The dense position vector of ranking ``index`` (lazily built)."""
        vector = self._vectors[index]
        if vector is None:
            vector = self._vectors[index] = self._ranking_at(
                index
            ).dense_positions()
        return vector

    def _plane_at(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """The comparison plane of ranking ``index`` (lazily rebuilt).

        A plane is a pure function of the ranking's position vector, so
        building it on first use (at construction, or on the first write
        that touches an adopted line) folds out exactly what insertion
        would have folded in.
        """
        plane = self._planes[index]
        if plane is None:
            plane = self._plane(self._vector_at(index))
            self._planes[index] = plane
        return plane

    @staticmethod
    def _plane(vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One ranking's comparison plane: (strictly-before, tied) masks.

        Exactly the per-ranking term of
        :func:`repro.core.arrays.pairwise_order_counts`'s sum (0/1 values,
        diagonal cleared), so folding planes in and out of the running
        totals matches a from-scratch count bit for bit.
        """
        left = vector[:, None]
        right = vector[None, :]
        before = left < right
        tied = left == right
        np.fill_diagonal(tied, False)
        return before, tied

    def _apply_delta(self, plane: tuple[np.ndarray, np.ndarray], sign: int) -> None:
        """Fold one precomputed comparison plane into the running matrices."""
        before, tied = plane
        if sign > 0:
            self._before += before
            self._tied += tied
        else:
            self._before -= before
            self._tied -= tied

    def _bump(self, start: float) -> None:
        self._last_delta_seconds = time.perf_counter() - start
        self._generation += 1
        self._fingerprint = None
        self._snapshot = None

    def __repr__(self) -> str:
        return (
            f"LiveDataset(name={self.name!r}, m={self.num_rankings}, "
            f"n={self.num_elements}, generation={self._generation})"
        )
