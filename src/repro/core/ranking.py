"""Rankings with ties (bucket orders).

The central data structure of the paper is the *ranking with ties*, also
called a *bucket order* (Section 2.2): a transitive binary relation
represented by an ordered sequence of disjoint, non-empty *buckets*
``B1, ..., Bk``.  Elements inside the same bucket are tied; an element of
``Bi`` is ranked before every element of ``Bj`` whenever ``i < j``.

A *permutation* is the special case where every bucket has size one.

This module provides:

* :class:`Ranking` -- an immutable, hashable ranking with ties.
* :class:`BucketVector` -- a cheap mutable view used by local-search
  algorithms (BioConsert, Chanas) which repeatedly edit a candidate
  consensus.
* helpers to build rankings from permutations, scores, and position maps.
* :func:`parse_ranking` / :func:`format_ranking` -- the one-line text form
  of the paper's dataset files, which content fingerprints and the live
  journal also digest and store.

Elements may be any hashable object (integers, strings, ...).  All
operations are deterministic: buckets preserve the insertion order of their
elements for display purposes while comparisons use set semantics.
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from .exceptions import InvalidRankingError

Element = Hashable


def _freeze_buckets(buckets: Iterable[Iterable[Element]]) -> tuple[tuple[Element, ...], ...]:
    """Convert nested iterables to a tuple of tuples, preserving order."""
    return tuple(tuple(bucket) for bucket in buckets)


class Ranking:
    """An immutable ranking with ties (bucket order) over hashable elements.

    Parameters
    ----------
    buckets:
        An iterable of buckets, each bucket being an iterable of elements.
        Buckets must be non-empty and elements must not repeat.

    Examples
    --------
    >>> r = Ranking([["A"], ["D"], ["B", "C"]])
    >>> r.position_of("B")
    2
    >>> r.is_permutation
    False
    >>> len(r)
    4
    >>> r.buckets
    (('A',), ('D',), ('B', 'C'))
    """

    __slots__ = ("_buckets", "_positions", "_hash", "_dense", "_domain")

    def __init__(self, buckets: Iterable[Iterable[Element]]):
        frozen = _freeze_buckets(buckets)
        positions: dict[Element, int] = {}
        for index, bucket in enumerate(frozen):
            if not bucket:
                raise InvalidRankingError(
                    f"bucket {index} is empty; buckets must contain at least one element"
                )
            for element in bucket:
                if element in positions:
                    raise InvalidRankingError(
                        f"element {element!r} appears in more than one bucket"
                    )
                positions[element] = index
        self._buckets = frozen
        self._positions = positions
        self._hash: int | None = None
        self._dense: tuple[tuple[Element, ...], np.ndarray] | None = None
        self._domain: frozenset[Element] | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_permutation(cls, elements: Sequence[Element]) -> "Ranking":
        """Build a ranking whose buckets are all singletons.

        >>> Ranking.from_permutation(["A", "B", "C"]).buckets
        (('A',), ('B',), ('C',))
        """
        return cls([[element] for element in elements])

    @classmethod
    def from_positions(cls, positions: Mapping[Element, int]) -> "Ranking":
        """Build a ranking from an element -> bucket-position mapping.

        The positions need not be contiguous; elements sharing a position are
        tied and positions are compacted.

        >>> Ranking.from_positions({"A": 0, "B": 5, "C": 5}).buckets
        (('A',), ('B', 'C'))
        """
        if not positions:
            return cls([])
        by_position: dict[int, list[Element]] = {}
        for element, position in positions.items():
            by_position.setdefault(position, []).append(element)
        buckets = [by_position[position] for position in sorted(by_position)]
        return cls(buckets)

    @classmethod
    def from_scores(
        cls,
        scores: Mapping[Element, float],
        *,
        reverse: bool = False,
        tie_tolerance: float = 0.0,
    ) -> "Ranking":
        """Build a ranking by sorting elements by score.

        Elements whose scores differ by at most ``tie_tolerance`` (after
        sorting) are placed in the same bucket.  With the default tolerance
        of ``0.0`` only exactly equal scores are tied.

        Parameters
        ----------
        scores:
            Mapping from element to score.
        reverse:
            If ``True``, higher scores come first (descending order).
        tie_tolerance:
            Maximum absolute score difference for two *adjacent* elements to
            be considered tied.
        """
        if not scores:
            return cls([])
        ordered = sorted(scores.items(), key=lambda item: (item[1], _sort_key(item[0])))
        if reverse:
            ordered = sorted(
                scores.items(), key=lambda item: (-item[1], _sort_key(item[0]))
            )
        buckets: list[list[Element]] = []
        previous_score: float | None = None
        for element, score in ordered:
            if previous_score is not None and abs(score - previous_score) <= tie_tolerance:
                buckets[-1].append(element)
            else:
                buckets.append([element])
            previous_score = score
        return cls(buckets)

    @classmethod
    def single_bucket(cls, elements: Iterable[Element]) -> "Ranking":
        """Build a ranking where all elements are tied in a single bucket."""
        elements = list(elements)
        if not elements:
            return cls([])
        return cls([elements])

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def buckets(self) -> tuple[tuple[Element, ...], ...]:
        """The buckets, first (best-ranked) bucket first."""
        return self._buckets

    @property
    def domain(self) -> frozenset[Element]:
        """The set of elements ranked by this ranking (cached; the ranking
        is immutable and completeness checks ask for it repeatedly)."""
        if self._domain is None:
            self._domain = frozenset(self._positions)
        return self._domain

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return len(self._buckets)

    @property
    def is_permutation(self) -> bool:
        """``True`` when every bucket contains exactly one element."""
        return all(len(bucket) == 1 for bucket in self._buckets)

    @property
    def positions(self) -> Mapping[Element, int]:
        """Read-only element -> bucket-index mapping (0-based)."""
        return dict(self._positions)

    def position_of(self, element: Element) -> int:
        """Return the 0-based bucket index of ``element``.

        Raises ``KeyError`` when the element is not ranked.
        """
        return self._positions[element]

    def __contains__(self, element: Element) -> bool:
        return element in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[tuple[Element, ...]]:
        return iter(self._buckets)

    def elements(self) -> Iterator[Element]:
        """Iterate over elements from best to worst, bucket by bucket."""
        for bucket in self._buckets:
            yield from bucket

    def bucket_sizes(self) -> tuple[int, ...]:
        """Sizes of the buckets, in order."""
        return tuple(len(bucket) for bucket in self._buckets)

    def max_bucket_size(self) -> int:
        """Size of the largest bucket (0 for an empty ranking)."""
        if not self._buckets:
            return 0
        return max(len(bucket) for bucket in self._buckets)

    def tie_count(self) -> int:
        """Number of tied pairs, i.e. pairs of elements in the same bucket."""
        return sum(len(bucket) * (len(bucket) - 1) // 2 for bucket in self._buckets)

    def tie_density(self) -> float:
        """Fraction of element pairs that are tied (0 for permutations)."""
        n = len(self)
        total_pairs = n * (n - 1) // 2
        if total_pairs == 0:
            return 0.0
        return self.tie_count() / total_pairs

    # ------------------------------------------------------------------ #
    # Comparisons between elements
    # ------------------------------------------------------------------ #
    def prefers(self, a: Element, b: Element) -> bool:
        """``True`` when ``a`` is ranked strictly before ``b``."""
        return self._positions[a] < self._positions[b]

    def tied(self, a: Element, b: Element) -> bool:
        """``True`` when ``a`` and ``b`` are in the same bucket."""
        return self._positions[a] == self._positions[b]

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def restricted_to(self, elements: Iterable[Element]) -> "Ranking":
        """Project the ranking onto a subset of its elements.

        Buckets that become empty disappear; the relative order and the
        ties among the kept elements are preserved.
        """
        keep = set(elements)
        buckets = []
        for bucket in self._buckets:
            filtered = [element for element in bucket if element in keep]
            if filtered:
                buckets.append(filtered)
        return Ranking(buckets)

    def with_appended_bucket(self, elements: Iterable[Element]) -> "Ranking":
        """Return a new ranking with one extra bucket appended at the end.

        Used by the unification process (Section 5.1): missing elements are
        added in a final "unification bucket".
        """
        extra = [element for element in elements if element not in self._positions]
        if not extra:
            return self
        return Ranking(list(self._buckets) + [extra])

    def break_ties(self, order: Sequence[Element] | None = None) -> "Ranking":
        """Return a permutation obtained by breaking every tie.

        Parameters
        ----------
        order:
            Optional global ordering of elements used to break ties
            deterministically; elements appearing earlier in ``order`` are
            placed first.  When omitted, ties are broken by the natural sort
            order of the elements' representations.
        """
        if order is not None:
            rank = {element: index for index, element in enumerate(order)}

            def key(element: Element) -> Any:
                return rank.get(element, len(rank)), _sort_key(element)

        else:

            def key(element: Element) -> Any:
                return _sort_key(element)

        flat: list[Element] = []
        for bucket in self._buckets:
            flat.extend(sorted(bucket, key=key))
        return Ranking.from_permutation(flat)

    def reversed(self) -> "Ranking":
        """Return the ranking with buckets in reverse order."""
        return Ranking(tuple(reversed(self._buckets)))

    def canonical(self) -> "Ranking":
        """Return an equal ranking whose buckets are internally sorted.

        Useful to compare rankings for equality independently of the
        insertion order of tied elements.
        """
        return Ranking([sorted(bucket, key=_sort_key) for bucket in self._buckets])

    def as_position_list(self, elements: Sequence[Element]) -> list[int]:
        """Return the bucket index of each element of ``elements``, in order."""
        return [self._positions[element] for element in elements]

    # ------------------------------------------------------------------ #
    # Dense (array) representation
    # ------------------------------------------------------------------ #
    def sorted_elements(self) -> tuple[Element, ...]:
        """The domain in the library's canonical total order (see ``_sort_key``).

        Two rankings over the same domain always report the same order, so
        their :meth:`dense_positions` arrays are directly comparable.
        """
        return self._dense_encoding()[0]

    def dense_positions(self) -> np.ndarray:
        """Bucket index of every element of :meth:`sorted_elements`, as a
        read-only int64 array.

        Rankings are immutable, so the encoding is computed once and cached;
        repeated distance/weight computations against the same ranking skip
        re-encoding entirely.  Callers must not modify the returned array
        (it is marked non-writeable).
        """
        return self._dense_encoding()[1]

    def _dense_encoding(self) -> tuple[tuple[Element, ...], np.ndarray]:
        if self._dense is None:
            items = sorted(self._positions.items(), key=lambda item: _sort_key(item[0]))
            elements = tuple(element for element, _ in items)
            positions = np.fromiter(
                (position for _, position in items), dtype=np.int64, count=len(items)
            )
            positions.flags.writeable = False
            self._dense = (elements, positions)
        return self._dense

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        if len(self._buckets) != len(other._buckets):
            return False
        return all(
            frozenset(mine) == frozenset(theirs)
            for mine, theirs in zip(self._buckets, other._buckets)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(frozenset(bucket) for bucket in self._buckets))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(repr(e) for e in bucket) + "}" for bucket in self._buckets)
        return f"Ranking([{inner}])"


def _sort_key(element: Element) -> tuple[str, str]:
    """A total order over arbitrary hashable elements (type name, then repr)."""
    return (type(element).__name__, repr(element))


# --------------------------------------------------------------------------- #
# Text codec: one ranking per line, the paper's dataset file format
# --------------------------------------------------------------------------- #
_BUCKET_PATTERN = re.compile(r"\[([^\[\]]*)\]")


def parse_ranking(line: str) -> Ranking:
    """Parse a single ranking from its textual representation.

    Accepts the bracketed form ``[[A],[B,C]]`` as well as the looser
    ``[A],[B,C]`` (without the outer brackets).  Purely numeric tokens
    become ``int`` elements, everything else stays a string.

    Parameters
    ----------
    line:
        One ranking in the text format (surrounding whitespace ignored).
    """
    text = line.strip()
    if not text:
        raise InvalidRankingError("cannot parse a ranking from an empty line")
    if text.startswith("[[") and text.endswith("]]"):
        text = text[1:-1]
    buckets: list[list[Element]] = []
    matches = _BUCKET_PATTERN.findall(text)
    if not matches:
        raise InvalidRankingError(f"no bucket found in line {line!r}")
    for match in matches:
        tokens = [token.strip() for token in match.split(",") if token.strip()]
        if not tokens:
            raise InvalidRankingError(f"empty bucket in line {line!r}")
        buckets.append(
            [int(token) if token.lstrip("-").isdigit() else token for token in tokens]
        )
    return Ranking(buckets)


def format_ranking(ranking: Ranking) -> str:
    """Textual representation of a ranking, inverse of :func:`parse_ranking`.

    Parameters
    ----------
    ranking:
        The ranking to serialize (buckets in order, elements as ``str``).
    """
    buckets = ",".join(
        "[" + ",".join(str(element) for element in bucket) + "]"
        for bucket in ranking.buckets
    )
    return f"[{buckets}]"


class BucketVector:
    """A mutable element -> bucket-index map used by local-search algorithms.

    Local-search algorithms such as BioConsert repeatedly move a single
    element between buckets.  Re-building an immutable :class:`Ranking` at
    every step would dominate the running time, so they operate on this
    lightweight structure and convert back once the search has converged.

    The bucket indices stored here are *dense*: they always form the range
    ``0 .. num_buckets - 1``.

    Parameters
    ----------
    ranking:
        The ranking providing the initial element -> bucket assignment.
    """

    __slots__ = ("_position", "_buckets")

    def __init__(self, ranking: Ranking):
        self._position: dict[Element, int] = dict(ranking.positions)
        self._buckets: list[set[Element]] = [set(bucket) for bucket in ranking.buckets]

    # ------------------------------------------------------------------ #
    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def position_of(self, element: Element) -> int:
        return self._position[element]

    def bucket(self, index: int) -> frozenset[Element]:
        return frozenset(self._buckets[index])

    def bucket_size(self, index: int) -> int:
        return len(self._buckets[index])

    def elements(self) -> Iterator[Element]:
        for bucket in self._buckets:
            yield from bucket

    # ------------------------------------------------------------------ #
    # Edition operations (the two BioConsert moves, Section 3.1)
    # ------------------------------------------------------------------ #
    def move_to_existing_bucket(self, element: Element, target_index: int) -> None:
        """Move ``element`` into the existing bucket at ``target_index``.

        If the element's current bucket becomes empty it is removed and
        subsequent bucket indices are shifted down by one.
        """
        current = self._position[element]
        if current == target_index:
            return
        self._buckets[current].discard(element)
        self._buckets[target_index].add(element)
        self._position[element] = target_index
        if not self._buckets[current]:
            self._remove_empty_bucket(current)

    def move_to_new_bucket(self, element: Element, insertion_index: int) -> None:
        """Remove ``element`` from its bucket and insert it alone at a new bucket.

        ``insertion_index`` is interpreted *after* the element has been
        removed (and after the removal of its bucket if it became empty),
        i.e. it is the index the new singleton bucket will have in the
        resulting ranking.  Valid values range from ``0`` to ``num_buckets``.
        """
        current = self._position[element]
        self._buckets[current].discard(element)
        removed_empty = not self._buckets[current]
        if removed_empty:
            self._remove_empty_bucket(current)
        self._buckets.insert(insertion_index, {element})
        for other, position in self._position.items():
            if position >= insertion_index and other != element:
                self._position[other] = position + 1
        self._position[element] = insertion_index

    def _remove_empty_bucket(self, index: int) -> None:
        del self._buckets[index]
        for element, position in self._position.items():
            if position > index:
                self._position[element] = position - 1

    # ------------------------------------------------------------------ #
    def to_ranking(self) -> Ranking:
        """Convert back to an immutable :class:`Ranking`."""
        return Ranking([sorted(bucket, key=_sort_key) for bucket in self._buckets if bucket])

    def copy(self) -> "BucketVector":
        clone = object.__new__(BucketVector)
        clone._position = dict(self._position)
        clone._buckets = [set(bucket) for bucket in self._buckets]
        return clone

    def __repr__(self) -> str:
        return f"BucketVector({self.to_ranking()!r})"
