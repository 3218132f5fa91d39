"""Chanas and ChanasBoth with the Python-list sort pass."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.algorithms import Chanas, ChanasBoth
from repro.algorithms.chanas import _permutation_cost


class _ListSortPass:
    """Replaces :meth:`Chanas._chanas_rounds` with the list-based sort pass."""

    _max_rounds: int

    def _chanas_rounds(
        self, order: list[int], cost_before: np.ndarray
    ) -> Iterator[tuple[list[int], int]]:
        current = list(order)
        best_cost = _permutation_cost(current, cost_before)
        yield list(current), best_cost
        for _ in range(self._max_rounds):
            current = _sort_pass_to_fixpoint(current, cost_before)
            cost = _permutation_cost(current, cost_before)
            yield list(current), cost
            if cost < best_cost:
                best_cost = cost
            else:
                break
            current = list(reversed(current))


class ChanasOracle(_ListSortPass, Chanas):
    """:class:`~repro.algorithms.Chanas` over Python-list insertion moves."""


class ChanasBothOracle(_ListSortPass, ChanasBoth):
    """:class:`~repro.algorithms.ChanasBoth` over Python-list insertion moves."""


def _sort_pass_to_fixpoint(order: list[int], cost_before: np.ndarray) -> list[int]:
    """Repeat insertion-improvement passes until no move reduces the cost.

    One pass considers each element in turn and moves it to the position
    (among all insertion points) that minimises its pairwise cost with the
    rest of the permutation — the classic "sort" operation of Chanas.
    """
    current = list(order)
    improved = True
    while improved:
        improved = False
        for position in range(len(current)):
            element = current[position]
            rest = current[:position] + current[position + 1:]
            costs = _insertion_costs(element, rest, cost_before)
            best_position = int(np.argmin(costs))
            if costs[best_position] < costs[position]:
                rest.insert(best_position, element)
                current = rest
                improved = True
    return current


def _insertion_costs(
    element: int, rest: list[int], cost_before: np.ndarray
) -> np.ndarray:
    """Pairwise cost of ``element`` for every insertion point into ``rest``.

    ``costs[p]`` is the cost of the pairs involving ``element`` when it is
    inserted so that ``rest[:p]`` ends up before it and ``rest[p:]`` after.
    """
    if not rest:
        return np.zeros(1, dtype=np.int64)
    others = np.asarray(rest, dtype=np.intp)
    cost_if_after = cost_before[others, element]   # other placed before element
    cost_if_before = cost_before[element, others]  # element placed before other
    prefix = np.concatenate(([0], np.cumsum(cost_if_after)))
    suffix = np.concatenate((np.cumsum(cost_if_before[::-1])[::-1], [0]))
    return prefix + suffix
