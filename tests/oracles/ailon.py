"""Ailon 3/2 rounding one element at a time through the pair-index dictionary."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.optimize import linprog

from repro.algorithms import AilonThreeHalves
from repro.algorithms.exact_lpb import build_lpb_program
from repro.core import PairwiseWeights, Ranking
from repro.core.kemeny import generalized_kemeny_score_from_weights


class AilonThreeHalvesOracle(AilonThreeHalves):
    """:class:`~repro.algorithms.AilonThreeHalves` with scalar pivot rounding.

    Solves the same LP relaxation as the library class; only the rounding
    differs (per-pair dictionary reads instead of dense matrices).
    """

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        n = weights.num_elements
        if n == 1:
            return Ranking([list(weights.elements)])
        program = build_lpb_program(weights)
        result = linprog(
            c=program.objective,
            A_eq=program.equality,
            b_eq=program.equality_rhs,
            A_ub=-program.inequality,
            b_ub=-program.inequality_lower,
            bounds=(0.0, 1.0),
            method="highs",
        )
        assert result.success and result.x is not None, result.message
        self._lp_value = float(result.fun)
        fractional = np.asarray(result.x)

        rng = self._rng()
        best: Ranking | None = None
        best_score: int | None = None
        for _ in range(self._num_repeats):
            buckets = _pivot_round(list(range(n)), fractional, program.pair_index, rng)
            candidate = Ranking(
                [[weights.elements[i] for i in bucket] for bucket in buckets]
            )
            score = generalized_kemeny_score_from_weights(candidate, weights)
            if best_score is None or score < best_score:
                best, best_score = candidate, score
        assert best is not None
        return best


def _pivot_round(
    elements: list[int],
    fractional: np.ndarray,
    pair_index: dict[tuple[int, int], int],
    rng: np.random.Generator,
) -> list[list[int]]:
    """Recursive pivot rounding guided by the fractional LP values."""
    if not elements:
        return []
    if len(elements) == 1:
        return [list(elements)]
    pivot = elements[int(rng.integers(0, len(elements)))]
    before: list[int] = []
    tied: list[int] = [pivot]
    after: list[int] = []
    for element in elements:
        if element == pivot:
            continue
        x_before, x_after, x_tied = _pair_values(element, pivot, fractional, pair_index)
        choice = int(np.argmax([x_before, x_after, x_tied]))
        if choice == 0:
            before.append(element)
        elif choice == 1:
            after.append(element)
        else:
            tied.append(element)
    result = _pivot_round(before, fractional, pair_index, rng)
    result.append(tied)
    result.extend(_pivot_round(after, fractional, pair_index, rng))
    return result


def _pair_values(
    a: int,
    b: int,
    fractional: np.ndarray,
    pair_index: dict[tuple[int, int], int],
) -> tuple[float, float, float]:
    """Fractional (a-before-b, a-after-b, a-tied-b) values of a pair."""
    if a < b:
        base = 3 * pair_index[(a, b)]
        return float(fractional[base]), float(fractional[base + 1]), float(fractional[base + 2])
    base = 3 * pair_index[(b, a)]
    return float(fractional[base + 1]), float(fractional[base]), float(fractional[base + 2])
