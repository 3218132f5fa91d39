"""Ailon 3/2: LP relaxation of the consensus program with rounding.

Kendall-τ based 3/2-approximation (family [K], Section 3.2), obtained by
relaxing the integer program into a continuous linear program (the variable
values become fractions in [0, 1]) and rounding the fractional solution
back into a ranking.  The paper notes that, used with the ties-aware
objective, the approach can produce rankings with ties "with slight
modification" (Table 1) — the modification being that the relaxation keeps
the ``x_{a=b}`` variables and the rounding step may decide to tie a pair.

This implementation reuses the LPB program of
:mod:`repro.algorithms.exact_lpb` (same objective, same constraints) but
solves it as a continuous LP with ``scipy.optimize.linprog`` (HiGHS) and
rounds the fractional solution with the pivot-based procedure of Ailon et
al.: a random pivot is chosen, every other element is placed before, after
or tied with the pivot according to the largest of the three fractional
variables of the pair, and the procedure recurses on the before/after
groups.  Several rounding passes can be performed (``num_repeats``), the
best rounded consensus being returned.

As in the paper's experiments, the LP itself is the scalability bottleneck:
the program has Θ(n²) variables and Θ(n³) constraints, which is why the
original study could not run Ailon 3/2 beyond a few dozen elements.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.optimize import linprog

from ..core.exceptions import AlgorithmNotApplicableError, SolverUnavailableError
from ..core.kemeny import generalized_kemeny_score_from_weights
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .base import RankAggregator
from .exact_lpb import build_lpb_program

__all__ = ["AilonThreeHalves"]


class AilonThreeHalves(RankAggregator):
    """LP relaxation of the LPB program + randomized pivot rounding."""

    name = "Ailon3/2"
    family = "K"
    approximation = "3/2"
    produces_ties = True
    accounts_for_tie_cost = True
    randomized = True

    def __init__(
        self,
        *,
        num_repeats: int = 3,
        max_elements: int | None = 45,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        num_repeats:
            Number of independent pivot-rounding passes over the fractional
            LP solution; the best rounded consensus is kept.
        max_elements:
            Refuse datasets with more elements than this (the LP has Θ(n³)
            constraints; the paper reports no result beyond n = 45).  Pass
            ``None`` to remove the guard.
        """
        super().__init__(seed=seed)
        if num_repeats < 1:
            raise ValueError(f"num_repeats must be >= 1, got {num_repeats}")
        self._num_repeats = num_repeats
        self._max_elements = max_elements
        self._lp_value: float | None = None

    # ------------------------------------------------------------------ #
    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        n = weights.num_elements
        if n == 1:
            return Ranking([list(weights.elements)])
        if self._max_elements is not None and n > self._max_elements:
            raise AlgorithmNotApplicableError(
                f"Ailon 3/2 LP relaxation is limited to {self._max_elements} elements "
                f"(got {n}); the Θ(n³)-constraint LP does not scale further "
                "(Section 7.1.1 of the paper)"
            )
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
        if not result.success or result.x is None:
            raise SolverUnavailableError(
                f"LP relaxation failed (status={result.status}, message={result.message!r})"
            )
        self._lp_value = float(result.fun)
        fractional = np.asarray(result.x)

        rng = self._rng()
        pair_matrices = _pair_value_matrices(n, fractional, program.pair_index)
        best: Ranking | None = None
        best_score: int | None = None
        for _ in range(self._num_repeats):
            buckets = self._pivot_round(np.arange(n), pair_matrices, rng)
            candidate = Ranking(
                [[weights.elements[i] for i in bucket] for bucket in buckets]
            )
            score = generalized_kemeny_score_from_weights(candidate, weights)
            if best_score is None or score < best_score:
                best, best_score = candidate, score
        assert best is not None
        return best

    # ------------------------------------------------------------------ #
    def _pivot_round(
        self,
        elements: np.ndarray,
        pair_matrices: tuple[np.ndarray, np.ndarray, np.ndarray],
        rng: np.random.Generator,
    ) -> list[list[int]]:
        """Recursive pivot rounding guided by the fractional LP values.

        The fractional pair values live in dense matrices, so one argmax
        over a stacked (3 × node) slice decides every element of the node
        at once; ``np.argmax`` keeps the first maximum, so value ties
        prefer before, then after, then tied.
        """
        if elements.size == 0:
            return []
        if elements.size == 1:
            return [[int(elements[0])]]
        x_before, x_after, x_tied = pair_matrices
        pivot = int(elements[int(rng.integers(0, elements.size))])
        others = elements[elements != pivot]
        choices = np.argmax(
            np.stack(
                (x_before[others, pivot], x_after[others, pivot], x_tied[others, pivot])
            ),
            axis=0,
        )
        result = self._pivot_round(others[choices == 0], pair_matrices, rng)
        result.append([pivot, *others[choices == 2].tolist()])
        result.extend(self._pivot_round(others[choices == 1], pair_matrices, rng))
        return result

    def _last_details(self) -> dict[str, object]:
        return {"lp_objective": self._lp_value, "rounding_repeats": self._num_repeats}


def _pair_value_matrices(
    n: int,
    fractional: np.ndarray,
    pair_index: dict[tuple[int, int], int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the fractional pair variables into dense (n × n) matrices.

    ``x_before[a, b]`` is the fractional weight of ranking ``a`` strictly
    before ``b`` (``x_after`` / ``x_tied`` accordingly); one O(n²) gather
    serves every rounding pass.

    Parameters
    ----------
    n:
        Number of elements.
    fractional:
        The LP solution vector (pair-major layout, see
        :class:`~repro.algorithms.exact_lpb.LPBProgram`).
    pair_index:
        Unordered-pair index of the program's variable layout.
    """
    pairs = np.fromiter(
        (index for pair in pair_index for index in pair), dtype=np.intp
    ).reshape(-1, 2)
    bases = 3 * np.fromiter(pair_index.values(), dtype=np.intp, count=len(pair_index))
    a, b = pairs[:, 0], pairs[:, 1]
    x_before = np.zeros((n, n))
    x_after = np.zeros((n, n))
    x_tied = np.zeros((n, n))
    x_before[a, b] = fractional[bases]
    x_before[b, a] = fractional[bases + 1]
    x_after[a, b] = fractional[bases + 1]
    x_after[b, a] = fractional[bases]
    x_tied[a, b] = fractional[bases + 2]
    x_tied[b, a] = fractional[bases + 2]
    return x_before, x_after, x_tied

