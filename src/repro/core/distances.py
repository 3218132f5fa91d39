"""Distances between rankings.

Implements the two dissimilarity measures of Section 2 of the paper:

* the classical **Kendall-τ distance** ``D`` between permutations, counting
  the pairs ordered differently in the two permutations;
* the **generalized Kendall-τ distance** ``G`` between rankings with ties,
  counting the pairs that are either inverted, or tied in exactly one of
  the two rankings (each such pair costs one disagreement).

Both distances are computed by vectorised NumPy kernels operating on
bucket-position arrays.

The module also implements the weighted variant of ``G`` discussed in
Section 2.2 (a cost ``p`` for tie/untie disagreements instead of 1) and
Spearman's footrule for completeness.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .arrays import disagreement_counts, pairwise_distance_tensor, position_tensor
from .exceptions import DomainMismatchError
from .ranking import Element, Ranking

__all__ = [
    "kendall_tau_distance",
    "generalized_kendall_tau_distance",
    "weighted_generalized_kendall_tau_distance",
    "spearman_footrule_distance",
    "position_arrays",
    "max_pair_count",
    "pairwise_distance_matrix",
]


def _check_same_domain(r: Ranking, s: Ranking) -> None:
    if r.domain != s.domain:
        missing_in_s = r.domain - s.domain
        missing_in_r = s.domain - r.domain
        raise DomainMismatchError(
            "rankings are not over the same elements "
            f"(only in first: {sorted(map(repr, missing_in_s))[:5]}, "
            f"only in second: {sorted(map(repr, missing_in_r))[:5]})"
        )


def position_arrays(r: Ranking, s: Ranking) -> tuple[np.ndarray, np.ndarray]:
    """Return the bucket-position arrays of ``r`` and ``s`` over a common
    element order.

    The element order itself is irrelevant to the distances; only the pairs
    of positions matter.  The arrays are the rankings' cached dense
    encodings (:meth:`Ranking.dense_positions`) — aligned because both
    domains are identical — and are read-only; repeated distance calls
    against the same ranking skip re-encoding.
    """
    _check_same_domain(r, s)
    return r.dense_positions(), s.dense_positions()


def max_pair_count(n: int) -> int:
    """Number of unordered element pairs over ``n`` elements: n(n-1)/2."""
    return n * (n - 1) // 2


# --------------------------------------------------------------------------- #
# Kendall-τ (permutations)
# --------------------------------------------------------------------------- #
def kendall_tau_distance(pi: Ranking, sigma: Ranking) -> int:
    """Classical Kendall-τ distance ``D`` between two permutations.

    Counts the pairs ``{i, j}`` ordered differently by the two permutations.

    Parameters
    ----------
    pi, sigma:
        The two permutations, over the same elements.  Ties raise
        :class:`ValueError` because the classical distance is not a
        distance on rankings with ties (Section 2.2).
    """
    if not pi.is_permutation or not sigma.is_permutation:
        raise ValueError(
            "kendall_tau_distance is only defined for permutations; "
            "use generalized_kendall_tau_distance for rankings with ties"
        )
    pos_pi, pos_sigma = position_arrays(pi, sigma)
    return _count_discordant(pos_pi, pos_sigma)


def _count_discordant(pos_a: np.ndarray, pos_b: np.ndarray) -> int:
    """Count pairs ordered in opposite ways by the two position arrays.

    Uses a merge-sort based inversion count: sort the elements by position
    in ``a`` and count inversions of the corresponding ``b`` positions.
    O(n log n).
    """
    order = np.argsort(pos_a, kind="stable")
    sequence = pos_b[order]
    _, inversions = _sort_and_count(sequence.tolist())
    return inversions


def _sort_and_count(sequence: list[int]) -> tuple[list[int], int]:
    """Merge sort that also counts strict inversions."""
    n = len(sequence)
    if n <= 1:
        return sequence, 0
    mid = n // 2
    left, left_inv = _sort_and_count(sequence[:mid])
    right, right_inv = _sort_and_count(sequence[mid:])
    merged: list[int] = []
    inversions = left_inv + right_inv
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            inversions += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


# --------------------------------------------------------------------------- #
# Generalized Kendall-τ (rankings with ties)
# --------------------------------------------------------------------------- #
def generalized_kendall_tau_distance(r: Ranking, s: Ranking) -> int:
    """Generalized Kendall-τ distance ``G`` between two rankings with ties.

    A pair of elements counts as one disagreement when it is

    * ordered in opposite ways by the two rankings, or
    * tied in exactly one of the two rankings.

    This is the formulation ``G`` of Section 2.2 with unit costs, computed
    by the dense array kernel (:func:`repro.core.arrays.disagreement_counts`),
    which counts on the full comparison matrices — no ``np.triu_indices``
    temporaries.

    For two permutations, ``G`` coincides with the classical Kendall-τ
    distance ``D``.
    """
    pos_r, pos_s = position_arrays(r, s)
    inverted, tied_in_one = disagreement_counts(pos_r, pos_s)
    return inverted + tied_in_one


def weighted_generalized_kendall_tau_distance(
    r: Ranking, s: Ranking, *, tie_cost: float = 1.0
) -> float:
    """Generalized Kendall-τ distance with a configurable tie/untie cost.

    The paper (Section 2.2) uses a unit cost both for inverted pairs and for
    pairs tied in exactly one ranking.  Earlier work ([10, 12, 21] in the
    paper) assigns a different cost ``p`` to the tie/untie case; this
    function implements that weighted variant.  Both flavours share the
    same counting kernel; only the final weighting differs.

    Parameters
    ----------
    tie_cost:
        Cost charged for each pair tied in exactly one of the two rankings.
        ``tie_cost=1.0`` recovers :func:`generalized_kendall_tau_distance`.
    """
    if tie_cost < 0:
        raise ValueError("tie_cost must be non-negative")
    pos_r, pos_s = position_arrays(r, s)
    inverted, tied_in_one = disagreement_counts(pos_r, pos_s)
    return float(inverted + tie_cost * tied_in_one)


# --------------------------------------------------------------------------- #
# Spearman's footrule
# --------------------------------------------------------------------------- #
def spearman_footrule_distance(r: Ranking, s: Ranking) -> float:
    """Spearman's footrule distance between two rankings with ties.

    Positions of tied elements are taken as the average of the positions the
    bucket occupies (the usual mid-rank convention).  The footrule is within
    a constant factor of the Kendall-τ distance [Diaconis & Graham 1977],
    which is why the paper focuses on Kendall-τ; the footrule is provided
    for completeness and for use as a cheap lower-bound heuristic.
    """
    _check_same_domain(r, s)
    mid_r = _mid_rank_positions(r)
    mid_s = _mid_rank_positions(s)
    return float(sum(abs(mid_r[e] - mid_s[e]) for e in r.domain))


def _mid_rank_positions(r: Ranking) -> dict[Element, float]:
    """Mid-rank (1-based, averaged within buckets) position of every element."""
    positions: dict[Element, float] = {}
    start = 1
    for bucket in r.buckets:
        size = len(bucket)
        mid = start + (size - 1) / 2.0
        for element in bucket:
            positions[element] = mid
        start += size
    return positions


def pairwise_distance_matrix(rankings: Sequence[Ranking]) -> np.ndarray:
    """Matrix of generalized Kendall-τ distances between all pairs of rankings.

    Entry ``[i, j]`` is ``G(rankings[i], rankings[j])``.  The matrix is
    symmetric with a zero diagonal.

    All pairs are computed at once from the dataset's stacked position
    tensor (:func:`repro.core.arrays.pairwise_distance_tensor`) instead of
    ``m²`` independent distance calls.
    """
    if len(rankings) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    _, positions = position_tensor(rankings)
    return pairwise_distance_tensor(positions)

