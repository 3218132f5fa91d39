"""Per-pair reference implementations of the generalized Kendall-τ distance."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core import Ranking, generalized_kendall_tau_distance
from repro.core.distances import _check_same_domain


def generalized_kendall_tau_distance_reference(r: Ranking, s: Ranking) -> int:
    """Reference O(n²) implementation of the generalized Kendall-τ distance.

    A pair of elements counts as one disagreement when it is

    * ordered in opposite ways by the two rankings, or
    * tied in exactly one of the two rankings.

    This is the formulation ``G`` of Section 2.2 with unit costs.
    """
    _check_same_domain(r, s)
    elements = list(r.domain)
    disagreements = 0
    for index, a in enumerate(elements):
        ra = r.position_of(a)
        sa = s.position_of(a)
        for b in elements[index + 1:]:
            rb = r.position_of(b)
            sb = s.position_of(b)
            if _pair_disagrees(ra, rb, sa, sb):
                disagreements += 1
    return disagreements


def _pair_disagrees(ra: int, rb: int, sa: int, sb: int) -> bool:
    """Unit-cost disagreement test for a single pair."""
    if ra < rb and sa > sb:
        return True
    if ra > rb and sa < sb:
        return True
    if ra != rb and sa == sb:
        return True
    if ra == rb and sa != sb:
        return True
    return False


def pairwise_distance_matrix_reference(rankings: Sequence[Ranking]) -> np.ndarray:
    """All-pairs distance matrix, one distance call per pair of rankings.

    Ground truth for the batched :func:`repro.core.pairwise_distance_matrix`.
    """
    m = len(rankings)
    matrix = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            distance = generalized_kendall_tau_distance(rankings[i], rankings[j])
            matrix[i, j] = distance
            matrix[j, i] = distance
    return matrix
