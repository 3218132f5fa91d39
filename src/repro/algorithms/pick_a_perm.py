"""Pick-a-Perm (Ailon, Charikar & Newman 2008).

Naive Kendall-τ based approach (family [K], Section 3.2): return one of the
input rankings as the consensus.  Picking an input uniformly at random is a
2-approximation in expectation; the de-randomized variant studied in the
paper ([31]) returns the input ranking with the *minimal* generalized Kemeny
score, which is what the experiments use (and what this implementation does
by default).

The algorithm trivially "produces ties" in the sense that its output keeps
whatever ties the chosen input ranking contains (Table 1).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.kemeny import generalized_kemeny_scores_of_stack
from ..core.pairwise import PairwiseWeights
from ..core.ranking import Ranking
from .base import RankAggregator

__all__ = ["PickAPerm"]


class PickAPerm(RankAggregator):
    """Return an input ranking — randomly, or the best one (de-randomized)."""

    name = "Pick-a-Perm"
    family = "K"
    approximation = "2"
    produces_ties = True
    accounts_for_tie_cost = False
    randomized = True

    def __init__(
        self,
        *,
        derandomized: bool = True,
        seed: int | None = None,
    ):
        """
        Parameters
        ----------
        derandomized:
            When ``True`` (default, the variant evaluated in the paper),
            return the input ranking with the smallest generalized Kemeny
            score.  When ``False``, return an input ranking chosen uniformly
            at random.
        """
        super().__init__(seed=seed)
        self._derandomized = derandomized
        self._chosen_index: int | None = None

    def _aggregate(
        self, rankings: Sequence[Ranking], weights: PairwiseWeights
    ) -> Ranking:
        if self._derandomized:
            # The candidate pool *is* the input stack the plan already
            # encodes: one batched pass scores every row.
            scores = generalized_kemeny_scores_of_stack(
                weights.positions, weights
            ).tolist()
            best_index = min(range(len(rankings)), key=scores.__getitem__)
            self._chosen_index = best_index
            return rankings[best_index]
        index = int(self._rng().integers(0, len(rankings)))
        self._chosen_index = index
        return rankings[index]

    def _last_details(self) -> dict[str, object]:
        return {"chosen_input_index": self._chosen_index}
