"""Core data model: rankings with ties, distances, Kemeny scores, similarity.

This subpackage implements the formal background of Section 2 of the paper:
bucket orders (:class:`~repro.core.ranking.Ranking`), the classical and
generalized Kendall-τ distances, the (generalized) Kemeny score, the
Kendall-τ correlation / dataset similarity of Section 6.2.2, and the
pairwise weight matrices shared by most algorithms.
"""

from .arrays import (
    disagreement_counts,
    distances_to_stack,
    pairwise_distance_tensor,
    pairwise_order_counts,
    position_tensor,
    positional_counts,
)
from .correlation import dataset_similarity, kendall_tau_correlation
from .distances import (
    generalized_kendall_tau_distance,
    kendall_tau_distance,
    pairwise_distance_matrix,
    spearman_footrule_distance,
    weighted_generalized_kendall_tau_distance,
)
from .exceptions import (
    AlgorithmNotApplicableError,
    DatasetMutationError,
    DomainMismatchError,
    EmptyDatasetError,
    InvalidRankingError,
    ReproError,
    SolverUnavailableError,
    TimeBudgetExceeded,
)
from .journal import (
    JournalCorruptionError,
    JournalError,
    LiveJournal,
    ReplayResult,
    journal_exists,
    replay_journal,
)
from .kemeny import (
    generalized_kemeny_score,
    generalized_kemeny_score_from_weights,
    generalized_kemeny_scores_of_stack,
    kemeny_score,
    score_of_single_bucket,
    trivial_upper_bound,
)
from .live import LiveDataset
from .pairwise import PairwiseWeights
from .prepared import (
    PreparedDataset,
    cached_plan,
    clear_plan_cache,
    plan_build_count,
    plan_cache_limit,
    prepare_rankings,
    rankings_fingerprint,
    set_plan_cache_limit,
    store_plan,
)
from .ranking import BucketVector, Element, Ranking

__all__ = [
    "Ranking",
    "BucketVector",
    "Element",
    "PairwiseWeights",
    "kendall_tau_distance",
    "generalized_kendall_tau_distance",
    "weighted_generalized_kendall_tau_distance",
    "spearman_footrule_distance",
    "pairwise_distance_matrix",
    "position_tensor",
    "pairwise_order_counts",
    "positional_counts",
    "pairwise_distance_tensor",
    "distances_to_stack",
    "disagreement_counts",
    "PreparedDataset",
    "LiveDataset",
    "LiveJournal",
    "ReplayResult",
    "replay_journal",
    "journal_exists",
    "JournalError",
    "JournalCorruptionError",
    "prepare_rankings",
    "rankings_fingerprint",
    "cached_plan",
    "store_plan",
    "plan_build_count",
    "clear_plan_cache",
    "plan_cache_limit",
    "set_plan_cache_limit",
    "kemeny_score",
    "generalized_kemeny_score",
    "generalized_kemeny_score_from_weights",
    "generalized_kemeny_scores_of_stack",
    "score_of_single_bucket",
    "trivial_upper_bound",
    "kendall_tau_correlation",
    "dataset_similarity",
    "ReproError",
    "InvalidRankingError",
    "DomainMismatchError",
    "DatasetMutationError",
    "EmptyDatasetError",
    "AlgorithmNotApplicableError",
    "TimeBudgetExceeded",
    "SolverUnavailableError",
]
