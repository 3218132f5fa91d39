"""Rank aggregation algorithms (Table 1 of the paper).

Three families (Section 3):

* ``[G]`` generalized-Kendall-τ based, natively handling ties:
  :class:`BioConsert`, :class:`FaginSmall` / :class:`FaginLarge`, plus the
  exact solvers :class:`ExactAlgorithm` (the paper's LPB contribution) and
  :class:`ExactSubsetDP` (validation oracle);
* ``[K]`` Kendall-τ based: :class:`AilonThreeHalves`, :class:`KwikSort`,
  :class:`Chanas` / :class:`ChanasBoth`, :class:`BranchAndBound`,
  :class:`PickAPerm`, :class:`RepeatChoice`;
* ``[P]`` positional: :class:`BordaCount`, :class:`CopelandMethod`,
  :class:`MEDRank`, :class:`MC4`.
"""

from .ailon import AilonThreeHalves
from .annealing import SimulatedAnnealing
from .anytime import AnytimeAggregator, AnytimeController, run_anytime, supports_anytime
from .base import AggregationResult, RankAggregator
from .bioconsert import BioConsert
from .chained import ChainedAggregator
from .borda import BordaCount
from .branch_and_bound import BranchAndBound
from .chanas import Chanas, ChanasBoth
from .copeland import CopelandMethod
from .exact_dp import ExactSubsetDP
from .exact_lpb import ExactAlgorithm, build_lpb_program
from .fagin_dyn import FaginDyn, FaginLarge, FaginSmall
from .kwiksort import KwikSort
from .mc4 import MC4
from .medrank import MEDRank
from .pick_a_perm import PickAPerm
from .registry import (
    ALGORITHM_FACTORIES,
    EVALUATED_ALGORITHMS,
    SCALABLE_ALGORITHMS,
    available_algorithms,
    make_algorithm,
    make_evaluated_suite,
    table1_catalogue,
)
from .repeat_choice import RepeatChoice

__all__ = [
    "RankAggregator",
    "AggregationResult",
    "AnytimeAggregator",
    "AnytimeController",
    "supports_anytime",
    "run_anytime",
    "AilonThreeHalves",
    "BioConsert",
    "SimulatedAnnealing",
    "ChainedAggregator",
    "BordaCount",
    "BranchAndBound",
    "Chanas",
    "ChanasBoth",
    "CopelandMethod",
    "ExactAlgorithm",
    "ExactSubsetDP",
    "FaginDyn",
    "FaginSmall",
    "FaginLarge",
    "KwikSort",
    "MC4",
    "MEDRank",
    "PickAPerm",
    "RepeatChoice",
    "build_lpb_program",
    "ALGORITHM_FACTORIES",
    "EVALUATED_ALGORITHMS",
    "SCALABLE_ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
    "make_evaluated_suite",
    "table1_catalogue",
]
