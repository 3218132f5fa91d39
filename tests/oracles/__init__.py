"""Scalar reference implementations of the library's algorithms and distances.

Every algorithm in :mod:`repro.algorithms` has one implementation, running
on the prepared position tensor and pairwise cost matrices.  The oracles
here are the plain-Python implementations those paths were derived from —
bucket lists, per-element dictionaries, one pair at a time — kept only as
ground truth for the differential tests, which assert identical outputs on
random datasets with ties.

An oracle class subclasses its library class and overrides the private
methods that compute the result (``BioConsertOracle`` both the batch search
and the per-start sweep behind the anytime paths), so configuration,
naming, seeding and the reported details stay those of the library class.

:mod:`oracles.cache` holds the same kind of reference for the result
cache: invalidation by a scan of every record.
"""

from .ailon import AilonThreeHalvesOracle
from .bioconsert import BioConsertOracle
from .borda import BordaCountOracle, borda_scores
from .cache import ScanInvalidateOracle, count_record_opens
from .chanas import ChanasBothOracle, ChanasOracle
from .copeland import CopelandMethodOracle, copeland_scores
from .distances import (
    generalized_kendall_tau_distance_reference,
    pairwise_distance_matrix_reference,
)
from .exact_dp import ExactSubsetDPOracle, ExactSubsetDPStateLoopOracle
from .kwiksort import KwikSortOracle
from .medrank import MEDRankOracle
from .pick_a_perm import PickAPermOracle
from .repeat_choice import RepeatChoiceOracle

__all__ = [
    "AilonThreeHalvesOracle",
    "BioConsertOracle",
    "BordaCountOracle",
    "ChanasBothOracle",
    "ChanasOracle",
    "CopelandMethodOracle",
    "ExactSubsetDPOracle",
    "ExactSubsetDPStateLoopOracle",
    "KwikSortOracle",
    "MEDRankOracle",
    "PickAPermOracle",
    "RepeatChoiceOracle",
    "ScanInvalidateOracle",
    "borda_scores",
    "copeland_scores",
    "count_record_opens",
    "generalized_kendall_tau_distance_reference",
    "pairwise_distance_matrix_reference",
]
