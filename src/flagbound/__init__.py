"""Exact-arithmetic genus bounds for projective curves under flag conditions.

The package computes, over exact rationals, the maximal-genus machinery for
curves constrained by nested degree conditions: Castelnuovo's bound, the
quadratic genus bound with its four-piece remainder, term-by-term remainder
envelopes, the recursive genus interval for flag conditions, the closed
corollary bounds and their dichotomy, the speciality bound, and exact
verification of every degree/separation hypothesis, radicals included.

Brute-force oracles for all of the closed-form identities ship in
oracle_suite and behind the CLI verb `verify`.
"""

from ._backend import backend_name
from .castelnuovo import castelnuovo_bound
from .flag_recurrence import flag_genus_interval
from .flags import FlagCondition
from .hilbert_profiles import HilbertProfile
from .lemma_engine import (
    LemmaInput,
    genus_from_lemma_input,
    quadratic_genus_bound,
    remainder_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "FlagCondition",
    "HilbertProfile",
    "LemmaInput",
    "backend_name",
    "castelnuovo_bound",
    "flag_genus_interval",
    "genus_from_lemma_input",
    "quadratic_genus_bound",
    "remainder_decomposition",
]
