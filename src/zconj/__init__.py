"""Exact GL_n(Z)-conjugacy decisions for integer matrices.

The decision procedure targets matrices with split rational spectrum:
it checks a Smith-exponent condition on the scaled spectral
idempotents, runs conjugacy tests over the localizations at the
finitely many relevant primes, and combines them into a global verdict
with machine-checkable certificates (local conjugators, an explicit
global conjugator, or a binary quadratic form that represents no
unit).  Graph generators, a Smith-invariant lemma checker and
truncated p-adic Jacobi sum arithmetic cover the Paley/Peisert
application.  Everything is exact integer arithmetic: rational
quantities are carried fraction-free through one Gauss-Jordan kernel
(linalg.fraction_free_rref, each step in int64 while twice the square
of its largest entry stays below 2^62, on Python ints otherwise) and
LLL keeps integral Gram determinants.
"""

from .conjugacy import (
    conjugator_search,
    decide,
    intertwiner_lattice,
    local_test,
    relevant_primes,
    sl_lift,
    verify_conjugator,
)
from .corpus import load_corpus
from .graphs import field_build, paley_adjacency, peisert_adjacency, verify_smith_lemma
from .linalg import snf_invariants
from .matrix import IntMatrix
from .padic import TruncatedUnramifiedRing, jacobi_sum, teichmuller
from .spectral import check_assumption, split_spectrum

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "TruncatedUnramifiedRing",
    "check_assumption",
    "conjugator_search",
    "decide",
    "field_build",
    "intertwiner_lattice",
    "jacobi_sum",
    "load_corpus",
    "local_test",
    "paley_adjacency",
    "peisert_adjacency",
    "relevant_primes",
    "sl_lift",
    "snf_invariants",
    "split_spectrum",
    "teichmuller",
    "verify_conjugator",
    "verify_smith_lemma",
]
