"""Bounded enumeration of candidate congruence families, checked as linear
algebra over Z/ell^N.  A family with weights w holds below the bound exactly
when head @ w == 0 for A's head on one shared `Plan`, so all candidates are
checked at once against the few generators of the head's row module.  The
optional redundancy filter drops proved families in the Z/ell^N span of
those kept, tested exactly against their Howell basis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .decompose import GFKind
from .errors import InvalidParameter, SpaceTooLarge
from .prover import PROVED, Certificate, CongruenceFamily, Plan, _in_span, _row_generators
from .series import Modulus

# Unused here; bound so that perfbench/tracing.py, which wraps these
# module-level names of this module, finds them.
from .decompose import build_spec, split_AB  # noqa: F401
from .periods import kwong_period  # noqa: F401
from .series import series_from_spec  # noqa: F401

# `enumerate_candidates` raises SpaceTooLarge past this many candidates
CANDIDATE_CAP = 10**6


@dataclass(frozen=True)
class SearchSpace:
    """All families over residues [0, delta) with a bounded number of terms.

    A right side of "0" counts as one term, so a family {a} == 0 has size 2;
    this matches counting both sides of the congruence as written.
    """

    target: GFKind
    modulus: Modulus
    delta: int
    max_terms: int

    def __post_init__(self):
        if self.delta < 1:
            raise InvalidParameter("delta must be >= 1")
        if self.max_terms < 1:
            raise InvalidParameter("max_terms must be >= 1")


def enumerate_candidates(space: SearchSpace) -> list:
    """Every canonical family once: disjoint residue multisets, the
    lexicographically smaller side on the left, sizes summing to at most
    max_terms (an empty right side counting as one term).

    The space is counted before any family is built, and SpaceTooLarge is
    raised past CANDIDATE_CAP.  Its families on u distinct residues number
    C(delta, u) C(T - 1, u) with an empty right side (a multiset of size
    below T = max_terms on u given residues is a u-subset of T - 1 slots),
    and C(delta, u) C(T, u) (2^(u-1) - 1) with two sides: a pair of
    multisets of total size at most T, split into two nonempty parts of
    the u residues, each pair counted once."""
    delta, terms = space.delta, space.max_terms
    count = 0
    for u in range(1, min(delta, terms) + 1):
        count += math.comb(delta, u) * (
            math.comb(terms - 1, u) + math.comb(terms, u) * (2 ** (u - 1) - 1)
        )
        if count > CANDIDATE_CAP:
            raise SpaceTooLarge(f"more than {CANDIDATE_CAP} candidates; lower max_terms or delta")

    residues = range(delta)
    out = []
    for size in range(1, terms):
        for left in combinations_with_replacement(residues, size):
            out.append(CongruenceFamily(delta, left, (), space.modulus))

    for s in range(1, terms // 2 + 1):
        for t in range(s, terms - s + 1):
            for left in combinations_with_replacement(residues, s):
                # the residues left free, ascending, so the right sides
                # come in the same order as from all of `residues`
                free = sorted(set(residues).difference(left))
                for right in combinations_with_replacement(free, t):
                    if s == t and right < left:
                        continue
                    out.append(CongruenceFamily(delta, left, right, space.modulus))
    return out


def search_certified(
    space: SearchSpace,
    redundancy_filter: bool = False,
    candidates: list | None = None,
) -> list:
    """Certify every candidate and return the PROVED certificates, sorted.

    One `Plan` serves the whole space, and the matrix of all candidates'
    weight vectors is multiplied with the generators of A's row module
    (`Plan.holding_weights`); a `Certificate` is built only for the
    families that hold, and the redundancy filter reads their rows of the
    same matrix.  `candidates` defaults to `enumerate_candidates(space)`.
    A target that does not decompose aborts the search (`Plan.build`'s
    split error propagates).
    """
    plan = Plan.build(space.target, space.modulus, space.delta)
    if candidates is None:
        candidates = enumerate_candidates(space)
    weights = plan.weight_matrix(candidates)
    holds = np.flatnonzero(plan.holding_weights(weights)).tolist()

    def size_then_sides(i):
        family = candidates[i]
        return (len(family.left) + len(family.right), family.left, family.right)

    holds.sort(key=size_then_sides)
    fields = plan.certificate_fields()
    proved = [Certificate(family=candidates[i], status=PROVED, **fields) for i in holds]

    if redundancy_filter:
        # keep the first family outside the span of those kept, until none is
        m = space.modulus.value
        weights = weights[holds]
        kept, outside = [], (weights % m).any(axis=1)
        while outside.any():
            kept.append(int(np.argmax(outside)))
            outside &= ~_in_span(weights, _row_generators(weights[kept], m), m)
        proved = [proved[i] for i in kept]
    return proved
