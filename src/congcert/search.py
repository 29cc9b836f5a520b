"""Bounded enumeration of candidate congruence families and batch
certification against one shared `Plan`."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .decompose import GFKind
from .errors import InvalidParameter, SpaceTooLarge
from .prover import PROVED, Certificate, CongruenceFamily, Plan
from .series import Modulus

# Unused here; bound so that perfbench/tracing.py, which wraps these
# module-level names of this module, finds them.
from .decompose import build_spec, split_AB  # noqa: F401
from .periods import kwong_period  # noqa: F401
from .series import series_from_spec  # noqa: F401

DEFAULT_CANDIDATE_CAP = 10**6


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
    allow_zero_right: bool = True
    candidate_cap: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        if self.delta < 1:
            raise InvalidParameter("delta must be >= 1")
        if self.max_terms < 1:
            raise InvalidParameter("max_terms must be >= 1")


def enumerate_candidates(space: SearchSpace) -> list:
    """Every canonical family once: disjoint residue multisets, the
    lexicographically smaller side on the left, sizes summing to at most
    max_terms (an empty right side counting as one term)."""
    delta, cap = space.delta, space.candidate_cap
    residues = range(delta)
    out = []

    def push(family):
        if len(out) >= cap:
            raise SpaceTooLarge(
                f"more than {cap} candidates; raise the cap to search this space"
            )
        out.append(family)

    if space.allow_zero_right:
        for size in range(1, space.max_terms):
            for left in combinations_with_replacement(residues, size):
                push(CongruenceFamily(delta, left, (), space.modulus))

    for s in range(1, space.max_terms // 2 + 1):
        for t in range(s, space.max_terms - s + 1):
            for left in combinations_with_replacement(residues, s):
                lset = set(left)
                for right in combinations_with_replacement(residues, t):
                    if lset & set(right):
                        continue
                    if s == t and right < left:
                        continue
                    push(CongruenceFamily(delta, left, right, space.modulus))
    return out


def _implied(vector, basis, m, ell):
    """Is the family vector in the Z/m span of already accepted vectors?
    Gaussian elimination over Z/ell^N, pivoting on minimal ell-valuation."""
    v = list(vector)
    for pivot_col, pivot_row, pivot_val in basis:
        c = v[pivot_col]
        if c == 0:
            continue
        val = pivot_val
        shift = 0
        while val % ell == 0:
            val //= ell
            shift += 1
        if c % ell**shift:
            return False
        mult = (c // ell**shift) * pow(val, -1, m) % m
        for i in range(len(v)):
            v[i] = (v[i] - mult * pivot_row[i]) % m
    return all(x == 0 for x in v)


def _insert_basis(vector, basis, m, ell):
    v = list(vector)
    for pivot_col, pivot_row, pivot_val in basis:
        c = v[pivot_col]
        if c == 0:
            continue
        val = pivot_val
        shift = 0
        while val % ell == 0:
            val //= ell
            shift += 1
        if c % ell**shift:
            continue
        mult = (c // ell**shift) * pow(val, -1, m) % m
        for i in range(len(v)):
            v[i] = (v[i] - mult * pivot_row[i]) % m
    nonzero = [i for i, x in enumerate(v) if x != 0]
    if not nonzero:
        return
    col = min(nonzero, key=lambda i: _val(v[i], ell))
    basis.append((col, tuple(v), v[col]))


def _val(x, ell):
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def _family_vector(family, m):
    vec = [0] * family.delta
    for a in family.left:
        vec[a] = (vec[a] + 1) % m
    for b in family.right:
        vec[b] = (vec[b] - 1) % m
    return tuple(vec)


def search_certified(
    space: SearchSpace,
    threads: int = 1,
    redundancy_filter: bool = False,
    candidates: list | None = None,
) -> list:
    """Certify every candidate and return the PROVED certificates, sorted.

    One `Plan` serves the whole space: the decomposition, period, and A's
    residue sums are computed once, and candidates only combine its columns.
    `candidates` defaults to `enumerate_candidates(space)`.  A target that
    does not decompose aborts the search (SplitFailed propagates).
    """
    modulus = space.modulus
    plan = Plan.build(space.target, modulus, space.delta)
    if plan.error is not None:
        raise plan.error
    if candidates is None:
        candidates = enumerate_candidates(space)
    dec = plan.decomposition

    def check(family):
        if plan.first_failure(family) is None:
            return Certificate(
                family=family,
                target=space.target,
                status=PROVED,
                a_multiset=dec.a_multiset,
                period_used=plan.period,
                check_bound=plan.bound,
                derivation=dec.derivation,
            )
        return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(check, candidates))
    else:
        results = [check(f) for f in candidates]

    proved = [c for c in results if c is not None]
    proved.sort(key=lambda c: (len(c.family.left) + len(c.family.right), c.family.left, c.family.right))

    if redundancy_filter:
        m = modulus.value
        kept, basis = [], []
        for cert in proved:
            vec = _family_vector(cert.family, m)
            if _implied(vec, basis, m, modulus.prime):
                continue
            _insert_basis(vec, basis, m, modulus.prime)
            kept.append(cert)
        proved = kept
    return proved
