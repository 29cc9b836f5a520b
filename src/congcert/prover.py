"""Finite-check certification of arithmetic-progression congruence families.

A family sum over left residues = sum over right residues (mod ell^N) on the
progression delta*n + r is verified for every n below period/delta; the
decomposition plus the periodicity of the head A then extend the result to
all n.

The finite check runs on A, not on the full product G.  Since G = A*B with
B[0] = 1 and B supported on multiples of delta, the family difference of G at
n is sum_k B[delta*k] * (difference of A at n-k): a unit-triangular
combination of A's differences at n, n-1, ..., 0.  G and A therefore agree
on the family below any bound, and first fail it at the same n.  G is still
expanded for what a reader checks by hand: the sums reported in a witness
(up to the witness index only, and guarded to fail first exactly there) and
`spot_check`, which uses no decomposition or periodicity at all.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition, GFKind, build_spec, split_AB
from .errors import (
    CertificateFailed,
    CongcertError,
    EmptyMultiset,
    InvalidParameter,
    RuleValidationFailed,
    SplitFailed,
)
from .periods import PartMultiset, kwong_period
from .series import ModSeries, Modulus, ProductSpec, series_from_spec

PROVED = "PROVED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
INAPPLICABLE = "INAPPLICABLE"


@dataclass(frozen=True)
class CongruenceFamily:
    """sum of lambda(delta*n + a) over left == sum over right, mod ell^N.

    Construction canonicalizes: residues sorted, entries common to both sides
    cancelled, and the lexicographically smaller side stored on the left
    (an empty right side stays right; it encodes "== 0")."""

    delta: int
    left: tuple
    right: tuple
    modulus: Modulus

    def __post_init__(self):
        if self.delta < 1:
            raise InvalidParameter("delta must be >= 1")
        left = sorted(int(a) for a in self.left)
        right = sorted(int(b) for b in self.right)
        for r in left + right:
            if not 0 <= r < self.delta:
                raise InvalidParameter(f"residue {r} outside [0, {self.delta})")
        left, right = _cancel_common(left, right)
        if not left and not right:
            raise InvalidParameter("family is trivial after cancellation")
        if right and (not left or tuple(right) < tuple(left)):
            left, right = right, left
        object.__setattr__(self, "left", tuple(left))
        object.__setattr__(self, "right", tuple(right))

    def __str__(self):
        lhs = "{" + ",".join(str(a) for a in self.left) + "}"
        rhs = "{" + ",".join(str(b) for b in self.right) + "}" if self.right else "0"
        return f"{lhs} == {rhs}"


def _cancel_common(left, right):
    cl, cr = Counter(left), Counter(right)
    common = cl & cr
    return sorted((cl - common).elements()), sorted((cr - common).elements())


@dataclass(frozen=True)
class Certificate:
    """Outcome of a finite-check certification run."""

    family: CongruenceFamily
    target: GFKind
    status: str
    a_multiset: PartMultiset | None = None
    period_used: int | None = None
    check_bound: int | None = None
    witness: tuple | None = None  # (n, left_sum, right_sum) for a counterexample
    reason: str | None = None
    derivation: tuple = ()

    def proved(self) -> bool:
        return self.status == PROVED


def _progression_sums(series: ModSeries, delta: int, residues, count: int) -> np.ndarray:
    """Vector of sum over residues of lambda(delta*n + r), n = 0..count-1."""
    m = series.modulus.value
    data = series.array()
    total = np.zeros(count, dtype=np.int64)
    base = delta * np.arange(count, dtype=np.int64)
    for r in residues:
        total += data[base + r]
    return total % m


@dataclass(frozen=True, eq=False)
class Plan:
    """What every family on one target, modulus and delta shares: the A*B
    split, the check period and bound, and A's first `period` coefficients.

    `head[n, r]` is A[delta*n + r]; a family holds below the bound exactly
    when its column sums of `head` agree.  A plan whose split fails keeps the
    error and certifies every family INAPPLICABLE."""

    target: GFKind
    modulus: Modulus
    delta: int
    spec: ProductSpec
    decomposition: Decomposition | None = None
    period: int | None = None
    bound: int | None = None
    head: np.ndarray | None = None
    error: CongcertError | None = None

    @classmethod
    def build(
        cls,
        target: GFKind,
        modulus: Modulus,
        delta: int,
        validation_length: int | None = None,
    ) -> "Plan":
        """Split the product into A*B at this modulus and delta, take the
        minimal period of A's multiset lifted to a multiple of delta, and
        expand A over one period."""
        spec = build_spec(target)
        try:
            dec = split_AB(spec, modulus, delta, validation_length)
            info = kwong_period(dec.a_multiset, modulus.prime, modulus.exponent)
        except (SplitFailed, CertificateFailed, EmptyMultiset) as exc:
            return cls(target, modulus, delta, spec, error=exc)
        period = math.lcm(info.period, delta)
        bound = period // delta
        head = series_from_spec(dec.a_spec, modulus, period).array().reshape(bound, delta)
        return cls(target, modulus, delta, spec, dec, period, bound, head)

    def first_failure(self, family: CongruenceFamily) -> int | None:
        """First n below the bound at which the family's sums over A differ,
        or None when it holds on the whole range."""
        self._require_matching(family)
        if self.error is not None:
            raise self.error
        weights = np.zeros(self.delta, dtype=np.int64)
        for a in family.left:
            weights[a] += 1
        for b in family.right:
            weights[b] -= 1
        diff = (self.head @ weights) % self.modulus.value
        mismatch = np.flatnonzero(diff)
        return int(mismatch[0]) if mismatch.size else None

    def check(self, family: CongruenceFamily) -> Certificate:
        """Certify the family: PROVED, COUNTEREXAMPLE with G's sums at the
        first failing n, or INAPPLICABLE when the split failed."""
        self._require_matching(family)
        if self.error is not None:
            return Certificate(
                family=family,
                target=self.target,
                status=INAPPLICABLE,
                reason=f"{type(self.error).__name__}: {self.error}",
            )
        dec = self.decomposition
        n = self.first_failure(family)
        if n is None:
            return Certificate(
                family=family,
                target=self.target,
                status=PROVED,
                a_multiset=dec.a_multiset,
                period_used=self.period,
                check_bound=self.bound,
                derivation=dec.derivation,
            )
        return Certificate(
            family=family,
            target=self.target,
            status=COUNTEREXAMPLE,
            a_multiset=dec.a_multiset,
            period_used=self.period,
            check_bound=self.bound,
            witness=self._witness(family, n),
            derivation=dec.derivation,
        )

    def _witness(self, family: CongruenceFamily, n: int) -> tuple:
        """G's sums at n, from G expanded only to delta*(n+1).  G must agree
        with the family below n and differ at n; anything else means A*B is
        not G, and no verdict is given."""
        lam = series_from_spec(self.spec, self.modulus, self.delta * (n + 1))
        left = _progression_sums(lam, self.delta, family.left, n + 1)
        right = _progression_sums(lam, self.delta, family.right, n + 1)
        first = np.flatnonzero(left != right)
        if not first.size or first[0] != n:
            seen = f"first fails at n={int(first[0])}" if first.size else f"holds for n <= {n}"
            raise RuleValidationFailed(
                f"witness check for {family} on {self.target} mod {self.modulus}: "
                f"A first fails at n={n} but G {seen}"
            )
        return (n, int(left[n]), int(right[n]))

    def _require_matching(self, family: CongruenceFamily) -> None:
        if family.delta != self.delta or family.modulus != self.modulus:
            raise InvalidParameter(
                f"family mod {family.modulus}, delta {family.delta} does not match "
                f"the plan's mod {self.modulus}, delta {self.delta}"
            )


def certify(
    target: GFKind,
    family: CongruenceFamily,
    validation_length: int | None = None,
) -> Certificate:
    """Verify the family for all n below period/delta and certify it for all n.

    Builds a one-off `Plan` for the family's modulus and delta and checks the
    family on it.  A failed split or an empty head yields status
    INAPPLICABLE; a failed comparison yields the first counterexample."""
    return Plan.build(target, family.modulus, family.delta, validation_length).check(family)


@dataclass(frozen=True)
class SpotCheckResult:
    family: CongruenceFamily
    target: GFKind
    n_max: int
    failure: tuple | None  # (n, left_sum, right_sum) or None

    @property
    def ok(self) -> bool:
        return self.failure is None


def spot_check(target: GFKind, family: CongruenceFamily, n_max: int) -> SpotCheckResult:
    """Test the congruence directly for every n <= n_max, with no periodicity
    reasoning at all.  An independent sanity check beyond the certified bound."""
    if n_max < 1:
        raise InvalidParameter("n_max must be >= 1")
    spec = build_spec(target)
    delta = family.delta
    lam = series_from_spec(spec, family.modulus, delta * n_max + delta)
    count = n_max + 1
    left = _progression_sums(lam, delta, family.left, count)
    right = _progression_sums(lam, delta, family.right, count)
    mismatch = np.nonzero(left != right)[0]
    if mismatch.size:
        n = int(mismatch[0])
        return SpotCheckResult(family, target, n_max, (n, int(left[n]), int(right[n])))
    return SpotCheckResult(family, target, n_max, None)
