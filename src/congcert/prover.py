"""Finite-check certification of arithmetic-progression congruence families.

A family sum over left residues = sum over right residues (mod ell^N) on the
progression delta*n + r is verified for every n below a check bound; the
decomposition G = A*B then extends the result to all n.  Either of two
bounds suffices, and the check runs to the smaller:

- period/delta, from the periodicity of the head A (Kwong's period);
- the degree bound K = floor(deg N / delta) + 1 of A's rational section.
  A = prod (1-q^b)^(-e_b), and each 1/(1-q^b) is
  (1 + q^b + ... + q^(L_b - b)) / (1 - q^(L_b)) with L_b = lcm(b, delta),
  so A = N(q)/D(q^delta) for a polynomial N of degree
  sum e_b (L_b - b) and a polynomial D with D(0) = 1.  A family's section
  sums s(n) = sum_r w_r A[delta*n + r] then have generating function
  P_w(x)/D(x), where P_w, built from the delta-sections of N, has degree
  below K.  D is a unit, so s vanishes mod ell^N for all n exactly when
  P_w does, hence exactly when s(n) vanishes for n < K; and since
  D(0) = 1, P_w = s*D is unit-triangular in s, so s and P_w first fail at
  the same n.  The check reads A, not N, to either bound.

The finite check runs on A, not on the full product G.  Since G = A*B with
B[0] = 1 and B supported on multiples of delta, the family difference of G at
n is sum_k B[delta*k] * (difference of A at n-k): a unit-triangular
combination of A's differences at n, n-1, ..., 0.  G and A therefore agree
on the family below any bound, and first fail it at the same n.

The split (`decompose.split_AB`) is symbolic; `Plan.build` makes every
expansion and every numeric check of it.  It expands B and G to the
validation length L, checks B's support there, and checks A*B against G:
the one numeric check of the split's rewrites, none of which is checked on
its own.  G is also expanded for what a reader checks by hand:
the sums reported in a witness (up to the witness index only, and guarded
to fail first exactly there) and `spot_check`, which uses no decomposition
or periodicity at all.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .decompose import Decomposition, GFKind, build_spec, split_AB
from .errors import InvalidParameter, ParseError, RuleValidationFailed, SplitFailed
from .periods import PartMultiset, kwong_period
from .series import BinomialFactor, Modulus, ProductSpec, series_from_spec, series_mul

PROVED = "PROVED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
INAPPLICABLE = "INAPPLICABLE"


_RESIDUES = r"\s*(?:\d+(?:\s*,\s*\d+)*\s*)?"  # comma-separated integers, or none
_FAMILY_RE = re.compile(rf"^\{{({_RESIDUES})\}}\s*==\s*(?:\{{({_RESIDUES})\}}|0)$")


@dataclass(frozen=True)
class CongruenceFamily:
    """sum of lambda(delta*n + a) over left == sum over right, mod ell^N.

    Construction keeps only the signed residue counts (`weights`: +1 per left
    residue, -1 per right one), so common residues cancel.  The positive
    counts give one side and the negative counts the other, each ascending;
    the lexicographically smaller side is stored on the left (an empty right
    side stays right; it encodes "== 0")."""

    delta: int
    left: tuple
    right: tuple
    modulus: Modulus

    def __post_init__(self):
        if self.delta < 1:
            raise InvalidParameter("delta must be >= 1")
        if self.delta > sys.maxsize:  # before `_signed_counts` allocates delta counts
            raise InvalidParameter(f"delta {self.delta} exceeds the largest list size")
        left, right = [], []
        for r, c in enumerate(_signed_counts(self.delta, self.left, self.right)):
            if c > 0:
                left += [r] * c
            elif c < 0:
                right += [r] * -c
        left, right = tuple(left), tuple(right)
        if not left and not right:
            raise InvalidParameter("family is trivial after cancellation")
        if right and (not left or right < left):
            left, right = right, left
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def parse(cls, text: str, delta: int, modulus: Modulus) -> "CongruenceFamily":
        """The family `str` prints, `{a,...} == {b,...}` or `{a,...} == 0`,
        on the progressions delta*n + r mod ell^N.  ParseError for text that
        is not a family, InvalidParameter for one the constructor refuses."""
        m = _FAMILY_RE.match(text)
        if not m:
            raise ParseError(f"bad family {text!r}")
        left, right = m.groups()
        return cls(delta, _residues(left), _residues(right), modulus)

    def weights(self) -> tuple:
        """Signed residue counts as a length-delta tuple: the family holds at n
        exactly when they weight the coefficients at delta*n + r to 0 mod ell^N."""
        return tuple(_signed_counts(self.delta, self.left, self.right))

    def __str__(self):
        lhs = "{" + ",".join(str(a) for a in self.left) + "}"
        rhs = "{" + ",".join(str(b) for b in self.right) + "}" if self.right else "0"
        return f"{lhs} == {rhs}"


def _residues(text: str | None) -> tuple:
    """The integers of a comma-separated list; none when it is blank or absent."""
    return tuple(int(r) for r in text.split(",")) if text and text.strip() else ()


def _signed_counts(delta: int, left, right) -> list:
    """+1 per left residue and -1 per right one at index r < delta.  A residue
    outside [0, delta) is rejected, the least one of the left side first."""
    counts = [0] * delta
    for side, step in ((left, 1), (right, -1)):
        for r in map(int, side):
            if not 0 <= r < delta:
                least = min(r for r in map(int, side) if not 0 <= r < delta)
                raise InvalidParameter(f"residue {least} outside [0, {delta})")
            counts[r] += step
    return counts


@dataclass(frozen=True)
class Certificate:
    """Outcome of a finite-check certification run."""

    family: CongruenceFamily
    target: GFKind
    status: str
    a_multiset: PartMultiset | None = None
    period_used: int | None = None
    check_bound: int | None = None
    degree_bound: int | None = None
    witness: tuple | None = None  # (n, left_sum, right_sum) for a counterexample
    reason: str | None = None
    derivation: tuple = ()

    def proved(self) -> bool:
        return self.status == PROVED


def _first_failure(rows: np.ndarray, family: CongruenceFamily):
    """(n, left_sum, right_sum) at the first row n of a (count, delta) matrix
    where the family's sums differ mod ell^N, or None: the left sums weight
    each row by the positive counts of `weights`, the right by the negative."""
    m = family.modulus.value
    weights = np.array(family.weights(), dtype=np.int64)
    left = (rows @ np.maximum(weights, 0)) % m
    right = (rows @ np.maximum(-weights, 0)) % m
    mismatch = np.flatnonzero(left != right)
    if not mismatch.size:
        return None
    n = int(mismatch[0])
    return (n, int(left[n]), int(right[n]))


def _first_failure_on_G(spec: ProductSpec, family: CongruenceFamily, count: int):
    """`_first_failure` on the full product G, to delta*count coefficients."""
    lam = series_from_spec(spec, family.modulus, family.delta * count)
    return _first_failure(lam.reshape(count, family.delta), family)


def _row_generators(rows: np.ndarray, m: int) -> np.ndarray:
    """A Howell basis of the Z/m module generated by `rows`, m a prime
    power: at most as many rows as columns, their pivots (first nonzero
    entries) in increasing columns, so membership is exact by `_in_span`.

    Column by column, the pivot is the row whose entry x has the least
    gcd(x, m) = g.  In Z/m that entry divides every other entry of its column,
    so subtracting multiples of the pivot row clears the column, the pivot's
    own row included, without changing the module once the pivot is kept.
    That row then takes (m/g)*pivot (0 for prime m), so the rows left span
    every element of the module that vanishes up to this column."""
    rest = rows % m
    pivots = []
    for col in range(rows.shape[1]):
        gcds = np.gcd(rest[:, col], m)
        k = int(np.argmin(gcds))
        g = int(gcds[k])
        if g == m:
            continue
        pivot = rest[k].copy()
        unit_inv = pow(int(pivot[col]) // g, -1, m)
        rest -= np.outer(rest[:, col] // g * unit_inv % m, pivot)
        rest %= m
        rest[k] = pivot * (m // g) % m
        pivots.append(pivot)
    return np.array(pivots, dtype=np.int64).reshape(-1, rows.shape[1])


def _in_span(vectors: np.ndarray, basis: np.ndarray, m: int) -> np.ndarray:
    """For each row of `vectors`, whether it lies in the Z/m module of a
    `_row_generators` basis: it reduces to zero by each basis row in turn,
    at that row's pivot."""
    v = vectors % m
    inside = np.ones(len(v), dtype=bool)
    for row in basis:
        col = int(np.flatnonzero(row)[0])
        g = math.gcd(int(row[col]), m)
        inside &= v[:, col] % g == 0
        mult = v[:, col] // g * pow(int(row[col]) // g, -1, m) % m
        v = (v - np.outer(mult, row)) % m
    return inside & ~v.any(axis=1)


def _max_base(spec: ProductSpec) -> int:
    return max(
        (f.base if isinstance(f, BinomialFactor) else f.base(f.start) for f in spec.factors),
        default=1,
    )


def default_validation_length(spec: ProductSpec, delta: int) -> int:
    """L, the length to which `Plan.build` expands B and G and checks them."""
    return max(2 * delta, 4 * _max_base(spec), 500)


def validate_B_certificate(b_series: np.ndarray, delta: int) -> bool:
    """B's expansion mod ell^N: constant term 1 and zero at every index that
    is not a multiple of delta, below its length."""
    if b_series.size < delta:
        raise InvalidParameter("validation length must be >= delta")
    if int(b_series[0]) != 1:
        return False
    return not (np.flatnonzero(b_series) % delta).any()


@dataclass(frozen=True, eq=False)
class Plan:
    """What every family on one target, modulus and delta shares: the A*B
    split, the check period and bound, the degree bound, and A's first
    delta*min(degree_bound, bound) coefficients.

    Building it expands three series, each once and in this order: B and
    G, to the validation length L, and A, to max(L, delta*rows).  B's
    support and then A*B = G are checked on them before any family is
    checked, and the head is A's first delta*rows coefficients.

    A = N(q)/D(q^delta) with D(0) = 1, and `degree_bound` is
    K = floor(deg N / delta) + 1 (see the module docstring).  `head[n, r]` is
    A[delta*n + r] for n < min(K, bound): a family that holds on those rows
    holds for all n by either bound, and one that fails first fails on them,
    at the same n as on N's sections and on G."""

    target: GFKind
    modulus: Modulus
    delta: int
    spec: ProductSpec
    decomposition: Decomposition
    period: int
    bound: int
    degree_bound: int
    head: np.ndarray

    @classmethod
    def build(cls, target: GFKind, modulus: Modulus, delta: int) -> "Plan":
        """Split the product into A*B at this modulus and delta (or raise
        SplitFailed), expand B to the validation length L and check that it
        is supported on delta*Z there (RuleValidationFailed if not), take
        the minimal period of A's multiset lifted to a multiple of delta and
        the degree bound of A's rational section, expand A to the smaller of
        the two bounds and at least to L, and check A*B = G below L
        (RuleValidationFailed, naming the first index where they differ, if
        not).  That check is the only numeric check of the split's
        rewrites."""
        spec = build_spec(target)
        dec = split_AB(spec, modulus, delta)
        length = default_validation_length(spec, delta)
        b_series = series_from_spec(dec.b_spec, modulus, length)
        if not validate_B_certificate(b_series, delta):
            raise RuleValidationFailed(f"B fails the numeric support check below {length}")
        info = kwong_period(dec.a_multiset, modulus.prime, modulus.exponent)
        period = math.lcm(info.period, delta)
        bound = period // delta
        degree_bound = sum(e * (math.lcm(b, delta) - b) for b, e in dec.a_multiset) // delta + 1
        rows = min(degree_bound, bound)
        # G before A: after A's long expansion, glibc's heap kept up to 11 MB
        # more peak RSS for the same allocations (64-rowed, scripts/headline.py)
        g = series_from_spec(spec, modulus, length)
        a = series_from_spec(dec.a_spec, modulus, max(length, delta * rows))
        # series_mul stops at the shorter length: B's, L
        differ = np.flatnonzero(series_mul(a, b_series, modulus) != g)
        if differ.size:
            raise RuleValidationFailed(
                f"A*B differs from the original product at q^{differ[0]}"
                f" (first difference in {length} coefficients mod {modulus})"
            )
        head = a[: delta * rows].reshape(rows, delta)
        return cls(target, modulus, delta, spec, dec, period, bound, degree_bound, head)

    def first_failure(self, family: CongruenceFamily) -> int | None:
        """First n below min(K, bound) at which the family's sums over A differ,
        or None when it holds on the whole range."""
        _require_matching(family, self.modulus, self.delta)
        failure = _first_failure(self.head, family)
        return None if failure is None else failure[0]

    def weight_matrix(self, families) -> np.ndarray:
        """The families' weights (`CongruenceFamily.weights`) as the rows of
        one (len(families), delta) matrix; each family must match the plan's
        delta and modulus."""
        for family in families:
            _require_matching(family, self.modulus, self.delta)
        weights = chain.from_iterable(family.weights() for family in families)
        return np.fromiter(weights, np.int64, len(families) * self.delta).reshape(-1, self.delta)

    def holding_weights(self, weights: np.ndarray) -> np.ndarray:
        """For each family, given by its row of `weight_matrix`, whether it
        holds for all n: `first_failure` is None, for many families at once.

        A family holds exactly when its weights (`CongruenceFamily.weights`)
        annihilate every row of `head` mod m, hence every element of the rows'
        Z/m module.  The rows are first reduced to at most delta generators of
        that module, and every family is checked against each generator in
        one matrix-vector product."""
        m = self.modulus.value
        holds = np.ones(len(weights), dtype=bool)
        for row in _row_generators(self.head, m):
            holds &= (weights @ row) % m == 0
        return holds

    def certificate_fields(self) -> dict:
        """What every certificate checked on this plan records of it, as
        `Certificate` keyword arguments."""
        return dict(
            target=self.target,
            a_multiset=self.decomposition.a_multiset,
            period_used=self.period,
            check_bound=self.bound,
            degree_bound=self.degree_bound,
            derivation=self.decomposition.derivation,
        )

    def check(self, family: CongruenceFamily) -> Certificate:
        """PROVED, or COUNTEREXAMPLE with G's sums at the first failing n."""
        n = self.first_failure(family)
        return Certificate(
            family=family,
            status=PROVED if n is None else COUNTEREXAMPLE,
            witness=None if n is None else self._witness(family, n),
            **self.certificate_fields(),
        )

    def _witness(self, family: CongruenceFamily, n: int) -> tuple:
        """G's sums at n, from G expanded only to delta*(n+1).  G must agree
        with the family below n and differ at n; anything else means A*B is
        not G, and no verdict is given."""
        failure = _first_failure_on_G(self.spec, family, n + 1)
        if failure is None or failure[0] != n:
            seen = f"first fails at n={failure[0]}" if failure else f"holds for n <= {n}"
            raise RuleValidationFailed(
                f"witness check for {family} on {self.target} mod {self.modulus}: "
                f"A first fails at n={n} but G {seen}"
            )
        return failure


def _require_matching(family: CongruenceFamily, modulus: Modulus, delta: int) -> None:
    if family.delta != delta or family.modulus != modulus:
        raise InvalidParameter(
            f"family mod {family.modulus}, delta {family.delta} does not match "
            f"mod {modulus}, delta {delta}"
        )


def certify_all(target: GFKind, families) -> list:
    """Check each family on one `Plan` to min(K, period/delta) rows, which
    certifies it for all n.  The families must share one modulus and delta
    (else InvalidParameter).  If the target does not split (SplitFailed),
    each is INAPPLICABLE with the error as its reason; other errors raise."""
    if not families:
        return []
    modulus, delta = families[0].modulus, families[0].delta
    for family in families:
        _require_matching(family, modulus, delta)
    try:
        plan = Plan.build(target, modulus, delta)
    except SplitFailed as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return [Certificate(family, target, INAPPLICABLE, reason=reason) for family in families]
    return [plan.check(family) for family in families]


def certify(target: GFKind, family: CongruenceFamily) -> Certificate:
    """`certify_all` of one family: PROVED, COUNTEREXAMPLE or INAPPLICABLE."""
    return certify_all(target, [family])[0]


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
    failure = _first_failure_on_G(build_spec(target), family, n_max + 1)
    return SpotCheckResult(family, target, n_max, failure)
