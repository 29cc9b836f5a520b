"""Generating-function builders, congruence rewrites of factor products, and
the head/tail split into A(q) * B(q) with a machine-checked tail certificate.

The split produces:
  A -- a finite product of pure denominators (1-q^b)^-e, whose coefficient
       sequence has a known minimal period mod ell^N via the multiset formula;
  B -- everything else, where each factor is structurally a series in q^delta
       (bases and polynomial supports on multiples of delta), so its
       coefficients vanish mod ell^N away from multiples of delta for ALL
       indices, not only the numerically checked prefix.

Every rewrite application is validated numerically: both sides are expanded
mod ell^N to the validation length and compared exactly.  A mismatch aborts
the whole decomposition, since it would mean an unsound rule.

`split_AB` rewrites by three validated `_Workspace` steps:
  power_reduce  -- (1 +- q^b)^(ell^N c) = (1 +- q^(ell b))^(ell^(N-1) c)
                   mod ell^N, on a binomial or a constant-exponent tail;
  expand        -- a binomial with a positive exponent as its polynomial
                   mod ell^N;
  plus_to_minus -- (1+x)^e = (1-x^2)^e (1-x)^-e, on a binomial or a tail.
It also peels tails into explicit factors and, mod 2^N, cancels matching
plus/minus tail pairs (the ratio rule).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateFailed,
    InvalidParameter,
    RuleValidationFailed,
    SplitFailed,
)
from .periods import PartMultiset, ord_prime
from .series import (
    BinomialFactor,
    Modulus,
    PolyFactor,
    ProductSpec,
    TailFamily,
    binomial_power,
    frobenius_step,
    series_from_spec,
)

_BUILDERS = {
    "partitions": 0,
    "plane": 0,
    "plane_box": 2,
    "plane_rowed": 1,
    "plane_head": 1,
    "overpartitions": 0,
    "overplane_rowed": 1,
    "maxpart": 1,
    "multiset": None,  # takes a PartMultiset
    "raw": None,  # takes a ProductSpec
}


@dataclass(frozen=True)
class GFKind:
    """A named generating function target, e.g. plane_rowed(4)."""

    name: str
    params: tuple = ()
    multiset: PartMultiset | None = None
    spec: ProductSpec | None = None

    def __post_init__(self):
        if self.name not in _BUILDERS:
            raise InvalidParameter(f"unknown generating function {self.name!r}")
        arity = _BUILDERS[self.name]
        if arity is not None and len(self.params) != arity:
            raise InvalidParameter(
                f"{self.name} takes {arity} parameter(s), got {len(self.params)}"
            )
        if any(p < 1 for p in self.params):
            raise InvalidParameter(f"{self.name} parameters must be positive")
        if self.name == "plane_head" and self.params[0] < 2:
            raise InvalidParameter("plane_head needs a parameter >= 2")
        if self.name == "multiset" and (self.multiset is None or self.multiset.is_empty()):
            raise InvalidParameter("multiset target needs a nonempty multiset")
        if self.name == "raw" and self.spec is None:
            raise InvalidParameter("raw target needs a product spec")

    @classmethod
    def partitions(cls):
        return cls("partitions")

    @classmethod
    def plane(cls):
        return cls("plane")

    @classmethod
    def plane_box(cls, rows: int, cols: int):
        return cls("plane_box", (rows, cols))

    @classmethod
    def plane_rowed(cls, rows: int):
        return cls("plane_rowed", (rows,))

    @classmethod
    def plane_head(cls, ell: int):
        return cls("plane_head", (ell,))

    @classmethod
    def overpartitions(cls):
        return cls("overpartitions")

    @classmethod
    def overplane_rowed(cls, rows: int):
        return cls("overplane_rowed", (rows,))

    @classmethod
    def maxpart(cls, max_part: int):
        return cls("maxpart", (max_part,))

    @classmethod
    def from_multiset(cls, multiset: PartMultiset):
        return cls("multiset", multiset=multiset)

    @classmethod
    def from_raw(cls, spec: ProductSpec):
        return cls("raw", spec=spec)

    def __str__(self):
        if self.name == "multiset":
            return f"multiset({self.multiset})"
        if self.name == "raw":
            return f"raw: {self.spec}"
        if self.params:
            return f"{self.name}({','.join(str(p) for p in self.params)})"
        return self.name


def build_spec(kind: GFKind) -> ProductSpec:
    """The exact symbolic factor product for a target."""
    name = kind.name
    if name == "partitions":
        return ProductSpec((TailFamily(sign=-1, start=1, exp_offset=-1),))
    if name == "plane":
        return ProductSpec((TailFamily(sign=-1, start=1, exp_offset=0, exp_scale=-1),))
    if name == "plane_rowed":
        (r,) = kind.params
        head = tuple(BinomialFactor(-1, n, -n) for n in range(1, r))
        return ProductSpec(head + (TailFamily(sign=-1, start=r, exp_offset=-r),))
    if name == "plane_head":
        (ell,) = kind.params
        return ProductSpec(tuple(BinomialFactor(-1, n, -n) for n in range(1, ell)))
    if name == "plane_box":
        r, c = kind.params
        factors = []
        for t in range(1, r + c):
            mult = min(t, r, c, r + c - t)
            factors.append(BinomialFactor(-1, t, -mult))
        return ProductSpec(tuple(factors))
    if name == "overpartitions":
        return ProductSpec(
            (
                TailFamily(sign=1, start=1, exp_offset=1),
                TailFamily(sign=-1, start=1, exp_offset=-1),
            )
        )
    if name == "overplane_rowed":
        (k,) = kind.params
        head = []
        for n in range(1, k):
            head.append(BinomialFactor(1, n, n))
            head.append(BinomialFactor(-1, n, -n))
        return ProductSpec(
            tuple(head)
            + (
                TailFamily(sign=1, start=k, exp_offset=k),
                TailFamily(sign=-1, start=k, exp_offset=-k),
            )
        )
    if name == "maxpart":
        (m,) = kind.params
        return ProductSpec(tuple(BinomialFactor(-1, n, -1) for n in range(1, m + 1)))
    if name == "multiset":
        return kind.multiset.to_product_spec()
    if name == "raw":
        return kind.spec
    raise InvalidParameter(f"unknown generating function {name!r}")


# ---------------------------------------------------------------------------
# rewrite machinery


@dataclass
class _Workspace:
    """Mutable factor inventory during a split, and the rewrite steps on it.
    A step validates its rewrite with `apply_rule` and returns the new
    factor(s), or None when it does not apply."""

    modulus: Modulus
    validation_length: int
    binomials: dict = field(default_factory=dict)  # (sign, base) -> exponent
    polys: list = field(default_factory=list)
    tails: list = field(default_factory=list)
    derivation: list = field(default_factory=list)

    def add_binomial(self, factor: BinomialFactor, times: int = 1):
        key = (factor.sign, factor.base)
        e = self.binomials.get(key, 0) + times * factor.exponent
        if e == 0:
            self.binomials.pop(key, None)
        else:
            self.binomials[key] = e

    def load(self, spec: ProductSpec):
        for f in spec.factors:
            if isinstance(f, BinomialFactor):
                self.add_binomial(f)
            elif isinstance(f, PolyFactor):
                self.polys.append(f)
            elif isinstance(f, TailFamily):
                self.tails.append(f)
            else:
                raise InvalidParameter(f"unknown factor type {type(f).__name__}")

    def apply_rule(self, label, before, after):
        """Record a rewrite after confirming both sides expand identically."""
        lhs = series_from_spec(ProductSpec(tuple(before)), self.modulus, self.validation_length)
        rhs = series_from_spec(ProductSpec(tuple(after)), self.modulus, self.validation_length)
        if lhs != rhs:
            raise RuleValidationFailed(
                f"{label}: sides differ mod {self.modulus} within {self.validation_length} terms"
            )
        self.derivation.append(label)

    def power_reduce(self, factor, delta: int):
        """`_power_reduce` as a validated step; None when no step applies or
        the reduced factor is not supported on delta*Z."""
        after = _power_reduce(factor, self.modulus)
        if after is None or not _structurally_supported(after, delta):
            return None
        self.apply_rule(f"power-reduce: {factor} -> {after} (mod {self.modulus})", [factor], [after])
        return after

    def expand(self, factor: BinomialFactor, delta: int):
        """A binomial with a positive exponent, of degree within the
        validation length, as its polynomial mod ell^N; None otherwise or
        when the polynomial is not supported on delta*Z."""
        if factor.exponent <= 0 or factor.base * factor.exponent > self.validation_length:
            return None
        coeffs = binomial_power(factor.sign, factor.base, factor.exponent, self.modulus.value)
        poly = PolyFactor(tuple(coeffs.tolist()))
        if not _structurally_supported(poly, delta):
            return None
        self.apply_rule(f"expand: {factor} -> {poly} (mod {self.modulus})", [factor], [poly])
        return poly

    def plus_to_minus(self, factor):
        """The exact rewrite (1+x)^e = (1-x^2)^e (1-x)^-e of a plus binomial
        or tail, for any exponent: the pair (doubled, inverse)."""
        if isinstance(factor, TailFamily):
            doubled = replace(factor, sign=-1, scale=2 * factor.scale, offset=2 * factor.offset)
            inverse = replace(factor, sign=-1, exp_offset=-factor.exp_offset, exp_scale=-factor.exp_scale)
        else:
            doubled = replace(factor, sign=-1, base=2 * factor.base)
            inverse = replace(factor, sign=-1, exponent=-factor.exponent)
        self.apply_rule(f"plus-to-minus: {factor} -> {doubled} * {inverse}", [factor], [doubled, inverse])
        return doubled, inverse


def _by_base(binomials: dict) -> list:
    """Binomial factors from (sign, base) -> exponent, zero exponents dropped,
    by base with ties in insertion order: a snapshot, so the caller may
    change the dict while iterating."""
    return [
        BinomialFactor(sign, base, e)
        for (sign, base), e in sorted(binomials.items(), key=lambda kv: kv[0][1])
        if e
    ]


def _max_base(spec: ProductSpec) -> int:
    best = 1
    for f in spec.factors:
        if isinstance(f, BinomialFactor):
            best = max(best, f.base)
        elif isinstance(f, PolyFactor):
            best = max(best, len(f.coeffs) - 1)
        elif isinstance(f, TailFamily):
            best = max(best, f.base(f.start))
    return best


def default_validation_length(spec: ProductSpec, delta: int) -> int:
    return max(2 * delta, 4 * _max_base(spec), 500)


def _power_reduce(factor, modulus: Modulus):
    """`frobenius_step` applied to a binomial, or to a constant-exponent
    tail, for as long as it applies: each step divides the exponent by ell
    and multiplies the base (for a tail, every base) by ell.  None when no
    step applies."""
    tail = isinstance(factor, TailFamily)
    if tail and factor.exp_scale != 0:
        return None
    start = (1, factor.exp_offset) if tail else (factor.base, factor.exponent)
    base, exponent = start
    while (step := frobenius_step(base, exponent, modulus)) is not None:
        base, exponent = step
    if base == start[0]:
        return None
    if tail:  # from base 1, the new base is the power of ell
        return replace(factor, exp_offset=exponent, scale=factor.scale * base, offset=factor.offset * base)
    return replace(factor, base=base, exponent=exponent)


# ---------------------------------------------------------------------------
# the A*B split


@dataclass(frozen=True)
class Decomposition:
    """Validated split G = A * B mod ell^N with B supported on delta-multiples."""

    a_spec: ProductSpec
    a_multiset: PartMultiset
    b_spec: ProductSpec
    derivation: tuple
    validation_length: int


def validate_B_certificate(
    b_spec: ProductSpec, modulus: Modulus, delta: int, length: int
) -> bool:
    """Expand B mod ell^N: constant term 1 and zero at every index that is
    not a multiple of delta, below the given length."""
    if length < delta:
        raise InvalidParameter("validation length must be >= delta")
    series = series_from_spec(b_spec, modulus, length)
    data = series.array()
    if int(data[0]) != 1 % modulus.value:
        return False
    return not (np.flatnonzero(data) % delta).any()


def _structurally_supported(factor, delta: int) -> bool:
    if isinstance(factor, BinomialFactor):
        return factor.base % delta == 0
    if isinstance(factor, PolyFactor):
        return all(i % delta == 0 for i in factor.support())
    if isinstance(factor, TailFamily):
        return factor.scale % delta == 0 and factor.offset % delta == 0
    return False


def split_AB(spec: ProductSpec, modulus: Modulus, delta: int) -> Decomposition:
    """Split a product into a periodic pure-denominator head A and a
    delta-supported tail B, congruent to the input mod ell^N.

    Raises SplitFailed when some factor is neither head material nor provably
    delta-supported, CertificateFailed when the numeric guard on B fails."""
    if delta < 1:
        raise InvalidParameter("delta must be >= 1")
    validation_length = default_validation_length(spec, delta)
    ws = _Workspace(modulus, validation_length)
    ws.load(spec)
    ell, N = modulus.prime, modulus.exponent

    for tail in ws.tails:
        if tail.exp_scale != 0:
            raise SplitFailed(
                f"tail {tail} has a base-dependent exponent; no finite head exists"
            )

    # Peel enough of every tail that plus-factor rewrites find their partners:
    # (1+q^j) pairs with base 2j, so materialize tail factors up to twice the
    # largest explicit plus base.
    plus_bases = [b for (s, b) in ws.binomials if s > 0 and b % delta != 0]
    peel_to = 2 * max(plus_bases, default=0)
    if peel_to and ws.tails:
        peeled = []
        for tail in ws.tails:
            n = tail.start
            explicit = []
            while tail.base(n) <= peel_to:
                explicit.append(BinomialFactor(tail.sign, tail.base(n), tail.exp_offset))
                n += 1
            if explicit:
                moved = replace(tail, start=n)
                ws.apply_rule(
                    f"peel: {tail} -> {' '.join(str(f) for f in explicit)} * {moved}",
                    [tail],
                    explicit + [moved],
                )
                for f in explicit:
                    ws.add_binomial(f)
                tail = moved
            peeled.append(tail)
        ws.tails = peeled

    # Tail ratio rule: over a 2-power modulus, (1+q^n)^e/(1-q^n)^e = 1 whenever
    # 2^(N-1) divides e, because ((1+q^n)/(1-q^n))^(2^(N-1)) = (1+2x)^(2^(N-1))
    # with x = q^n/(1-q^n).
    if ell == 2:
        unit_exp = 2 ** (N - 1)
        remaining = []
        by_shape = {}
        for tail in ws.tails:
            key = (tail.scale, tail.offset, tail.start)
            by_shape.setdefault(key, []).append(tail)
        for key, group in by_shape.items():
            plus = [t for t in group if t.sign > 0 and t.exp_offset > 0]
            minus = [t for t in group if t.sign < 0 and t.exp_offset < 0]
            if (
                len(group) == 2
                and len(plus) == 1
                and len(minus) == 1
                and plus[0].exp_offset == -minus[0].exp_offset
                and plus[0].exp_offset % unit_exp == 0
            ):
                ws.apply_rule(
                    f"ratio: {plus[0]} * {minus[0]} -> 1 (mod {modulus})",
                    [plus[0], minus[0]],
                    [],
                )
            else:
                remaining.extend(group)
        ws.tails = remaining

    # Surviving plus tails become minus tails.
    minus_tails = []
    for tail in ws.tails:
        minus_tails.extend(ws.plus_to_minus(tail) if tail.sign > 0 else (tail,))
    ws.tails = minus_tails

    # B's binomials are summed as they are produced, so exact cancellations
    # inside B merge; its other factors keep their order.
    b_binomials = Counter()
    b_others = []

    # Explicit plus factors: keep when already on delta-multiples, collapse to
    # a supported polynomial when the expansion allows, else move them to
    # minus factors.
    for factor in _by_base(ws.binomials):
        if factor.sign < 0:
            continue
        ws.add_binomial(factor, -1)
        if factor.base % delta == 0:
            b_binomials[factor.sign, factor.base] += factor.exponent
        elif (poly := ws.expand(factor, delta)) is not None:
            b_others.append(poly)
        else:
            for f in ws.plus_to_minus(factor):
                ws.add_binomial(f)

    # Classify minus factors, the only binomials the plus loop leaves: head
    # denominators stay in A unless a reduction lands them on delta-multiples.
    # Explicit factors reduce only when the exponent is a pure prime power,
    # preserving the head shapes used by the worked decompositions; tails
    # must land in B or the split fails.
    a_parts = {}
    for before in _by_base(ws.binomials):
        base, e = before.base, before.exponent
        pure_power = abs(e) == ell ** ord_prime(abs(e), ell)
        if base % delta == 0:
            b_binomials[-1, base] += e
        elif (N > 1 or pure_power) and (after := ws.power_reduce(before, delta)) is not None:
            b_binomials[-1, after.base] += after.exponent
        elif e < 0:
            a_parts[base] = -e
        elif (poly := ws.expand(before, delta)) is not None:
            b_others.append(poly)
        else:
            raise SplitFailed(f"numerator (1-q^{base})^{e} is not supported on {delta}Z")

    for tail in ws.tails:
        if _structurally_supported(tail, delta):
            b_others.append(tail)
        elif (moved := ws.power_reduce(tail, delta)) is not None:
            b_others.append(moved)
        else:
            raise SplitFailed(f"tail {tail} cannot be supported on {delta}Z")

    for poly in ws.polys:
        if not _structurally_supported(poly, delta):
            raise SplitFailed(f"polynomial {poly} is not supported on {delta}Z")
        b_others.append(poly)

    if not a_parts:
        raise SplitFailed("no periodic head: every factor is delta-supported")

    a_multiset = PartMultiset(tuple(sorted(a_parts.items())))
    a_spec = a_multiset.to_product_spec()
    b_spec = ProductSpec(tuple(_by_base(b_binomials)) + tuple(b_others))

    for f in b_spec.factors:
        if not _structurally_supported(f, delta):
            raise SplitFailed(f"factor {f} escaped the support check")
    if not validate_B_certificate(b_spec, modulus, delta, validation_length):
        raise CertificateFailed(
            f"B fails the numeric support check below {validation_length}"
        )

    combined = series_from_spec(a_spec * b_spec, modulus, validation_length)
    original = series_from_spec(spec, modulus, validation_length)
    if combined != original:
        raise RuleValidationFailed("A*B differs from the original product")

    return Decomposition(
        a_spec=a_spec,
        a_multiset=a_multiset,
        b_spec=b_spec,
        derivation=tuple(ws.derivation),
        validation_length=validation_length,
    )
