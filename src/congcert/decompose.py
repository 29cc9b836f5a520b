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
"""

from __future__ import annotations

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
        if ell < 2:
            raise InvalidParameter("plane_head needs a parameter >= 2")
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
    """Mutable factor inventory during a reduction or split."""

    modulus: Modulus
    validation_length: int
    binomials: dict = field(default_factory=dict)  # (sign, base) -> exponent
    polys: list = field(default_factory=list)
    tails: list = field(default_factory=list)
    derivation: list = field(default_factory=list)

    def add_binomial(self, sign, base, exponent):
        if exponent == 0:
            return
        key = (sign, base)
        e = self.binomials.get(key, 0) + exponent
        if e == 0:
            self.binomials.pop(key, None)
        else:
            self.binomials[key] = e

    def load(self, spec: ProductSpec):
        for f in spec.factors:
            if isinstance(f, BinomialFactor):
                self.add_binomial(f.sign, f.base, f.exponent)
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

    def binomial_factors(self):
        return [
            BinomialFactor(sign, base, e)
            for (sign, base), e in sorted(self.binomials.items(), key=lambda kv: (kv[0][1], kv[0][0]))
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


def default_validation_length(spec: ProductSpec, delta: int = 1) -> int:
    return max(2 * delta, 4 * _max_base(spec), 500)


def _binomial_poly(sign: int, base: int, exponent: int, modulus: Modulus) -> PolyFactor:
    """Expand (1 + sign*q^base)^exponent (exponent > 0) into an explicit
    polynomial reduced mod ell^N."""
    m = modulus.value
    coeffs = [0] * (base * exponent + 1)
    c = 1
    for k in range(exponent + 1):
        v = c % m
        if sign < 0 and k % 2 == 1:
            v = (-c) % m
        coeffs[k * base] = v
        c = c * (exponent - k) // (k + 1)
    return PolyFactor(tuple(coeffs))


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


def reduce_spec(spec: ProductSpec, modulus: Modulus, validation_length: int | None = None):
    """Rewrite a product into a congruent one mod ell^N: exponent-divisibility
    reductions on every factor, then collapse of plus-sign numerators with
    leftover exponent >= 2 into explicit polynomials.

    Returns (reduced ProductSpec, derivation tuple).
    """
    if validation_length is None:
        validation_length = default_validation_length(spec)
    ws = _Workspace(modulus, validation_length)
    ws.load(spec)

    for (sign, base), e in sorted(ws.binomials.items(), key=lambda kv: kv[0][1]):
        before = BinomialFactor(sign, base, e)
        after = _power_reduce(before, modulus)
        if after is None:
            continue
        ws.apply_rule(f"power-reduce: {before} -> {after} (mod {modulus})", [before], [after])
        ws.add_binomial(sign, base, -e)
        ws.add_binomial(sign, after.base, after.exponent)

    new_tails = []
    for tail in ws.tails:
        moved = _power_reduce(tail, modulus)
        if moved is not None:
            ws.apply_rule(f"power-reduce: {tail} -> {moved} (mod {modulus})", [tail], [moved])
        new_tails.append(moved or tail)
    ws.tails = new_tails

    for (sign, base), e in sorted(list(ws.binomials.items()), key=lambda kv: kv[0][1]):
        if sign > 0 and e >= 2 and base * e <= validation_length:
            poly = _binomial_poly(sign, base, e, modulus)
            before = BinomialFactor(sign, base, e)
            ws.apply_rule(f"expand: {before} -> {poly} (mod {modulus})", [before], [poly])
            ws.add_binomial(sign, base, -e)
            ws.polys.append(poly)

    factors = tuple(ws.binomial_factors()) + tuple(ws.polys) + tuple(ws.tails)
    return ProductSpec(factors), tuple(ws.derivation)


# ---------------------------------------------------------------------------
# the A*B split


@dataclass(frozen=True)
class Decomposition:
    """Validated split G = A * B mod ell^N with B supported on delta-multiples."""

    a_spec: ProductSpec
    a_multiset: PartMultiset
    b_spec: ProductSpec
    delta: int
    modulus: Modulus
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
    nonzero = np.nonzero(data[1:])[0] + 1
    return all(int(i) % delta == 0 for i in nonzero)


def _structurally_supported(factor, delta: int) -> bool:
    if isinstance(factor, BinomialFactor):
        return factor.base % delta == 0
    if isinstance(factor, PolyFactor):
        return all(i % delta == 0 for i in factor.support())
    if isinstance(factor, TailFamily):
        return factor.scale % delta == 0 and factor.offset % delta == 0
    return False


def _poly_support_ok(sign, base, exponent, modulus, delta, limit):
    """Does (1 + sign*q^base)^exponent collapse mod ell^N to a polynomial
    supported on multiples of delta?  Only for positive exponents of
    manageable degree."""
    if exponent <= 0 or base * exponent > limit:
        return None
    poly = _binomial_poly(sign, base, exponent, modulus)
    if all(i % delta == 0 for i in poly.support()):
        return poly
    return None


def split_AB(
    spec: ProductSpec,
    modulus: Modulus,
    delta: int,
    validation_length: int | None = None,
) -> Decomposition:
    """Split a product into a periodic pure-denominator head A and a
    delta-supported tail B, congruent to the input mod ell^N.

    Raises SplitFailed when some factor is neither head material nor provably
    delta-supported, CertificateFailed when the numeric guard on B fails."""
    if delta < 1:
        raise InvalidParameter("delta must be >= 1")
    if validation_length is None:
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
                    ws.add_binomial(f.sign, f.base, f.exponent)
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

    # Surviving plus tails: exact rewrite (1+q^B)^e = (1-q^(2B))^e (1-q^B)^-e.
    minus_tails = []
    for tail in ws.tails:
        if tail.sign < 0:
            minus_tails.append(tail)
            continue
        doubled = replace(tail, sign=-1, scale=2 * tail.scale, offset=2 * tail.offset)
        inverse = replace(tail, sign=-1, exp_offset=-tail.exp_offset)
        ws.apply_rule(
            f"plus-to-minus: {tail} -> {doubled} * {inverse}",
            [tail],
            [doubled, inverse],
        )
        minus_tails.append(doubled)
        minus_tails.append(inverse)
    ws.tails = minus_tails

    # Explicit plus factors: keep when already on delta-multiples, collapse to
    # a supported polynomial when the expansion allows, else the exact
    # (1+q^j)^e = (1-q^(2j))^e (1-q^j)^-e rewrite moves them to minus factors.
    b_factors = []
    for (sign, base), e in sorted(
        [kv for kv in ws.binomials.items() if kv[0][0] > 0], key=lambda kv: kv[0][1]
    ):
        factor = BinomialFactor(sign, base, e)
        ws.binomials.pop((sign, base))
        if base % delta == 0:
            b_factors.append(factor)
            continue
        poly = _poly_support_ok(sign, base, e, modulus, delta, validation_length)
        if poly is not None:
            ws.apply_rule(f"expand: {factor} -> {poly} (mod {modulus})", [factor], [poly])
            b_factors.append(poly)
            continue
        # exact for any integer exponent: (1+q^j)^e = (1-q^2j)^e (1-q^j)^-e
        doubled = BinomialFactor(-1, 2 * base, e)
        ws.apply_rule(
            f"plus-to-minus: {factor} -> {doubled} * (1-q^{base})^{-e}",
            [factor],
            [doubled, BinomialFactor(-1, base, -e)],
        )
        ws.add_binomial(-1, 2 * base, e)
        ws.add_binomial(-1, base, -e)

    # Classify minus factors: head denominators stay in A unless a reduction
    # lands them on delta-multiples.  Explicit factors reduce only when the
    # exponent is a pure prime power, preserving the head shapes used by the
    # worked decompositions; tails must land in B or the split fails.
    a_parts = {}

    def classify_minus(base, e):
        before = BinomialFactor(-1, base, e)
        if base % delta == 0:
            b_factors.append(before)
            return
        after = _power_reduce(before, modulus)
        pure_power = abs(e) == ell ** ord_prime(abs(e), ell)
        if after is not None and after.base % delta == 0 and (N > 1 or pure_power):
            ws.apply_rule(
                f"power-reduce: {before} -> {after} (mod {modulus})", [before], [after]
            )
            b_factors.append(after)
            return
        if e < 0:
            a_parts[base] = a_parts.get(base, 0) - e
            return
        poly = _poly_support_ok(-1, base, e, modulus, delta, validation_length)
        if poly is not None:
            ws.apply_rule(f"expand: {before} -> {poly} (mod {modulus})", [before], [poly])
            b_factors.append(poly)
            return
        raise SplitFailed(f"numerator (1-q^{base})^{e} is not supported on {delta}Z")

    for (sign, base), e in sorted(ws.binomials.items(), key=lambda kv: kv[0][1]):
        if sign > 0:
            raise SplitFailed(f"unprocessed factor (1+q^{base})^{e}")
        classify_minus(base, e)

    for tail in ws.tails:
        if _structurally_supported(tail, delta):
            b_factors.append(tail)
            continue
        moved = _power_reduce(tail, modulus)
        if moved is not None and _structurally_supported(moved, delta):
            ws.apply_rule(f"power-reduce: {tail} -> {moved} (mod {modulus})", [tail], [moved])
            b_factors.append(moved)
            continue
        raise SplitFailed(f"tail {tail} cannot be supported on {delta}Z")

    for poly in ws.polys:
        if all(i % delta == 0 for i in poly.support()):
            b_factors.append(poly)
        else:
            raise SplitFailed(f"polynomial {poly} is not supported on {delta}Z")

    if not a_parts:
        raise SplitFailed("no periodic head: every factor is delta-supported")

    # merge exact binomial cancellations inside B
    merged = {}
    other_b = []
    for f in b_factors:
        if isinstance(f, BinomialFactor):
            key = (f.sign, f.base)
            merged[key] = merged.get(key, 0) + f.exponent
        else:
            other_b.append(f)
    b_final = [
        BinomialFactor(s, b, e)
        for (s, b), e in sorted(merged.items(), key=lambda kv: kv[0][1])
        if e != 0
    ] + other_b

    a_spec = ProductSpec(
        tuple(BinomialFactor(-1, b, -e) for b, e in sorted(a_parts.items()))
    )
    b_spec = ProductSpec(tuple(b_final))
    a_multiset = PartMultiset(tuple(sorted(a_parts.items())))

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
        delta=delta,
        modulus=modulus,
        derivation=tuple(ws.derivation),
        validation_length=validation_length,
    )
