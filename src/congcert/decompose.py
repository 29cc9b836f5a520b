"""Generating-function builders, congruence rewrites of factor products, and
the head/tail split into A(q) * B(q) with a machine-checked tail certificate.

The split produces:
  A -- a finite product of pure denominators (1-q^b)^-e, whose coefficient
       sequence has a known minimal period mod ell^N via the multiset formula;
  B -- everything else, where each factor is structurally a series in q^delta
       (binomial and tail bases on multiples of delta), so its coefficients
       vanish mod ell^N away from multiples of delta for ALL indices, not
       only the numerically checked prefix.

Numeric guards, mod ell^N to the validation length, check each peel, ratio
and power-reduce step, B's support and A*B against the input.  A failed
guard raises RuleValidationFailed, never a verdict; a target that does not
split raises SplitFailed.

`split_AB` rewrites by two `_Workspace` steps:
  power_reduce  -- (1 +- q^b)^(ell^N c) = (1 +- q^(ell b))^(ell^(N-1) c)
                   mod ell^N, `series.frobenius_step` for as long as it
                   applies, on a binomial or a constant-exponent tail; it
                   also sends a positive power to B when it lands on delta*Z;
  plus_to_minus -- (1+x)^e = (1-x^2)^e (1-x)^-e, on a binomial or a tail;
                   the identity is `series.plus_to_minus`, which expansion
                   also applies to every plus factor (so it has no guard).
It also peels tails into explicit factors and, mod 2^N, cancels matching
plus/minus tail pairs (the ratio rule).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameter, RuleValidationFailed, SplitFailed
from .periods import PartMultiset, ord_prime
from .series import (
    BinomialFactor,
    Modulus,
    ProductSpec,
    TailFamily,
    frobenius_step,
    plus_to_minus,
    series_from_spec,
)


def _plane_rowed(rows):
    head = tuple(BinomialFactor(-1, n, -n) for n in range(1, rows))
    return head + (TailFamily(sign=-1, start=rows, exp_offset=-rows),)


def _overplane_rowed(rows):
    head = tuple(
        f for n in range(1, rows) for f in (BinomialFactor(1, n, n), BinomialFactor(-1, n, -n))
    )
    return head + (
        TailFamily(sign=1, start=rows, exp_offset=rows),
        TailFamily(sign=-1, start=rows, exp_offset=-rows),
    )


# Each named target kind: the factors of its product from its integer
# parameters, whose count is the kind's arity.  `multiset` and `raw` carry
# their product as a payload instead.
_KINDS = {
    "partitions": lambda: (TailFamily(sign=-1, start=1, exp_offset=-1),),
    "plane": lambda: (TailFamily(sign=-1, start=1, exp_offset=0, exp_scale=-1),),
    "plane_box": lambda rows, cols: tuple(
        BinomialFactor(-1, t, -min(t, rows, cols, rows + cols - t)) for t in range(1, rows + cols)
    ),
    "plane_rowed": _plane_rowed,
    "plane_head": lambda ell: tuple(BinomialFactor(-1, n, -n) for n in range(1, ell)),
    "overpartitions": lambda: (
        TailFamily(sign=1, start=1, exp_offset=1),
        TailFamily(sign=-1, start=1, exp_offset=-1),
    ),
    "overplane_rowed": _overplane_rowed,
    "maxpart": lambda max_part: tuple(BinomialFactor(-1, n, -1) for n in range(1, max_part + 1)),
}


@dataclass(frozen=True)
class GFKind:
    """A named generating function target, e.g. plane_rowed(4)."""

    name: str
    params: tuple = ()
    multiset: PartMultiset | None = None
    spec: ProductSpec | None = None

    def __post_init__(self):
        if self.name in _KINDS:
            arity = _KINDS[self.name].__code__.co_argcount
            if len(self.params) != arity:
                raise InvalidParameter(
                    f"{self.name} takes {arity} parameter(s), got {len(self.params)}"
                )
        elif self.name not in ("multiset", "raw"):
            raise InvalidParameter(f"unknown generating function {self.name!r}")
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
    if kind.name == "multiset":
        return kind.multiset.to_product_spec()
    if kind.name == "raw":
        return kind.spec
    return ProductSpec(_KINDS[kind.name](*kind.params))


# ---------------------------------------------------------------------------
# rewrite machinery


@dataclass
class _Workspace:
    """Mutable factor inventory during a split, and the rewrite steps on it.
    A step records its rewrite, validated by `apply_rule` except for
    plus-to-minus, and returns the new factor(s), or None if none applies."""

    modulus: Modulus
    validation_length: int
    binomials: dict = field(default_factory=dict)  # (sign, base) -> exponent
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

    def plus_to_minus(self, factor):
        """`series.plus_to_minus` as a step: the pair (doubled, inverse).
        Unvalidated: expansion makes the same call, so both sides agree."""
        doubled, inverse = plus_to_minus(factor)
        self.derivation.append(f"plus-to-minus: {factor} -> {doubled} * {inverse}")
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
    if isinstance(factor, TailFamily):
        return factor.scale % delta == 0 and factor.offset % delta == 0
    return False


def split_AB(spec: ProductSpec, modulus: Modulus, delta: int) -> Decomposition:
    """Split a product into a periodic pure-denominator head A and a
    delta-supported tail B, congruent to the input mod ell^N.

    Raises SplitFailed when the product does not split, RuleValidationFailed
    when a guard fails (see the module docstring)."""
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
    # inside B merge; its tails keep their order.
    b_binomials = Counter()
    b_tails = []

    # Explicit plus factors: keep when already on delta-multiples, reduce a
    # positive power onto them when the reduction lands there, else move them
    # to minus factors.  The reduction stops at the smallest base the
    # kernel's carry keeps, so it lands on delta*Z exactly when every base
    # of that carry does.
    for factor in _by_base(ws.binomials):
        if factor.sign < 0:
            continue
        ws.add_binomial(factor, -1)
        if factor.base % delta == 0:
            b_binomials[factor.sign, factor.base] += factor.exponent
        elif factor.exponent > 0 and (after := ws.power_reduce(factor, delta)) is not None:
            b_binomials[after.sign, after.base] += after.exponent
        else:
            for f in ws.plus_to_minus(factor):
                ws.add_binomial(f)

    # Classify minus factors, the only binomials the plus loop leaves: head
    # denominators stay in A unless a reduction lands them on delta-multiples.
    # Explicit denominators reduce only when the exponent is a pure prime
    # power, preserving the head shapes used by the worked decompositions;
    # numerators and tails must land in B or the split fails.
    a_parts = {}
    for before in _by_base(ws.binomials):
        base, e = before.base, before.exponent
        pure_power = abs(e) == ell ** ord_prime(abs(e), ell)
        if base % delta == 0:
            b_binomials[-1, base] += e
        elif (N > 1 or pure_power or e > 0) and (after := ws.power_reduce(before, delta)) is not None:
            b_binomials[-1, after.base] += after.exponent
        elif e < 0:
            a_parts[base] = -e
        else:
            raise SplitFailed(f"numerator (1-q^{base})^{e} is not supported on {delta}Z")

    for tail in ws.tails:
        if _structurally_supported(tail, delta):
            b_tails.append(tail)
        elif (moved := ws.power_reduce(tail, delta)) is not None:
            b_tails.append(moved)
        else:
            raise SplitFailed(f"tail {tail} cannot be supported on {delta}Z")

    if not a_parts:
        raise SplitFailed("no periodic head: every factor is delta-supported")

    a_multiset = PartMultiset(tuple(sorted(a_parts.items())))
    a_spec = a_multiset.to_product_spec()
    b_spec = ProductSpec(tuple(_by_base(b_binomials)) + tuple(b_tails))

    for f in b_spec.factors:
        if not _structurally_supported(f, delta):
            raise RuleValidationFailed(f"factor {f} escaped the support check")
    if not validate_B_certificate(b_spec, modulus, delta, validation_length):
        raise RuleValidationFailed(f"B fails the numeric support check below {validation_length}")

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
