"""Generating-function builders, congruence rewrites of factor products, and
the symbolic head/tail split into A(q) * B(q).

The split produces:
  A -- a finite product of pure denominators (1-q^b)^-e, whose coefficient
       sequence has a known minimal period mod ell^N via the multiset formula;
  B -- everything else, where each factor is structurally a series in q^delta
       (binomial and tail bases on multiples of delta), so its coefficients
       vanish mod ell^N away from multiples of delta for ALL indices, not
       only the numerically checked prefix.

Every step is an identity mod ell^N at all indices, and is recorded by
`_record`, not checked on its own.  The split expands no series:
`prover.Plan.build` expands B to the validation length L and checks its
support there, then checks A*B against the input to L, the one numeric
check of the rewrites: every factor's expansion has constant term 1, so a
step whose sides differ below L changes A*B there.  A failed check raises
RuleValidationFailed, never a verdict; a target that does not split raises
SplitFailed.

`split_AB` rewrites by two steps:
  power-reduce  -- (1 +- q^b)^(ell^N c) = (1 +- q^(ell b))^(ell^(N-1) c)
                   mod ell^N, `series.frobenius_step` for as long as it
                   applies, on a binomial or a constant-exponent tail
                   (`_power_reduce`); it also sends a positive power to B
                   when it lands on delta*Z;
  plus-to-minus -- (1+x)^e = (1-x^2)^e (1-x)^-e, on a binomial or a tail;
                   the identity is `series.plus_to_minus`, which expansion
                   also applies to every plus factor.
It peels tails into explicit factors, then makes one pass over the factors
merged by shape, least first: a factor on delta*Z goes to B; a plus factor
goes to B by power-reduce when it is a positive power that lands there, else
to two minus factors; a minus tail is reduced as far as it goes and merged
back; a minus binomial goes to B by power-reduce, else to A, and a numerator
fails the split.  So a plus/minus tail pair cancels as binomials do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import InvalidParameter, ParseError, RuleValidationFailed, SplitFailed
from .periods import PartMultiset, ord_prime
from .series import (
    BinomialFactor,
    Modulus,
    ProductSpec,
    TailFamily,
    frobenius_step,
    plus_to_minus,
)

# Unused here; bound so that perfbench/tracing.py, which wraps these
# module-level names of this module, finds them.
from .series import series_from_spec  # noqa: F401


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


# a target that is not `raw: ...`: a kind, with its parameters if it has any
_TARGET_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")

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
        if self.name == "raw" and (self.spec is None or not self.spec.factors):
            raise InvalidParameter("raw target needs a product spec of at least one factor")

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

    @classmethod
    def parse(cls, text: str) -> "GFKind":
        """The target `str` prints: `name` or `name(p,...)` with integer
        parameters, `multiset(...)` in `PartMultiset`'s syntax, or `raw: `
        and a `ProductSpec`.  ParseError for text that is not a target,
        InvalidParameter for a target its constructors refuse."""
        text = text.strip()
        if text.startswith("raw:"):
            return cls.from_raw(ProductSpec.parse(text[4:]))
        m = _TARGET_RE.match(text)
        if not m:
            raise ParseError(f"bad target {text!r}")
        name, args = m.groups()
        if name == "multiset":
            if not args:
                raise InvalidParameter("multiset target needs entries")
            return cls.from_multiset(PartMultiset.parse(args))
        try:
            params = tuple(int(a) for a in args.split(",")) if args else ()
        except ValueError:
            raise ParseError(f"{name} parameters must be integers, got {args!r}") from None
        return cls(name, params)

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


# The inventory keys a factor by its shape, as a plain tuple that sorts in
# the split's pass order: binomials before tails, each by first base, plus
# before minus.  A binomial is (0, base, minus), a constant-exponent tail
# (1, first base, minus, scale, offset, start), with minus = sign < 0.
# Every rewrite of the pass adds only shapes later in that order.


def _shape(factor):
    """A factor's inventory key and net exponent."""
    if isinstance(factor, BinomialFactor):
        return (0, factor.base, factor.sign < 0), factor.exponent
    first = factor.base(factor.start)
    return (1, first, factor.sign < 0, factor.scale, factor.offset, factor.start), factor.exp_offset


def _factor(key, exponent):
    sign = -1 if key[2] else 1
    if key[0] == 0:
        return BinomialFactor(sign, key[1], exponent)
    _, _, _, scale, offset, start = key
    return TailFamily(sign=sign, start=start, exp_offset=exponent, scale=scale, offset=offset)


def _merge(inventory: dict, factor) -> None:
    """Add a factor's exponent to its shape's, dropping a shape that cancels."""
    key, e = _shape(factor)
    e += inventory.pop(key, 0)
    if e:
        inventory[key] = e


def _record(derivation: list, rule: str, before, after) -> None:
    """Append the step `rule: before -> after`, each side a product that
    `ProductSpec.parse` reads.  No step is checked on its own: a wrong one
    changes A*B, which `prover.Plan.build` checks against G."""
    derivation.append(f"{rule}: {ProductSpec(tuple(before))} -> {ProductSpec(tuple(after))}")


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
    """A split G = A * B mod ell^N, with B supported on delta-multiples by
    the bases of its factors, and the steps that derived it.  It holds no
    series: `prover.Plan.build` expands B and checks its support, then
    checks A*B = G."""

    a_spec: ProductSpec
    a_multiset: PartMultiset
    b_spec: ProductSpec
    derivation: tuple


def _structurally_supported(factor, delta: int) -> bool:
    if isinstance(factor, BinomialFactor):
        return factor.base % delta == 0
    return factor.scale % delta == 0 and factor.offset % delta == 0


def split_AB(spec: ProductSpec, modulus: Modulus, delta: int) -> Decomposition:
    """Split a product, by rewrites alone and with no series expanded,
    into a periodic pure-denominator head A and a delta-supported tail B,
    congruent to the input mod ell^N once `Plan.build` has checked
    A*B = G.

    Raises SplitFailed when the product does not split (see the module
    docstring)."""
    if delta < 1:
        raise InvalidParameter("delta must be >= 1")
    inventory, derivation = {}, []
    for f in spec.factors:
        if isinstance(f, TailFamily) and f.exp_scale != 0:
            raise SplitFailed(f"{f} has a base-dependent exponent; no finite head exists")
        _merge(inventory, f)
    ell, N = modulus.prime, modulus.exponent

    # Peel enough of every tail that plus-factor rewrites find their partners:
    # (1+q^j) pairs with base 2j, so materialize tail factors up to twice the
    # largest explicit plus base.
    plus_bases = [b for kind, b, minus, *_ in inventory if kind == 0 and not minus and b % delta]
    peel_to = 2 * max(plus_bases, default=0)
    for key in sorted(key for key in inventory if key[0] == 1 and key[1] <= peel_to):
        tail = _factor(key, inventory.pop(key))
        n = tail.start
        explicit = []
        while tail.base(n) <= peel_to:
            explicit.append(BinomialFactor(tail.sign, tail.base(n), tail.exp_offset))
            n += 1
        moved = replace(tail, start=n)
        _record(derivation, "peel", [tail], explicit + [moved])
        for f in explicit + [moved]:
            _merge(inventory, f)

    # One pass, least shape first, so each shape has merged all it will
    # receive when it is taken.  B is a second inventory.
    a_parts = {}
    b = {}
    while inventory:
        key = min(inventory)
        e = inventory.pop(key)
        factor = _factor(key, e)
        if _structurally_supported(factor, delta):
            _merge(b, factor)
        elif factor.sign > 0:
            # a positive power goes to B when its reduction lands on delta*Z:
            # that stops at the smallest base the kernel's carry keeps, so
            # it does when every base of that carry does
            if (
                e > 0
                and (after := _power_reduce(factor, modulus)) is not None
                and _structurally_supported(after, delta)
            ):
                _record(derivation, "power-reduce", [factor], [after])
                _merge(b, after)
            else:
                pair = plus_to_minus(factor)
                _record(derivation, "plus-to-minus", [factor], pair)
                for f in pair:
                    _merge(inventory, f)
        elif isinstance(factor, TailFamily):
            # reduced as far as it goes, and taken again after what merges
            # into its new shape
            if (after := _power_reduce(factor, modulus)) is None:
                raise SplitFailed(f"{factor} cannot be supported on {delta}Z")
            _record(derivation, "power-reduce", [factor], [after])
            _merge(inventory, after)
        # Head denominators stay in A unless a reduction lands them on
        # delta-multiples; they reduce only when the exponent is a pure prime
        # power, preserving the head shapes of the worked decompositions.
        # A numerator must land in B or the split fails.
        elif (
            (N > 1 or e > 0 or -e == ell ** ord_prime(-e, ell))
            and (after := _power_reduce(factor, modulus)) is not None
            and _structurally_supported(after, delta)
        ):
            _record(derivation, "power-reduce", [factor], [after])
            _merge(b, after)
        elif e < 0:
            a_parts[factor.base] = -e
        else:
            raise SplitFailed(f"numerator {factor} is not supported on {delta}Z")

    if not a_parts:
        raise SplitFailed("no periodic head: every factor is delta-supported")

    a_multiset = PartMultiset(tuple(sorted(a_parts.items())))
    b_spec = ProductSpec(tuple(_factor(key, e) for key, e in sorted(b.items())))
    for f in b_spec.factors:
        if not _structurally_supported(f, delta):
            raise RuleValidationFailed(f"factor {f} escaped the support check")
    return Decomposition(a_multiset.to_product_spec(), a_multiset, b_spec, tuple(derivation))
