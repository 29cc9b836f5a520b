"""Minimal periods of multiset partition generating functions modulo prime
powers, via the closed formula ell^(N + b - 1) * m, plus empirical checks.

Throughout, "periodic" means purely periodic: a(n+d) = a(n) mod ell^N for
every n >= 0, not just eventually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMultiset, InvalidParameter, InvalidWindow, NoPeriodFound
from .series import BinomialFactor, ModSeries, ProductSpec, is_prime


@dataclass(frozen=True)
class PartMultiset:
    """Finite multiset of positive integer part values."""

    entries: tuple  # ((value, multiplicity), ...) sorted by value

    def __post_init__(self):
        seen = {}
        for value, mult in self.entries:
            if value < 1 or mult < 1:
                raise InvalidParameter("part values and multiplicities must be >= 1")
            seen[value] = seen.get(value, 0) + mult
        object.__setattr__(self, "entries", tuple(sorted(seen.items())))

    @classmethod
    def from_values(cls, values) -> "PartMultiset":
        return cls(tuple((v, 1) for v in values))

    @classmethod
    def parse(cls, text: str) -> "PartMultiset":
        """Parse the CLI form 'v[:mult]' comma separated, e.g. '1,3:2,4:3'."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            v, colon, mult = chunk.partition(":")
            try:
                pairs.append((int(v), int(mult) if colon else 1))
            except ValueError:
                raise InvalidParameter(
                    f"multiset entry {chunk!r} is not 'v' or 'v:mult' with integers"
                ) from None
        if not pairs:
            raise InvalidParameter(f"empty multiset text {text!r}")
        return cls(tuple(pairs))

    def is_empty(self) -> bool:
        return not self.entries

    def values(self):
        return tuple(v for v, _ in self.entries)

    def total(self) -> int:
        return sum(mult for _, mult in self.entries)

    def expanded(self):
        for value, mult in self.entries:
            for _ in range(mult):
                yield value

    def to_product_spec(self) -> ProductSpec:
        """The generating function of partitions with parts from this multiset."""
        return ProductSpec(
            tuple(BinomialFactor(-1, v, -mult) for v, mult in self.entries)
        )

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return " ".join(
            str(v) if mult == 1 else f"{v}^{mult}" for v, mult in self.entries
        )


@dataclass(frozen=True)
class PeriodInfo:
    period: int
    b: int
    m: int
    source: str  # the formula the period comes from: always "kwong-formula"


def ord_prime(n: int, ell: int) -> int:
    """Largest e with ell^e dividing n."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if not is_prime(ell):
        raise InvalidParameter(f"{ell} is not prime")
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def ell_free_part(n: int, ell: int) -> int:
    """n with every factor of ell removed."""
    return n // ell ** ord_prime(n, ell)


def _require_nonempty(multiset: PartMultiset):
    if multiset.is_empty():
        raise EmptyMultiset("period formula needs a nonempty multiset")


def b_ell(multiset: PartMultiset, ell: int) -> int:
    """Least b with ell^b >= sum over the multiset of ell^(ord of each part)."""
    _require_nonempty(multiset)
    total = sum(mult * ell ** ord_prime(v, ell) for v, mult in multiset)
    b = 0
    while ell**b < total:
        b += 1
    return b


def m_ell(multiset: PartMultiset, ell: int) -> int:
    """ell-free part of the lcm of the distinct part values."""
    _require_nonempty(multiset)
    return ell_free_part(math.lcm(*multiset.values()), ell)


def kwong_period(multiset: PartMultiset, ell: int, exponent: int) -> PeriodInfo:
    """Minimal period mod ell^exponent of the partition generating function of
    the multiset: ell^(exponent + b - 1) * m."""
    if exponent < 1:
        raise InvalidParameter("exponent must be >= 1")
    b = b_ell(multiset, ell)
    m = m_ell(multiset, ell)
    return PeriodInfo(
        period=ell ** (exponent + b - 1) * m, b=b, m=m, source="kwong-formula"
    )


def verify_period_prefix(series: ModSeries, d: int, limit: int) -> bool:
    """True iff a(n+d) = a(n) holds for all 0 <= n < limit - d."""
    if d < 1:
        raise InvalidParameter("candidate period must be >= 1")
    if limit > series.length:
        raise InvalidWindow(f"limit {limit} exceeds stored length {series.length}")
    if d >= limit:
        raise InvalidWindow(f"candidate period {d} >= window {limit}")
    data = series.array()[:limit]
    return bool(np.array_equal(data[d:], data[: limit - d]))


def _divisors(n: int):
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def empirical_min_period(series: ModSeries, pi_formula: int, window: int = 3) -> int:
    """Smallest divisor of pi_formula that is a period over a window of
    window * pi_formula coefficients.

    For purely periodic sequences the minimal period divides every period, so
    scanning divisors of a known period finds the true minimum; no search over
    non-divisors is needed.
    """
    if window < 2:
        raise InvalidParameter("window multiplier must be >= 2")
    limit = window * pi_formula
    if series.length < limit:
        raise InvalidWindow(
            f"series length {series.length} below window {limit}"
        )
    for d in _divisors(pi_formula):
        if d < limit and verify_period_prefix(series, d, limit):
            return d
    raise NoPeriodFound(
        f"{pi_formula} is not a period over {limit} coefficients; "
        "the formula or the expansion is wrong"
    )
