"""Truncated power series with coefficients in Z/m for a prime power m,
plus symbolic products of factors (1 +- q^b)^e that expand into them.

Every plus factor, binomial or tail, enters the expansion as the two minus
factors of `plus_to_minus`, (1+x)^e = (1-x^2)^e (1-x)^-e, the one statement
of that identity.  So the kernel below sees only factors (1 - q^b).

A series is its coefficient array: int64, fully reduced in [0, m), and
read-only once `series_from_spec` returns it; `series_mul` is the one
product on such arrays.  Every pass reduces before the next, and a
cumulative sum whose worst-case partial sum could leave int64 range raises
instead of running.

Expansion to length L is exact and quasi-linear for the products that
matter:

- A tail of Euler shape, prod_{n>=start}(1-q^(sn))^e, is a power of
  E(q^s) = prod_{n>=1}(1-q^(sn)) times the finite head it divides out.
  E is sparse and is placed from the pentagonal number theorem; E^e comes
  from repeated squaring.  When e < 0 it squares 1/E = sum p(k) q^k, whose first 406 coefficients are
  the exact partition numbers p(k) < 2^63, and which a Newton inversion
  g <- g(2 - Eg) extends beyond them.  One inverse serves every negative
  power, and the powers are multiplied at the gcd of their scales.
- Explicit binomials, those finite heads and the explicit factors of
  other tails are summed into one net exponent per base.  The positive
  ones make one numerator P and the negative ones one denominator Q, each
  prod (1-q^b)^|e| below L.  Few units of exponent are applied as they
  are, one O(L) pass each (multiplying or dividing by 1-q^b).
  Past a crossover measured by `scripts/kernel_crossover.py`, P is built
  on its own short array and applied by one polynomial product, and Q by
  one Newton inversion and one product; either is built by unit passes on
  its own array or, when cheaper, from closed-form powers
  (`binomial_power`) multiplied smallest first.
- Before either runs, every net exponent e, of a binomial or of E(q^s), is
  carried: e = r + ell^N t, with r of e's sign and |r| < ell^N, keeps r at
  its base and moves ell^N t to ell times it, with exponent ell^(N-1) t
  (`frobenius_step`, the one statement of that rule), which agrees mod
  ell^N.  Bases at or past L are dropped.  So (1-q^b)^-7 mod 2 is three
  passes, at b, 2b and 4b, not seven, and E^-10 mod 2 is
  E(q^2)^-1 E(q^8)^-1: one inverse and one product, at half the length.
- One routine, `_mul_poly`, multiplies the series by a polynomial, in
  place.  It takes the series as H(q^s): s > 1 when the powers of E(q^s)
  and all that was applied before are supported on sZ, else s = 1.  Then
  G[sn + r] is the product of H with the section P[r::s] at n, at length
  L/s.  H is walked in fixed-size chunks from the last one back; each
  chunk's transform is multiplied into the transforms of all sections at
  once, and the rows that come out, G[sn:sn+s] each, are overlap-added.
  So the routine holds O(s * block + deg P) beside the series, not O(L).
- Products of series are float FFT convolutions (numpy.fft) rounded to
  integers, exact because every output coefficient stays below 2^50: in
  one pass while (m-1)^2 * L < 2^50, else over limbs of residues whose
  width w satisfies (2^w-1)^2 * L < 2^50.  Each rounding is checked, and a
  product that is not exact raises instead of returning a value.
- 1/E past the partition numbers and 1/Q use the same Newton inversion,
  whose step takes one cyclic middle product and shares one transform of
  g between its two products.

A tail is kept with its offset in [0, scale) (`TailFamily`), so it has
Euler shape exactly when its offset is 0 and its exponent constant.  Tails
with an offset or an exponent that varies with n have no closed form.
Their explicit factors join the net exponents: all of them below L when
the exponent varies, else those below sqrt(L); the rest of a
constant-exponent tail is folded by number of parts (`_fold_parts`) at
exponent +-1, then raised to |e|.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CongcertError, InvalidParameter, NonUnitConstantTerm, ParseError

# Keep m*m and m*rows inside int64 during convolution and cumulative sums.
KERNEL_MODULUS_LIMIT = 1 << 31
# Every prime power with an exponent past this exceeds the limit.  Such an
# exponent is rejected before prime**exponent, which for a 20-digit exponent
# would not end; a smaller one keeps the message that names the modulus.
_EXPONENT_LIMIT = 64
_MAX_LENGTH = np.iinfo(np.intp).max  # the largest array numpy can index


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """A prime power ell^N used as the coefficient modulus."""

    prime: int
    exponent: int
    value: int = field(init=False, compare=False)

    def __post_init__(self):
        # the prime is bounded before is_prime's trial division
        if self.prime > KERNEL_MODULUS_LIMIT:
            raise InvalidParameter(
                f"modulus base {self.prime} exceeds the kernel limit {KERNEL_MODULUS_LIMIT}"
            )
        if not is_prime(self.prime):
            raise InvalidParameter(f"modulus base {self.prime} is not prime")
        if self.exponent < 1:
            raise InvalidParameter("modulus exponent must be >= 1")
        if self.exponent > _EXPONENT_LIMIT:
            raise InvalidParameter(
                f"modulus exponent {self.exponent} puts {self.prime}^{self.exponent}"
                f" past the kernel limit {KERNEL_MODULUS_LIMIT}"
            )
        value = self.prime**self.exponent
        if value > KERNEL_MODULUS_LIMIT:
            raise InvalidParameter(
                f"modulus {value} exceeds the kernel limit {KERNEL_MODULUS_LIMIT}"
            )
        object.__setattr__(self, "value", value)

    def __str__(self):
        if self.exponent == 1:
            return str(self.prime)
        return f"{self.prime}^{self.exponent}"


# ---------------------------------------------------------------------------
# symbolic factors


@dataclass(frozen=True)
class BinomialFactor:
    """(1 + sign*q^base)^exponent with sign in {+1, -1}."""

    sign: int
    base: int
    exponent: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidParameter("sign must be +1 or -1")
        if self.base < 1:
            raise InvalidParameter("base must be >= 1")

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"(1{s}q^{self.base})^{self.exponent}"


@dataclass(frozen=True)
class TailFamily:
    """The infinite product over n >= start of (1 + sign*q^(scale*n+offset))^e(n)
    where e(n) = exp_scale*n + exp_offset.  It is kept with
    0 <= offset < scale: a tail written with another offset is the same tail.

    Bases strictly increase with n, so expansion to length L only ever touches
    the finitely many factors with base below L.
    """

    sign: int
    start: int
    exp_offset: int
    exp_scale: int = 0
    scale: int = 1
    offset: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidParameter("sign must be +1 or -1")
        if self.scale < 1:
            raise InvalidParameter("base scale must be >= 1 so bases increase")
        # one form per tail: the offset in [0, scale), the start and a
        # varying exponent moved with it, so every base keeps its exponent
        k = self.offset // self.scale
        object.__setattr__(self, "start", self.start + k)
        object.__setattr__(self, "offset", self.offset - k * self.scale)
        object.__setattr__(self, "exp_offset", self.exp_offset - k * self.exp_scale)
        if self.base(self.start) < 1:
            raise InvalidParameter("first factor base must be >= 1")
        if self.exp_scale == 0 and self.exp_offset == 0:
            raise InvalidParameter("tail exponent must not vanish identically")

    def base(self, n: int) -> int:
        return self.scale * n + self.offset

    def exponent(self, n: int) -> int:
        return self.exp_scale * n + self.exp_offset

    def __str__(self):
        """`tail((1-q^4n+1)^-2, from=3)`, which `ProductSpec.parse` reads; an
        exponent that varies with n (`-n` for `plane`) is printed in the same
        shape but not read."""
        s = "+" if self.sign > 0 else "-"
        b = "n" if self.scale == 1 else f"{self.scale}n"
        if self.offset:
            b += f"+{self.offset}"
        if self.exp_scale == 0:
            e = str(self.exp_offset)
        elif self.exp_scale == -1 and self.exp_offset == 0:
            e = "-n"
        else:
            e = f"{self.exp_scale}n+{self.exp_offset}"
        return f"tail((1{s}q^{b})^{e}, from={self.start})"


def plus_to_minus(factor: BinomialFactor | TailFamily):
    """The exact rewrite (1+x)^e = (1-x^2)^e (1-x)^-e of a plus binomial or
    tail, for any exponent (of a tail, constant or varying with n): the
    pair (doubled, inverse) of minus factors."""
    if isinstance(factor, TailFamily):
        doubled = replace(factor, sign=-1, scale=2 * factor.scale, offset=2 * factor.offset)
        inverse = replace(factor, sign=-1, exp_offset=-factor.exp_offset, exp_scale=-factor.exp_scale)
    else:
        doubled = replace(factor, sign=-1, base=2 * factor.base)
        inverse = replace(factor, sign=-1, exponent=-factor.exponent)
    return doubled, inverse


# the factors of `ProductSpec.parse`, as their `__str__`s print them
_BINOMIAL_RE = re.compile(r"\(1([+-])q\^(\d+)\)\^(-?\d+)")
_TAIL_RE = re.compile(
    r"tail\(\(1([+-])q\^(?:(\d+)\*?n|n)(?:\+(\d+))?\)\^(-?\d+),\s*from=(\d+)\)"
)


@dataclass(frozen=True)
class ProductSpec:
    """A formal product of factors; expansion order never changes the result."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @classmethod
    def parse(cls, text: str) -> "ProductSpec":
        """The factors `str` prints, separated by whitespace: binomials
        `(1-q^3)^-3` and constant-exponent tails `tail((1+q^2n+1)^4, from=1)`.
        ParseError for text that is not a product, InvalidParameter for a
        factor that its constructor refuses."""
        factors = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
            elif m := _TAIL_RE.match(text, pos):
                sign, scale, offset, exponent, start = m.groups()
                factors.append(TailFamily(
                    sign=1 if sign == "+" else -1, start=int(start), exp_offset=int(exponent),
                    scale=int(scale or 1), offset=int(offset or 0),
                ))
                pos = m.end()
            elif m := _BINOMIAL_RE.match(text, pos):
                sign, base, exponent = m.groups()
                factors.append(BinomialFactor(1 if sign == "+" else -1, int(base), int(exponent)))
                pos = m.end()
            else:
                raise ParseError(f"cannot parse factor at ...{text[pos:pos+24]!r}")
        if not factors:
            raise ParseError("empty raw product")
        return cls(tuple(factors))

    def __mul__(self, other: "ProductSpec") -> "ProductSpec":
        return ProductSpec(self.factors + other.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " ".join(str(f) for f in self.factors)


# ---------------------------------------------------------------------------
# expansion kernel


def _cumsum_rows_mod(mat: np.ndarray, m: int) -> None:
    """In place: mat[r] <- sum over i <= r of mat[i], reduced mod m.  Raises
    rather than leave int64 (over 2^31 rows for m below
    `KERNEL_MODULUS_LIMIT`)."""
    rows = mat.shape[0]
    if rows == 0:
        return
    if rows > (1 << 62) // m:
        raise CongcertError(f"cumulative sum of {rows} rows mod {m} could overflow int64")
    np.cumsum(mat, axis=0, out=mat)
    mat %= m


def _div_binomial(arr: np.ndarray, base: int, m: int) -> None:
    """Divide arr by (1 - q^base), in place (arr may be a view): each row of
    `base` coefficients gains the row before it, already divided.  Up to
    four rows that runs row by row; past that, as one cumulative sum over
    the rows of a padded copy, which costs more than the row loop at up to
    four rows for every L from 500 to 10^5."""
    n = arr.size
    if base >= n:
        return
    rows = -(-n // base)
    if rows <= 4:
        for lo in range(base, n, base):
            row = arr[lo : lo + base]
            row += arr[lo - base : lo - base + row.size]
            row %= m
        return
    buf = np.zeros(rows * base, dtype=np.int64)
    buf[:n] = arr
    _cumsum_rows_mod(buf.reshape(rows, base), m)
    arr[:] = buf[:n]


def _mul_binomial(arr: np.ndarray, base: int, m: int) -> None:
    """Multiply arr by (1 - q^base), in place."""
    n = arr.size
    if base >= n:
        return
    arr[base:] -= arr[: n - base].copy()
    arr %= m


def binomial_power(base: int, exponent: int, m: int, length: int | None = None) -> np.ndarray:
    """The coefficients of (1 - q^base)^exponent mod m, exponent >= 0,
    below `length` when given: the one statement of them.  C(e, k) is
    carried exactly, as C(e, k+1) = C(e, k) (e-k)/(k+1)."""
    size = base * exponent + 1 if length is None else min(length, base * exponent + 1)
    out = np.zeros(size, dtype=np.int64)
    values, c = [], 1
    for k in range((size - 1) // base + 1):
        values.append((-c if k % 2 else c) % m)
        c = c * (exponent - k) // (k + 1)
    out[::base] = values
    return out


# The routes of `_apply_binomials`, costed in coefficients touched: a unit
# pass (`_mul_binomial`, `_div_binomial`) over k coefficients costs
# k + _PASS_OVERHEAD, and each other step a number of unit passes at its
# length.  `scripts/kernel_crossover.py`, least of 7 runs on copies of one
# warm array, ranges over six runs (three each mod 2 and mod 5) on 2
# vCPUs: the time of a pass, then in passes `_mul_poly` by a polynomial of
# degree 165 at s = 1 (product) and on a series supported on 5Z at s = 5
# (sections), a heap merge of two halves (merge), and the inverse plus
# product:
#           L  pass            product  sections  merge      inverse
#         500  4.0-6.6 us     10.6-16.8 13.3-15.3  11.5-12.2   67-88
#       1,000  6.1-9.3 us     11.1-15.1  9.9-13.6   9.6-12.2   49-78
#       5,000  24-44 us        6.7-10.0  4.6-6.7    6.3-8.3    47-67
#      10,000  59-104 us       5.8-8.8   3.5-5.1    5.0-7.6    35-60
#      63,005  442-702 us      4.7-6.6   3.8-4.7    8.0-9.8    25-34
#     125,604  0.91-1.47 ms    3.8-6.4   2.7-3.9    6.5-9.4    23-36
#   1,000,000  7.7-11.4 ms     4.3-6.2   3.1-3.9    7.4-10.5   27-38
# and two fixed costs: a pass, 1.8-3.7 us, 218-676 coefficients, about
# _PASS_OVERHEAD; and a polynomial product, 37-68 us, 4,337-12,327
# coefficients, about _PRODUCT_OVERHEAD (it does not grow with s: the
# sections share each transform).  A heap merge of sizes a and b is
# charged by its transforms, of a + b - 1 coefficients.  The numerator and
# the denominator are each charged A + B/(L + _PASS_OVERHEAD) passes, a
# per-coefficient part A and a fixed part B in coefficients.  For the
# denominator the script prints A, the largest inverse ratio at
# L >= 50,000, and B, the least fixed part that then covers every inverse
# ratio of its run (A 27-38, B 79,000-230,000 here; A 31-41, B
# 62,000-310,000 over six earlier runs); the constants cover all twelve
# runs at once, so the charge is 274 passes at L = 500, 61 at 10^4 and 41
# at 10^6.  The numerator is charged 19.1 passes at L = 500 and 8.0 at
# 10^6.  Each charge is at least every ratio seen, so a route is taken
# only where its estimate is no more than the unit passes it replaces at
# every measured length.
_PASS_OVERHEAD = 400
_PRODUCT_PASSES = 8  # `_mul_poly` by the numerator P, besides its fixed cost
_PRODUCT_OVERHEAD = 10000  # fixed cost of `_mul_poly`, in coefficients
_INVERSE_PASSES = 41  # the denominator's Newton inverse and product, besides
_INVERSE_OVERHEAD = 210000  # their fixed cost, in coefficients
_HEAP_PASSES = 13  # a heap merge, per coefficient of its transforms
# Rows of H per chunk in `_mul_poly`: it holds O(s * block + deg P), not O(L).
_PRODUCT_BLOCK = 8192


def _apply_binomials(arr: np.ndarray, binomials: dict, m: int, stride: int) -> np.ndarray:
    """arr times prod (1 - q^base)^e over the net exponents, keyed by base,
    whose bases are below len(arr), to len(arr) coefficients mod m, where
    arr is supported on stride*Z (0: arr is a constant).  The positive
    exponents make one numerator P, the negative ones, negated, one
    denominator Q.  Each is applied by unit passes over arr or, when
    `_route` finds it cheaper at this length, P by one `_mul_poly` at this
    stride (1 when arr has none), and Q by one Newton inverse followed by
    one product."""
    n = arr.size
    numer = [(b, e) for b, e in binomials.items() if e > 0]
    denom = [(b, -e) for b, e in binomials.items() if e < 0]
    if numer:
        route = _route(numer, n, _PRODUCT_PASSES + _PRODUCT_OVERHEAD / (n + _PASS_OVERHEAD))
        if route is None:
            _unit_passes(arr, numer, m, _mul_binomial)
        else:
            s = stride if 1 < stride < n else 1
            _mul_poly(arr, _binomial_product(numer, m, *route), s, m)
    if denom:
        route = _route(denom, n, _INVERSE_PASSES + _INVERSE_OVERHEAD / (n + _PASS_OVERHEAD))
        if route is None:
            _unit_passes(arr, denom, m, _div_binomial)
        else:
            inverse = _inverse(_binomial_product(denom, m, *route), n, m)
            unit = arr[0] == 1 and not arr[1:].any()
            arr = inverse if unit else _mul_mod(arr, inverse, m, n)
    return arr


def _unit_passes(arr, factors, m, step) -> None:
    """One `step` (`_mul_binomial` or `_div_binomial`) per unit of exponent
    of each factor (base, e > 0), in place."""
    for base, e in factors:
        for _ in range(e):
            step(arr, base, m)


def _route(factors, n: int, route_passes: float):
    """None when unit passes over a series of length n cost less than
    building the polynomial prod (1 - q^base)^e over the factors
    (base, e > 0) and applying it at the cost of `route_passes`
    passes; else (size, heap): its size below n, and whether the heap of
    closed-form powers builds it more cheaply than unit passes on its own
    array."""
    passes = sum(e for _, e in factors)
    size = min(n, 1 + sum(b * e for b, e in factors))
    if passes < route_passes:
        return None
    sizes = [min(size, b * e + 1) for b, e in factors]
    heapq.heapify(sizes)
    by_heap = 0
    while len(sizes) > 1:
        a, b = heapq.heappop(sizes), heapq.heappop(sizes)
        heapq.heappush(sizes, min(size, a + b - 1))
        by_heap += _HEAP_PASSES * (a + b + _PASS_OVERHEAD)
    by_passes = passes * (size + _PASS_OVERHEAD)
    cost = min(by_heap, by_passes) + route_passes * (n + _PASS_OVERHEAD)
    if cost > passes * (n + _PASS_OVERHEAD):
        return None
    return size, by_heap < by_passes


def _binomial_product(factors, m: int, size: int, heap: bool) -> np.ndarray:
    """prod (1 - q^base)^e over the factors (base, e > 0) to `size`
    coefficients mod m: unit passes on its own array, or, with `heap`,
    closed-form powers (`binomial_power`) multiplied smallest first."""
    if not heap:
        out = np.zeros(size, dtype=np.int64)
        out[0] = 1 % m
        _unit_passes(out, factors, m, _mul_binomial)
        return out
    powers = (binomial_power(b, e, m, size) for b, e in factors)
    queue = [(p.size, i, p) for i, p in enumerate(powers)]
    heapq.heapify(queue)
    count = len(queue)
    while len(queue) > 1:
        _, _, a = heapq.heappop(queue)
        _, _, b = heapq.heappop(queue)
        c = _mul_mod(a, b, m, min(size, a.size + b.size - 1))
        heapq.heappush(queue, (c.size, count, c))
        count += 1
    return queue[0][2]


def _mul_poly(arr: np.ndarray, poly: np.ndarray, s: int, m: int) -> None:
    """arr times the polynomial poly, to len(arr) coefficients mod m, in
    place, where arr is H(q^s) (s = 1: a series with no stride).  G[si + r]
    is the product of H with the section poly[r::s] at i: with the sections
    as the columns of a matrix, row i of the product is G[si:si+s].  H is
    taken in chunks of `_PRODUCT_BLOCK` rows (or of the sections' length,
    if longer), from the last chunk back, so every chunk is read before a
    product overwrites it.  Each chunk's limb spectra are taken once and
    multiplied into the spectra of all sections, and the rows that come out
    are overlap-added into arr.  Beside arr it holds O(s * block + deg P),
    not O(L)."""
    n = arr.size
    h = arr[::s]
    depth = min(-(-poly.size // s), h.size)
    sections = np.zeros((depth, s), dtype=np.int64)  # column r is poly[r::s]
    sections.reshape(-1)[: poly.size] = poly[: sections.size]
    block = max(_PRODUCT_BLOCK, depth)
    for lo in range((h.size - 1) // block * block, -1, -block):
        hi = min(lo + block, h.size)
        terms = min(depth, h.size - lo)
        size = _fft_size(hi - lo + terms - 1)
        width = _limb_width(m, min(hi - lo, terms))
        fh = _spectra(h[lo:hi, None], m, width, size)
        fp = _spectra(sections[:terms], m, width, size)
        rows = _from_spectra(fh, fp, m, width, size, 0, min(h.size - lo, hi - lo + terms - 1))
        part = rows.reshape(-1)[: n - s * lo]
        spill = arr[s * hi : s * lo + part.size]
        spill += part[s * (hi - lo) :]
        spill %= m
        arr[s * lo : s * hi] = part[: s * (hi - lo)]


def _fold_parts(arr, step, base_min, m, distinct) -> None:
    """Multiply arr by the infinite product over the arithmetic progression
    {base_min, base_min+step, ...} of (1 - q^B)^-1 (distinct=False) or of
    (1 - q^B) (distinct=True), in place.

    Grouping by number of parts turns the whole tail into ~L/base_min short
    divisions: partitions with exactly k parts from the progression shift by
    k*base_min (plus a staircase when parts are distinct) and are generated
    by 1/((1-q^step)...(1-q^(k*step))).
    """
    n = arr.size
    out = arr.copy()
    work = arr.copy()  # running "at most k parts" transform, valid on a shrinking prefix
    k = 1
    while True:
        shift = k * base_min
        if distinct:
            shift += step * (k * (k - 1) // 2)
        if shift >= n:
            break
        piece = work[: n - shift]
        _div_binomial(piece, step * k, m)
        if distinct and k % 2 == 1:
            out[shift:] -= piece
        else:
            out[shift:] += piece
        out %= m
        k += 1
    arr[:] = out


def _add_euler_tail(tail: TailFamily, length, binomials, euler) -> None:
    """Record an Euler-shaped minus tail (constant exponent e, offset 0:
    bases sn from n = start) as a power of E(q^s) = prod_{n>=1}(1-q^(sn)),
    keyed s, and the finite head it divides out:

        prod_{n>=start}(1-q^(sn))^e = E(q^s)^e * prod_{n<start}(1-q^(sn))^-e"""
    s, e, start = tail.scale, tail.exp_offset, tail.start
    if s * start >= length:
        return
    euler[s] = euler.get(s, 0) + e
    for n in range(1, start):
        binomials[s * n] = binomials.get(s * n, 0) - e


def series_from_spec(spec: ProductSpec, modulus: Modulus, length: int) -> np.ndarray:
    """Expand a factor product to its first `length` coefficients mod m, as
    a read-only int64 array of residues in [0, m).

    Every plus binomial or tail is first rewritten by `plus_to_minus`.
    Binomial factors, the finite heads that Euler-shaped tails divide out,
    and the explicit factors of other tails are summed into one net
    exponent per base, and both they and the powers of E(q^s) are carried
    by `_frobenius`.  Those powers form the starting series; what is left
    of the other tails is folded into it, then the net binomials are
    applied."""
    if length < 1:
        raise InvalidParameter("length must be >= 1")
    if length > _MAX_LENGTH:
        raise InvalidParameter(f"length {length} exceeds the largest array size")
    binomials = {}  # base -> net exponent of (1-q^base)
    euler = {}  # s -> net exponent of E(q^s)
    folded = []
    minus = []
    for factor in spec.factors:
        plus = isinstance(factor, (BinomialFactor, TailFamily)) and factor.sign > 0
        minus.extend(plus_to_minus(factor) if plus else (factor,))
    for factor in minus:
        if isinstance(factor, BinomialFactor):
            binomials[factor.base] = binomials.get(factor.base, 0) + factor.exponent
        elif isinstance(factor, TailFamily) and not (factor.exp_scale or factor.offset):
            _add_euler_tail(factor, length, binomials, euler)
        elif isinstance(factor, TailFamily):
            rest = _add_explicit_tail(factor, length, binomials)
            if rest is not None:
                folded.append(rest)
        else:
            raise InvalidParameter(f"unknown factor type {type(factor).__name__}")
    m = modulus.value
    euler = _frobenius(euler, modulus, length)
    arr = _euler_product(euler, length, m)
    stride = math.gcd(0, *euler)
    for tail in folded:
        _fold_tail(arr, tail, m)
        stride = math.gcd(stride, tail.scale, tail.base(tail.start))
    arr = _apply_binomials(arr, _frobenius(binomials, modulus, length), m, stride)
    arr.setflags(write=False)
    return arr


def _add_explicit_tail(tail: TailFamily, length, binomials) -> TailFamily | None:
    """Record a tail without Euler shape (an offset not a multiple of the
    scale, or an exponent that varies with n) as net binomial exponents:
    every factor below `length` if the exponent varies, else those below
    max(32, sqrt(length)), and return the rest for `_fold_tail` (None when
    it is all above `length`)."""
    bound = length if tail.exp_scale else min(max(32, math.isqrt(length)), length)
    n = tail.start
    while tail.base(n) < bound:
        binomials[tail.base(n)] = binomials.get(tail.base(n), 0) + tail.exponent(n)
        n += 1
    if tail.base(n) >= length:
        return None
    return replace(tail, start=n)


def _fold_tail(arr, tail: TailFamily, m) -> None:
    """Multiply arr by a constant-exponent minus tail whose first base is at
    least sqrt(len(arr)), in place: the tail's unit power (exponent +-1) is
    folded by `_fold_parts`, into arr when |e| = 1, else into a unit series
    that is raised to |e| by `_pow_mod` and multiplied in."""
    step, first, e = tail.scale, tail.base(tail.start), tail.exp_offset
    n = arr.size
    folded = arr
    if abs(e) != 1:
        folded = np.zeros(n, dtype=np.int64)
        folded[0] = 1 % m
    _fold_parts(folded, step, first, m, distinct=e > 0)
    if folded is not arr:
        arr[:] = _mul_mod(arr, _pow_mod(folded, abs(e), m, n), m, n)


def frobenius_step(base: int, exponent: int, modulus: Modulus):
    """(ell*base, exponent/ell) when ell^N divides a nonzero exponent, else
    None: (1 +- q^b)^(ell^N c) = (1 +- q^(ell*b))^(ell^(N-1) c) mod ell^N at
    every index, because (1 +- x)^ell = 1 +- x^ell mod ell, and A = B mod
    ell^j implies A^ell = B^ell mod ell^(j+1)."""
    if exponent == 0 or exponent % modulus.value:
        return None
    return base * modulus.prime, exponent // modulus.prime


def _frobenius(exponents: dict, modulus: Modulus, length: int) -> dict:
    """Net exponents keyed by base, each carried: e = r + ell^N t,
    with r of e's sign and |r| < ell^N, keeps r at its base and moves
    ell^N t to ell times it by `frobenius_step`.  So (1-q^b)^-7 mod 2 is
    (1-q^b)^-1 (1-q^2b)^-1 (1-q^4b)^-1, three passes instead of seven.
    Bases at or past `length` touch no coefficient below it and are
    dropped, as are zero exponents.  Bases only grow, so visiting them in
    increasing order merges every carry before its base is carried in
    turn, and the result is keyed in increasing base order."""
    q = modulus.value
    net = {base: e for base, e in exponents.items() if base < length}
    heap = list(net)
    heapq.heapify(heap)
    out = {}
    while heap:
        base = heapq.heappop(heap)
        e = net.pop(base)
        r = e % q if e >= 0 else -(-e % q)
        step = frobenius_step(base, e - r, modulus)
        if step is not None and step[0] < length:
            moved, t = step
            if moved not in net:
                heapq.heappush(heap, moved)
            net[moved] = net.get(moved, 0) + t
        if r:
            out[base] = r
    return out


def _euler_product(euler: dict, length: int, m: int) -> np.ndarray:
    """prod over s of E(q^s)^e, keyed s with s < length, to `length`
    coefficients mod m.  With g the gcd of the scales the product is
    H(q^g), and H is taken at length ceil(length/g): the product of the
    powers E(q^s)^e, each at its own length ceil(length/s), spread to
    stride s/g.  The negative powers share one Newton inverse of E, taken
    at the longest length one of them needs, and each reads its prefix."""
    if not euler:
        arr = np.zeros(length, dtype=np.int64)
        arr[0] = 1 % m
        return arr
    g = math.gcd(*euler)
    n = -(-length // g)
    negative = [s for s, e in euler.items() if e < 0]
    inverse = _euler_inverse(-(-length // min(negative)), m) if negative else None
    h = None
    for s, e in euler.items():
        k = -(-length // s)
        power = _pow_mod(_euler(k, m), e, m, k) if e > 0 else _pow_mod(inverse[:k], -e, m, k)
        if s > g:
            spread = np.zeros(n, dtype=np.int64)
            spread[:: s // g] = power
            power = spread
        h = power if h is None else _mul_mod(h, power, m, n)
    if g == 1:
        return h
    arr = np.zeros(length, dtype=np.int64)
    arr[::g] = h
    return arr


# ---------------------------------------------------------------------------
# exact products, inverses and powers of Euler's product


def _euler(n: int, m: int) -> np.ndarray:
    """E = prod_{k>=1}(1-q^k) to n coefficients mod m, placed from the
    pentagonal number theorem: E = sum over k in Z of (-1)^k q^(k(3k-1)/2)."""
    out = np.zeros(n, dtype=np.int64)
    out[0] = 1
    k = np.arange(1, math.isqrt(n) + 2, dtype=np.int64)
    signs = np.where(k % 2 == 1, -1, 1)
    for exps in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
        keep = exps < n
        out[exps[keep]] = signs[keep]
    return out % m


@functools.cache
def _partition_numbers() -> np.ndarray:
    """p(0), p(1), ... for every p(k) below 2^63 (k <= 405), from Euler's
    pentagonal recurrence p(k) = sum over j >= 1 of (-1)^(j+1) times
    (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)), in Python integers."""
    p = [1]
    while True:
        k, total, j = len(p), 0, 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            total += sign * p[k - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= k:
                total += sign * p[k - j * (3 * j + 1) // 2]
            j += 1
        if total >= 1 << 63:
            break
        p.append(total)
    table = np.array(p, dtype=np.int64)
    table.setflags(write=False)
    return table


def _euler_inverse(n: int, m: int) -> np.ndarray:
    """1/E = sum p(k) q^k to n coefficients mod m: the exact partition
    numbers, and Newton iteration only beyond them."""
    inverse = _partition_numbers()[:n] % m
    if n > inverse.size:
        inverse = _inverse(_euler(n, m), n, m, seed=inverse)
    return inverse


def _pow_mod(f: np.ndarray, e: int, m: int, n: int) -> np.ndarray:
    """f^e to n coefficients mod m by repeated squaring, e >= 1."""
    result = None
    while True:
        if e & 1:
            result = f if result is None else _mul_mod(result, f, m, n)
        e >>= 1
        if not e:
            return result
        f = _mul_mod(f, f, m, n)


def _inverse(f: np.ndarray, n: int, m: int, seed=None) -> np.ndarray:
    """1/f to n coefficients mod m by Newton iteration g <- g(2 - fg), which
    doubles the number of correct coefficients each step: if fg = 1 + q^k t
    then f g(2 - fg) = 1 - q^2k t^2.  `seed`, when given, is the
    inverse's first coefficients, already known, and Newton starts after
    them.

    A step from k to k2 coefficients needs t only below k2 - k, so f[:k2]
    times g[:k] is taken as a cyclic product of length at least
    top = min(k2, k + len(f[:k2]) - 1), the end of the coefficients that can
    be nonzero: what wraps lands below k, where fg is already 1.  The
    product g[:k] t has length below top, so the same transform length
    serves both products, and g[:k]'s spectrum is taken once."""
    try:
        inv0 = pow(int(f[0]) % m, -1, m)
    except ValueError:
        raise NonUnitConstantTerm(f"constant term {int(f[0])} is not invertible mod {m}") from None
    g = np.zeros(n, dtype=np.int64)
    g[0] = inv0
    k = 1
    if seed is not None:
        k = min(seed.size, n)
        g[:k] = seed[:k]
    while k < n:
        k2 = min(2 * k, n)
        head = f[:k2]
        top = min(k2, k + head.size - 1)
        if top > k:
            size = _fft_size(top)
            width = _limb_width(m, min(k, head.size))
            spectra = _spectra(g[:k], m, width, size)
            t = _from_spectra(
                list(spectra), _spectra(head, m, width, size), m, width, size, k, top
            )
            step = _from_spectra(spectra, _spectra(t, m, width, size), m, width, size, 0, k2 - k)
            del t
            np.negative(step, out=step)
            step %= m
            g[k:k2] = step
        k = k2
    return g


# A float64 FFT product rounds to the exact integers while every output
# coefficient stays below this in absolute value.
_FFT_EXACT_LIMIT = 1 << 50


@functools.lru_cache(maxsize=4096)
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: sizes numpy.fft transforms fastest.
    Cached: the search costs tens of microseconds, and a few lengths
    recur in every expansion."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < n:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _limb_width(m: int, terms: int) -> int:
    """Bits per limb that keep a sum of `terms` limb products below
    _FFT_EXACT_LIMIT; 0 when whole residues already do (one limb)."""
    if (m - 1) ** 2 * terms < _FFT_EXACT_LIMIT:
        return 0
    width = 1
    while ((2 << width) - 1) ** 2 * terms < _FFT_EXACT_LIMIT:
        width += 1
    return width


def _limbs(x: np.ndarray, m: int, width: int) -> list:
    """The residues x as int64 limbs with sum_i limb_i * 2^(width*i) = x
    (mod m): centred into (-m/2, m/2], then, when width > 0, split into
    balanced digits in [-2^(width-1), 2^(width-1)).  Both halve the
    magnitudes the limb bound allows for."""
    x = np.where(x > m // 2, x - m, x)
    if width == 0:
        return [x]
    half = 1 << (width - 1)
    limbs = []
    for _ in range(-(-(m.bit_length() + 1) // width) - 1):
        low = ((x + half) & ((1 << width) - 1)) - half
        limbs.append(low)
        x = (x - low) >> width
    limbs.append(x)
    return limbs


def _spectra(x: np.ndarray, m: int, width: int, size: int) -> list:
    """The real FFTs of length `size`, along axis 0, of the limbs of the
    residues x (`_limbs` at this width)."""
    return [np.fft.rfft(limb, size, axis=0) for limb in _limbs(x, m, width)]


def _from_spectra(
    fx: list, fy: list, m: int, width: int, size: int, lo: int, hi: int
) -> np.ndarray:
    """Coefficients lo..hi-1, along axis 0, of the cyclic convolution of
    length `size` of x and y mod m, from their `_spectra` at one width and
    size: one inverse FFT per pair of limbs, each rounded to integers only
    after checking that every output is below 2^52 and lies less than 1/4
    from an integer.

    Both lists are used up: each array is dropped from its list once its
    last product is formed, and the last limb of fx is multiplied into fy's
    arrays in place (for a square, which passes one list as both, each
    of them is then at its last use too), so no more than two spectra and
    one inverse transform are held at once.  A caller that needs a list
    again passes a copy."""
    out = None
    for i in range(len(fx)):
        for j in range(len(fy)):
            if i == len(fx) - 1:
                spectrum = fy[j]
                spectrum *= fx[i]
                fy[j] = None
            else:
                spectrum = fx[i] * fy[j]
            if j == len(fy) - 1 and fy is not fx:
                fx[i] = None
            raw = np.fft.irfft(spectrum, size, axis=0)[lo:hi]
            del spectrum
            exact = np.rint(raw)
            raw -= exact  # now the rounding error
            # from 2^52 on every float is an integer: nothing left to check
            if max(raw.max(), -raw.min()) >= 0.25 or max(exact.max(), -exact.min()) >= 2.0**52:
                raise CongcertError(
                    f"FFT product lost exactness (length {hi - lo}); "
                    "the limb bound does not hold"
                )
            del raw
            part = exact.astype(np.int64)
            del exact
            part %= m
            if i + j:
                part *= pow(2, width * (i + j), m)
                part %= m
            if out is None:
                out = part
            else:
                out += part
                out %= m
    return out


def _mul_mod(a: np.ndarray, b: np.ndarray, m: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod m, exactly, for residue arrays a, b:
    one exact convolution per pair of limbs (`_from_spectra`)."""
    square = a is b
    a, b = a[:n], b[:n]
    size = _fft_size(a.size + b.size - 1)
    width = _limb_width(m, min(a.size, b.size))
    fa = _spectra(a, m, width, size)
    fb = fa if square else _spectra(b, m, width, size)
    out = _from_spectra(fa, fb, m, width, size, 0, min(n, size))
    if out.size < n:
        out = np.concatenate((out, np.zeros(n - out.size, dtype=np.int64)))
    return out


def series_mul(a, b, modulus: Modulus) -> np.ndarray:
    """The first n = min(len(a), len(b)) coefficients of a*b mod m, exactly,
    for integer sequences a and b.  Each is cut to n before it is reduced,
    so a long input costs no copy past n."""
    n = min(len(a), len(b))
    if n < 1:
        raise InvalidParameter("a series stores at least one coefficient")
    m = modulus.value
    x = np.asarray(a[:n], dtype=np.int64) % m
    y = np.asarray(b[:n], dtype=np.int64) % m
    return _mul_mod(x, y, m, n)
