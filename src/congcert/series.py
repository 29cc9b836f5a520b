"""Truncated power series with coefficients in Z/m for a prime power m,
plus symbolic products of factors (1 +- q^b)^e that expand into them.

Coefficients are kept fully reduced in [0, m) inside int64 arrays; every
pass reduces before the next, and cumulative sums are chunked whenever the
worst-case partial sum could leave int64 range.  Factors are applied one
unit of exponent at a time: multiplying or dividing by (1 +- q^b) is a
single O(L) pass, so no binomial coefficient machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    ModulusMismatch,
    NonUnitConstantTerm,
)

# Keep m*m and m*rows inside int64 during convolution and cumulative sums.
KERNEL_MODULUS_LIMIT = 1 << 31


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
        if not is_prime(self.prime):
            raise InvalidParameter(f"modulus base {self.prime} is not prime")
        if self.exponent < 1:
            raise InvalidParameter("modulus exponent must be >= 1")
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


class ModSeries:
    """Immutable prefix of a power series, coefficients reduced mod m."""

    __slots__ = ("modulus", "_data")

    def __init__(self, modulus: Modulus, coeffs):
        data = np.array(coeffs, dtype=np.int64) % modulus.value
        if data.ndim != 1 or data.size < 1:
            raise InvalidParameter("a series stores at least one coefficient")
        data.setflags(write=False)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("ModSeries is immutable")

    @property
    def length(self) -> int:
        return int(self._data.size)

    @property
    def coeffs(self) -> tuple:
        return tuple(int(c) for c in self._data)

    def coefficient(self, n: int) -> int:
        if not 0 <= n < self._data.size:
            raise IndexOutOfRange(f"index {n} outside stored range [0, {self._data.size})")
        return int(self._data[n])

    def array(self) -> np.ndarray:
        """Read-only view of the coefficient array."""
        return self._data

    def __len__(self):
        return self.length

    def __getitem__(self, n):
        return self.coefficient(n)

    def __iter__(self):
        return (int(c) for c in self._data)

    def __eq__(self, other):
        if not isinstance(other, ModSeries):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self._data, other._data)

    def __repr__(self):
        head = ",".join(str(int(c)) for c in self._data[:8])
        tail = ",..." if self._data.size > 8 else ""
        return f"ModSeries(mod {self.modulus}, [{head}{tail}] len {self._data.size})"


def unit_series(modulus: Modulus, length: int) -> ModSeries:
    data = np.zeros(length, dtype=np.int64)
    data[0] = 1 % modulus.value
    return ModSeries(modulus, data)


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
class PolyFactor:
    """An explicit polynomial with nonzero constant term, raised to exponent."""

    coeffs: tuple
    exponent: int = 1

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs or coeffs[0] == 0:
            raise InvalidParameter("polynomial factor needs a nonzero constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}q^{i}" if c != 1 else f"q^{i}")
        body = "+".join(terms)
        if self.exponent == 1:
            return f"({body})"
        return f"({body})^{self.exponent}"


@dataclass(frozen=True)
class TailFamily:
    """The infinite product over n >= start of (1 + sign*q^(scale*n+offset))^e(n)
    where e(n) = exp_scale*n + exp_offset.

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
        if self.base(self.start) < 1:
            raise InvalidParameter("first factor base must be >= 1")
        if self.exp_scale == 0 and self.exp_offset == 0:
            raise InvalidParameter("tail exponent must not vanish identically")

    def base(self, n: int) -> int:
        return self.scale * n + self.offset

    def exponent(self, n: int) -> int:
        return self.exp_scale * n + self.exp_offset

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        if self.scale == 1 and self.offset == 0:
            b = "n"
        elif self.scale == 1:
            b = f"n+{self.offset}"
        elif self.offset == 0:
            b = f"{self.scale}n"
        else:
            b = f"{self.scale}n+{self.offset}"
        if self.exp_scale == 0:
            e = str(self.exp_offset)
        elif self.exp_scale == -1 and self.exp_offset == 0:
            e = "-n"
        else:
            e = f"{self.exp_scale}n+{self.exp_offset}"
        return f"prod_{{n>={self.start}}}(1{s}q^{b})^{e}"


Factor = BinomialFactor | PolyFactor | TailFamily


@dataclass(frozen=True)
class ProductSpec:
    """A formal product of factors; expansion order never changes the result."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def __mul__(self, other: "ProductSpec") -> "ProductSpec":
        return ProductSpec(self.factors + other.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " ".join(str(f) for f in self.factors)


def product_spec(*factors) -> ProductSpec:
    return ProductSpec(tuple(factors))


# ---------------------------------------------------------------------------
# expansion kernel


def _cumsum_rows_mod(mat: np.ndarray, m: int, alternating: bool) -> None:
    """In place: mat[r] <- sum over i <= r of (+-1)^(r-i) mat[i], reduced mod m.

    Plain cumulative sums when alternating is False.  Chunked so partial sums
    never exceed int64 even for the largest admissible modulus.
    """
    rows = mat.shape[0]
    if rows == 0:
        return
    if alternating:
        signs = np.where(np.arange(rows) % 2 == 0, 1, -1).astype(np.int64)
        mat *= signs[:, None]
    chunk = max(1, (1 << 62) // m)
    if rows <= chunk:
        np.cumsum(mat, axis=0, out=mat)
        mat %= m
    else:
        carry = np.zeros(mat.shape[1], dtype=np.int64)
        for lo in range(0, rows, chunk):
            block = mat[lo : lo + chunk]
            np.cumsum(block, axis=0, out=block)
            block += carry
            block %= m
            carry = block[-1].copy()
    if alternating:
        mat *= signs[:, None]
        mat %= m


def _div_binomial(arr: np.ndarray, sign: int, base: int, m: int, upto=None) -> None:
    """Divide arr[:upto] by (1 + sign*q^base), in place."""
    x = arr if upto is None else arr[:upto]
    n = x.size
    if base >= n:
        return
    rows = -(-n // base)
    buf = np.zeros(rows * base, dtype=np.int64)
    buf[:n] = x
    _cumsum_rows_mod(buf.reshape(rows, base), m, alternating=(sign > 0))
    x[:] = buf[:n]


def _mul_binomial(arr: np.ndarray, sign: int, base: int, m: int, upto=None) -> None:
    """Multiply arr[:upto] by (1 + sign*q^base), in place."""
    x = arr if upto is None else arr[:upto]
    n = x.size
    if base >= n:
        return
    src = x[: n - base].copy()
    if sign > 0:
        x[base:] += src
    else:
        x[base:] -= src
    x %= m


def _apply_binomial(arr, sign, base, exponent, m) -> None:
    if base >= arr.size or exponent == 0:
        return
    for _ in range(abs(exponent)):
        if exponent > 0:
            _mul_binomial(arr, sign, base, m)
        else:
            _div_binomial(arr, sign, base, m)


def _mul_poly(arr, coeffs, m) -> None:
    n = arr.size
    src = arr.copy()
    out = np.zeros(n, dtype=np.int64)
    for pos, c in enumerate(coeffs):
        c %= m
        if c == 0 or pos >= n:
            continue
        out[pos:] += c * src[: n - pos]
        out %= m
    arr[:] = out


def _div_poly(arr, coeffs, m) -> None:
    """Divide by an explicit polynomial via the causal recurrence (exact,
    needs a unit constant term).  Quadratic in the length: used for short
    validation lengths and by `series_inverse`."""
    c0 = coeffs[0] % m
    try:
        inv0 = pow(c0, -1, m)
    except ValueError:
        raise NonUnitConstantTerm(
            f"constant term {coeffs[0]} is not invertible mod {m}"
        ) from None
    rest = [(j, coeffs[j] % m) for j in range(1, len(coeffs)) if coeffs[j] % m != 0]
    a = arr.tolist()
    out = [0] * len(a)
    for k in range(len(a)):
        s = a[k]
        for j, cj in rest:
            if j > k:
                break
            s -= cj * out[k - j]
        out[k] = (s % m) * inv0 % m
    arr[:] = out


def _apply_poly(arr, factor: PolyFactor, m) -> None:
    for _ in range(abs(factor.exponent)):
        if factor.exponent > 0:
            _mul_poly(arr, factor.coeffs, m)
        else:
            _div_poly(arr, factor.coeffs, m)


def _fold_parts(arr, step, base_min, m, distinct, factor_sign=1) -> None:
    """Multiply arr by the infinite product over the arithmetic progression
    {base_min, base_min+step, ...} of (1 - q^B)^-1 (distinct=False) or of
    (1 + factor_sign*q^B) (distinct=True), in place.

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
        _div_binomial(work, -1, step * k, m, upto=n - shift)
        piece = work[: n - shift]
        if distinct and factor_sign < 0 and k % 2 == 1:
            out[shift:] -= piece
        else:
            out[shift:] += piece
        out %= m
        k += 1
    arr[:] = out


def _apply_tail(arr, tail: TailFamily, m, fold_threshold=None) -> None:
    length = arr.size
    if tail.exp_scale != 0:
        # Exponent varies with n: expand factor by factor (used only at the
        # short lengths where these products are ever evaluated).
        n = tail.start
        while tail.base(n) < length:
            _apply_binomial(arr, tail.sign, tail.base(n), tail.exponent(n), m)
            n += 1
        return

    e = tail.exp_offset
    threshold = fold_threshold
    if threshold is None:
        threshold = max(32, math.isqrt(length))
    n = tail.start
    while tail.base(n) < min(threshold, length):
        _apply_binomial(arr, tail.sign, tail.base(n), e, m)
        n += 1
    first = tail.base(n)
    if first >= length:
        return
    step = tail.scale
    for _ in range(abs(e)):
        if tail.sign < 0 and e < 0:
            _fold_parts(arr, step, first, m, distinct=False)
        elif e > 0:
            _fold_parts(arr, step, first, m, distinct=True, factor_sign=tail.sign)
        else:
            # (1+q^B)^-1 = (1-q^B) / (1-q^(2B)) termwise over the progression
            _fold_parts(arr, step, first, m, distinct=True, factor_sign=-1)
            _fold_parts(arr, 2 * step, 2 * first, m, distinct=False)


def series_from_spec(spec: ProductSpec, modulus: Modulus, length: int) -> ModSeries:
    """Expand a factor product to its first `length` coefficients mod m."""
    if length < 1:
        raise InvalidParameter("length must be >= 1")
    m = modulus.value
    arr = np.zeros(length, dtype=np.int64)
    arr[0] = 1 % m
    for factor in spec.factors:
        if isinstance(factor, BinomialFactor):
            _apply_binomial(arr, factor.sign, factor.base, factor.exponent, m)
        elif isinstance(factor, PolyFactor):
            _apply_poly(arr, factor, m)
        elif isinstance(factor, TailFamily):
            _apply_tail(arr, factor, m)
        else:
            raise InvalidParameter(f"unknown factor type {type(factor).__name__}")
    return ModSeries(modulus, arr)


# ---------------------------------------------------------------------------
# arithmetic on expanded series


def _common_modulus(a: ModSeries, b: ModSeries) -> Modulus:
    if a.modulus != b.modulus:
        raise ModulusMismatch(f"cannot combine series mod {a.modulus} and mod {b.modulus}")
    return a.modulus


def series_add(a: ModSeries, b: ModSeries) -> ModSeries:
    modulus = _common_modulus(a, b)
    n = min(a.length, b.length)
    return ModSeries(modulus, (a.array()[:n] + b.array()[:n]) % modulus.value)


def series_mul(a: ModSeries, b: ModSeries) -> ModSeries:
    modulus = _common_modulus(a, b)
    m = modulus.value
    n = min(a.length, b.length)
    if m * m * n < (1 << 62):
        out = np.convolve(a.array()[:n], b.array()[:n])[:n] % m
        return ModSeries(modulus, out)
    # exact big-int fallback where int64 could overflow: for m = 10^9+7 that
    # is every n >= 5
    xs, ys = a.coeffs[:n], b.coeffs[:n]
    out = [0] * n
    for i, x in enumerate(xs):
        if x == 0:
            continue
        for j in range(n - i):
            out[i + j] = (out[i + j] + x * ys[j]) % m
    return ModSeries(modulus, out)


def series_inverse(a: ModSeries) -> ModSeries:
    """Multiplicative inverse to the stored length: 1 divided by a."""
    out = np.zeros(a.length, dtype=np.int64)
    out[0] = 1
    _div_poly(out, a.coeffs, a.modulus.value)
    return ModSeries(a.modulus, out)


def coefficient(a: ModSeries, n: int) -> int:
    return a.coefficient(n)
