"""Independent dense-integer reference expansion used as the oracle for the
series kernel.  Everything here works over unbounded Python ints and reduces
only at the end, so it also witnesses reduce-at-every-step equivalence.
`span_closure` is the reference for membership in a module over Z/m."""

import numpy as np

from congcert import BinomialFactor, ProductSpec, TailFamily


def materialize(spec: ProductSpec, length: int):
    """Flatten tails into the explicit binomials that can affect the prefix."""
    out = []
    for f in spec.factors:
        if isinstance(f, TailFamily):
            n = f.start
            while f.base(n) < length:
                e = f.exponent(n)
                if e:
                    out.append(BinomialFactor(f.sign, f.base(n), e))
                n += 1
        else:
            out.append(f)
    return out


def _mul_binomial(coeffs, sign, base):
    out = list(coeffs)
    for k in range(base, len(coeffs)):
        out[k] += sign * coeffs[k - base]
    return out


def _div_binomial(coeffs, sign, base):
    out = list(coeffs)
    for k in range(base, len(coeffs)):
        out[k] -= sign * out[k - base]
    return out


def brute_expand(spec: ProductSpec, length: int, modulus=None):
    """First `length` coefficients over Z, reduced mod `modulus` when given."""
    coeffs = [0] * length
    coeffs[0] = 1
    for f in materialize(spec, length):
        if isinstance(f, BinomialFactor):
            for _ in range(abs(f.exponent)):
                if f.exponent > 0:
                    coeffs = _mul_binomial(coeffs, f.sign, f.base)
                else:
                    coeffs = _div_binomial(coeffs, f.sign, f.base)
        else:
            raise AssertionError(f"unexpected factor {f!r}")
    if modulus is not None:
        coeffs = [c % modulus for c in coeffs]
    return coeffs


def span_closure(generators, m: int, width: int) -> set:
    """Every element of the Z/m module generated by the rows of width
    `width`, as a set of tuples: {0} closed under adding each generator's
    multiples, with vectors encoded as integers in base m."""
    place = np.array([m**i for i in range(width)], dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    for row in generators:
        row = np.array(row, dtype=np.int64) % m
        digits = (codes[:, None] // place) % m
        shifted = (digits[None, :, :] + np.arange(m)[:, None, None] * row) % m
        codes = np.unique(shifted @ place)
    return {tuple(int(c) // int(p) % m for p in place) for c in codes}
