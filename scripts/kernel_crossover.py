"""Measure the crossovers of the binomial routes in `congcert.series`.

For each length L it prints the time of one unit pass (multiplying or
dividing a series by 1 - q^7), and, in units of those passes, the cost of
the routes that can replace them:

  product  -- a blocked product of the series by a polynomial of degree 165
              (the numerator of 10-rowed plane partitions mod 5), the
              numerator route; compared with a multiplying pass;
  full     -- one full-length exact product, the step of the heap builder;
              compared with a multiplying pass;
  inverse  -- a Newton inverse of a polynomial of degree 165 and a
              full-length product, the denominator route; compared with a
              dividing pass.

It ends with the fixed cost of a multiplying pass: its time at L = 16,
and that time in coefficients at the per-coefficient cost of L = 10,000.
The constants `_PASS_OVERHEAD`, `_PRODUCT_PASSES`, `_HEAP_PASSES` and
`_INVERSE_PASSES` in `congcert.series` are taken from this output.  Run
from the repository root:

    PYTHONPATH=src python scripts/kernel_crossover.py [--repeat 7] [--modulus 5]
"""

import argparse
import time

import numpy as np

from congcert.series import (
    _div_binomial,
    _inverse,
    _mul_binomial,
    _mul_blocked,
    _mul_mod,
    binomial_power,
)

LENGTHS = (500, 1_000, 5_000, 10_000, 63_005, 125_604)


def best(repeat, make, run):
    """Least time of `run(make())` over `repeat` runs; `make` is untimed."""
    times = []
    for _ in range(repeat):
        arg = make()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--modulus", type=int, default=5)
    args = parser.parse_args()
    m = args.modulus
    rng = np.random.default_rng(0)
    poly = np.ones(1, dtype=np.int64)
    for b in range(1, 10):  # prod (1-q^b)^(10-b), degree 165
        poly = _mul_mod(poly, binomial_power(-1, b, 10 - b, m), m, poly.size + b * (10 - b))
    print(f"modulus {m}, least of {args.repeat} runs; routes in unit passes")
    print(f"{'L':>8} {'mul pass':>10} {'div pass':>10} {'product':>8} {'full':>6} {'inverse':>8}")
    passes = []  # mul pass times
    for n in LENGTHS:
        def series():
            return rng.integers(0, m, n, dtype=np.int64)

        mul = best(args.repeat, series, lambda a: _mul_binomial(a, -1, 7, m))
        div = best(args.repeat, series, lambda a: _div_binomial(a, -1, 7, m))
        product = best(args.repeat, series, lambda a: _mul_blocked(a, poly, m))
        full = best(args.repeat, series, lambda a: _mul_mod(a, a[::-1].copy(), m, n))
        inverse = best(
            args.repeat, series, lambda a: _mul_mod(a, _inverse(poly, n, m, shown=1), m, n)
        )
        print(
            f"{n:>8} {mul * 1e6:>8.1f}us {div * 1e6:>8.1f}us "
            f"{product / mul:>8.1f} {full / mul:>6.1f} {inverse / div:>8.1f}"
        )
        passes.append(mul)
    # a pass costs a + b*L: a is a pass at L = 16, b comes from L = 10,000
    fixed = best(
        args.repeat * 5, lambda: rng.integers(0, m, 16), lambda a: _mul_binomial(a, -1, 7, m)
    )
    per_coeff = (passes[LENGTHS.index(10_000)] - fixed) / 10_000
    coeffs = fixed / per_coeff
    print(f"fixed cost of a mul pass: {fixed * 1e6:.1f}us, about {coeffs:.0f} coefficients")


if __name__ == "__main__":
    main()
