"""Measure the crossovers of the binomial routes in `congcert.series`.

For each length L it prints the time of one unit pass (multiplying or
dividing a series by 1 - q^7), and, in units of those passes, the cost of
the routes that can replace them:

  product  -- `_mul_poly` of the series by a polynomial P of degree 165
              (the numerator of 10-rowed plane partitions mod 5) at s = 1,
              the numerator route on a series with no stride; compared
              with a multiplying pass;
  sections -- `_mul_poly` by P at s = 5, on a series supported on 5Z,
              the five sections of P taken as the columns of one
              transform; compared with a multiplying pass;
  merge    -- one step of the heap builder: the exact product of the two
              halves of the series, L coefficients from transforms of
              L + 1; compared with a multiplying pass;
  inverse  -- a Newton inverse of P and a full-length product, the
              denominator route; compared with a dividing pass;
  1/E      -- the Newton inverse of Euler's product E from its exact
              partition-number start, as `_euler_product` takes it for
              its negative powers; compared with a dividing pass.  No
              route depends on it.

It ends with two fixed costs, in coefficients at the per-coefficient cost
of a pass at L = 10,000: that of a multiplying pass (its time at L = 16),
and that of `_mul_poly` (its time on 16 coefficients by 1 - q).  Then it
fits the inverse column with the form of `_route`'s denominator charge,
a per-coefficient part A in passes and a fixed part B in coefficients,
A + B/(L + 400): A is the largest inverse ratio at L >= 50,000, where B
adds little, and B is the least fixed part that makes the charge at least
every inverse ratio in the table.  Every step is timed on a fresh copy of
one array per length, made before the clock starts, so the short lengths
run warm in cache as they do inside an expansion.  The constants
`_PASS_OVERHEAD`, `_PRODUCT_PASSES`, `_PRODUCT_OVERHEAD`, `_HEAP_PASSES`,
`_INVERSE_PASSES` and `_INVERSE_OVERHEAD` in `congcert.series` are taken
from this output.  Run from the repository root:

    PYTHONPATH=src python scripts/kernel_crossover.py [--repeat 7] [--modulus 5]
"""

import argparse
import time

import numpy as np

from congcert.series import (
    _div_binomial,
    _euler,
    _inverse,
    _mul_binomial,
    _mul_mod,
    _mul_poly,
    _partition_numbers,
    binomial_power,
)

LENGTHS = (500, 1_000, 5_000, 10_000, 63_005, 125_604, 1_000_000)
STRIDE = 5


def strided(rng, n, stride, m):
    """A random series of length n mod m supported on stride*Z."""
    out = np.zeros(n, dtype=np.int64)
    out[::stride] = rng.integers(0, m, len(range(0, n, stride)))
    return out


def best(repeat, warm, run):
    """Least time of `run` over `repeat` runs, each on a fresh copy of the
    array `warm`; the copy is untimed."""
    times = []
    for _ in range(repeat):
        arg = warm.copy()
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
        poly = _mul_mod(poly, binomial_power(b, 10 - b, m), m, poly.size + b * (10 - b))
    print(f"modulus {m}, least of {args.repeat} runs; routes in unit passes")
    print(
        f"{'L':>9} {'mul pass':>10} {'div pass':>10} {'product':>8} "
        f"{'sections':>8} {'merge':>6} {'inverse':>8} {'1/E':>6}"
    )
    passes = []  # mul pass times
    inverses = []  # inverse ratios
    for n in LENGTHS:
        series = rng.integers(0, m, n, dtype=np.int64)
        sparse = strided(rng, n, STRIDE, m)
        seed = _partition_numbers() % m
        mul = best(args.repeat, series, lambda a: _mul_binomial(a, 7, m))
        div = best(args.repeat, series, lambda a: _div_binomial(a, 7, m))
        product = best(args.repeat, series, lambda a: _mul_poly(a, poly, 1, m))
        sections = best(args.repeat, sparse, lambda a: _mul_poly(a, poly, STRIDE, m))
        half = n // 2
        merge = best(args.repeat, series, lambda a: _mul_mod(a[: half + 1], a[half:], m, n))
        inverse = best(
            args.repeat, series, lambda a: _mul_mod(a, _inverse(poly, n, m), m, n)
        )
        euler = best(
            args.repeat, _euler(n, m), lambda e: _inverse(e, n, m, seed=seed)
        )
        print(
            f"{n:>9,} {mul * 1e6:>8.1f}us {div * 1e6:>8.1f}us {product / mul:>8.1f} "
            f"{sections / mul:>8.1f} {merge / mul:>6.1f} "
            f"{inverse / div:>8.1f} {euler / div:>6.1f}"
        )
        passes.append(mul)
        inverses.append(inverse / div)
    # a pass costs a + b*L: a is a pass at L = 16, b comes from L = 10,000
    fixed = best(args.repeat * 5, rng.integers(0, m, 16), lambda a: _mul_binomial(a, 7, m))
    per_coeff = (passes[LENGTHS.index(10_000)] - fixed) / 10_000
    print(
        f"fixed cost of a mul pass: {fixed * 1e6:.1f}us, "
        f"about {fixed / per_coeff:.0f} coefficients"
    )
    binomial = np.array([1, m - 1], dtype=np.int64)
    product = best(args.repeat * 5, rng.integers(0, m, 16), lambda a: _mul_poly(a, binomial, 1, m))
    print(
        f"fixed cost of a polynomial product: {product * 1e6:.1f}us, "
        f"about {product / per_coeff:.0f} coefficients"
    )
    # the denominator charge A + B/(L + 400), `_PASS_OVERHEAD` being 400
    per_pass = max(r for n, r in zip(LENGTHS, inverses) if n >= 50_000)
    overhead = max(0.0, *((r - per_pass) * (n + 400) for n, r in zip(LENGTHS, inverses)))
    print(
        f"inverse charge: {per_pass:.1f} passes and {overhead:,.0f} coefficients, "
        f"{per_pass + overhead / 900:.1f} passes at L = 500"
    )


if __name__ == "__main__":
    main()
