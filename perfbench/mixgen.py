"""Seeded generator for the instance-mix workload.

It writes congcert instance files and returns, for each file, the same
instance as plain data so the benchmark can build the library objects for
its independent checks.  It imports nothing from congcert: the program under
test sees only the generated files.

Every parameter range below is bounded so that each check length (period)
stays small; the workload measures many short certifications, not a few
long ones.

Run standalone to look at a corpus:

    python3 perfbench/mixgen.py --seed 3 --count 21 --out .perfbench_work/preview
"""

from __future__ import annotations

import argparse
import math
import os
import random
from collections import Counter
from dataclasses import dataclass

# (prime, exponent, weight, why it is in the mix)
MODULI = (
    (2, 1, 3, "mod 2: the paper's home modulus; the ratio rule and power-reduce fire most"),
    (2, 2, 2, "mod 4: prime power; pivoting on 2-valuations and the N >= 2 reduction path"),
    (2, 3, 1, "mod 8: deepest 2-power; long power-reduce chains, larger b in the period"),
    (3, 1, 2, "mod 3: odd prime; plus factors go through plus-to-minus, not the ratio rule"),
    (3, 2, 1, "mod 9: odd prime power; period gains a factor 3 per level"),
    (5, 1, 1, "mod 5: larger prime; most heads keep every factor, small b"),
    (7, 1, 1, "mod 7: largest prime; m dominates the period"),
)

# (name, weight, why it is in the mix)
TARGETS = (
    ("plane_rowed", 4, "the paper's main family: the head grows with the rows"),
    ("overplane_rowed", 2, "plus factors and plus tails: peel, ratio and plus-to-minus rewrites"),
    ("maxpart", 2, "finite product with no tail: bounded-part families, cheap splits"),
    ("plane_box", 1, "finite product with multiplicities: power-reduce on explicit factors"),
    ("multiset", 2, "arbitrary heads: the period formula's b and m vary freely"),
    ("partitions", 1, "tail exponent -1 has no finite head: pays the SplitFailed path"),
    ("overpartitions", 1, "the ratio rule can cancel everything: no head, INAPPLICABLE"),
    ("raw", 3, "hand-built products with plus factors and delta-supported tails"),
)

# One file in this many gets a delta that is not a power of the prime; most
# of them cannot split and so pay the INAPPLICABLE path.
OFF_PRIME_DELTA_EVERY = 5

# Published families, drawn in place of a random target in PUBLISHED_WEIGHT
# of every 21 files.  A random family is almost never true, so without these
# the PROVED path (and its spot check to twice the bound) would hardly be
# paid.  The 7- and 8-rowed ones are left to the proof ladder: their periods
# are not small.  Each entry: prime, exponent, delta, target, families.
PUBLISHED_WEIGHT = 5
PUBLISHED = (
    (2, 1, 2, ("plane_rowed", (2,)), (((1,), (0,)),)),
    (3, 1, 3, ("plane_rowed", (3,)), (((2,), ()), ((1,), (0,)))),
    (2, 1, 4, ("plane_rowed", (4,)), (((3,), ()), ((0,), (1,)), ((1,), (2,)))),
    (5, 1, 5, ("plane_rowed", (5,)), (((2,), (4,)), ((1,), (3,)))),
    (2, 2, 4, ("overplane_rowed", (4,)), (((1, 2, 3), ()),)),
    (3, 1, 3, ("maxpart", (2,)), (((1, 2), ()),)),
    (5, 1, 10, ("maxpart", (4,)), (((6, 7, 8), ()), ((2, 3, 4), ()))),
)

# Target and modulus slots cycle with coprime lengths (21 and 11), so a
# corpus of 231 files holds every pairing once.
TARGET_SLOTS = tuple(n for n, w, _ in TARGETS for _ in range(w)) + ("published",) * PUBLISHED_WEIGHT
MODULUS_SLOTS = tuple((p, e) for p, e, w, _ in MODULI for _ in range(w))
DEFAULT_COUNT = len(TARGET_SLOTS) * len(MODULUS_SLOTS)


@dataclass(frozen=True)
class MixInstance:
    """One generated instance file, and the same instance as plain data.

    target: (name, params) for named targets, ("multiset", ((value, mult), ...))
    or ("raw", factors) where factors is a tuple of
    ("binomial", sign, base, exponent) and ("tail", sign, scale, exponent, start).
    families: ((left residues), (right residues)); an empty right means "== 0".
    """

    name: str
    text: str
    prime: int
    exponent: int
    delta: int
    target: tuple
    families: tuple


# Parameters that set a file's cost (rows, part bounds, delta's power, the
# shape of a raw product, the number of families) come from `j`, the count of
# earlier files of the same target kind, so every corpus holds the same
# balanced spread of them.  The seed picks the rest: residues, part values,
# raw bases and exponents, and the file order.


def _delta(prime, off_prime, j):
    if off_prime:
        others = [d for d in (2, 3, 5, 6, 10, 12) if prime ** round(math.log(d, prime)) != d]
        return others[j % len(others)]
    top = 3 if prime == 2 else 2 if prime == 3 else 1
    return prime ** (1 + j % top)


def _target(rng, name, prime, exponent, delta, j):
    if name == "plane_rowed":
        rows = (0, 2, 3, 4, 5, 6 if prime < 5 else 4)[j % 6]
        if rows == 0:
            # delta divides the rows: the tail reduces onto multiples of delta
            rows = delta if delta <= 4 and prime ** 2 % delta == 0 else 2 + j % 3
        return (name, (rows,))
    if name == "overplane_rowed":
        return (name, (2 + j % 3,))
    if name == "maxpart":
        return (name, (2 + j % 6,))
    if name == "plane_box":
        return (name, (1 + j % 3, 1 + j // 3 % 3))
    if name == "multiset":
        values = rng.sample(range(1, 9), 1 + j % 4)
        return (name, tuple(sorted((v, rng.randint(1, 3)) for v in values)))
    if name in ("partitions", "overpartitions"):
        return (name, ())
    factors = []
    for base in rng.sample(range(1, 6), 1 + j % 3):
        factors.append(("binomial", -1, base, -rng.randint(1, 2)))
    for _ in range(j // 3 % 3):
        factors.append(("binomial", 1, rng.randint(1, 5), rng.choice((-2, -1, 1, 2, prime))))
    tail = j // 9 % 3
    if tail == 1:
        # bases on multiples of delta: B as it stands
        factors.append(("tail", rng.choice((-1, 1)), delta, rng.choice((-1, 1, -2)), 1))
    elif tail == 2:
        # (1-q^n)^(-prime^(N-1+k)) power-reduces onto multiples of prime^k;
        # it lands in B when delta = prime^k
        k = max(1, round(math.log(delta, prime)))
        exp = prime ** (exponent - 1 + k)
        factors.append(("tail", -1, 1, -exp if exp <= 16 else -1, rng.randint(1, 3)))
    rng.shuffle(factors)
    return ("raw", tuple(factors))


def _families(rng, delta, count):
    out = []
    for _ in range(count):
        picks = rng.sample(range(delta), min(delta, rng.randint(1, 4)))
        cut = rng.randint(1, len(picks))
        left, right = picks[:cut], picks[cut:]
        if rng.random() < 0.5:
            right = []
        out.append((tuple(sorted(left)), tuple(sorted(right))))
    return tuple(out)


def _factor_text(factor):
    if factor[0] == "binomial":
        _, sign, base, exponent = factor
        return f"(1{'+' if sign > 0 else '-'}q^{base})^{exponent}"
    _, sign, scale, exponent, start = factor
    base = "n" if scale == 1 else f"{scale}n"
    return f"tail((1{'+' if sign > 0 else '-'}q^{base})^{exponent}, from={start})"


def _target_text(target):
    name, params = target
    if name == "raw":
        return "raw: " + " ".join(_factor_text(f) for f in params)
    if name == "multiset":
        return "multiset(" + ",".join(f"{v}:{m}" if m > 1 else str(v) for v, m in params) + ")"
    if params:
        return f"{name}({','.join(str(p) for p in params)})"
    return name


def _family_text(left, right):
    lhs = "{" + ",".join(map(str, left)) + "}"
    return f"{lhs} == " + ("{" + ",".join(map(str, right)) + "}" if right else "0")


def generate(seed: int, count: int) -> list:
    """count instances, the same for the same seed."""
    rng = random.Random(seed)
    out = []
    seen = Counter()
    for i in range(count):
        name = TARGET_SLOTS[i % len(TARGET_SLOTS)]
        j = seen[name]
        seen[name] += 1
        if name == "published":
            prime, exponent, delta, target, families = PUBLISHED[j % len(PUBLISHED)]
            if j % 3 == 0:
                families = families + _families(rng, delta, 1)
        else:
            prime, exponent = MODULUS_SLOTS[i % len(MODULUS_SLOTS)]
            delta = _delta(prime, i % OFF_PRIME_DELTA_EVERY == 0, j)
            target = _target(rng, name, prime, exponent, delta, j)
            families = _families(rng, delta, 1 + j // 2 % 3)
        lines = [
            f"# instance-mix seed {seed} file {i}",
            f"prime = {prime}",
            f"exponent = {exponent}",
            f"delta = {delta}",
            f"target = {_target_text(target)}",
        ] + [f"family = {_family_text(l, r)}" for l, r in families]
        out.append(MixInstance(
            name=f"mix_{i:04d}.cfg",
            text="\n".join(lines) + "\n",
            prime=prime,
            exponent=exponent,
            delta=delta,
            target=target,
            families=families,
        ))
    return out


def write(instances, directory) -> list:
    """Write each instance file; returns their paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for inst in instances:
        path = os.path.join(directory, inst.name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inst.text)
        paths.append(path)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in write(generate(args.seed, args.count), args.out):
        print(path)


if __name__ == "__main__":
    main()
