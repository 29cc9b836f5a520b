"""Time `Plan.build` on the headline targets: k-rowed plane partitions mod
ell at delta = k, for k = ell^a in 27, 32, 49, 64, 81, 121, 125, 128.

Each k runs in a fresh Python process, so its peak RSS is its own.  For
each it prints K (the degree bound, the number of rows of A's head), the
seconds `Plan.build` takes, and the process's peak RSS, imports included.
The default `--max-rows 81` stops before the three largest targets, which
`--max-rows 128` adds.  On 2 vCPUs, over twelve fresh-process runs each,
they took:

    121-rowed mod 11   5.6-6.2 s    1.76 GB
    125-rowed mod 5   10.7-11.7 s   3.40 GB
    128-rowed mod 2    5.0-5.5 s    1.77 GB

Run from the repository root:

    python scripts/headline.py [--max-rows 81]
"""

import argparse
import os
import subprocess
import sys

# (k, ell): delta = k is a power of ell, and the modulus is ell itself.
TARGETS = ((27, 3), (32, 2), (49, 7), (64, 2), (81, 3), (121, 11), (125, 5), (128, 2))

CHILD = """
import resource, sys, time
from congcert.decompose import GFKind
from congcert.prover import Plan
from congcert.series import Modulus

k, prime = int(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
plan = Plan.build(GFKind.plane_rowed(k), Modulus(prime, 1), k)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(plan.degree_bound, f"{seconds:.2f}", f"{peak:.1f}")
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rows", type=int, default=81, dest="max_rows")
    args = parser.parse_args()
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    print(f"{'k-rowed':>8} {'mod':>4} {'delta':>6} {'K':>8} {'seconds':>8} {'peak MB':>8}")
    for k, prime in TARGETS:
        if k > args.max_rows:
            continue
        run = subprocess.run(
            [sys.executable, "-c", CHILD, str(k), str(prime)],
            env=env, capture_output=True, text=True, check=True,
        )
        rows, seconds, peak = run.stdout.split()
        print(f"{k:>8} {prime:>4} {k:>6} {int(rows):>8,} {seconds:>8} {peak:>8}")


if __name__ == "__main__":
    main()
