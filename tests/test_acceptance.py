"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  Tolerances are exact integer equality throughout; runtime
bounds are asserted with the wall clock."""

import io
import random
import time

import numpy as np

from congcert import (
    COUNTEREXAMPLE,
    PROVED,
    CongruenceFamily,
    GFKind,
    Modulus,
    PartMultiset,
    SearchSpace,
    build_spec,
    certify,
    count_overpartitions,
    count_partitions,
    count_partitions_multiset,
    count_plane_overpartitions_rowed,
    count_plane_partitions,
    count_plane_partitions_rowed,
    empirical_min_period,
    enumerate_candidates,
    kwong_period,
    search_certified,
    series_from_spec,
    series_mul,
    spot_check,
    verify_period_prefix,
)
from congcert.cli import run_command
from congcert.series import _inverse

MOD2 = Modulus(2, 1)
MOD3 = Modulus(3, 1)
MOD4 = Modulus(2, 2)
MOD5 = Modulus(5, 1)
MOD7 = Modulus(7, 1)
BIG = Modulus(1000000007, 1)


class _Timer:
    def __init__(self, label, budget):
        self.label, self.budget = label, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"\nACCEPTANCE {self.label}: FAIL")
            return False
        assert self.elapsed < self.budget, f"{self.label} exceeded {self.budget}s"
        print(f"\nACCEPTANCE {self.label}: PASS ({self.elapsed:.2f}s, budget {self.budget}s)")
        return False


def test_criterion_1_period_worked_example():
    with _Timer("1 (worked period example)", 1.0):
        buf = io.StringIO()
        code = run_command(
            ["period", "--multiset", "1,3:2,4:3", "--prime", "3", "--power", "1"], out=buf
        )
        assert code == 0 and buf.getvalue().splitlines()[0] == "108"
        multiset = PartMultiset.parse("1,3:2,4:3")
        info = kwong_period(multiset, 3, 1)
        assert info.period == 108
        series = series_from_spec(multiset.to_product_spec(), MOD3, 324)
        assert empirical_min_period(series, 108, window=3) == 108


def test_criterion_2_prime_rowed_regressions():
    cases = [
        (GFKind.plane_rowed(2), CongruenceFamily(2, (1,), (0,), MOD2), 2),
        (GFKind.plane_rowed(3), CongruenceFamily(3, (2,), (), MOD3), 3),
        (GFKind.plane_rowed(3), CongruenceFamily(3, (1,), (0,), MOD3), 3),
        (GFKind.plane_rowed(5), CongruenceFamily(5, (2,), (4,), MOD5), 5),
        (GFKind.plane_rowed(5), CongruenceFamily(5, (1,), (3,), MOD5), 5),
        (GFKind.plane_rowed(7), CongruenceFamily(7, (2, 3), (4, 5), MOD7), 7),
    ]
    head_periods = {2: 1, 3: 6, 5: 300, 7: 2940}
    with _Timer("2 (prime-rowed regressions + drills)", 30.0):
        for target, family, ell in cases:
            cert = certify(target, family)
            assert cert.status == PROVED, str(family)
            head = PartMultiset.from_values(
                [n for n in range(1, ell) for _ in range(n)]
            )
            assert cert.a_multiset == head, str(family)
            assert kwong_period(head, ell, 1).period == head_periods[ell]
            assert cert.check_bound == max(1, head_periods[ell] // ell)
            drill = spot_check(target, family, 5 * cert.check_bound)
            assert drill.ok, (str(family), drill.failure)


def test_criterion_3_prime_power_rowed_regressions():
    with _Timer("3 (prime-power rowed regressions)", 60.0):
        for left, right in (((3,), ()), ((0,), (1,)), ((1,), (2,))):
            cert = certify(GFKind.plane_rowed(4), CongruenceFamily(4, left, right, MOD2))
            assert cert.status == PROVED
            assert cert.a_multiset == PartMultiset.parse("1,3:3")
            assert cert.period_used == 12 and cert.check_bound == 3
        for left, right in (((0, 1), (3,)), ((5,), ()), ((6,), ()), ((7,), ())):
            cert = certify(GFKind.plane_rowed(8), CongruenceFamily(8, left, right, MOD2))
            assert cert.status == PROVED
            assert cert.period_used == 2**5 * 105 == 3360
            assert cert.check_bound == 420
        cert = certify(GFKind.plane_rowed(9), CongruenceFamily(9, (1,), (8,), MOD3))
        assert cert.status == PROVED
        assert cert.period_used == 3**4 * 280 == 22680
        assert cert.check_bound == 2520


def test_criterion_4_overplane_regression():
    with _Timer("4 (overplane mod 4 regression)", 30.0):
        family = CongruenceFamily(4, (1, 2, 3), (), MOD4)
        cert = certify(GFKind.overplane_rowed(4), family)
        assert cert.status == PROVED
        assert cert.a_multiset == PartMultiset.parse("1:2,2:3,3:6,6")
        assert cert.period_used == 96 and cert.check_bound == 24
        drill = spot_check(GFKind.overplane_rowed(4), family, 500)
        assert drill.ok, drill.failure


TABLE_FIRST = [[4, 1, 0], [4, 2, 4], [1, 0, 4], [3, 1, 1], [0, 2, 3], [0, 0, 0]]
TABLE_SECOND = [[2, 3, 0], [4, 4, 2], [1, 0, 4], [1, 3, 1], [0, 4, 1], [0, 0, 0]]


def test_criterion_5_bounded_part_regressions(tmp_path):
    with _Timer("5 (bounded-part regressions + tables)", 30.0):
        cert = certify(GFKind.maxpart(2), CongruenceFamily(3, (1, 2), (), MOD3))
        assert cert.status == PROVED
        assert cert.period_used == 6 and cert.check_bound == 2
        for residues in ((6, 7, 8), (2, 3, 4)):
            cert = certify(GFKind.maxpart(4), CongruenceFamily(10, residues, (), MOD5))
            assert cert.status == PROVED
            assert cert.period_used == 60 and cert.check_bound == 6

        instance = tmp_path / "bounded.cfg"
        instance.write_text(
            "prime = 5\nexponent = 1\ndelta = 10\ntarget = maxpart(4)\n"
            "family = {6,7,8} == 0\nfamily = {2,3,4} == 0\n"
        )
        buf = io.StringIO()
        code = run_command(["table", "--instance", str(instance), "--rows", "6"], out=buf)
        assert code == 0
        grids, current = [], None
        for line in buf.getvalue().splitlines():
            if line.startswith("family"):
                current = []
                grids.append(current)
            elif current is not None and line.strip() and not line.strip().startswith("n "):
                current.append([int(tok) for tok in line.split()][1:])
        assert grids == [TABLE_FIRST, TABLE_SECOND]
        assert sum(len(row) for grid in grids for row in grid) == 36


def test_criterion_6_search_reproduction():
    with _Timer("6 (two-rowed search reproduction)", 10.0):
        space = SearchSpace(GFKind.plane_rowed(2), MOD2, 2, 2)
        candidates = enumerate_candidates(space)
        assert len(candidates) == 3
        outcomes = {str(f): certify(space.target, f).status for f in candidates}
        assert outcomes == {
            "{0} == 0": COUNTEREXAMPLE,
            "{1} == 0": COUNTEREXAMPLE,
            "{0} == {1}": PROVED,
        }
        certs = search_certified(space)
        assert [str(c.family) for c in certs] == ["{0} == {1}"]


def test_criterion_7_oracle_equivalence():
    with _Timer("7 (oracle equivalence suite)", 60.0):
        assert count_partitions(5) == 7
        labelled = PartMultiset.from_values([1, 1, 2, 2, 2, 3])
        assert count_partitions_multiset(2, labelled) == 6
        assert count_plane_partitions(3) == 6
        assert count_overpartitions(4) == 14
        assert count_plane_overpartitions_rowed(3, 3) == 16

        series = series_from_spec(build_spec(GFKind.partitions()), BIG, 26)
        for n in range(26):
            assert series[n] == count_partitions(n)
        series = series_from_spec(build_spec(GFKind.from_multiset(labelled)), BIG, 26)
        for n in range(26):
            assert series[n] == count_partitions_multiset(n, labelled)
        series = series_from_spec(build_spec(GFKind.plane()), BIG, 26)
        for n in range(26):
            assert series[n] == count_plane_partitions(n)
        series = series_from_spec(build_spec(GFKind.overpartitions()), BIG, 13)
        for n in range(13):
            assert series[n] == count_overpartitions(n)
        for rows in (1, 2, 3, 4, 5):
            series = series_from_spec(build_spec(GFKind.plane_rowed(rows)), BIG, 26)
            for n in range(26):
                assert series[n] == count_plane_partitions_rowed(n, rows)
        for rows in (1, 2, 3, 4):
            series = series_from_spec(build_spec(GFKind.overplane_rowed(rows)), BIG, 11)
            for n in range(11):
                assert series[n] == count_plane_overpartitions_rowed(n, rows)


def test_criterion_8_property_suites():
    with _Timer("8 (randomized property suites)", 120.0):
        # periodicity round trip on 50 random multisets
        rng = random.Random(424242)
        checked = 0
        while checked < 50:
            pairs = [
                (rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))
            ]
            multiset = PartMultiset(tuple(pairs))
            ell = rng.choice([2, 3, 5])
            exponent = rng.choice([1, 2])
            if exponent > 1 and multiset.total() < 2:
                # a one-element multiset counts with an indicator sequence, so
                # its minimal period cannot grow with the modulus exponent and
                # the closed formula is only an upper period there
                continue
            info = kwong_period(multiset, ell, exponent)
            if 5 * info.period > 300_000:
                continue
            modulus = Modulus(ell, exponent)
            series = series_from_spec(
                multiset.to_product_spec(), modulus, 5 * info.period
            )
            assert verify_period_prefix(series, info.period, 5 * info.period)
            assert empirical_min_period(series, info.period, window=5) == info.period
            checked += 1

        # ring axioms and inverses on 200 random series
        rng = random.Random(31337)
        moduli = [MOD2, MOD3, MOD4, MOD5, Modulus(2, 3), Modulus(3, 2), Modulus(7, 2)]
        for _ in range(200):
            modulus = rng.choice(moduli)
            n = rng.randint(1, 24)
            m = modulus.value
            a, b, c = (np.array([rng.randrange(m) for _ in range(n)]) for _ in range(3))
            assert np.array_equal(series_mul(a, b, modulus), series_mul(b, a, modulus))
            assert np.array_equal(
                series_mul(series_mul(a, b, modulus), c, modulus),
                series_mul(a, series_mul(b, c, modulus), modulus),
            )
            assert np.array_equal(
                series_mul(a, (b + c) % m, modulus),
                (series_mul(a, b, modulus) + series_mul(a, c, modulus)) % m,
            )
            units = [u for u in range(1, modulus.value) if _coprime(u, modulus.value)]
            coeffs = [rng.randrange(modulus.value) for _ in range(n)]
            coeffs[0] = rng.choice(units)
            u = np.array(coeffs)
            unit = np.zeros(n, dtype=np.int64)
            unit[0] = 1
            assert np.array_equal(series_mul(u, _inverse(u, n, m), modulus), unit)


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1
