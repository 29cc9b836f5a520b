import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from congcert import (
    COUNTEREXAMPLE,
    INAPPLICABLE,
    PROVED,
    BinomialFactor,
    CongruenceFamily,
    GFKind,
    InvalidParameter,
    Modulus,
    PartMultiset,
    Plan,
    ProductSpec,
    SearchSpace,
    SplitFailed,
    TailFamily,
    certify,
    enumerate_candidates,
    kwong_period,
    spot_check,
)
from congcert.prover import _in_span, _row_generators
from _brute import span_closure

MOD2 = Modulus(2, 1)
MOD3 = Modulus(3, 1)
MOD4 = Modulus(2, 2)
MOD5 = Modulus(5, 1)
MOD7 = Modulus(7, 1)

# the full regression set of known-true families:
# (label, target, family, expected period, expected check bound)
KNOWN_FAMILIES = [
    ("pl2 {0}=={1} mod 2", GFKind.plane_rowed(2), CongruenceFamily(2, (1,), (0,), MOD2), 2, 1),
    ("pl3 {2}==0 mod 3", GFKind.plane_rowed(3), CongruenceFamily(3, (2,), (), MOD3), 6, 2),
    ("pl3 {0}=={1} mod 3", GFKind.plane_rowed(3), CongruenceFamily(3, (1,), (0,), MOD3), 6, 2),
    ("pl5 {2}=={4} mod 5", GFKind.plane_rowed(5), CongruenceFamily(5, (2,), (4,), MOD5), 300, 60),
    ("pl5 {1}=={3} mod 5", GFKind.plane_rowed(5), CongruenceFamily(5, (1,), (3,), MOD5), 300, 60),
    ("pl7 {2,3}=={4,5} mod 7", GFKind.plane_rowed(7), CongruenceFamily(7, (2, 3), (4, 5), MOD7), 2940, 420),
    ("pl4 {3}==0 mod 2", GFKind.plane_rowed(4), CongruenceFamily(4, (3,), (), MOD2), 12, 3),
    ("pl4 {0}=={1} mod 2", GFKind.plane_rowed(4), CongruenceFamily(4, (0,), (1,), MOD2), 12, 3),
    ("pl4 {1}=={2} mod 2", GFKind.plane_rowed(4), CongruenceFamily(4, (1,), (2,), MOD2), 12, 3),
    ("pl8 {0,1}=={3} mod 2", GFKind.plane_rowed(8), CongruenceFamily(8, (0, 1), (3,), MOD2), 3360, 420),
    ("pl8 {5}==0 mod 2", GFKind.plane_rowed(8), CongruenceFamily(8, (5,), (), MOD2), 3360, 420),
    ("pl8 {6}==0 mod 2", GFKind.plane_rowed(8), CongruenceFamily(8, (6,), (), MOD2), 3360, 420),
    ("pl8 {7}==0 mod 2", GFKind.plane_rowed(8), CongruenceFamily(8, (7,), (), MOD2), 3360, 420),
    ("pl9 {1}=={8} mod 3", GFKind.plane_rowed(9), CongruenceFamily(9, (1,), (8,), MOD3), 22680, 2520),
    ("ovpl4 {1,2,3}==0 mod 4", GFKind.overplane_rowed(4), CongruenceFamily(4, (1, 2, 3), (), MOD4), 96, 24),
    ("maxpart2 {1,2}==0 mod 3", GFKind.maxpart(2), CongruenceFamily(3, (1, 2), (), MOD3), 6, 2),
    ("maxpart4 {6,7,8}==0 mod 5", GFKind.maxpart(4), CongruenceFamily(10, (6, 7, 8), (), MOD5), 60, 6),
    ("maxpart4 {2,3,4}==0 mod 5", GFKind.maxpart(4), CongruenceFamily(10, (2, 3, 4), (), MOD5), 60, 6),
]


class TestFamilyCanonicalization:
    def test_sorted_and_oriented(self):
        fam = CongruenceFamily(5, (4, 2), (3, 1), MOD5)
        assert fam.left == (1, 3) and fam.right == (2, 4)

    def test_common_residues_cancel(self):
        fam = CongruenceFamily(4, (1, 2, 2), (2, 3), MOD4)
        assert fam.left == (1, 2) and fam.right == (3,)

    def test_zero_right_stays_right(self):
        fam = CongruenceFamily(3, (2,), (), MOD3)
        assert fam.left == (2,) and fam.right == ()
        assert str(fam) == "{2} == 0"

    def test_rejects_out_of_range_residue(self):
        with pytest.raises(InvalidParameter):
            CongruenceFamily(3, (5,), (2,), MOD3)

    def test_rejects_fully_cancelled(self):
        with pytest.raises(InvalidParameter):
            CongruenceFamily(3, (1,), (1,), MOD3)

    @staticmethod
    def reference(delta, left, right):
        """Canonical (left, right) by sorting, multiset cancellation and the
        side swap, or the InvalidParameter message."""
        left, right = sorted(left), sorted(right)
        for r in left + right:
            if not 0 <= r < delta:
                return f"residue {r} outside [0, {delta})"
        cl, cr = Counter(left), Counter(right)
        common = cl & cr
        left, right = sorted((cl - common).elements()), sorted((cr - common).elements())
        if not left and not right:
            return "family is trivial after cancellation"
        if right and (not left or right < left):
            left, right = right, left
        return tuple(left), tuple(right)

    def test_matches_sort_cancel_swap_reference(self):
        rng = random.Random(20261018)
        outcomes = Counter()
        for _ in range(20000):
            delta = rng.randint(1, 9)
            # mostly in range; now and then one residue just outside it
            low, high = (-2, delta + 1) if rng.random() < 0.1 else (0, delta - 1)
            left = [rng.randint(low, high) for _ in range(rng.randint(0, 5))]
            right = [rng.randint(low, high) for _ in range(rng.randint(0, 5))]
            want = self.reference(delta, left, right)
            try:
                fam = CongruenceFamily(delta, tuple(left), tuple(right), MOD3)
            except InvalidParameter as exc:
                assert str(exc) == want, (delta, left, right)
                outcomes[want.split()[0]] += 1
                continue
            assert (fam.left, fam.right) == want, (delta, left, right)
            counts = [0] * delta
            for r in want[0]:
                counts[r] += 1
            for r in want[1]:
                counts[r] -= 1
            assert fam.weights() == tuple(counts)
            assert fam == CongruenceFamily(delta, fam.left, fam.right, MOD3)
            outcomes["ok"] += 1
        # every branch is exercised
        assert min(outcomes["ok"], outcomes["residue"], outcomes["family"]) > 500, outcomes


class TestCertifyRegressions:
    @pytest.mark.parametrize(
        "label,target,family,period,bound",
        KNOWN_FAMILIES,
        ids=[k[0] for k in KNOWN_FAMILIES],
    )
    def test_known_family_proved(self, label, target, family, period, bound):
        cert = certify(target, family)
        assert cert.status == PROVED, cert
        assert cert.period_used == period
        assert cert.check_bound == bound

    def test_counterexamples_on_two_rowed(self):
        for left in ((0,), (1,)):
            cert = certify(GFKind.plane_rowed(2), CongruenceFamily(2, left, (), MOD2))
            assert cert.status == COUNTEREXAMPLE
            assert cert.witness == (0, 1, 0)

    def test_two_rowed_candidate_triple(self):
        # exactly one of the three size-two candidates survives
        outcomes = {}
        for fam in [
            CongruenceFamily(2, (0,), (), MOD2),
            CongruenceFamily(2, (1,), (), MOD2),
            CongruenceFamily(2, (0,), (1,), MOD2),
        ]:
            outcomes[str(fam)] = certify(GFKind.plane_rowed(2), fam).status
        assert outcomes == {
            "{0} == 0": COUNTEREXAMPLE,
            "{1} == 0": COUNTEREXAMPLE,
            "{0} == {1}": PROVED,
        }

    def test_inapplicable_targets(self):
        cert = certify(GFKind.plane(), CongruenceFamily(2, (0,), (), MOD2))
        assert cert.status == INAPPLICABLE
        assert cert.reason and "SplitFailed" in cert.reason
        cert = certify(GFKind.overpartitions(), CongruenceFamily(3, (1,), (), MOD3))
        assert cert.status == INAPPLICABLE

    def test_head_multisets_recorded(self):
        cert = certify(GFKind.plane_rowed(4), CongruenceFamily(4, (3,), (), MOD2))
        assert cert.a_multiset == PartMultiset.parse("1,3:3")
        cert = certify(GFKind.overplane_rowed(4), CongruenceFamily(4, (1, 2, 3), (), MOD4))
        assert cert.a_multiset == PartMultiset.parse("1:2,2:3,3:6,6")

    def test_rowed_prime_targets_use_head_periods(self):
        # check bound comes from the head multiset {n^n : n < ell}
        for ell, bound in ((2, 1), (3, 2), (5, 60), (7, 420)):
            fam = (
                CongruenceFamily(ell, (1,), (0,), Modulus(ell, 1))
                if ell > 2
                else CongruenceFamily(2, (1,), (0,), MOD2)
            )
            cert = certify(GFKind.plane_rowed(ell), fam)
            head = PartMultiset.from_values([n for n in range(1, ell) for _ in range(n)])
            assert cert.a_multiset == head
            assert cert.check_bound == bound

    def test_certify_is_deterministic(self):
        target = GFKind.plane_rowed(8)
        fam = CongruenceFamily(8, (0, 1), (3,), MOD2)
        assert certify(target, fam) == certify(target, fam)


class TestSpotCheck:
    def test_five_rowed_far_beyond_bound(self):
        r = spot_check(GFKind.plane_rowed(5), CongruenceFamily(5, (2,), (4,), MOD5), 2000)
        assert r.ok

    def test_nine_rowed_far_beyond_bound(self):
        r = spot_check(GFKind.plane_rowed(9), CongruenceFamily(9, (1,), (8,), MOD3), 3000)
        assert r.ok

    def test_false_family_fails_immediately(self):
        r = spot_check(GFKind.plane_rowed(2), CongruenceFamily(2, (1,), (), MOD2), 10)
        assert r.failure == (0, 1, 0)


class TestSoundnessDrill:
    @pytest.mark.parametrize(
        "label,target,family,period,bound",
        KNOWN_FAMILIES,
        ids=[k[0] for k in KNOWN_FAMILIES],
    )
    def test_proved_families_hold_to_five_times_bound(self, label, target, family, period, bound):
        cert = certify(target, family)
        assert cert.status == PROVED
        drill = spot_check(target, family, 5 * cert.check_bound)
        assert drill.ok, drill.failure


# Positive powers of degree past the split's validation length, whose
# reduction lands on delta multiples: (target, modulus, delta, head, degree
# bound, reason, [(left, right, status, witness)]).
PAST_VALIDATION_LENGTH = [
    (
        ProductSpec((BinomialFactor(1, 1, 2000), BinomialFactor(-1, 1, -1))), MOD2, 2, "1", 1,
        None,
        [
            ((0,), (), COUNTEREXAMPLE, (0, 1, 0)),
            ((1,), (), COUNTEREXAMPLE, (0, 1, 0)),
            ((0,), (1,), PROVED, None),
        ],
    ),
    (
        ProductSpec((BinomialFactor(-1, 1, 10**30), BinomialFactor(-1, 2, -1))), MOD2, 2, None,
        None, "SplitFailed: no periodic head: every factor is delta-supported",
        [((0,), (1,), INAPPLICABLE, None)],
    ),
    (
        ProductSpec((BinomialFactor(1, 3, 1000), BinomialFactor(-1, 1, -2))), MOD4, 4, "1:2", 2,
        None,
        [
            ((0,), (), COUNTEREXAMPLE, (0, 1, 0)),
            ((3,), (), PROVED, None),
            ((0,), (1,), COUNTEREXAMPLE, (0, 1, 2)),
            ((0,), (2,), COUNTEREXAMPLE, (0, 1, 3)),
        ],
    ),
]


@pytest.mark.parametrize(
    "spec,modulus,delta,head,degree_bound,reason,families",
    PAST_VALIDATION_LENGTH,
    ids=["plus-2000-mod2", "minus-1e30-mod2", "plus-1000-mod4"],
)
def test_positive_power_has_no_length_limit(spec, modulus, delta, head, degree_bound, reason, families):
    # power-reduce takes a positive power to B whatever its degree, and every
    # verdict agrees with the direct check to n = 50
    target = GFKind.from_raw(spec)
    for left, right, status, witness in families:
        family = CongruenceFamily(delta, left, right, modulus)
        cert = certify(target, family)
        assert (cert.status, cert.witness, cert.reason) == (status, witness, reason)
        got_head = None if cert.a_multiset is None else str(cert.a_multiset)
        assert (got_head, cert.degree_bound) == (head, degree_bound)
        if status != INAPPLICABLE:
            assert spot_check(target, family, 50).failure == witness


def _raw_target(rng, modulus, delta):
    """A raw product of 1-4 binomials of either sign, sometimes times one
    constant-exponent tail, with bases and exponents drawn near the shapes
    the split rewrites: bases on delta*Z, exponents +-ell^N and -ell."""
    ell, q = modulus.prime, modulus.value
    exponents = (1, -1, 2, -2, -3, q, -q, -ell, 2 * q)

    def base():
        return rng.choice((rng.randint(1, 12), delta * rng.randint(1, 3)))

    factors = [
        BinomialFactor(rng.choice((1, -1)), base(), rng.choice(exponents))
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.5:
        scale = rng.choice((1, 2, delta))
        factors.append(
            TailFamily(
                sign=rng.choice((1, -1)),
                start=rng.randint(1, 4),
                exp_offset=rng.choice(exponents),
                scale=scale,
                offset=rng.choice((0, scale, 1)),
            )
        )
    return GFKind.from_raw(ProductSpec(tuple(factors)))


class TestRawTargetAgreement:
    """Verdicts read on A agree with G itself on seeded random raw products:
    a proof holds on G to three times the check rows, and a counterexample's
    witness is G's first failure, for every family of at most 3 terms."""

    MODULI = [Modulus(2, 1), Modulus(2, 2), Modulus(2, 3), MOD3, Modulus(3, 2), MOD5, MOD7]
    TARGETS = 40

    def test_verdicts_match_spot_check(self):
        rng = random.Random(16)
        statuses = Counter()
        targets = 0
        while targets < self.TARGETS:
            modulus = rng.choice(self.MODULI)
            ell = modulus.prime
            delta = rng.choice((ell, modulus.value, 2 * ell))
            target = _raw_target(rng, modulus, delta)
            try:
                plan = Plan.build(target, modulus, delta)
            except SplitFailed:
                continue
            if len(plan.head) > 400:
                continue
            targets += 1
            n_max = 3 * len(plan.head) + 5
            for family in enumerate_candidates(SearchSpace(target, modulus, delta, 3)):
                cert = plan.check(family)
                failure = spot_check(target, family, n_max).failure
                want = failure is None if cert.status == PROVED else cert.witness == failure
                assert want, (str(target), str(family), modulus, cert.witness, failure)
                statuses[cert.status] += 1
        assert set(statuses) == {PROVED, COUNTEREXAMPLE}


def _split_target(rng, modulus, delta):
    """A raw product that splits by construction, its factors shuffled:
    - a head of 1-3 parts (1-q^b)^-e, b off delta*Z and e in {1, 2, 3} prime
      to ell, so power-reduce leaves every part in the head;
    - a B of 0-3 factors on delta*Z: binomials of either sign, and
      constant-exponent tails whose scale and offset are multiples of delta;
    - disguises off the head's bases, which the split must undo:
      (1-q^b)^-(ell^N) with ell*b in delta*Z (`frobenius_step` run
      backwards), and (1+q^b)^e with e > 0 and 2b in delta*Z."""
    ell = modulus.prime
    head_bases = rng.sample([b for b in range(1, 13) if b % delta], rng.randint(1, 3))
    exponents = [e for e in (1, 2, 3) if e % ell]
    factors = [BinomialFactor(-1, b, -rng.choice(exponents)) for b in head_bases]
    for _ in range(rng.randint(0, 3)):
        sign, scale = rng.choice((1, -1)), delta * rng.randint(1, 3)
        if rng.random() < 0.5:
            factors.append(BinomialFactor(sign, scale, rng.choice((-3, -2, -1, 1, 2, 3))))
        else:
            exponent = rng.choice((-2, -1, 1, 2))
            offset = rng.choice((0, delta))
            tail = TailFamily(sign=sign, start=1, exp_offset=exponent, scale=scale, offset=offset)
            factors.append(tail)
    step = delta // ell
    frobenius = [b for b in range(step, 4 * delta, step) if b % delta and b not in head_bases]
    if frobenius and rng.random() < 0.5:
        factors.append(BinomialFactor(-1, rng.choice(frobenius), -modulus.value))
    step = delta // 2 if delta % 2 == 0 else delta
    plus = [b for b in range(step, 4 * delta, step) if b not in head_bases]
    if rng.random() < 0.5:
        factors.append(BinomialFactor(1, rng.choice(plus), rng.randint(1, 3)))
    rng.shuffle(factors)
    return GFKind.from_raw(ProductSpec(tuple(factors)))


def _random_family(rng, modulus, delta):
    """A family of at most 3 terms, its two sides disjoint."""
    left = [rng.randrange(delta) for _ in range(rng.randint(1, 2))]
    right = [rng.randrange(delta) for _ in range(rng.randint(0, 3 - len(left)))]
    return CongruenceFamily(delta, tuple(left), tuple(r for r in right if r not in left), modulus)


class TestSplitByConstruction:
    """Seeded targets that split by construction: `Plan.build` succeeds on
    every one, and each verdict read on A agrees with `spot_check` on G to
    three times the head's rows."""

    MODULI = [Modulus(2, 1), Modulus(2, 2), Modulus(2, 3), MOD3, Modulus(3, 2), MOD5, MOD7]
    TARGETS = 300
    FAMILIES = 20

    def test_every_target_splits_and_agrees_with_g(self):
        rng = random.Random(17)
        statuses, rules = Counter(), set()
        for _ in range(self.TARGETS):
            modulus = rng.choice(self.MODULI)
            ell = modulus.prime
            delta = rng.choice((ell, modulus.value, 2 * ell, ell * ell))
            target = _split_target(rng, modulus, delta)
            plan = Plan.build(target, modulus, delta)
            rules.update(step.split(":")[0] for step in plan.decomposition.derivation)
            n_max = 3 * len(plan.head) + 5
            for _ in range(self.FAMILIES):
                family = _random_family(rng, modulus, delta)
                cert = plan.check(family)
                failure = spot_check(target, family, n_max).failure
                want = failure is None if cert.status == PROVED else cert.witness == failure
                assert want, (str(target), str(family), modulus, cert.witness, failure)
                statuses[cert.status] += 1
        assert set(statuses) == {PROVED, COUNTEREXAMPLE}
        assert {"power-reduce", "plus-to-minus"} <= rules


class TestPeriodConsistency:
    def test_certificate_period_is_head_period_lifted_to_delta(self):
        import math

        for label, target, family, period, bound in KNOWN_FAMILIES:
            cert = certify(target, family)
            head = kwong_period(
                cert.a_multiset, family.modulus.prime, family.modulus.exponent
            )
            assert cert.period_used == math.lcm(head.period, family.delta), label
            assert cert.period_used == family.delta * cert.check_bound, label


class TestHowellMembership:
    """`_row_generators` returns a Howell basis of its rows' module over Z/m,
    and `_in_span` decides membership in it exactly, as brute-force closure
    does, on seeded random modules whose rows are biased towards non-unit
    entries."""

    @pytest.mark.parametrize("prime,exponent", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
    def test_membership_matches_closure(self, prime, exponent):
        m = prime**exponent
        rng = random.Random(m)
        widest = max(w for w in range(1, 5) if m**w <= 4096)
        for _ in range(60):
            width = rng.randint(1, widest)
            rows = [
                [rng.randrange(m) * prime ** rng.randint(0, exponent) % m for _ in range(width)]
                for _ in range(rng.randint(1, width + 1))
            ]
            basis = _row_generators(np.array(rows, dtype=np.int64), m)
            span = span_closure(rows, m, width)
            assert span_closure(basis, m, width) == span
            pivots = [int(np.flatnonzero(row)[0]) for row in basis]
            assert pivots == sorted(set(pivots))
            vectors = list(product(range(m), repeat=width))
            inside = _in_span(np.array(vectors, dtype=np.int64), basis, m)
            assert inside.tolist() == [v in span for v in vectors], rows
