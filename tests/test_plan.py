"""The family check on the periodic head A, through a shared Plan, against a
check on the full product G written here; the degree bound that sizes the
head; and the guard on witnesses."""

import dataclasses
import math
import os

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
    RuleValidationFailed,
    SearchSpace,
    SplitFailed,
    build_spec,
    certify,
    certify_all,
    decompose,
    default_validation_length,
    enumerate_candidates,
    kwong_period,
    prover,
    search_certified,
    series_from_spec,
    split_AB,
)

MOD2 = Modulus(2, 1)
MODULI = (MOD2, Modulus(3, 1), Modulus(2, 2), Modulus(5, 1), Modulus(7, 1))
# rowed plane partitions at every modulus, with delta = ell and delta = ell^N
SPACES = [
    (rows, modulus, delta)
    for rows in range(2, 10)
    for modulus in MODULI
    for delta in sorted({modulus.prime, modulus.value})
]


def g_verdicts(target, modulus, delta, families):
    """(period, {family: (status, witness)}) from G expanded over the whole
    period, or None when the target does not split at this delta."""
    spec = build_spec(target)
    try:
        dec = split_AB(spec, modulus, delta)
    except SplitFailed:
        return None
    head_period = kwong_period(dec.a_multiset, modulus.prime, modulus.exponent).period
    period = math.lcm(head_period, delta)
    grid = series_from_spec(spec, modulus, period).reshape(-1, delta)
    verdicts = {}
    for fam in families:
        left = grid[:, list(fam.left)].sum(axis=1) % modulus.value
        right = grid[:, list(fam.right)].sum(axis=1) % modulus.value
        bad = np.flatnonzero(left != right)
        if bad.size:
            n = int(bad[0])
            verdicts[fam] = (COUNTEREXAMPLE, (n, int(left[n]), int(right[n])))
        else:
            verdicts[fam] = (PROVED, None)
    return period, verdicts


class TestHeadCheckAgainstG:
    def test_rowed_spaces_agree(self):
        total = applicable = 0
        for rows, modulus, delta in SPACES:
            target = GFKind.plane_rowed(rows)
            families = enumerate_candidates(SearchSpace(target, modulus, delta, 3))
            reference = g_verdicts(target, modulus, delta, families)
            total += len(families)
            if reference is None:
                assert {c.status for c in certify_all(target, families)} == {INAPPLICABLE}
                continue
            applicable += len(families)
            plan = Plan.build(target, modulus, delta)
            period, verdicts = reference
            assert plan.period == period
            for fam in families:
                cert = plan.check(fam)
                got = (cert.status, cert.witness)
                assert got == verdicts[fam], (rows, str(modulus), delta, str(fam))
        assert (total, applicable) == (2912, 438)

    def test_eleven_rowed_mod_eleven(self):
        # head {n^n : n < 11}: period 11^2 * lcm(1..10), and the 11-rowed
        # plane partitions of 0 number 1
        fam = CongruenceFamily(11, (0,), (), Modulus(11, 1))
        cert = certify(GFKind.plane_rowed(11), fam)
        assert cert.status == COUNTEREXAMPLE
        assert cert.witness == (0, 1, 0)
        assert (cert.period_used, cert.check_bound) == (304_920, 27_720)


class TestPlanReuse:
    def test_one_plan_matches_certify(self):
        target = GFKind.plane_rowed(8)
        plan = Plan.build(target, MOD2, 8)
        for left, right in (((0, 1), (3,)), ((5,), ()), ((1,), ())):
            fam = CongruenceFamily(8, left, right, MOD2)
            assert plan.check(fam) == certify(target, fam)

    def test_certify_all_shares_one_plan(self):
        target = GFKind.plane_rowed(8)
        sides = (((0, 1), (3,)), ((5,), ()), ((1,), ()))
        families = [CongruenceFamily(8, left, right, MOD2) for left, right in sides]
        assert certify_all(target, families) == [certify(target, f) for f in families]
        assert certify_all(target, []) == []

    @pytest.mark.parametrize(
        "target,status", [(GFKind.plane_rowed(2), PROVED), (GFKind.overpartitions(), INAPPLICABLE)]
    )
    def test_certify_all_rejects_mixed_families(self, target, status):
        # raised whether or not the target splits at mod 2, delta 2
        families = [CongruenceFamily(2, (0,), (1,), modulus) for modulus in (MOD2, Modulus(2, 2))]
        assert certify_all(target, families[:1])[0].status == status
        with pytest.raises(InvalidParameter):
            certify_all(target, families)

    def test_family_of_another_delta_rejected(self):
        plan = Plan.build(GFKind.plane_rowed(4), MOD2, 4)
        with pytest.raises(InvalidParameter):
            plan.check(CongruenceFamily(2, (0,), (1,), MOD2))

    def test_search_takes_given_candidates(self):
        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 2)
        some = enumerate_candidates(space)[::2]
        got = [c.family for c in search_certified(space, candidates=some)]
        assert got == [c.family for c in search_certified(space) if c.family in some]


def _without_factor(spec, dropped):
    # A for 8-rowed mod 2 is (1-q)^-1 (1-q^2)^-2 ... (1-q^7)^-7 without
    # (1-q^4)^-4; without one more factor A*B is no longer G
    factors = spec.factors
    assert len(factors) == 6
    return ProductSpec(factors[:dropped] + factors[dropped + 1:])


class TestWitnessGuard:
    @pytest.mark.parametrize("dropped", range(6))
    def test_head_missing_a_factor_raises(self, monkeypatch, dropped):
        # Plan.build checks A*B = G on the A that gives the head, so a wrong
        # A fails there, before any verdict
        real_split = prover.split_AB

        def broken_split(*args, **kwargs):
            dec = real_split(*args, **kwargs)
            return dataclasses.replace(dec, a_spec=_without_factor(dec.a_spec, dropped))

        monkeypatch.setattr(prover, "split_AB", broken_split)
        with pytest.raises(RuleValidationFailed, match="^A\\*B differs"):
            certify(GFKind.plane_rowed(8), CongruenceFamily(8, (5,), (), MOD2))

    @pytest.mark.parametrize("dropped", range(6))
    def test_head_of_another_product_fails_the_witness_check(self, dropped):
        # a head that passed no A*B check: the witness guard on G still
        # refuses the verdict
        plan = Plan.build(GFKind.plane_rowed(8), MOD2, 8)
        rows = plan.head.shape[0]
        wrong_a = _without_factor(plan.decomposition.a_spec, dropped)
        wrong = series_from_spec(wrong_a, MOD2, 8 * rows)
        plan = dataclasses.replace(plan, head=wrong.reshape(rows, 8))
        with pytest.raises(RuleValidationFailed, match="witness check"):
            plan.check(CongruenceFamily(8, (5,), (), MOD2))


class TestGuardFailures:
    """A failed guard of the split is an error, never a verdict: library
    callers get RuleValidationFailed, and the CLI exits 2 and prints no
    certificate."""

    def test_b_support_check(self, monkeypatch, capsys):
        from congcert.cli import run_command

        monkeypatch.setattr(prover, "validate_B_certificate", lambda *args: False)
        message = "B fails the numeric support check below 500"
        with pytest.raises(RuleValidationFailed, match="^" + message + "$"):
            certify(GFKind.plane_rowed(4), CongruenceFamily(4, (3,), (), MOD2))
        path = os.path.join(INSTANCE_DIR, "four_rowed_mod2.cfg")
        assert run_command(["certify", "--instance", path, "--json"]) == 2
        assert capsys.readouterr() == ("", f"error: RuleValidationFailed: {message}\n")

    @pytest.mark.parametrize("dropped", range(6))
    def test_a_times_b_names_its_first_difference(self, monkeypatch, dropped):
        # no step guard names a failing stage any more: the A*B check names
        # the first power of q where the two sides differ, and L
        real_split = prover.split_AB

        def broken_split(*args, **kwargs):
            dec = real_split(*args, **kwargs)
            return dataclasses.replace(dec, a_spec=_without_factor(dec.a_spec, dropped))

        dec = real_split(build_spec(GFKind.plane_rowed(8)), MOD2, 8)
        wrong_a = _without_factor(dec.a_spec, dropped)
        length = default_validation_length(build_spec(GFKind.plane_rowed(8)), 8)
        a_times_b = series_from_spec(wrong_a * dec.b_spec, MOD2, length)
        g = series_from_spec(build_spec(GFKind.plane_rowed(8)), MOD2, length)
        n = int(np.flatnonzero(a_times_b != g)[0])
        monkeypatch.setattr(prover, "split_AB", broken_split)
        with pytest.raises(RuleValidationFailed) as exc:
            Plan.build(GFKind.plane_rowed(8), MOD2, 8)
        assert str(exc.value) == (
            f"A*B differs from the original product at q^{n}"
            f" (first difference in {length} coefficients mod 2)"
        )

    def test_wrong_plus_to_minus_is_caught_by_a_times_b(self, monkeypatch):
        # plus-to-minus has no guard of its own; a wrong pair that still
        # splits (the inverse's exponent doubled) fails A*B = G, which
        # Plan.build checks on A's expansion.  At delta 2,
        # since at delta 4 the wrong pair leaves a tail off 4Z: SplitFailed
        real = decompose.plus_to_minus

        def doubled_inverse(factor):
            doubled, inverse = real(factor)
            if isinstance(inverse, BinomialFactor):
                return doubled, dataclasses.replace(inverse, exponent=2 * inverse.exponent)
            return doubled, dataclasses.replace(inverse, exp_offset=2 * inverse.exp_offset)

        monkeypatch.setattr(decompose, "plus_to_minus", doubled_inverse)
        with pytest.raises(RuleValidationFailed, match="^A\\*B differs"):
            Plan.build(GFKind.overplane_rowed(4), Modulus(2, 2), 2)


INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")

# (target, modulus, delta) -> (period/delta, degree bound K, rows of head)
LADDER_BOUNDS = [
    (7, 7, 7, (420, 79, 79)),
    (8, 2, 8, (420, 89, 89)),
    (9, 3, 9, (2520, 150, 150)),
    (10, 2, 2, (5040, 83, 83)),
    (10, 5, 5, (12600, 209, 209)),
]
# two headline targets of scripts/headline.py, whose K the head stops at
HEADLINE_BOUNDS = [
    (32, 2, 32, (144403552893600, 6909, 6909)),
    (49, 7, 49, (3099044504245996706400, 33421, 33421)),
]
INSTANCE_BOUNDS = {
    "bounded_parts_mod5.cfg": (6, 7, 6),
    "eight_rowed_mod2.cfg": (420, 89, 89),
    "eleven_rowed_mod11.cfg": (27720, 351, 351),
    "four_rowed_mod2.cfg": (3, 8, 3),
    "nine_rowed_mod3.cfg": (2520, 150, 150),
    "numerator_head_mod3.cfg": (2, 2, 2),
    "overplane_four_mod4.cfg": (24, 19, 19),
    "sixteen_rowed_mod2.cfg": (1441440, 341, 341),
    "thirteen_rowed_mod13.cfg": (360360, 601, 601),
    "twentyseven_rowed_mod3.cfg": (80313433200, 4652, 4652),
    "two_rowed_search.cfg": (1, 1, 1),
}


def instance_plan(name):
    from congcert.cli import parse_instance_file

    with open(os.path.join(INSTANCE_DIR, name)) as handle:
        inst = parse_instance_file(handle.read())
    return Plan.build(inst.target, inst.modulus, inst.delta)


class TestExpansionsPerPlan:
    """A plan expands B and G to the validation length L, and A to
    max(L, delta*rows), once each and in that order, all in `Plan.build`,
    and nothing else: the split expands nothing."""

    @pytest.fixture
    def expanded(self, monkeypatch):
        calls = []
        for module in (decompose, prover):
            def counted(spec, modulus, length, real=module.series_from_spec, name=module.__name__):
                calls.append((name, spec, length))
                return real(spec, modulus, length)

            monkeypatch.setattr(module, "series_from_spec", counted)
        return calls

    @staticmethod
    def _three(plan):
        dec, length = plan.decomposition, default_validation_length(plan.spec, plan.delta)
        return [
            ("congcert.prover", dec.b_spec, length),
            ("congcert.prover", plan.spec, length),
            ("congcert.prover", dec.a_spec, max(length, plan.head.size)),
        ]

    @pytest.mark.parametrize(
        "rows,prime,delta", [rung[:3] for rung in LADDER_BOUNDS] + [(4, 2, 4)]
    )
    def test_ladder_rungs(self, expanded, rows, prime, delta):
        # and plane_rowed(4) mod 2, whose 12-coefficient head is below L
        plan = Plan.build(GFKind.plane_rowed(rows), Modulus(prime, 1), delta)
        assert expanded == self._three(plan)

    def test_every_committed_instance(self, expanded):
        for name in INSTANCE_BOUNDS:
            expanded.clear()
            plan = instance_plan(name)
            assert expanded == self._three(plan), name


class TestDegreeBound:
    """The head is expanded to min(K, period/delta) rows, where
    K = floor(deg N / delta) + 1 for A = N(q)/D(q^delta)."""

    @pytest.mark.parametrize("rows,prime,delta,want", LADDER_BOUNDS + HEADLINE_BOUNDS)
    def test_ladder_rungs(self, rows, prime, delta, want):
        plan = Plan.build(GFKind.plane_rowed(rows), Modulus(prime, 1), delta)
        assert (plan.bound, plan.degree_bound, plan.head.shape[0]) == want

    def test_every_committed_instance(self):
        assert sorted(os.listdir(INSTANCE_DIR)) == sorted(INSTANCE_BOUNDS)
        for name, want in INSTANCE_BOUNDS.items():
            plan = instance_plan(name)
            got = (plan.bound, plan.degree_bound, plan.head.shape[0])
            assert got == want, name
            assert plan.head.shape == (min(plan.degree_bound, plan.bound), plan.delta)

    @pytest.mark.parametrize("part,prime", [(3, 2), (7, 2), (15, 2), (7, 3)])
    def test_first_failure_can_be_the_last_row(self, part, prime):
        # A = 1/(1-q^part): A[delta*n + r] is 1 exactly when part divides
        # delta*n + r, so {delta-1} == 0 first fails at n = K - 1 < bound
        # (K = (part + 1)/2 for delta = 2, and 5 for part 7, delta 3)
        delta, modulus = prime, Modulus(prime, 1)
        target = GFKind.from_multiset(PartMultiset.parse(str(part)))
        plan = Plan.build(target, modulus, delta)
        assert plan.degree_bound < plan.bound
        cert = plan.check(CongruenceFamily(delta, (delta - 1,), (), modulus))
        assert cert.status == COUNTEREXAMPLE
        assert cert.witness == (plan.degree_bound - 1, 1, 0)

    @pytest.mark.parametrize(
        "name",
        ["four_rowed_mod2.cfg", "eight_rowed_mod2.cfg", "overplane_four_mod4.cfg",
         "bounded_parts_mod5.cfg", "thirteen_rowed_mod13.cfg"],
    )
    def test_head_times_denominator_is_numerator(self, name):
        # A * D(q^delta), with D(q^delta) = prod (1 - q^lcm(b, delta))^e_b, is
        # the polynomial N: zero past deg N, and deg N is where K comes from
        plan = instance_plan(name)
        delta, modulus = plan.delta, plan.modulus
        entries = list(plan.decomposition.a_multiset)
        degree = sum(e * (math.lcm(b, delta) - b) for b, e in entries)
        assert plan.degree_bound == degree // delta + 1
        denominator = ProductSpec(
            tuple(BinomialFactor(-1, math.lcm(b, delta), e) for b, e in entries)
        )
        length = degree + 3 * delta
        numerator = series_from_spec(plan.decomposition.a_spec * denominator, modulus, length)
        assert numerator[degree] == 1
        assert not numerator[degree + 1:].any()
