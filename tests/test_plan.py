"""The family check on the periodic head A, through a shared Plan, against a
check on the full product G written here; and the guard on witnesses."""

import dataclasses
import math

import numpy as np
import pytest

from congcert import (
    COUNTEREXAMPLE,
    INAPPLICABLE,
    PROVED,
    CongruenceFamily,
    GFKind,
    InvalidParameter,
    Modulus,
    Plan,
    ProductSpec,
    RuleValidationFailed,
    SearchSpace,
    SplitFailed,
    build_spec,
    certify,
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
    grid = series_from_spec(spec, modulus, period).array().reshape(-1, delta)
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
            plan = Plan.build(target, modulus, delta)
            reference = g_verdicts(target, modulus, delta, families)
            total += len(families)
            if reference is None:
                assert {plan.check(f).status for f in families} == {INAPPLICABLE}
                continue
            applicable += len(families)
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

    def test_family_of_another_delta_rejected(self):
        plan = Plan.build(GFKind.plane_rowed(4), MOD2, 4)
        with pytest.raises(InvalidParameter):
            plan.check(CongruenceFamily(2, (0,), (1,), MOD2))

    def test_search_takes_given_candidates(self):
        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 2)
        some = enumerate_candidates(space)[::2]
        got = [c.family for c in search_certified(space, candidates=some)]
        assert got == [c.family for c in search_certified(space) if c.family in some]


class TestWitnessGuard:
    @pytest.mark.parametrize("dropped", range(6))
    def test_head_missing_a_factor_raises(self, monkeypatch, dropped):
        # A for 8-rowed mod 2 is (1-q)^-1 (1-q^2)^-2 ... (1-q^7)^-7 without
        # (1-q^4)^-4; without one more factor A*B is no longer G
        real_split = prover.split_AB

        def broken_split(*args, **kwargs):
            dec = real_split(*args, **kwargs)
            factors = dec.a_spec.factors
            assert len(factors) == 6
            kept = factors[:dropped] + factors[dropped + 1:]
            return dataclasses.replace(dec, a_spec=ProductSpec(kept))

        monkeypatch.setattr(prover, "split_AB", broken_split)
        with pytest.raises(RuleValidationFailed, match="witness check"):
            certify(GFKind.plane_rowed(8), CongruenceFamily(8, (5,), (), MOD2))
