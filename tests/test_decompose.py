import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congcert import (
    BinomialFactor,
    GFKind,
    InvalidParameter,
    Modulus,
    PartMultiset,
    ProductSpec,
    SplitFailed,
    TailFamily,
    build_spec,
    default_validation_length,
    kwong_period,
    series_from_spec,
    series_mul,
    split_AB,
    validate_B_certificate,
)
from congcert.decompose import _power_reduce
from _brute import brute_expand

MOD2 = Modulus(2, 1)
MOD3 = Modulus(3, 1)
MOD4 = Modulus(2, 2)
MOD5 = Modulus(5, 1)
BIG = Modulus(1000003, 1)


class TestBuilders:
    def test_plane_counts(self):
        s = series_from_spec(build_spec(GFKind.plane()), BIG, 4)
        assert s[3] == 6

    def test_overplane_counts(self):
        for k in (3, 4, 6):
            s = series_from_spec(build_spec(GFKind.overplane_rowed(k)), BIG, 4)
            assert s[3] == 16

    def test_single_cell_box(self):
        s = series_from_spec(build_spec(GFKind.plane_box(1, 1)), BIG, 12)
        assert list(s) == [1] * 12

    def test_box_symmetry(self):
        a = series_from_spec(build_spec(GFKind.plane_box(3, 5)), BIG, 20)
        b = series_from_spec(build_spec(GFKind.plane_box(5, 3)), BIG, 20)
        assert np.array_equal(a, b)

    def test_rowed_head_is_prefix_of_rowed(self):
        # plane_head(ell) carries exactly the explicit factors of plane_rowed(ell)
        head = build_spec(GFKind.plane_head(5))
        rowed = build_spec(GFKind.plane_rowed(5))
        assert head.factors == rowed.factors[:-1]

    def test_maxpart_matches_multiset(self):
        a = build_spec(GFKind.maxpart(4))
        b = build_spec(GFKind.from_multiset(PartMultiset.parse("1,2,3,4")))
        assert a.factors == b.factors

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            GFKind.plane_rowed(0)
        with pytest.raises(InvalidParameter):
            GFKind("not_a_builder")

    def test_plane_head_range_checked_on_construction(self):
        # the target itself rejects it, before any spec is built
        with pytest.raises(InvalidParameter, match="plane_head needs a parameter >= 2"):
            GFKind.plane_head(1)
        assert len(build_spec(GFKind.plane_head(2)).factors) == 1


class TestReduceSpec:
    """The reduction step of a split, `_power_reduce`, and the step the
    split records when it lands on delta*Z."""

    def test_fourth_power_mod_two(self):
        before = BinomialFactor(-1, 1, 4)
        assert _power_reduce(before, MOD2) == BinomialFactor(-1, 4, 1)

    def test_fourth_power_mod_four(self):
        before = BinomialFactor(-1, 1, 4)
        assert _power_reduce(before, MOD4) == BinomialFactor(-1, 2, 2)

    def test_plus_power_reduces_onto_delta(self):
        # mod 4, (1+q^3)^72 reduces to (1+q^6)^36, then to (1+q^12)^18,
        # where 4 no longer divides the exponent
        before = BinomialFactor(1, 3, 72)
        assert _power_reduce(before, MOD4) == BinomialFactor(1, 12, 18)
        spec = ProductSpec((BinomialFactor(-1, 1, -1), before))
        assert split_AB(spec, MOD4, 12).derivation == ("power-reduce: (1+q^3)^72 -> (1+q^12)^18",)
        # not on 24Z: no power-reduce step of it
        steps = split_AB(spec, MOD4, 24).derivation
        assert steps[0] == "plus-to-minus: (1+q^3)^72 -> (1-q^6)^72 (1-q^3)^-72"

    @pytest.mark.parametrize(
        "sign,modulus,want",
        [
            (-1, MOD2, "tail((1-q^4n)^-3, from=4)"),
            (-1, MOD4, "tail((1-q^2n)^-6, from=4)"),
            (1, MOD3, "tail((1+q^3n)^-4, from=4)"),
        ],
        ids=["minus-mod2", "minus-mod4", "plus-mod3"],
    )
    def test_tail_power_scales_every_base(self, sign, modulus, want):
        # bases n+1 from n = 3, kept as bases n from n = 4
        tail = TailFamily(sign=sign, start=3, exp_offset=-12, offset=1)
        assert str(_power_reduce(tail, modulus)) == want


class TestSplit:
    def test_four_rowed_mod_two(self):
        dec = split_AB(build_spec(GFKind.plane_rowed(4)), MOD2, 4)
        assert dec.a_multiset == PartMultiset.parse("1,3:3")
        # B is congruent to 1/((1-q^4) prod(1-q^4n)) mod 2
        want = ProductSpec(
            (BinomialFactor(-1, 4, -1), TailFamily(sign=-1, start=4, exp_offset=-1, scale=4))
        )
        got = series_from_spec(dec.b_spec, MOD2, 300)
        assert np.array_equal(got, series_from_spec(want, MOD2, 300))

    def test_nine_rowed_mod_three(self):
        dec = split_AB(build_spec(GFKind.plane_rowed(9)), MOD3, 9)
        assert dec.a_multiset == PartMultiset.parse("1,2:2,4:4,5:5,6:6,7:7,8:8")
        assert kwong_period(dec.a_multiset, 3, 1).period == 3**4 * 280

    def test_eight_rowed_mod_two(self):
        dec = split_AB(build_spec(GFKind.plane_rowed(8)), MOD2, 8)
        assert dec.a_multiset == PartMultiset.parse("1,2:2,3:3,5:5,6:6,7:7")
        assert kwong_period(dec.a_multiset, 2, 1).period == 2**5 * 105

    def test_overplane_four_mod_four(self):
        dec = split_AB(build_spec(GFKind.overplane_rowed(4)), MOD4, 4)
        assert dec.a_multiset == PartMultiset.parse("1:2,2:3,3:6,6")
        assert kwong_period(dec.a_multiset, 2, 2).period == 96
        # B is congruent to (1+q^12)^2 (1+q^4)^2 mod 4
        closed = ProductSpec((BinomialFactor(1, 12, 2), BinomialFactor(1, 4, 2)))
        assert np.array_equal(
            series_from_spec(dec.b_spec, MOD4, 400), series_from_spec(closed, MOD4, 400)
        )

    def test_rowed_prime_targets_keep_full_head(self):
        for ell in (2, 3, 5, 7):
            dec = split_AB(build_spec(GFKind.plane_rowed(ell)), Modulus(ell, 1), ell)
            want = PartMultiset.from_values(
                [n for n in range(1, ell) for _ in range(n)]
            )
            assert dec.a_multiset == want

    def test_bounded_parts_split_trivially(self):
        dec = split_AB(build_spec(GFKind.maxpart(4)), MOD5, 10)
        assert dec.a_multiset == PartMultiset.parse("1,2,3,4")
        assert dec.b_spec.factors == ()

    def test_roundtrip_products(self):
        cases = [
            (GFKind.plane_rowed(4), MOD2, 4),
            (GFKind.plane_rowed(8), MOD2, 8),
            (GFKind.plane_rowed(9), MOD3, 9),
            (GFKind.overplane_rowed(4), MOD4, 4),
            (GFKind.maxpart(2), MOD3, 3),
        ]
        for kind, modulus, delta in cases:
            spec = build_spec(kind)
            dec = split_AB(spec, modulus, delta)
            lhs = series_mul(
                series_from_spec(dec.a_spec, modulus, 500),
                series_from_spec(dec.b_spec, modulus, 500),
                modulus,
            )
            assert np.array_equal(lhs, series_from_spec(spec, modulus, 500)), kind

    def test_unsplittable_targets(self):
        with pytest.raises(SplitFailed):
            split_AB(build_spec(GFKind.plane()), MOD2, 2)
        with pytest.raises(SplitFailed):
            split_AB(build_spec(GFKind.overpartitions()), MOD3, 3)
        # every factor lands on delta multiples: no periodic head remains
        spec = ProductSpec((BinomialFactor(-1, 4, -1),))
        with pytest.raises(SplitFailed):
            split_AB(spec, MOD2, 4)


class TestSplitBranches:
    """Branches of split_AB that the committed targets never reach."""

    def test_unsupported_numerator_fails(self):
        spec = ProductSpec((BinomialFactor(-1, 1, 1), BinomialFactor(-1, 3, -1)))
        with pytest.raises(SplitFailed) as exc:
            split_AB(spec, MOD2, 2)
        assert str(exc.value) == "numerator (1-q^1)^1 is not supported on 2Z"

    def test_numerator_left_by_plus_to_minus_fails(self):
        # (1+q)^-2 becomes (1-q^2)^-2 (1-q)^2; with (1-q)^-1 the numerator
        # (1-q)^1 is left, and its expansion 1 - q is not supported on 2Z
        spec = ProductSpec((BinomialFactor(1, 1, -2), BinomialFactor(-1, 1, -1)))
        with pytest.raises(SplitFailed) as exc:
            split_AB(spec, MOD2, 2)
        assert str(exc.value) == "numerator (1-q^1)^1 is not supported on 2Z"

    def test_numerator_collapses_onto_the_progression(self):
        dec = split_AB(
            ProductSpec((BinomialFactor(-1, 1, 6), BinomialFactor(-1, 2, -1))), MOD3, 3
        )
        assert str(dec.a_multiset) == "2"
        assert str(dec.a_spec) == "(1-q^2)^-1"
        assert str(dec.b_spec) == "(1-q^3)^2"
        assert dec.derivation == ("power-reduce: (1-q^1)^6 -> (1-q^3)^2",)

    def test_supported_tail_goes_straight_to_B(self):
        tail = TailFamily(sign=-1, start=1, exp_offset=-1, scale=2)
        dec = split_AB(ProductSpec((BinomialFactor(-1, 1, -1), tail)), MOD2, 2)
        assert dec.a_multiset == PartMultiset.parse("1")
        assert dec.b_spec.factors == (tail,)
        assert dec.derivation == ()


class TestBCertificate:
    def test_empty_product(self):
        assert validate_B_certificate(series_from_spec(ProductSpec(()), MOD2, 100), 4)

    def test_four_rowed_tail(self):
        dec = split_AB(build_spec(GFKind.plane_rowed(4)), MOD2, 4)
        assert validate_B_certificate(series_from_spec(dec.b_spec, MOD2, 200), 4)

    def test_unsupported_factor_fails(self):
        spec = ProductSpec((BinomialFactor(-1, 2, -1),))
        assert not validate_B_certificate(series_from_spec(spec, MOD2, 10), 4)

    def test_matches_a_loop_over_the_support(self):
        # the reference: constant term 1 and every nonzero index a multiple of delta
        import random

        rng = random.Random(15)
        seen = set()
        for _ in range(80):
            delta = rng.randint(1, 6)
            bases = [delta * rng.randint(1, 4), rng.randint(1, 12)]
            factors = tuple(
                BinomialFactor(rng.choice([1, -1]), rng.choice(bases), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(0, 3))
            )
            spec, modulus = ProductSpec(factors), rng.choice([MOD2, MOD3, MOD4])
            length = rng.randint(delta, 60)
            series = series_from_spec(spec, modulus, length)
            want = int(series[0]) == 1 and all(i % delta == 0 for i in range(length) if series[i])
            assert validate_B_certificate(series, delta) == want, (spec, delta)
            seen.add(want)
        assert seen == {True, False}


OVERPLANE_SPLITS_BY_PRIME = {
    2: ProductSpec(
        (
            BinomialFactor(-1, 2, -1),
            BinomialFactor(-1, 1, -2),
            TailFamily(sign=1, start=2, exp_offset=2),
            TailFamily(sign=-1, start=2, exp_offset=-2, offset=1),
        )
    ),
    3: ProductSpec(
        (
            BinomialFactor(-1, 1, -2),
            BinomialFactor(-1, 4, -1),
            BinomialFactor(-1, 2, -3),
            BinomialFactor(-1, 3, -3),
            TailFamily(sign=1, start=3, exp_offset=3),
            TailFamily(sign=-1, start=3, exp_offset=-3, offset=2),
        )
    ),
    # head quotient times a bracket every factor of which becomes a series in
    # q^5 once fifth powers are rewritten, rederived by exact exponent
    # accounting from (1+q^j)^e = (1-q^2j)^e (1-q^j)^-e
    5: ProductSpec(
        (
            BinomialFactor(-1, 1, -2),
            BinomialFactor(-1, 2, -3),
            BinomialFactor(-1, 3, -1),
            BinomialFactor(-1, 4, -1),
            BinomialFactor(-1, 6, -2),
            BinomialFactor(-1, 8, -1),
            BinomialFactor(-1, 3, -5),
            BinomialFactor(-1, 4, -5),
            BinomialFactor(-1, 5, -5),
            BinomialFactor(-1, 7, -5),
            TailFamily(sign=1, start=5, exp_offset=5),
            TailFamily(sign=-1, start=5, exp_offset=-5, offset=4),
        )
    ),
}


class TestKnownOverplaneFactorizations:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_display_matches_builder(self, ell):
        # hand-derived head-times-shifted-tail factorizations of the k-rowed
        # plane overpartition product, checked as exact series identities
        modulus = Modulus(ell, 1)
        display = series_from_spec(OVERPLANE_SPLITS_BY_PRIME[ell], modulus, 500)
        builder = series_from_spec(build_spec(GFKind.overplane_rowed(ell)), modulus, 500)
        assert np.array_equal(display, builder)


class TestOverplaneParity:
    def test_all_positive_indices_even(self):
        # every coefficient of the k-rowed plane overpartition series at
        # index >= 1 is divisible by 2
        for k in range(1, 6):
            s = series_from_spec(build_spec(GFKind.overplane_rowed(k)), MOD2, 301)
            assert list(s)[1:] == [0] * 300, k


class TestDerivationSoundness:
    def test_unsound_rewrite_is_rejected(self, monkeypatch):
        # no step is checked on its own: a wrong power-reduce (its exponent
        # tripled) or a wrong peel (a minus tail moved past a factor it did
        # not write out) still splits, and A*B = G in Plan.build refuses it
        from congcert import Plan, RuleValidationFailed, decompose

        real_reduce, real_replace = decompose._power_reduce, decompose.replace

        def tripled(factor, modulus):
            after = real_reduce(factor, modulus)
            if isinstance(after, BinomialFactor):
                return dataclasses.replace(after, exponent=3 * after.exponent)
            return after

        def skipped(factor, **changes):
            if changes.keys() == {"start"} and factor.sign < 0:  # the peel's moved tail
                changes["start"] += 1
            return real_replace(factor, **changes)

        wrong_steps = [
            ("_power_reduce", tripled, GFKind.plane_rowed(8), MOD2, 8),
            ("_power_reduce", tripled, GFKind.plane_rowed(9), MOD3, 9),
            ("_power_reduce", tripled, GFKind.overplane_rowed(4), MOD4, 4),
            ("replace", skipped, GFKind.overplane_rowed(3), MOD3, 3),
            ("replace", skipped, GFKind.overplane_rowed(4), MOD2, 4),
        ]
        for name, wrong, target, modulus, delta in wrong_steps:
            with monkeypatch.context() as patch:
                patch.setattr(decompose, name, wrong)
                with pytest.raises(RuleValidationFailed, match="^A\\*B differs"):
                    Plan.build(target, modulus, delta)

    def test_split_records_validated_steps(self):
        # the plus/minus tail pair cancels by the two rules the binomials
        # take: plus-to-minus, then power-reduce of the merged minus tail
        dec = split_AB(build_spec(GFKind.overplane_rowed(4)), MOD4, 4)
        assert (
            "plus-to-minus: tail((1+q^n)^4, from=7) -> tail((1-q^2n)^4, from=7) tail((1-q^n)^-4, from=7)"
            in dec.derivation
        )
        assert (
            "power-reduce: tail((1-q^n)^-8, from=7) -> tail((1-q^4n)^-2, from=7)" in dec.derivation
        )
        assert not any(isinstance(f, TailFamily) for f in dec.b_spec.factors)

    def test_steps_expand_equally_on_the_grid(self, monkeypatch):
        # every step of every split on the grid: its two sides expand to the
        # same array to the split's validation length.  The step counts per
        # rule were recorded when each step was still checked on its own
        from collections import Counter

        from congcert import decompose

        counts = Counter()
        real = decompose._record

        def expanded_equally(derivation, rule, before, after):
            lhs, rhs = (ProductSpec(tuple(side)) for side in (before, after))
            assert np.array_equal(
                series_from_spec(lhs, modulus, length), series_from_spec(rhs, modulus, length)
            ), (rule, before, after)
            counts[rule] += 1
            real(derivation, rule, before, after)

        monkeypatch.setattr(decompose, "_record", expanded_equally)
        for target, modulus, delta in _split_grid():
            spec = build_spec(target)
            length = default_validation_length(spec, delta)
            try:
                split_AB(spec, modulus, delta)
            except SplitFailed:
                pass
        assert counts == {"peel": 74, "plus-to-minus": 230, "power-reduce": 94}

    def test_split_expands_nothing(self, monkeypatch):
        # the split is symbolic: `Plan.build` makes every expansion of it
        import types

        from congcert import decompose

        def refused(*args):
            raise AssertionError("split_AB expanded a series")

        monkeypatch.setattr(decompose, "series_from_spec", refused)
        assert not any(
            isinstance(v, types.ModuleType) and v.__name__ == "numpy" for v in vars(decompose).values()
        )
        splits = 0
        for target, modulus, delta in _split_grid():
            try:
                split_AB(build_spec(target), modulus, delta)
                splits += 1
            except SplitFailed:
                pass
        assert splits

    def test_validation_against_independent_expansion(self):
        # A*B must equal the original by the brute-force dense expansion too
        spec = build_spec(GFKind.plane_rowed(4))
        dec = split_AB(spec, MOD2, 4)
        combined = series_mul(
            series_from_spec(dec.a_spec, MOD2, 200),
            series_from_spec(dec.b_spec, MOD2, 200),
            MOD2,
        )
        assert list(combined) == brute_expand(spec, 200, 2)


def _split_grid():
    """Named targets and offset tails of either sign over a few moduli and
    deltas: between them they reach every split rewrite (peel,
    plus-to-minus, power-reduce of binomials and of tails)."""
    targets = [GFKind.plane_rowed(r) for r in (2, 3, 4, 5, 6)]
    targets += [GFKind.overplane_rowed(k) for k in (2, 3, 4)]
    targets += [GFKind.maxpart(4), GFKind.plane_box(2, 3), GFKind.plane_head(4)]
    targets += [GFKind.partitions(), GFKind.overpartitions(), GFKind.plane()]
    head = (BinomialFactor(-1, 1, -1), BinomialFactor(-1, 2, -1), BinomialFactor(1, 1, 2))
    for sign in (1, -1):
        for e in (-4, -9, 2):
            tail = TailFamily(sign=sign, start=2, exp_offset=e, offset=1)
            targets.append(GFKind.from_raw(ProductSpec(head + (tail,))))
    for prime, power in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        modulus = Modulus(prime, power)
        for target in targets:
            for delta in sorted({2, prime, prime**power, 2 * prime}):
                yield target, modulus, delta


def _split_record(target, modulus, delta, labels=True):
    """The split's outcome as text; without `labels` it leaves out B, the
    derivation and the tail a "cannot be supported" reason names, whose
    text depends on how a rewrite writes factors."""
    from congcert import CongcertError

    spec = build_spec(target)
    try:
        dec = split_AB(spec, modulus, delta)
    except CongcertError as exc:
        reason = str(exc) if labels else re.sub(r"^tail\(.*\) cannot", "tail cannot", str(exc))
        return f"{target} mod {modulus} delta {delta}: {type(exc).__name__}: {reason}"
    length = default_validation_length(spec, delta)
    if not labels:
        return (
            f"{target} mod {modulus} delta {delta}: A {dec.a_spec!r} "
            f"head {dec.a_multiset} length {length}"
        )
    return (
        f"{target} mod {modulus} delta {delta}: A {dec.a_spec!r} B {dec.b_spec!r} "
        f"head {dec.a_multiset} length {length} " + " | ".join(dec.derivation)
    )


class TestSplitDigest:
    def test_split_grid_digest(self):
        # any change to a spec, head, derivation or error message on this
        # grid changes the digest; re-recorded when tails, multisets and
        # derivation steps began to print in instance syntax, which changed
        # printed forms only (`test_split_grid_value_digest` did not change),
        # and again when every tail began to be kept with its offset below
        # its scale, which respelled the grid's offset tails and nothing else
        import hashlib

        records = [_split_record(*case) for case in _split_grid()]
        assert len(records) == 280
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
        assert digest == "e15141ab89bcd33a"

    def test_split_grid_verdict_digest(self):
        # with B, the derivation and the tail a "cannot be supported"
        # reason names left out: a change to the form a rewrite gives a
        # factor leaves it alone, any change to a head, A, the validation
        # length or any other error message on this grid changes it;
        # re-recorded when head multisets began to print as `1,2:2`, and
        # when the grid's offset tails began to print with their offset
        # below their scale (`tail((1-q^n)^2, from=3)`, not
        # `tail((1-q^n+1)^2, from=2)`) in the targets this names
        import hashlib

        records = [_split_record(*case, labels=False) for case in _split_grid()]
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
        assert digest == "c24231a469372247"

    def test_split_grid_value_digest(self):
        # values only, none of their printed forms: for the family {0} == 0
        # on each case, the status, witness, period, check bound, degree
        # bound, head multiset (by repr) and the exception type of the
        # reason; recorded before tails, multisets and derivation steps
        # began to print in instance syntax
        import hashlib

        from congcert import CongruenceFamily, certify

        records = []
        for target, modulus, delta in _split_grid():
            cert = certify(target, CongruenceFamily(delta, (0,), (), modulus))
            records.append(repr((
                cert.status, cert.witness, cert.period_used, cert.check_bound,
                cert.degree_bound, cert.a_multiset, (cert.reason or "").split(":")[0],
            )))
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
        assert digest == "ece6d8274918689f"

    def test_every_inapplicable_is_split_failed(self):
        # INAPPLICABLE means only that the target does not split: on the grid
        # no guard fails, and every other outcome is a verdict
        from collections import Counter

        from congcert import INAPPLICABLE, CongruenceFamily, certify

        outcomes = Counter()
        for target, modulus, delta in _split_grid():
            cert = certify(target, CongruenceFamily(delta, (0,), (), modulus))
            if cert.status == INAPPLICABLE:
                assert cert.reason.startswith("SplitFailed: "), cert.reason
            outcomes[cert.status] += 1
        assert outcomes == {INAPPLICABLE: 216, "COUNTEREXAMPLE": 64}


def _rewritten(spec):
    """The same product written two other ways: its factors reversed, and
    each constant exponent e with |e| >= 2 split between two factors of
    its shape."""

    def halves(f):
        name = "exponent" if isinstance(f, BinomialFactor) else "exp_offset"
        e = getattr(f, name)
        if abs(e) < 2:
            return (f,)
        return dataclasses.replace(f, **{name: e // 2}), dataclasses.replace(f, **{name: e - e // 2})

    return ProductSpec(spec.factors[::-1]), ProductSpec(tuple(h for f in spec.factors for h in halves(f)))


def _split_outcome(spec, modulus, delta):
    from congcert import CongcertError

    try:
        dec = split_AB(spec, modulus, delta)
    except CongcertError as exc:
        return type(exc).__name__, str(exc)
    return dec.a_spec, dec.b_spec, dec.derivation


class TestWrittenForm:
    """A split sees only the net exponent of each factor shape, not how the
    product is written."""

    def test_grid_rewritten_two_ways(self):
        for target, modulus, delta in _split_grid():
            spec = build_spec(target)
            want = _split_outcome(spec, modulus, delta)
            for written in _rewritten(spec):
                got = _split_outcome(written, modulus, delta)
                assert got == want, (str(target), str(modulus), delta, str(written))

    def test_grid_tails_respelled(self):
        # a third way: each tail's index moved one back, so its offset is
        # one scale more and its exponent, at each base, the same
        def respelled(f):
            if isinstance(f, BinomialFactor):
                return f
            return dataclasses.replace(
                f, start=f.start - 1, offset=f.offset + f.scale, exp_offset=f.exp_offset + f.exp_scale
            )

        for target, modulus, delta in _split_grid():
            spec = build_spec(target)
            written = ProductSpec(tuple(respelled(f) for f in spec.factors))
            got = _split_outcome(written, modulus, delta)
            assert got == _split_outcome(spec, modulus, delta), (str(target), str(modulus), delta)

    def test_one_tail_written_as_two(self):
        from congcert import PROVED, CongruenceFamily, certify

        head = (BinomialFactor(-1, 1, -1),)
        for tails in ((-2,), (-1, -1)):
            spec = ProductSpec(head + tuple(TailFamily(sign=-1, start=2, exp_offset=e) for e in tails))
            cert = certify(GFKind.from_raw(spec), CongruenceFamily(2, (0,), (1,), MOD2))
            assert cert.status == PROVED, (tails, cert.reason)

    def test_one_tail_spelled_two_ways(self):
        # bases n+1 from n = 1 are bases n from n = 2: the tails cancel
        # either way, and the product is 1/(1-q)
        from congcert import COUNTEREXAMPLE, PROVED, CongruenceFamily, certify

        rest = " tail((1-q^n)^1, from=2)"
        for tail in ("tail((1-q^n+1)^-1, from=1)", "tail((1-q^n)^-1, from=2)"):
            target = GFKind.parse("raw: (1-q^1)^-1 " + tail + rest)
            assert str(target) == "raw: (1-q^1)^-1 tail((1-q^n)^-1, from=2)" + rest
            verdicts = [
                certify(target, CongruenceFamily.parse(family, 2, MOD2))
                for family in ("{0} == {1}", "{1} == 0")
            ]
            assert [(c.status, c.witness) for c in verdicts] == [
                (PROVED, None), (COUNTEREXAMPLE, (0, 1, 0))
            ], tail


class TestTailPairs:
    def test_unequal_exponents_cancel_by_the_two_rules(self):
        # raw: (1-q^1)^-1 (1+q^3)^1 tail((1+q^2n)^1, from=2)
        # tail((1-q^2n)^-3, from=2) mod 2 at delta 4: plus-to-minus leaves
        # the minus tail (1-q^2n)^-4, which power-reduce sends to 8Z
        from congcert import COUNTEREXAMPLE, PROVED, CongruenceFamily, certify, spot_check

        target = GFKind.from_raw(
            ProductSpec(
                (
                    BinomialFactor(-1, 1, -1),
                    BinomialFactor(1, 3, 1),
                    TailFamily(sign=1, start=2, exp_offset=1, scale=2),
                    TailFamily(sign=-1, start=2, exp_offset=-3, scale=2),
                )
            )
        )
        verdicts = {
            ((3,), ()): (PROVED, None),
            ((0,), (1,)): (PROVED, None),
            ((1,), ()): (COUNTEREXAMPLE, (0, 1, 0)),
        }
        for (left, right), (status, witness) in verdicts.items():
            family = CongruenceFamily(4, left, right, MOD2)
            cert = certify(target, family)
            assert str(cert.a_multiset) == "1,3,6:3"
            assert (cert.period_used, cert.check_bound, cert.degree_bound) == (24, 6, 8)
            assert (cert.status, cert.witness) == (status, witness)
            assert spot_check(target, family, 200).failure == witness


_FROBENIUS_MODULI = [Modulus(2, 1), Modulus(2, 2), Modulus(2, 3), MOD3, Modulus(3, 2), MOD5]


@st.composite
def _powered_factor(draw):
    """A binomial or an offset tail, either sign, with an exponent c*ell^j for
    j up to N: divisible by ell^N about half the time."""
    modulus = draw(st.sampled_from(_FROBENIUS_MODULI))
    exponent = draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) * modulus.prime ** draw(
        st.integers(0, modulus.exponent)
    )
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return BinomialFactor(sign, draw(st.integers(1, 6)), exponent), modulus
    scale, start = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    offset = draw(st.integers(0, 3))
    return TailFamily(sign=sign, start=start, exp_offset=exponent, scale=scale, offset=offset), modulus


@functools.cache
def _dense_power(sign, base, exponent):
    """(1 + sign*q^base)^exponent over Z, every coefficient."""
    spec = ProductSpec((BinomialFactor(sign, base, exponent),))
    return brute_expand(spec, base * exponent + 1)


class TestFrobeniusRule:
    """The exponent-divisibility rewrite is an identity mod ell^N, checked
    on a 40-term prefix against the dense integer expansion of `_brute`
    rather than `series_from_spec`, which applies the same rule."""

    LENGTH = 40

    def _same(self, before, after, modulus):
        m = modulus.value
        lhs = brute_expand(ProductSpec((before,)), self.LENGTH, m)
        assert lhs == brute_expand(ProductSpec((after,)), self.LENGTH, m), (before, after)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_powered_factor())
    def test_step_and_power_reduce_are_identities(self, drawn):
        from congcert.series import frobenius_step

        factor, modulus = drawn
        exponent = factor.exponent if isinstance(factor, BinomialFactor) else factor.exp_offset
        divisible = exponent % modulus.value == 0
        if isinstance(factor, BinomialFactor):
            step = frobenius_step(factor.base, exponent, modulus)
            assert (step is not None) == divisible
            if step is not None:
                self._same(factor, BinomialFactor(factor.sign, *step), modulus)
        reduced = _power_reduce(factor, modulus)
        assert (reduced is not None) == divisible
        if reduced is not None:
            self._same(factor, reduced, modulus)

    @pytest.mark.parametrize(
        "modulus",
        [MOD2, MOD4, Modulus(2, 3), MOD3, Modulus(3, 2), MOD5, Modulus(7, 1)],
        ids=str,
    )
    def test_positive_powers_reduce_to_the_least_carried_base(self, modulus):
        # the split sends (1 +- q^b)^e, e > 0, to B by power-reduce when it
        # lands on delta*Z: that is when every base of the kernel's carry
        # does, because the reduction stops at the least of them
        from congcert.series import _frobenius

        ell, m = modulus.prime, modulus.value
        for sign in (1, -1):
            for b in range(1, 5):
                for e in range(1, 61):
                    after = _power_reduce(BinomialFactor(sign, b, e), modulus)
                    least = min(_frobenius({b: e}, modulus, b * e + 1))
                    if e % m:
                        assert after is None and least == b, (sign, b, e)
                        continue
                    # b ell^k and e / ell^k, of e's sign, stopped at the
                    # first exponent that ell^N does not divide
                    assert after.sign == sign and after.base * after.exponent == b * e, after
                    assert after.base == least and after.exponent % m, after
                    got = brute_expand(ProductSpec((after,)), b * e + 1, m)
                    assert got == [c % m for c in _dense_power(sign, b, e)], (sign, b, e)
