import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congcert import (
    BinomialFactor,
    GFKind,
    InvalidParameter,
    Modulus,
    PartMultiset,
    PolyFactor,
    ProductSpec,
    SplitFailed,
    TailFamily,
    build_spec,
    kwong_period,
    series_from_spec,
    series_mul,
    split_AB,
    validate_B_certificate,
)
from congcert.decompose import _Workspace, _power_reduce
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
        assert a == b

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
    """The reduction steps of a split, one rule at a time: `_power_reduce`
    and the validated `_Workspace` steps built on it, at delta = 1."""

    def test_fourth_power_mod_two(self):
        before = BinomialFactor(-1, 1, 4)
        assert _power_reduce(before, MOD2) == BinomialFactor(-1, 4, 1)
        ws = _Workspace(MOD2, 500)
        assert ws.power_reduce(before, 1) == BinomialFactor(-1, 4, 1)
        assert len(ws.derivation) == 1

    def test_fourth_power_mod_four(self):
        before = BinomialFactor(-1, 1, 4)
        assert _power_reduce(before, MOD4) == BinomialFactor(-1, 2, 2)
        assert _Workspace(MOD4, 500).power_reduce(before, 1) == BinomialFactor(-1, 2, 2)

    def test_plus_power_collapses_to_polynomial(self):
        ws = _Workspace(MOD4, 500)
        reduced = ws.power_reduce(BinomialFactor(1, 6, 4), 1)
        assert reduced == BinomialFactor(1, 12, 2)
        poly = ws.expand(reduced, 1)
        assert isinstance(poly, PolyFactor)
        assert {i: c for i, c in enumerate(poly.coeffs) if c} == {0: 1, 12: 2, 24: 1}
        assert len(ws.derivation) == 2

    @pytest.mark.parametrize(
        "sign,modulus,want",
        [
            (-1, MOD2, "prod_{n>=3}(1-q^4n+4)^-3"),
            (-1, MOD4, "prod_{n>=3}(1-q^2n+2)^-6"),
            (1, MOD3, "prod_{n>=3}(1+q^3n+3)^-4"),
        ],
    )
    def test_tail_power_scales_every_base(self, sign, modulus, want):
        tail = TailFamily(sign=sign, start=3, exp_offset=-12, offset=1)
        ws = _Workspace(modulus, 500)
        assert str(ws.power_reduce(tail, 1)) == want
        assert ws.derivation == [f"power-reduce: {tail} -> {want} (mod {modulus})"]


class TestSplit:
    def test_four_rowed_mod_two(self):
        dec = split_AB(build_spec(GFKind.plane_rowed(4)), MOD2, 4)
        assert dec.a_multiset == PartMultiset.parse("1,3:3")
        # B is congruent to 1/((1-q^4) prod(1-q^4n)) mod 2
        want = ProductSpec(
            (BinomialFactor(-1, 4, -1), TailFamily(sign=-1, start=4, exp_offset=-1, scale=4))
        )
        got = series_from_spec(dec.b_spec, MOD2, 300)
        assert got == series_from_spec(want, MOD2, 300)

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
        # B is congruent to (1+2q^12+q^24)(1+q^4)^2 mod 4
        closed = ProductSpec(
            (
                PolyFactor((1,) + (0,) * 11 + (2,) + (0,) * 11 + (1,)),
                BinomialFactor(1, 4, 2),
            )
        )
        assert series_from_spec(dec.b_spec, MOD4, 400) == series_from_spec(closed, MOD4, 400)

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
            )
            assert lhs == series_from_spec(spec, modulus, 500), kind

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
        assert str(dec.b_spec) == "(1+q^3+q^6)"
        assert dec.derivation == ("expand: (1-q^1)^6 -> (1+q^3+q^6) (mod 3)",)

    def test_supported_tail_goes_straight_to_B(self):
        tail = TailFamily(sign=-1, start=1, exp_offset=-1, scale=2)
        dec = split_AB(ProductSpec((BinomialFactor(-1, 1, -1), tail)), MOD2, 2)
        assert dec.a_multiset == PartMultiset.parse("1")
        assert dec.b_spec.factors == (tail,)
        assert dec.derivation == ()

    def test_supported_polynomial_goes_to_B(self):
        spec = ProductSpec((BinomialFactor(-1, 1, -1), PolyFactor((1, 0, 1))))
        dec = split_AB(spec, MOD2, 2)
        assert dec.b_spec.factors == (PolyFactor((1, 0, 1)),)
        assert dec.a_multiset == PartMultiset.parse("1")

    def test_unsupported_polynomial_fails(self):
        spec = ProductSpec((BinomialFactor(-1, 1, -1), PolyFactor((1, 1))))
        with pytest.raises(SplitFailed) as exc:
            split_AB(spec, MOD2, 2)
        assert str(exc.value) == "polynomial (1+q^1) is not supported on 2Z"


class TestBCertificate:
    def test_empty_product(self):
        assert validate_B_certificate(ProductSpec(()), MOD2, 4, 100)

    def test_four_rowed_tail(self):
        dec = split_AB(build_spec(GFKind.plane_rowed(4)), MOD2, 4)
        assert validate_B_certificate(dec.b_spec, MOD2, 4, 200)

    def test_unsupported_factor_fails(self):
        spec = ProductSpec((BinomialFactor(-1, 2, -1),))
        assert not validate_B_certificate(spec, MOD2, 4, 10)

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
            data = series_from_spec(spec, modulus, length).array()
            want = int(data[0]) == 1 and all(i % delta == 0 for i in range(length) if data[i])
            assert validate_B_certificate(spec, modulus, delta, length) == want, (spec, delta)
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
        assert display == builder


class TestOverplaneParity:
    def test_all_positive_indices_even(self):
        # every coefficient of the k-rowed plane overpartition series at
        # index >= 1 is divisible by 2
        for k in range(1, 6):
            s = series_from_spec(build_spec(GFKind.overplane_rowed(k)), MOD2, 301)
            assert list(s)[1:] == [0] * 300, k


class TestDerivationSoundness:
    def test_unsound_rewrite_is_rejected(self):
        # the validator refuses a rewrite whose sides expand differently
        from congcert import RuleValidationFailed

        ws = _Workspace(MOD2, 64)
        with pytest.raises(RuleValidationFailed):
            ws.apply_rule(
                "bogus",
                [BinomialFactor(-1, 1, 2)],
                [BinomialFactor(-1, 3, 1)],
            )
        assert ws.derivation == []

    def test_split_records_validated_steps(self):
        dec = split_AB(build_spec(GFKind.overplane_rowed(4)), MOD4, 4)
        assert dec.derivation, "expected a nonempty derivation"
        assert any("ratio" in step for step in dec.derivation)
        assert any("plus-to-minus" in step for step in dec.derivation)

    def test_validation_against_independent_expansion(self):
        # A*B must equal the original by the brute-force dense expansion too
        spec = build_spec(GFKind.plane_rowed(4))
        dec = split_AB(spec, MOD2, 4)
        combined = series_mul(
            series_from_spec(dec.a_spec, MOD2, 200),
            series_from_spec(dec.b_spec, MOD2, 200),
        )
        assert list(combined) == brute_expand(spec, 200, 2)


def _split_grid():
    """Named targets and offset tails of either sign over a few moduli and
    deltas: between them they reach every split rewrite (peel, ratio,
    plus-to-minus, expand, power-reduce of binomials and of tails)."""
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


def _split_record(target, modulus, delta):
    from congcert import CongcertError

    try:
        dec = split_AB(build_spec(target), modulus, delta)
    except CongcertError as exc:
        return f"{target} mod {modulus} delta {delta}: {type(exc).__name__}: {exc}"
    return (
        f"{target} mod {modulus} delta {delta}: A {dec.a_spec!r} B {dec.b_spec!r} "
        f"head {dec.a_multiset} length {dec.validation_length} " + " | ".join(dec.derivation)
    )


class TestSplitDigest:
    def test_split_grid_digest(self):
        # recorded before the exponent-divisibility rewrite was shared
        # between series and decompose; any change to a spec, head,
        # derivation or error message on this grid changes the digest
        import hashlib

        records = [_split_record(*case) for case in _split_grid()]
        assert len(records) == 280
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
        assert digest == "5964b0403764db10"


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
