import random

import pytest

from congcert import (
    BinomialFactor,
    IndexOutOfRange,
    InvalidParameter,
    ModSeries,
    Modulus,
    ModulusMismatch,
    NonUnitConstantTerm,
    PolyFactor,
    ProductSpec,
    TailFamily,
    coefficient,
    series_add,
    series_from_spec,
    series_inverse,
    series_mul,
    unit_series,
)
from _brute import brute_expand

MOD2 = Modulus(2, 1)
MOD3 = Modulus(3, 1)
MOD4 = Modulus(2, 2)
MOD5 = Modulus(5, 1)
BIG = Modulus(1000000007, 1)


def expand(factors, modulus, length):
    return series_from_spec(ProductSpec(tuple(factors)), modulus, length)


class TestModulus:
    def test_value(self):
        assert Modulus(3, 4).value == 81

    def test_rejects_composite(self):
        with pytest.raises(InvalidParameter):
            Modulus(10, 2)

    def test_rejects_zero_exponent(self):
        with pytest.raises(InvalidParameter):
            Modulus(5, 0)


class TestFromSpec:
    def test_twelve_periodic_head_mod2(self):
        # 1/((1-q)(1-q^3)^3): integers 1,1,1,4,4,4,10,10,10,20,20,20,35
        s = expand([BinomialFactor(-1, 1, -1), BinomialFactor(-1, 3, -3)], MOD2, 13)
        assert list(s) == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_plane_partition_count_at_three(self):
        tail = TailFamily(sign=-1, start=1, exp_offset=0, exp_scale=-1)
        s = expand([tail], Modulus(7, 1), 4)
        assert s[3] == 6

    def test_factor_cancels_inverse(self):
        s = expand([BinomialFactor(-1, 1, 1), BinomialFactor(-1, 1, -1)], MOD5, 10)
        assert list(s) == [1] + [0] * 9

    def test_tail_beyond_length_is_skipped(self):
        tail = TailFamily(sign=-1, start=50, exp_offset=-3)
        s = expand([tail], MOD3, 20)
        assert list(s) == [1] + [0] * 19

    def test_two_rowed_plane_partitions_of_two(self):
        head = [BinomialFactor(-1, 1, -1)]
        tail = [TailFamily(sign=-1, start=2, exp_offset=-2)]
        s = expand(head + tail, BIG, 3)
        assert s[2] == 3

    def test_overpartition_prefix(self):
        spec = [
            TailFamily(sign=1, start=1, exp_offset=1),
            TailFamily(sign=-1, start=1, exp_offset=-1),
        ]
        s = expand(spec, BIG, 5)
        assert list(s) == [1, 2, 4, 8, 14]
        assert coefficient(s, 4) == 14

    def test_rejects_non_unit_poly_inverse(self):
        with pytest.raises(NonUnitConstantTerm):
            expand([PolyFactor((2, 1), exponent=-1)], MOD4, 8)


class TestArithmetic:
    def test_geometric_series_telescopes(self):
        ones = expand([BinomialFactor(-1, 1, -1)], MOD2, 8)
        onemq = expand([BinomialFactor(-1, 1, 1)], MOD2, 8)
        assert list(series_mul(ones, onemq)) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_square_of_geometric_mod5(self):
        ones = expand([BinomialFactor(-1, 1, -1)], MOD5, 5)
        assert list(series_mul(ones, ones)) == [1, 2, 3, 4, 0]

    def test_unit_is_identity(self):
        s = expand([BinomialFactor(-1, 2, -3)], MOD5, 12)
        assert series_mul(unit_series(MOD5, 12), s) == s

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            series_add(unit_series(MOD2, 4), unit_series(MOD3, 4))

    def test_add_examples(self):
        a = ModSeries(MOD5, [1, 2, 3])
        b = ModSeries(MOD5, [4, 3, 2])
        assert list(series_add(a, b)) == [0, 0, 0]
        zero = ModSeries(MOD5, [0, 0, 0])
        assert series_add(a, zero) == a
        c = ModSeries(MOD2, [1, 1, 0, 1])
        assert list(series_add(c, c)) == [0, 0, 0, 0]

    def test_inverse_of_one_minus_q(self):
        a = expand([BinomialFactor(-1, 1, 1)], MOD3, 6)
        assert list(series_inverse(a)) == [1] * 6

    def test_inverse_of_one_plus_q_mod2(self):
        a = expand([BinomialFactor(1, 1, 1)], MOD2, 6)
        assert list(series_inverse(a)) == [1] * 6

    def test_inverse_matches_reciprocal_spec(self):
        fwd = [BinomialFactor(-1, 1, 1), BinomialFactor(-1, 2, 2), BinomialFactor(-1, 3, 3)]
        rev = [BinomialFactor(-1, 1, -1), BinomialFactor(-1, 2, -2), BinomialFactor(-1, 3, -3)]
        a = expand(fwd, MOD5, 20)
        assert series_inverse(a) == expand(rev, MOD5, 20)
        assert series_mul(a, series_inverse(a)) == unit_series(MOD5, 20)

    def test_inverse_needs_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            series_inverse(ModSeries(MOD4, [2, 1, 1]))

    def test_coefficient_bounds(self):
        s = unit_series(MOD2, 4)
        with pytest.raises(IndexOutOfRange):
            coefficient(s, 4)
        with pytest.raises(IndexOutOfRange):
            coefficient(s, -1)

    def test_mul_big_modulus_matches_python_convolution(self):
        # m*m*n >= 2^62 here, so this takes the exact big-int path
        rng = random.Random(7)
        m, n = BIG.value, 40
        xs = [rng.randrange(m) for _ in range(n)]
        ys = [rng.randrange(m) for _ in range(n)]
        expected = [sum(xs[i] * ys[k - i] for i in range(k + 1)) % m for k in range(n)]
        assert list(series_mul(ModSeries(BIG, xs), ModSeries(BIG, ys))) == expected

    def test_inverse_non_unit_message(self):
        with pytest.raises(NonUnitConstantTerm, match="constant term 3 is not invertible mod 9"):
            series_inverse(ModSeries(Modulus(3, 2), [3, 1]))


def random_spec(rng, max_factors=5):
    factors = []
    for _ in range(rng.randint(0, max_factors)):
        kind = rng.random()
        if kind < 0.55:
            factors.append(
                BinomialFactor(
                    rng.choice([1, -1]), rng.randint(1, 8), rng.choice([-3, -2, -1, 1, 2, 3])
                )
            )
        elif kind < 0.75:
            coeffs = [rng.choice([1, -1])] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 4))]
            factors.append(PolyFactor(tuple(coeffs), rng.choice([-1, 1, 2])))
        else:
            factors.append(
                TailFamily(
                    sign=rng.choice([1, -1]),
                    start=rng.randint(1, 4),
                    exp_offset=rng.choice([-2, -1, 1, 2]),
                    scale=rng.randint(1, 3),
                    offset=rng.randint(0, 2),
                )
            )
    return ProductSpec(tuple(factors))


class TestAgainstBruteForce:
    def test_random_specs_match_dense_expansion(self):
        rng = random.Random(2024)
        moduli = [MOD2, MOD3, MOD4, MOD5, Modulus(7, 2), Modulus(5, 2)]
        for _ in range(150):
            spec = random_spec(rng)
            modulus = rng.choice(moduli)
            length = rng.randint(1, 200)
            got = list(series_from_spec(spec, modulus, length))
            want = brute_expand(spec, length, modulus.value)
            assert got == want, f"{spec} mod {modulus} len {length}"

    def test_reduce_every_step_equals_reduce_at_end(self):
        # the kernel reduces at every pass; brute_expand only at the end
        rng = random.Random(99)
        for _ in range(60):
            spec = random_spec(rng)
            modulus = rng.choice([MOD2, MOD3, MOD4, Modulus(3, 2)])
            length = rng.randint(1, 100)
            assert list(series_from_spec(spec, modulus, length)) == brute_expand(
                spec, length, modulus.value
            )


class TestRingAxioms:
    def random_series(self, rng, modulus, length):
        return ModSeries(modulus, [rng.randrange(modulus.value) for _ in range(length)])

    def test_commutative_associative_distributive(self):
        rng = random.Random(7)
        moduli = [MOD2, MOD3, MOD4, MOD5, Modulus(2, 3), Modulus(3, 2), Modulus(7, 2)]
        for _ in range(200):
            modulus = rng.choice(moduli)
            n = rng.randint(1, 24)
            a = self.random_series(rng, modulus, n)
            b = self.random_series(rng, modulus, n)
            c = self.random_series(rng, modulus, n)
            assert series_mul(a, b) == series_mul(b, a)
            assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
            assert series_mul(a, series_add(b, c)) == series_add(
                series_mul(a, b), series_mul(a, c)
            )

    def test_inverse_roundtrip_on_random_units(self):
        rng = random.Random(11)
        for _ in range(80):
            modulus = rng.choice([MOD2, MOD3, MOD5, Modulus(2, 3), Modulus(7, 1)])
            n = rng.randint(1, 30)
            coeffs = [rng.randrange(modulus.value) for _ in range(n)]
            coeffs[0] = rng.choice([u for u in range(1, modulus.value) if _gcd(u, modulus.value) == 1])
            a = ModSeries(modulus, coeffs)
            assert series_mul(a, series_inverse(a)) == unit_series(modulus, n)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestImmutability:
    def test_series_array_is_read_only(self):
        s = unit_series(MOD3, 5)
        with pytest.raises(ValueError):
            s.array()[0] = 2

    def test_series_rejects_attribute_writes(self):
        s = unit_series(MOD3, 5)
        with pytest.raises(AttributeError):
            s.modulus = MOD2
