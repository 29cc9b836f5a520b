import random
from dataclasses import replace

import numpy as np
import pytest

from congcert import (
    BinomialFactor,
    CongcertError,
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

    @pytest.mark.parametrize("modulus", [MOD5, Modulus(2, 3), Modulus(3, 2)], ids=str)
    def test_positive_polynomial_powers_match_dense_expansion(self, modulus):
        # a power e >= 3 is built by squaring, and a square can be shorter
        # than the power asked for: (1+2q+2q^2)^3 squares to 5 of its 7
        # coefficients, and `_mul_mod` pads the rest with zeros
        for coeffs in [(1, 2, 2), (1, -1, 0, 3), (2, 1)]:
            for e in (3, 4, 5):
                for rest in [(), (BinomialFactor(-1, 2, -3),)]:
                    spec = ProductSpec((PolyFactor(coeffs, e),) + rest)
                    for length in (1, 5, 7, 8, 40):
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


def _factor_by_factor(tail, modulus, length):
    """The tail expanded one explicit factor (1 +- q^b)^e at a time, one pass
    per unit of exponent, by plain numpy shifts."""
    m = modulus.value
    c = np.zeros(length, dtype=np.int64)
    c[0] = 1
    n = tail.start
    while tail.base(n) < length:
        b, sign, e = tail.base(n), tail.sign, tail.exp_offset
        for _ in range(abs(e)):
            if e > 0:
                c[b:] = (c[b:] + sign * c[: length - b]) % m
            else:
                for k in range(b, length, b):
                    hi = min(k + b, length)
                    c[k:hi] = (c[k:hi] - sign * c[k - b : hi - b]) % m
        n += 1
    return c.tolist()


def _pentagonal(count):
    """Generalised pentagonal numbers k(3k-1)/2 for k = 1, -1, 2, -2, ..."""
    out = []
    k = 1
    while len(out) < count:
        out += [k * (3 * k - 1) // 2, k * (3 * k + 1) // 2]
        k += 1
    return out[:count]


def _python_convolution_at(xs, ys, k):
    return sum(map(int.__mul__, xs[: k + 1], reversed(ys[: k + 1])))


KERNEL_MODULI = [
    MOD2,
    Modulus(2, 3),
    MOD3,
    Modulus(3, 2),
    MOD5,
    Modulus(7, 1),
    Modulus(2, 30),
    BIG,
]


class TestEulerKernel:
    """Euler-shaped tails (no offset, constant exponent) go through powers of
    E = prod(1-q^n); the reference expands the same tail factor by factor."""

    def check(self, tail, modulus, length):
        got = list(expand([tail], modulus, length))
        assert got == _factor_by_factor(tail, modulus, length), f"{tail} mod {modulus} len {length}"

    def random_tail(self, rng):
        return TailFamily(
            sign=rng.choice([1, -1]),
            start=rng.randint(1, 7),
            exp_offset=rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4]),
            scale=rng.randint(1, 4),
        )

    def test_random_tails_match_explicit_factors(self):
        rng = random.Random(404)
        for _ in range(120):
            length = rng.choice([rng.randint(1, 60), rng.randint(1, 600), rng.randint(1, 3000)])
            self.check(self.random_tail(rng), rng.choice(KERNEL_MODULI), length)

    def test_short_and_pentagonal_lengths(self):
        rng = random.Random(405)
        lengths = [1, 2] + [p + d for p in _pentagonal(12) for d in (-1, 0, 1) if p + d >= 1]
        for length in lengths:
            self.check(self.random_tail(rng), rng.choice(KERNEL_MODULI), length)

    def test_jacobi_cube_identity(self):
        # E^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2), here through the limb path
        length = 10**5
        want = [0] * length
        k = 0
        while k * (k + 1) // 2 < length:
            want[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1) % BIG.value
            k += 1
        got = expand([TailFamily(sign=-1, start=1, exp_offset=3)], BIG, length)
        assert list(got) == want

    def test_inverse_euler_is_partition_numbers(self):
        length = 2000
        pentagonal = _pentagonal(80)  # the generalised ones below 2,000 and a few more
        p = [1] + [0] * (length - 1)
        for n in range(1, length):
            for j, g in enumerate(pentagonal):
                if g > n:
                    break
                p[n] += p[n - g] if j % 4 < 2 else -p[n - g]
        for modulus in (MOD2, Modulus(3, 2), BIG):
            got = expand([TailFamily(sign=-1, start=1, exp_offset=-1)], modulus, length)
            assert list(got) == [c % modulus.value for c in p]

    def offset_tail(self, rng):
        """A tail whose offset is j != 0 times its scale, j negative where
        the start allows, and the same tail with offset 0 from start + j."""
        tail = self.random_tail(rng)
        j = rng.choice([j for j in range(1 - tail.start, 5) if j])
        start = tail.start - j
        offset = TailFamily(tail.sign, start, tail.exp_offset, scale=tail.scale, offset=j * tail.scale)
        return offset, tail

    def test_offset_multiple_of_scale_is_a_shifted_start(self):
        # prod_{n>=start}(1 +- q^(sn+js)) = prod_{n>=start+j}(1 +- q^(sn))
        rng = random.Random(406)
        for _ in range(50):
            offset, shifted = self.offset_tail(rng)
            modulus = rng.choice(KERNEL_MODULI)
            length = rng.choice([1, rng.randint(1, 60), rng.randint(1, 600), rng.randint(1, 3000)])
            assert expand([offset], modulus, length) == expand([shifted], modulus, length), str(offset)
            self.check(offset, modulus, length)

    def test_offset_multiple_of_scale_never_folds(self, monkeypatch):
        import congcert.series as series

        def fold(*args, **kwargs):
            raise AssertionError("folded by number of parts")

        monkeypatch.setattr(series, "_fold_parts", fold)
        rng = random.Random(407)
        for _ in range(20):
            offset, shifted = self.offset_tail(rng)
            assert offset.offset
            assert expand([offset], MOD3, 5000) == expand([shifted], MOD3, 5000), str(offset)
        # the patch is live: an offset that is not a multiple of the scale folds
        with pytest.raises(AssertionError, match="folded"):
            expand([TailFamily(-1, 1, -1, scale=2, offset=1)], MOD3, 5000)

    @pytest.mark.parametrize(
        "rows,prime,length,digest,total",
        [
            (9, 3, 45369, "b3b5cf11bbb0bc6d", 45449),
            (10, 5, 63005, "69fb39fd62ca150f", 126637),
        ],
    )
    def test_ladder_prefix_digests(self, rows, prime, length, digest, total):
        # recorded with the factor-by-factor kernel that preceded the Euler route
        import hashlib

        from congcert import GFKind, build_spec

        s = series_from_spec(build_spec(GFKind.plane_rowed(rows)), Modulus(prime, 1), length)
        data = s.array().astype("<i8")
        assert hashlib.sha256(data.tobytes()).hexdigest()[:16] == digest
        assert int(data.sum()) == total


class TestFoldedTails:
    """A constant-exponent tail whose offset is not a multiple of its scale
    is folded by number of parts at exponent +-1, then raised to |e|."""

    @pytest.mark.parametrize("e", [2, 3, 7, -5])
    def test_power_is_repeated_unit_tail(self, e):
        rng = random.Random(1400 + e)
        for _ in range(12):
            scale = rng.randint(2, 5)
            tail = TailFamily(rng.choice([1, -1]), rng.randint(1, 3), e, scale=scale,
                              offset=rng.randint(1, scale - 1))
            unit = replace(tail, exp_offset=1 if e > 0 else -1)
            modulus = rng.choice(KERNEL_MODULI)
            length = rng.choice([rng.randint(1, 100), rng.randint(100, 3000)])
            got = expand([tail], modulus, length)
            want = expand([unit] * abs(e), modulus, length)
            assert got == want, f"{tail} mod {modulus} len {length}"

    def test_huge_exponent_finishes(self):
        # (1-q^(2n+1))^e from n = 0 mod 3 below 2,000 < 3^7: a power 3^7 of
        # the tail is 1 there, so e = 10^11 + 1 acts as e mod 3^7 = 182
        tail = TailFamily(-1, 0, 10**11 + 1, scale=2, offset=1)
        got = expand([tail], MOD3, 2000)
        assert got == expand([replace(tail, exp_offset=182)], MOD3, 2000)


CARRY_MODULI = [Modulus(ell, n) for ell in (2, 3, 5) for n in (1, 2, 3)]


def _carry_exponents(modulus):
    """ell^N - 1, ell^N + 1, 2 ell^N + 1, -(ell^N + 1) and ell^(N+1) - 1."""
    q = modulus.value
    return (q - 1, q + 1, 2 * q + 1, -(q + 1), modulus.prime * q - 1)


def _carry_lengths(ell, b):
    """Lengths just below, at and just above ell^k * b for k = 0, 1, 2: the
    carried bases ell^k * b fall either side of the last index."""
    around = (ell**k * b + d for k in range(3) for d in (-1, 0, 1))
    return sorted({n for n in around if n >= 1})


class TestFrobeniusCarries:
    """A net exponent e, of a binomial or of E(q^s), is carried as
    e = r + ell^N t: r, of e's sign and |r| < ell^N, stays at its base, and
    ell^N t moves to ell times it; bases at or past L are dropped.  The
    dense expansion over the integers, one factor at a time, is the
    reference."""

    def test_carry_shape(self):
        from congcert.series import _frobenius

        # (1-q^3)^-7 mod 2 is one pass at each of 3, 6 and 12
        assert _frobenius({(-1, 3): -7}, MOD2, 13) == {(-1, 3): -1, (-1, 6): -1, (-1, 12): -1}
        assert _frobenius({(-1, 3): -7}, MOD2, 12) == {(-1, 3): -1, (-1, 6): -1}
        # mod 9, 28 = 1 + 9*3 moves (1+q^2)^27 to (1+q^6)^9, which meets -3 there
        got = _frobenius({(1, 2): 28, (1, 6): -3}, Modulus(3, 2), 100)
        assert got == {(1, 2): 1, (1, 6): 6}
        # a carry that cancels what it lands on leaves nothing
        assert _frobenius({(-1, 1): 4, (-1, 2): -2}, MOD4, 100) == {}
        assert _frobenius({(-1, 5): 3}, MOD2, 5) == {}

    @pytest.mark.parametrize("modulus", CARRY_MODULI, ids=str)
    def test_binomials_match_brute_force(self, modulus):
        for e in _carry_exponents(modulus):
            for exponent in (e, -e):
                for sign in (1, -1):
                    for b in (1, 2):
                        spec = ProductSpec((BinomialFactor(sign, b, exponent),))
                        for length in _carry_lengths(modulus.prime, b):
                            got = list(series_from_spec(spec, modulus, length))
                            assert got == brute_expand(spec, length, modulus.value), (
                                f"{spec} mod {modulus} len {length}"
                            )

    @pytest.mark.parametrize("modulus", CARRY_MODULI, ids=str)
    def test_euler_tails_match_brute_force(self, modulus):
        rng = random.Random(1500 + modulus.value)
        for e in _carry_exponents(modulus):
            for exponent in (e, -e):
                for sign in (1, -1):
                    b = rng.choice([1, 2])
                    spec = ProductSpec((TailFamily(sign, rng.randint(1, 2), exponent, scale=b),))
                    for length in _carry_lengths(modulus.prime, b):
                        got = list(series_from_spec(spec, modulus, length))
                        assert got == brute_expand(spec, length, modulus.value), (
                            f"{spec} mod {modulus} len {length}"
                        )

    def test_one_inverse_of_euler(self, monkeypatch):
        # E^-10 mod 2 is E(q^2)^-1 E(q^8)^-1: one inverse, at half length
        import congcert.series as series

        lengths = []
        real = series._euler_inverse

        def spy(n, m):
            lengths.append(n)
            return real(n, m)

        monkeypatch.setattr(series, "_euler_inverse", spy)
        for length in (1, 2, 3, 8, 9, 1000, 1001):
            lengths.clear()
            got = expand([TailFamily(-1, 1, -10)], MOD2, length)
            assert lengths == ([-(-length // 2)] if length > 2 else []), length
            assert got == expand([TailFamily(-1, 1, -1, scale=s) for s in (2, 8)], MOD2, length)
            assert list(got) == _factor_by_factor(TailFamily(-1, 1, -10), MOD2, length)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_powers_share_one_inverse(self, g, monkeypatch):
        # E(q^g)^-1 E(q^3g)^-2 E(q^2g)^3 mod 7: one inverse of E, at the
        # length E(q^g)^-1 needs, and products at the gcd g of the scales;
        # the reference multiplies the three tails, each expanded alone
        import congcert.series as series

        lengths = []
        real = series._euler_inverse

        def spy(n, m):
            lengths.append(n)
            return real(n, m)

        monkeypatch.setattr(series, "_euler_inverse", spy)
        modulus = Modulus(7, 1)
        tails = [TailFamily(-1, 1, e, scale=k * g) for k, e in ((1, -1), (3, -2), (2, 3))]
        for length in (1, 2, 3 * g, 3 * g + 1, 500, 1001):
            want = unit_series(modulus, length)
            for tail in tails:
                want = series_mul(want, expand([tail], modulus, length))
            lengths.clear()
            assert expand(tails, modulus, length) == want, length
            assert lengths == ([-(-length // g)] if g < length else []), length


class TestSeededEulerInverse:
    """1/E starts from the exact partition numbers below 2^63; the plain
    Newton inverse of E, squared up, is the reference."""

    def test_table_is_partition_numbers(self):
        from congcert import count_partitions_max_part
        from congcert.series import _partition_numbers

        table = _partition_numbers()
        assert [int(p) for p in table[:61]] == [1] + [
            count_partitions_max_part(n, n) for n in range(1, 61)
        ]

    def test_table_stops_below_two_to_sixty_three(self):
        from congcert import count_partitions_max_part
        from congcert.series import _partition_numbers

        table = _partition_numbers()
        assert table.size == 406
        assert int(table[405]) == count_partitions_max_part(405, 405) < 2**63
        assert count_partitions_max_part(406, 406) >= 2**63

    @pytest.mark.parametrize("n", [1, 2, 405, 406, 407, 1000, 5000])
    def test_matches_unseeded_newton(self, n):
        from congcert.series import _euler, _euler_product, _inverse, _pow_mod

        for m in (2, 7, 125, 2**30, 10**9 + 7):
            inverse = _inverse(_euler(n, m), n, m, shown=1)
            for e in (-1, -2, -7):
                want = _pow_mod(inverse, -e, m, n)
                assert np.array_equal(_euler_product({(-1, 1): e}, n, m), want), (e, m)


class TestExactProduct:
    @pytest.mark.parametrize("modulus", [BIG, Modulus(2, 30)], ids=str)
    def test_limb_path_matches_python_convolution(self, modulus):
        rng = random.Random(modulus.value)
        n = 1 << 16
        xs = [rng.randrange(modulus.value) for _ in range(n)]
        ys = [rng.randrange(modulus.value) for _ in range(n)]
        got = series_mul(ModSeries(modulus, xs), ModSeries(modulus, ys))
        for k in rng.sample(range(n), 200) + [0, n - 1]:
            assert got[k] == _python_convolution_at(xs, ys, k) % modulus.value, k

    def test_guard_rejects_inexact_rounding(self, monkeypatch):
        # lift the limb bound: one float pass over 30-bit residues cannot be exact
        import congcert.series as series

        monkeypatch.setattr(series, "_FFT_EXACT_LIMIT", 1 << 80)
        rng = random.Random(3)
        xs = [rng.randrange(BIG.value) for _ in range(4096)]
        with pytest.raises(CongcertError, match="lost exactness"):
            series_mul(ModSeries(BIG, xs), ModSeries(BIG, xs[::-1]))


    def test_cumulative_sum_guard_raises_before_int64_overflow(self):
        # no memory: the rows are empty, and the check precedes every sum
        from congcert.series import KERNEL_MODULUS_LIMIT, _cumsum_rows_mod

        m = KERNEL_MODULUS_LIMIT - 1
        rows = np.zeros(((1 << 62) // m + 1, 0), dtype=np.int64)
        with pytest.raises(CongcertError, match="could overflow int64"):
            _cumsum_rows_mod(rows, m, alternating=False)


class TestUnitPasses:
    @pytest.mark.parametrize("m", [2, 27, 2**30])
    def test_division_undoes_multiplication(self, m):
        # every base from one row of coefficients to one per coefficient,
        # so both the row loop (up to four rows) and the cumulative sum run
        from congcert.series import _div_binomial, _mul_binomial

        rng = np.random.default_rng(m % 1000)
        for n in (1, 7, 60, 61):
            for base in range(1, n + 2):
                for sign in (1, -1):
                    arr = rng.integers(0, m, n)
                    got = arr.copy()
                    _div_binomial(got, sign, base, m)
                    _mul_binomial(got, sign, base, m)
                    assert np.array_equal(got, arr), (n, base, sign)


HUGE = 1 << 60

# Crossover settings that force each route of the net-binomial kernel.  In
# "numerator product" the numerator is applied by `_mul_poly`, by sections
# on a series supported on sZ, s > 1, and else with s = 1.
NO_NUMERATOR = dict(_PRODUCT_PASSES=HUGE)
ROUTES = {
    "unit passes": dict(NO_NUMERATOR, _INVERSE_PASSES=HUGE, _HEAP_PASSES=HUGE),
    "numerator product": dict(
        _PRODUCT_PASSES=0, _PRODUCT_OVERHEAD=0, _INVERSE_PASSES=HUGE, _HEAP_PASSES=HUGE
    ),
    "denominator inverse": dict(
        NO_NUMERATOR, _INVERSE_PASSES=0, _INVERSE_OVERHEAD=0, _HEAP_PASSES=HUGE
    ),
    "heap builder": dict(
        _PRODUCT_PASSES=0, _PRODUCT_OVERHEAD=0, _INVERSE_PASSES=0, _INVERSE_OVERHEAD=0,
        _HEAP_PASSES=0,
    ),
}


def _route_spec(rng):
    """Net binomials with |e| <= 80 and bases <= 60, sometimes on top of an
    Euler-shaped tail or a polynomial factor."""
    factors = [
        BinomialFactor(
            rng.choice([1, -1]), rng.randint(1, 60), rng.choice([-1, 1]) * rng.randint(1, 80)
        )
        for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.3:
        sign, start = rng.choice([1, -1]), rng.randint(1, 3)
        factors.append(TailFamily(sign=sign, start=start, exp_offset=rng.choice([-2, -1, 1])))
    if rng.random() < 0.2:
        factors.append(PolyFactor((1, rng.randint(-2, 2), 0, 1), rng.choice([-1, 2])))
    return ProductSpec(tuple(factors))


class TestBinomialRoutes:
    """Every route of the net-binomial kernel gives the same records: unit
    passes over the series, the numerator as one `_mul_poly`, the
    denominator as one inverse and product, and either polynomial built by
    the heap of closed-form powers."""

    def expand_by(self, monkeypatch, route, spec, modulus, length):
        import congcert.series as series

        for name, value in ROUTES[route].items():
            monkeypatch.setattr(series, name, value)
        return series_from_spec(spec, modulus, length)

    def test_forced_routes_agree(self, monkeypatch):
        import congcert.series as series

        built = []  # (route, heap) of every polynomial the routes built
        real = series._binomial_product

        def spy(factors, m, size, heap):
            built.append((route, heap))
            return real(factors, m, size, heap)

        monkeypatch.setattr(series, "_binomial_product", spy)
        rng = random.Random(1106)
        moduli = [MOD2, MOD3, Modulus(5, 2), Modulus(2, 30), Modulus(7, 1)]
        for _ in range(50):
            spec, modulus = _route_spec(rng), rng.choice(moduli)
            length = rng.choice([rng.randint(1, 400), rng.randint(400, 4000)])
            records = {}
            for route in ROUTES:
                records[route] = self.expand_by(monkeypatch, route, spec, modulus, length)
            want = records["unit passes"]
            for route, got in records.items():
                assert got == want, f"{route}: {spec} mod {modulus} len {length}"
        assert ("unit passes", True) not in built and ("unit passes", False) not in built
        assert ("numerator product", False) in built
        assert ("denominator inverse", False) in built
        assert ("heap builder", True) in built

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_forced_routes_match_brute_force(self, monkeypatch, route):
        rng = random.Random(1107)
        for _ in range(10):
            spec, modulus = _route_spec(rng), rng.choice([MOD2, Modulus(3, 2), MOD5])
            length = rng.randint(1, 300)
            got = list(self.expand_by(monkeypatch, route, spec, modulus, length))
            assert got == brute_expand(spec, length, modulus.value), f"{spec} len {length}"

    def test_ladder_expansion_memory(self):
        # `_mul_poly` keeps O(s * block + deg P) beside the series,
        # where a full-length product of P would double the peak
        import tracemalloc

        from congcert import GFKind, build_spec

        spec = build_spec(GFKind.plane_rowed(10))
        series_from_spec(spec, MOD5, 63_005)
        tracemalloc.start()
        try:
            series_from_spec(spec, MOD5, 63_005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("modulus", [MOD3, MOD4], ids=str)
    def test_plane_matches_unit_passes(self, monkeypatch, modulus):
        # prod (1-q^n)^-n: one net exponent per n below L, O(L^3) by unit passes
        from congcert import GFKind, build_spec

        spec = build_spec(GFKind.plane())
        got = series_from_spec(spec, modulus, 200)
        assert got == self.expand_by(monkeypatch, "unit passes", spec, modulus, 200)


SECTION_MODULI = [2, 5, 7, 125, 2**30, 2**31 - 1]


class TestSectionedProduct:
    """G = P(q) H(q^s) section by section, by FFT products sharing H's
    spectrum (limbs included), equals the full product of P and the strided
    series."""

    @pytest.mark.parametrize("m", SECTION_MODULI)
    @pytest.mark.parametrize("s", range(2, 10))
    def test_matches_full_product(self, s, m):
        from congcert.series import _mul_mod, _mul_poly

        rng = np.random.default_rng(100 * s + m % 97)
        # depths (rows of sections) from one, where a section has at most
        # one coefficient, to sections longer than H
        for depth in (1, 2, 3, 8, 40):
            for size in (depth * s - s + 1, depth * s):
                poly = rng.integers(0, m, size, dtype=np.int64)
                poly[0] = 1
                for n in (1, s - 1, s, size, size + 1, 7 * s * depth + 3):
                    if n < 1:
                        continue
                    arr = np.zeros(n, dtype=np.int64)
                    arr[::s] = rng.integers(0, m, len(range(0, n, s)))
                    want = _mul_mod(arr, poly[:n], m, n)
                    _mul_poly(arr, poly[:n], s, m)
                    assert np.array_equal(arr, want), (depth, size, n)

    @pytest.mark.parametrize("m", [2, 7, 125, 2**30, 2**31 - 1])
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 9])
    def test_block_edges(self, s, m, monkeypatch):
        # H of k blocks and one coefficient less or more; with
        # n = s*h - s + 1, arr[r::s] is one shorter than H for r > 0, so
        # H's last chunk can start where such a section ends
        import congcert.series as series
        from congcert.series import _mul_mod, _mul_poly

        rng = np.random.default_rng(10 * s + m % 89)
        for block in (8, 64):
            monkeypatch.setattr(series, "_PRODUCT_BLOCK", block)
            # sections shorter than, as long as and longer than the block
            for size in (1, s + 1, block * s - 1, block * s + s + 1):
                poly = rng.integers(0, m, size, dtype=np.int64)
                for k in (1, 2, 3):
                    for h in (k * block - 1, k * block, k * block + 1):
                        for n in (s * h, s * h - s + 1):
                            arr = np.zeros(n, dtype=np.int64)
                            arr[::s] = rng.integers(0, m, h)
                            want = _mul_mod(arr, poly, m, n)
                            _mul_poly(arr, poly, s, m)
                            assert np.array_equal(arr, want), (block, size, h, n)

    @pytest.mark.parametrize("rows", [7, 8, 9, 10])
    def test_ladder_shapes_take_the_sectioned_route(self, rows, monkeypatch):
        # after the Frobenius carries G is P(q) E(q^s)^-e with s > 1 on every
        # rung, and P takes the sectioned product on rungs 7, 9 and 10.  On
        # rung 8 mod 2, P is 8 passes at exponent 1, below the product
        # charge at every length: there the route is the one `_route` gives
        import congcert.series as series
        from congcert import GFKind, build_spec

        prime = {7: 7, 8: 2, 9: 3, 10: 5}[rows]
        calls, routes = [], []
        real, real_route = series._mul_poly, series._route

        def spy(arr, poly, s, m):
            calls.append(s)
            real(arr, poly, s, m)

        def route_spy(factors, n, passes):
            routes.append(real_route(factors, n, passes))
            return routes[-1]

        monkeypatch.setattr(series, "_mul_poly", spy)
        monkeypatch.setattr(series, "_route", route_spy)
        spec = build_spec(GFKind.plane_rowed(rows))
        got = series_from_spec(spec, Modulus(prime, 1), 4000)
        assert len(routes) == 1  # the numerator's; G has no denominator
        assert bool(calls) == (routes[0] is not None if rows == 8 else True)
        assert all(s > 1 for s in calls)
        monkeypatch.setattr(series, "_mul_poly", real)
        for name, value in NO_NUMERATOR.items():
            monkeypatch.setattr(series, name, value)
        assert got == series_from_spec(spec, Modulus(prime, 1), 4000)

    def test_strided_specs_match_unit_passes(self, monkeypatch):
        # Euler tails of scale s and polynomials on sZ keep the series on a
        # stride; the unit passes are the reference
        import congcert.series as series

        rng = random.Random(1313)
        moduli = [MOD2, MOD5, Modulus(5, 3), Modulus(2, 30), Modulus(2**31 - 1, 1)]
        for _ in range(40):
            s = rng.randint(2, 9)
            sign, e = rng.choice([1, -1]), rng.choice([-3, -1, 2])
            factors = [TailFamily(sign=sign, start=1, exp_offset=e, scale=s)]
            if rng.random() < 0.3:  # 1 + c q^s
                coeffs = (1,) + (0,) * (s - 1) + (rng.randint(1, 4),)
                factors.append(PolyFactor(coeffs, rng.choice([-1, 2])))
            if rng.random() < 0.2:  # 1 + c q, off the stride
                factors.append(PolyFactor((1, rng.randint(1, 4)), rng.choice([-1, 2])))
            if rng.random() < 0.3:  # folded past sqrt(L): bases on sZ, or not
                scale, offset = rng.choice([(s, 1), (2 * s, s)])
                e = rng.choice([-1, 1])
                factors.append(TailFamily(sign=sign, start=1, exp_offset=e, scale=scale, offset=offset))
            factors += [
                BinomialFactor(rng.choice([1, -1]), rng.randint(1, 30), rng.randint(1, 40))
                for _ in range(rng.randint(1, 4))
            ]
            spec, modulus = ProductSpec(tuple(factors)), rng.choice(moduli)
            length = rng.choice([rng.randint(1, 60), rng.randint(60, 3000)])
            with monkeypatch.context() as patch:
                for name, value in ROUTES["numerator product"].items():
                    patch.setattr(series, name, value)
                got = series_from_spec(spec, modulus, length)
            with monkeypatch.context() as patch:
                for name, value in ROUTES["unit passes"].items():
                    patch.setattr(series, name, value)
                want = series_from_spec(spec, modulus, length)
            assert got == want, f"{spec} mod {modulus} len {length}"

    def test_expansion_is_handed_over_read_only(self):
        from congcert import GFKind, build_spec

        got = series_from_spec(build_spec(GFKind.plane_rowed(7)), Modulus(7, 1), 500)
        assert not got.array().flags.writeable
        assert got.array().dtype == np.int64 and got.array().ndim == 1


class TestExpansionDigest:
    def test_expansion_grid_digest(self):
        # recorded before the blocked and sectioned products became one
        # `_mul_poly`; any change to a coefficient on this grid changes the
        # digest.  The ladder lengths put L/5 either side of the 8,192
        # coefficients of a product block.
        import hashlib

        from congcert import GFKind, build_spec

        h = hashlib.sha256()
        ladder = build_spec(GFKind.plane_rowed(10))
        for length in (5 * 8192 - 5, 5 * 8192, 5 * 8192 + 5):
            h.update(series_from_spec(ladder, MOD5, length).array().astype("<i8").tobytes())
        rng = random.Random(1414)
        moduli = [MOD2, MOD3, Modulus(5, 2), Modulus(7, 1), Modulus(2, 3), Modulus(2, 30)]
        for _ in range(150):
            spec = _route_spec(rng)
            if rng.random() < 0.5:  # on a stride: Euler tails of scale s > 1
                s = rng.randint(2, 9)
                spec *= ProductSpec((TailFamily(-1, 1, rng.choice([-3, -1, 2]), scale=s),))
            if rng.random() < 0.3:  # folded by number of parts
                e, s = rng.choice([-3, -1, 1, 2]), rng.randint(2, 5)
                spec *= ProductSpec((TailFamily(rng.choice([1, -1]), 1, e, scale=s, offset=1),))
            length = rng.choice([rng.randint(1, 2000), rng.randint(2000, 20000)])
            got = series_from_spec(spec, rng.choice(moduli), length)
            h.update(got.array().astype("<i8").tobytes())
        assert h.hexdigest()[:16] == "defcde0a579fc82a"


    def test_ladder_spot_check_digest(self):
        # the G of each ladder rung at its spot-check length, recorded before
        # the Frobenius carries
        import hashlib

        from congcert import GFKind, build_spec

        h = hashlib.sha256()
        for rows, prime, length in (
            (7, 7, 5887), (8, 2, 6728), (9, 3, 45369), (10, 2, 10082), (10, 5, 63005)
        ):
            got = series_from_spec(build_spec(GFKind.plane_rowed(rows)), Modulus(prime, 1), length)
            h.update(got.array().astype("<i8").tobytes())
        assert h.hexdigest()[:16] == "227a9c26d7f9813c"

    def test_plane_digest(self):
        # prod (1-q^n)^-n: an exponent at every base below L, most of them
        # carried; recorded before the Frobenius carries
        import hashlib

        from congcert import GFKind, build_spec

        h = hashlib.sha256()
        plane = build_spec(GFKind.plane())
        full, short = (1, 2, 3, 406, 1999, 2000), (1, 2, 3, 406, 1000)
        for modulus, lengths in (
            (MOD2, full), (MOD4, full), (MOD3, full), (MOD5, full), (Modulus(7, 1), full),
            (Modulus(3, 3), short), (Modulus(2, 30), short),
        ):
            for length in lengths:
                h.update(series_from_spec(plane, modulus, length).array().astype("<i8").tobytes())
        assert h.hexdigest()[:16] == "607e70d638c902b3"


def _plain_newton(f, n, m, seed=None):
    """1/f to n coefficients mod m by g <- g(2 - fg) on Python integers,
    with plain truncated products: the reference for `_inverse`."""
    f = np.array([int(c) for c in f[:n]], dtype=object)
    start = [pow(int(f[0]), -1, m)] if seed is None else [int(c) for c in seed[:n]]
    g = np.array(start, dtype=object)
    while g.size < n:
        k2 = min(2 * g.size, n)
        correction = -np.convolve(f[:k2], g)[:k2]
        correction[0] += 2
        g = np.convolve(g, correction)[:k2] % m
        g = np.concatenate((g, np.zeros(k2 - g.size, dtype=object)))  # f, g short
    return np.array([int(c) for c in g], dtype=np.int64)


INVERSE_MODULI = [2, 7, 125, 2**30, 10**9 + 7]


class TestNewtonInverse:
    """The one-spectrum Newton step against the plain iteration."""

    @pytest.mark.parametrize("m", INVERSE_MODULI)
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 300])
    def test_full_length_f(self, n, m):
        from congcert.series import _inverse

        rng = np.random.default_rng(n + m % 1009)
        f = rng.integers(0, m, n, dtype=np.int64)
        f[0] = 1 if m % 2 == 0 or m % 5 == 0 else rng.integers(1, m)
        assert np.array_equal(_inverse(f, n, m, shown=1), _plain_newton(f, n, m))

    @pytest.mark.parametrize("m", INVERSE_MODULI)
    @pytest.mark.parametrize("degree", [0, 1, 5, 40, 130, 299])
    def test_short_polynomial_f(self, degree, m):
        # the middle product's end, k + deg f, falls below, at and above 2k
        from congcert.series import _inverse

        rng = np.random.default_rng(degree + m % 1013)
        f = rng.integers(0, m, degree + 1, dtype=np.int64)
        f[0] = 1
        for n in (1, 97, 300):
            assert np.array_equal(_inverse(f, n, m, shown=1), _plain_newton(f, n, m)), n

    @pytest.mark.parametrize("m", INVERSE_MODULI)
    def test_seeded_starts(self, m):
        from congcert.series import _inverse

        rng = np.random.default_rng(m % 1019)
        n = 250
        for f in (rng.integers(0, m, n, dtype=np.int64), rng.integers(0, m, 17, dtype=np.int64)):
            f[0] = 1
            want = _plain_newton(f, n, m)
            for k in (1, 2, 5, 100, 249, 250, 400):
                got = _inverse(f, n, m, shown=1, seed=want[:k])
                assert np.array_equal(got, want), k

    @pytest.mark.parametrize("short", [False, True], ids=["full f", "short f"])
    def test_peak_memory(self, short):
        # the last step holds g, g[:k]'s spectrum and one product's
        # transforms (at the parent commit: 8.6 and 5.3 arrays of n int64)
        import tracemalloc

        from congcert.series import _euler, _inverse, _mul_mod, binomial_power

        n, m = 200_000, 7
        f = _euler(n, m)
        if short:
            f = np.ones(1, dtype=np.int64)
            for b in range(1, 10):  # degree 165
                f = _mul_mod(f, binomial_power(-1, b, 10 - b, m), m, f.size + b * (10 - b))
        _inverse(f, 1000, m, shown=1)
        tracemalloc.start()
        try:
            _inverse(f, n, m, shown=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = peak / (8 * n)
        assert arrays <= (4.5 if short else 6.5), f"peak {arrays:.2f} arrays of n int64"
