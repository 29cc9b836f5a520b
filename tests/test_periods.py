import random

import pytest

from congcert import (
    EmptyMultiset,
    InvalidWindow,
    Modulus,
    NoPeriodFound,
    PartMultiset,
    b_ell,
    ell_free_part,
    empirical_min_period,
    kwong_period,
    m_ell,
    ord_prime,
    series_from_spec,
    verify_period_prefix,
)

R4_MULTISET = PartMultiset.parse("1,3:2,4:3")  # 1/((1-q)(1-q^3)^2(1-q^4)^3)


class TestValuations:
    @pytest.mark.parametrize("n,ell,want", [(18, 3, 2), (7, 2, 0), (48, 2, 4)])
    def test_ord(self, n, ell, want):
        assert ord_prime(n, ell) == want

    @pytest.mark.parametrize("n,ell,want", [(12, 2, 3), (12, 5, 12), (108, 3, 4)])
    def test_free_part(self, n, ell, want):
        assert ell_free_part(n, ell) == want

    def test_free_part_times_power_recovers_n(self):
        for n in range(1, 400):
            for ell in (2, 3, 5, 7):
                assert ell_free_part(n, ell) * ell ** ord_prime(n, ell) == n


class TestFormulaPieces:
    def test_b_from_worked_example(self):
        # weights 3^0 + 2*3^1 + 3*3^0 = 10, least power of 3 above is 27
        assert b_ell(R4_MULTISET, 3) == 3

    def test_b_singleton(self):
        assert b_ell(PartMultiset.parse("1"), 2) == 0

    def test_b_ones_and_threes(self):
        assert b_ell(PartMultiset.parse("1,3:3"), 2) == 2

    def test_m_from_worked_example(self):
        assert m_ell(R4_MULTISET, 3) == 4

    def test_m_eight_rowed_head(self):
        head = PartMultiset.parse("1,2:2,3:3,5:5,6:6,7:7")
        assert m_ell(head, 2) == 105

    def test_m_singleton(self):
        for ell in (2, 3, 5):
            assert m_ell(PartMultiset.parse("1"), ell) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyMultiset):
            b_ell(PartMultiset(()), 2)
        with pytest.raises(EmptyMultiset):
            m_ell(PartMultiset(()), 3)
        with pytest.raises(EmptyMultiset):
            kwong_period(PartMultiset(()), 2, 1)


class TestPeriodFormula:
    def test_worked_example(self):
        info = kwong_period(R4_MULTISET, 3, 1)
        assert info.period == 108
        assert (info.b, info.m, info.source) == (3, 4, "kwong-formula")

    def test_four_rowed_head(self):
        assert kwong_period(PartMultiset.parse("1,3:3"), 2, 1).period == 12

    def test_singleton(self):
        assert kwong_period(PartMultiset.parse("1"), 2, 1).period == 1

    def test_eight_and_nine_rowed_heads(self):
        assert kwong_period(PartMultiset.parse("1,2:2,3:3,5:5,6:6,7:7"), 2, 1).period == 2**5 * 105
        assert kwong_period(PartMultiset.parse("1,2:2,4:4,5:5,6:6,7:7,8:8"), 3, 1).period == 3**4 * 280

    def test_raising_exponent_multiplies_by_prime(self):
        rng = random.Random(5)
        for _ in range(30):
            ms = PartMultiset.from_values(
                rng.choices(range(1, 13), k=rng.randint(1, 6))
            )
            ell = rng.choice([2, 3, 5])
            n = rng.randint(1, 3)
            assert kwong_period(ms, ell, n + 1).period == ell * kwong_period(ms, ell, n).period


class TestPrefixCheck:
    def test_all_ones(self):
        ones = series_from_spec(
            PartMultiset.parse("1").to_product_spec(), Modulus(2, 1), 50
        )
        assert verify_period_prefix(ones, 1, 50)

    def test_twelve_periodic_head(self):
        spec = PartMultiset.parse("1,3:3").to_product_spec()
        s = series_from_spec(spec, Modulus(2, 1), 60)
        assert verify_period_prefix(s, 12, 60)
        assert not verify_period_prefix(s, 6, 60)

    def test_window_errors(self):
        s = series_from_spec(PartMultiset.parse("10").to_product_spec(), Modulus(2, 1), 10)
        with pytest.raises(InvalidWindow):
            verify_period_prefix(s, 10, 10)
        with pytest.raises(InvalidWindow):
            verify_period_prefix(s, 2, 11)


class TestEmpiricalMinimum:
    def test_worked_example_is_minimal(self):
        modulus = Modulus(3, 1)
        s = series_from_spec(R4_MULTISET.to_product_spec(), modulus, 3 * 108)
        assert empirical_min_period(s, 108, window=3) == 108

    def test_all_ones_collapses_to_one(self):
        s = series_from_spec(PartMultiset.parse("1").to_product_spec(), Modulus(2, 1), 40)
        assert empirical_min_period(s, 12, window=3) == 1

    def test_constant_sequence(self):
        s = series_from_spec(PartMultiset.parse("1").to_product_spec(), Modulus(2, 1), 12)
        assert empirical_min_period(s, 1, window=3) == 1

    def test_rejects_non_period(self):
        spec = PartMultiset.parse("1,3:3").to_product_spec()
        s = series_from_spec(spec, Modulus(2, 1), 60)
        with pytest.raises(NoPeriodFound):
            empirical_min_period(s, 5, window=3)


def random_multiset(rng):
    # part values <= 12, multiplicities <= 4, a handful of distinct parts;
    # singletons are excluded above exponent 1 (see TestSingletonEdge) and the
    # rare astronomically-long periods are resampled to keep the suite quick
    while True:
        pairs = [
            (rng.randint(1, 12), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))
        ]
        ms = PartMultiset(tuple(pairs))
        ell = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        if n > 1 and ms.total() < 2:
            continue
        if 5 * kwong_period(ms, ell, n).period <= 300_000:
            return ms, ell, n


class TestFormulaAgainstSeries:
    def test_fifty_random_multisets(self):
        # the formula period must hold over a 5x window and be exactly minimal
        rng = random.Random(424242)
        for _ in range(50):
            ms, ell, n = random_multiset(rng)
            info = kwong_period(ms, ell, n)
            modulus = Modulus(ell, n)
            window = 5
            s = series_from_spec(ms.to_product_spec(), modulus, window * info.period)
            assert verify_period_prefix(s, info.period, window * info.period), (ms, ell, n)
            assert empirical_min_period(s, info.period, window) == info.period, (ms, ell, n)


class TestSingletonEdge:
    def test_formula_is_a_period_but_not_minimal_above_exponent_one(self):
        # for a one-element multiset the count sequence is an indicator, so
        # its minimal period cannot grow with the modulus exponent; the
        # formula still returns a valid (non-minimal) period there
        cases = [("6", 3, 2, 6), ("2", 2, 2, 2), ("1", 2, 2, 1)]
        for text, ell, n, true_min in cases:
            ms = PartMultiset.parse(text)
            info = kwong_period(ms, ell, n)
            s = series_from_spec(ms.to_product_spec(), Modulus(ell, n), 5 * info.period)
            assert verify_period_prefix(s, info.period, 5 * info.period)
            assert empirical_min_period(s, info.period, 5) == true_min

    def test_singletons_exact_at_exponent_one(self):
        for text, ell in [("6", 3), ("2", 2), ("12", 2), ("9", 3)]:
            ms = PartMultiset.parse(text)
            info = kwong_period(ms, ell, 1)
            s = series_from_spec(ms.to_product_spec(), Modulus(ell, 1), 5 * info.period)
            assert empirical_min_period(s, info.period, 5) == info.period


class TestMultisetParsing:
    def test_parse_and_render(self):
        ms = PartMultiset.parse("1,3:2,4:3")
        assert ms.entries == ((1, 1), (3, 2), (4, 3))
        assert str(ms) == "1,3:2,4:3"
        assert ms.total() == 6

    def test_merges_duplicates(self):
        assert PartMultiset.parse("3,3,3:2").entries == ((3, 4),)
