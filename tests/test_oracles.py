import pytest

from congcert import (
    ComplexityGuard,
    GFKind,
    Modulus,
    PartMultiset,
    build_spec,
    count_overpartitions,
    count_partitions,
    count_partitions_max_part,
    count_partitions_multiset,
    count_plane_overpartitions,
    count_plane_overpartitions_rowed,
    count_plane_partitions,
    count_plane_partitions_rowed,
    series_from_spec,
)

# far above any count reached at the tested sizes, so residues equal counts
BIG = Modulus(1000000007, 1)


class TestPartitionCounts:
    def test_small_values(self):
        assert count_partitions(5) == 7
        assert [count_partitions(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_labelled_multiset(self):
        # two labelled 1s, three labelled 2s, one 3
        s = PartMultiset.from_values([1, 1, 2, 2, 2, 3])
        assert count_partitions_multiset(2, s) == 6

    def test_empty_sum(self):
        assert count_partitions_multiset(0, PartMultiset.parse("5,7")) == 1

    def test_bounded_parts(self):
        assert count_partitions_max_part(6, 4) == 9
        assert count_partitions_max_part(5, 5) == count_partitions(5)

    def test_count_guard(self):
        # counted from the entries, so each is refused before any table is built
        with pytest.raises(ComplexityGuard):
            count_partitions(100_000)
        with pytest.raises(ComplexityGuard):
            count_partitions_max_part(10**9, 10**9)
        with pytest.raises(ComplexityGuard):
            count_partitions_multiset(20, PartMultiset(((1, 10**6),)))
        # parts above n cost nothing, however many
        assert count_partitions_multiset(5, PartMultiset(((1, 1), (6, 10**12)))) == 1
        assert count_partitions_max_part(5, 10**12) == 7

    def test_count_guard_boundary(self, monkeypatch):
        from congcert import oracles

        # p(n) takes n + 1 table entries and n + (n - 1) + ... + 1 updates
        monkeypatch.setattr(oracles, "COUNT_CAP", 15)
        assert count_partitions(4) == 5
        with pytest.raises(ComplexityGuard, match="capped at 15"):
            count_partitions(5)


class TestPlanePartitionCounts:
    def test_total_of_three(self):
        assert count_plane_partitions(3) == 6

    def test_two_rowed_of_two(self):
        assert count_plane_partitions_rowed(2, 2) == 3

    def test_single_cell(self):
        assert count_plane_partitions_rowed(5, 1, 1) == 1

    def test_known_prefix(self):
        assert [count_plane_partitions(n) for n in range(7)] == [1, 1, 3, 6, 13, 24, 48]

    def test_row_saturation(self):
        for n in range(9):
            want = count_plane_partitions(n)
            for rows in range(max(1, n), n + 3):
                assert count_plane_partitions_rowed(n, rows) == want

    def test_guard(self):
        with pytest.raises(ComplexityGuard):
            count_plane_partitions(31)


class TestOverpartitionCounts:
    def test_small_values(self):
        assert count_overpartitions(0) == 1
        assert count_overpartitions(1) == 2
        assert count_overpartitions(4) == 14
        assert [count_overpartitions(n) for n in range(5)] == [1, 2, 4, 8, 14]

    def test_guard(self):
        with pytest.raises(ComplexityGuard):
            count_overpartitions(51)


class TestPlaneOverpartitionCounts:
    def test_total_of_three(self):
        assert count_plane_overpartitions(3) == 16

    def test_single_row_of_one(self):
        assert count_plane_overpartitions_rowed(1, 1) == 2

    def test_single_row_equals_overpartitions(self):
        for n in range(13):
            assert count_plane_overpartitions_rowed(n, 1) == count_overpartitions(n)

    def test_guard(self):
        with pytest.raises(ComplexityGuard):
            count_plane_overpartitions_rowed(13, 2)


class TestOracleSeriesEquivalence:
    """Every builder's series must reproduce the brute-force counts exactly."""

    def test_partitions(self):
        s = series_from_spec(build_spec(GFKind.partitions()), BIG, 26)
        for n in range(26):
            assert s[n] == count_partitions(n)

    def test_multiset(self):
        ms = PartMultiset.from_values([1, 1, 2, 2, 2, 3])
        s = series_from_spec(build_spec(GFKind.from_multiset(ms)), BIG, 26)
        for n in range(26):
            assert s[n] == count_partitions_multiset(n, ms)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_bounded_parts(self, m):
        s = series_from_spec(build_spec(GFKind.maxpart(m)), BIG, 26)
        for n in range(26):
            assert s[n] == count_partitions_max_part(n, m)

    def test_plane(self):
        s = series_from_spec(build_spec(GFKind.plane()), BIG, 26)
        for n in range(26):
            assert s[n] == count_plane_partitions(n)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_plane_rowed(self, r):
        s = series_from_spec(build_spec(GFKind.plane_rowed(r)), BIG, 26)
        for n in range(26):
            assert s[n] == count_plane_partitions_rowed(n, r)

    @pytest.mark.parametrize("box", [(1, 1), (2, 2), (1, 4), (3, 2), (4, 4), (2, 3)])
    def test_plane_box(self, box):
        r, c = box
        s = series_from_spec(build_spec(GFKind.plane_box(r, c)), BIG, 26)
        for n in range(26):
            assert s[n] == count_plane_partitions_rowed(n, r, c)

    def test_overpartitions(self):
        s = series_from_spec(build_spec(GFKind.overpartitions()), BIG, 13)
        for n in range(13):
            assert s[n] == count_overpartitions(n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_overplane_rowed(self, k):
        # validates the overline marking rules against the generating function
        s = series_from_spec(build_spec(GFKind.overplane_rowed(k)), BIG, 11)
        for n in range(11):
            assert s[n] == count_plane_overpartitions_rowed(n, k), (k, n)
