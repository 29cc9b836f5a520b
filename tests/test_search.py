from itertools import combinations_with_replacement

import pytest

from congcert import (
    GFKind,
    Modulus,
    SearchSpace,
    SpaceTooLarge,
    SplitFailed,
    enumerate_candidates,
    search_certified,
    spot_check,
)
from _brute import span_closure

MOD2 = Modulus(2, 1)
MOD3 = Modulus(3, 1)
MOD5 = Modulus(5, 1)
MOD7 = Modulus(7, 1)
EXACT_MODULI = (MOD2, Modulus(2, 2), Modulus(2, 3), MOD3, Modulus(3, 2), MOD5)


def brute_count(delta, max_terms, allow_zero_right):
    """Independent cross-count: canonical families as frozen multiset pairs,
    an empty right side counting as one term."""
    seen = set()
    residues = range(delta)
    if allow_zero_right:
        for size in range(1, max_terms):
            for left in combinations_with_replacement(residues, size):
                seen.add((left, ()))
    for s in range(1, max_terms):
        for t in range(1, max_terms - s + 1):
            for left in combinations_with_replacement(residues, s):
                for right in combinations_with_replacement(residues, t):
                    if set(left) & set(right):
                        continue
                    pair = tuple(sorted((left, right)))
                    seen.add(pair)
    return len(seen)


class TestEnumeration:
    def test_two_residue_space_has_three_candidates(self):
        space = SearchSpace(GFKind.plane_rowed(2), MOD2, 2, 2)
        fams = enumerate_candidates(space)
        assert sorted(str(f) for f in fams) == ["{0} == 0", "{0} == {1}", "{1} == 0"]

    def test_single_residue_space(self):
        space = SearchSpace(GFKind.plane_rowed(2), MOD2, 1, 2)
        fams = enumerate_candidates(space)
        assert [str(f) for f in fams] == ["{0} == 0"]

    def test_three_residue_space_has_six_candidates(self):
        space = SearchSpace(GFKind.plane_rowed(3), MOD3, 3, 2)
        fams = enumerate_candidates(space)
        assert len(fams) == 6
        zero = [f for f in fams if not f.right]
        pairs = [f for f in fams if f.right]
        assert len(zero) == 3 and len(pairs) == 3

    @pytest.mark.parametrize("delta,max_terms", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4)])
    def test_counts_match_brute_cross_count(self, delta, max_terms):
        for allow in (True, False):
            space = SearchSpace(GFKind.plane_rowed(2), MOD2, delta, max_terms, allow_zero_right=allow)
            fams = enumerate_candidates(space)
            assert len(fams) == brute_count(delta, max_terms, allow)
            assert len(set(fams)) == len(fams), "duplicate families"

    def test_no_zero_right_when_disallowed(self):
        space = SearchSpace(GFKind.plane_rowed(2), MOD2, 2, 2, allow_zero_right=False)
        fams = enumerate_candidates(space)
        assert [str(f) for f in fams] == ["{0} == {1}"]

    def test_cap_enforced(self):
        space = SearchSpace(GFKind.plane_rowed(2), MOD2, 6, 6, candidate_cap=10)
        with pytest.raises(SpaceTooLarge):
            enumerate_candidates(space)

    def test_negative_cap_rejected(self):
        from congcert import InvalidParameter

        with pytest.raises(InvalidParameter, match="candidate_cap must be >= 0"):
            SearchSpace(GFKind.plane_rowed(2), MOD2, 2, 2, candidate_cap=-1)


class TestSearchCertified:
    def test_two_rowed_search_finds_the_known_family(self):
        space = SearchSpace(GFKind.plane_rowed(2), MOD2, 2, 2)
        certs = search_certified(space)
        assert [str(c.family) for c in certs] == ["{0} == {1}"]

    def test_three_rowed_search_finds_both_known_families(self):
        space = SearchSpace(GFKind.plane_rowed(3), MOD3, 3, 2)
        certs = search_certified(space)
        assert sorted(str(c.family) for c in certs) == ["{0} == {1}", "{2} == 0"]

    def test_five_rowed_search_finds_both_known_families(self):
        space = SearchSpace(GFKind.plane_rowed(5), MOD5, 5, 2)
        certs = search_certified(space)
        assert sorted(str(c.family) for c in certs) == ["{1} == {3}", "{2} == {4}"]

    def test_seven_rowed_search_includes_the_known_pair_family(self):
        space = SearchSpace(GFKind.plane_rowed(7), MOD7, 7, 4)
        certs = search_certified(space)
        names = {str(c.family) for c in certs}
        assert "{2,3} == {4,5}" in names

    def test_search_matches_per_family_certify(self):
        # whole certificates, so both builders take the same fields from the plan
        from congcert import PROVED, certify

        def by_family(certs):
            return sorted(certs, key=lambda c: str(c.family))

        for space in [
            SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 4),
            SearchSpace(GFKind.plane_rowed(8), MOD2, 8, 3),
            SearchSpace(GFKind.overplane_rowed(4), Modulus(2, 2), 4, 4),
        ]:
            fast = search_certified(space)
            slow = [certify(space.target, f) for f in enumerate_candidates(space)]
            assert fast and by_family(fast) == by_family(c for c in slow if c.status == PROVED)

    def test_inapplicable_target_aborts(self):
        space = SearchSpace(GFKind.plane(), MOD2, 2, 2)
        with pytest.raises(SplitFailed):
            search_certified(space)


class TestSearchInvariants:
    def test_results_survive_spot_check_at_three_times_bound(self):
        for space in [
            SearchSpace(GFKind.plane_rowed(2), MOD2, 2, 2),
            SearchSpace(GFKind.plane_rowed(3), MOD3, 3, 2),
            SearchSpace(GFKind.maxpart(2), MOD3, 3, 3),
        ]:
            for cert in search_certified(space):
                drill = spot_check(space.target, cert.family, 3 * cert.check_bound)
                assert drill.ok, (str(cert.family), drill.failure)

    def test_singleton_pair_transitivity(self):
        # if {a}=={b} and {b}=={c} are proved, {a}=={c} must be proved too
        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 2, allow_zero_right=False)
        proved = {(c.family.left, c.family.right) for c in search_certified(space)}
        pairs = {(l[0], r[0]) for l, r in proved if len(l) == 1 and len(r) == 1}
        links = pairs | {(b, a) for a, b in pairs}
        for a, b in links:
            for b2, c in links:
                if b == b2 and a != c:
                    key = ((min(a, c),), (max(a, c),))
                    assert key in proved, f"{a}=={b}=={c} but {key} missing"


class TestRedundancyFilter:
    def test_transitive_family_dropped(self):
        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 2, allow_zero_right=False)
        full = search_certified(space)
        filtered = search_certified(space, redundancy_filter=True)
        assert len(filtered) < len(full)
        # the filtered set still spans everything proved
        names = {str(c.family) for c in full}
        assert {"{0} == {1}", "{1} == {2}", "{0} == {2}"} <= names
        kept = {str(c.family) for c in filtered}
        assert len(kept & {"{0} == {1}", "{1} == {2}", "{0} == {2}"}) == 2

    def test_kept_families_are_exactly_independent(self):
        """On every space of the grid that splits, with m^delta small enough
        to close a span by brute force: every proved family lies in the Z/m
        span of the kept ones, and no kept family lies in the span of those
        kept before it."""
        spaces = [SearchSpace(GFKind.overplane_rowed(4), Modulus(2, 2), 4, 7)]
        for name in ("plane_rowed", "overplane_rowed"):
            for k in range(2, 7):
                for modulus in EXACT_MODULI:
                    p, m = modulus.prime, modulus.value
                    for delta in sorted({p, m, 2 * p}):
                        if m**delta <= 4096:
                            spaces.append(SearchSpace(GFKind(name, (k,)), modulus, delta, 4))
        split = 0
        for space in spaces:
            try:
                proved = search_certified(space)
            except SplitFailed:
                continue
            split += 1
            m, delta = space.modulus.value, space.delta
            kept = [c.family.weights() for c in search_certified(space, redundancy_filter=True)]
            for i, w in enumerate(kept):
                assert tuple(x % m for x in w) not in span_closure(kept[:i], m, delta), (space, w)
            span = span_closure(kept, m, delta)
            for cert in proved:
                w = tuple(x % m for x in cert.family.weights())
                assert w in span, (space, str(cert.family))
        # pinned so that the grid cannot shrink unnoticed
        assert split == 24

    def test_default_reports_everything(self):
        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 2, allow_zero_right=False)
        assert len(search_certified(space)) == len(search_certified(space, redundancy_filter=False))


BATCH_MODULI = (MOD2, MOD3, MOD5, MOD7, Modulus(2, 2), Modulus(2, 3), Modulus(3, 2))


class TestBatchCheck:
    def test_agrees_with_first_failure(self):
        from congcert import SPLIT_ERRORS, Plan

        total = held = 0
        for rows in range(2, 10):
            target = GFKind.plane_rowed(rows)
            for modulus in BATCH_MODULI:
                for delta in sorted({modulus.prime, modulus.value}):
                    try:
                        plan = Plan.build(target, modulus, delta)
                    except SPLIT_ERRORS:
                        continue
                    families = enumerate_candidates(SearchSpace(target, modulus, delta, 4))
                    batch = plan.holding_weights(plan.weight_matrix(families))
                    single = [plan.first_failure(f) is None for f in families]
                    assert batch.tolist() == single, (rows, str(modulus), delta)
                    total += len(families)
                    held += sum(single)
        # 14 spaces split; pinned so that the grid cannot shrink unnoticed
        assert (total, held) == (1606, 46)

    def test_candidate_of_another_modulus_rejected(self):
        from congcert import CongruenceFamily, InvalidParameter

        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 2)
        stray = CongruenceFamily(4, (3,), (), Modulus(2, 2))
        with pytest.raises(InvalidParameter):
            search_certified(space, candidates=enumerate_candidates(space) + [stray])

    def test_empty_space(self):
        space = SearchSpace(GFKind.plane_rowed(4), MOD2, 4, 1, allow_zero_right=False)
        assert enumerate_candidates(space) == []
        assert search_certified(space) == []
        assert search_certified(space, redundancy_filter=True) == []


# The kept lists of the benchmark's three sweep spaces: (space, proved, kept).
# The prime-modulus lists were recorded before the filter and the batch check
# were rewritten.  Mod 4 the filter is exact: the four kept families span all
# 79 proved ones.
SWEEP_KEPT = [
    (
        SearchSpace(GFKind.plane_rowed(8), MOD2, 8, 6),
        2825,
        ["{5} == 0", "{6} == 0", "{7} == 0", "{0} == {4}", "{0} == {1,3}"],
    ),
    (SearchSpace(GFKind.plane_rowed(7), MOD7, 7, 6), 1, ["{2,3} == {4,5}"]),
    (
        SearchSpace(GFKind.overplane_rowed(4), Modulus(2, 2), 4, 7),
        79,
        ["{1,1} == 0", "{2,2} == 0", "{3,3} == 0", "{1} == {2,3}"],
    ),
]


class TestSweepKeptLists:
    @pytest.mark.parametrize("space,proved,kept", SWEEP_KEPT, ids=["pl8 mod 2", "pl7 mod 7", "ovpl4 mod 4"])
    def test_filtered_output_pinned(self, space, proved, kept):
        assert len(search_certified(space)) == proved
        assert [str(c.family) for c in search_certified(space, redundancy_filter=True)] == kept
