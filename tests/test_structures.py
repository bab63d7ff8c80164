import random
from fractions import Fraction

import pytest

from qssbounds.structures import (
    AccessStructure,
    CapacityError,
    PlayerSet,
    StructureError,
    csirmaz,
    csirmaz_k,
    dual,
    from_minimal_sets,
    is_quantum,
    is_self_dual,
    purify,
    structure_from_dict,
    structure_to_dict,
    theorem3_reference_bound,
)

from helpers import (
    all_antichain_structures,
    reference_dual,
    reference_is_self_dual,
    reference_purify,
)

GAMMA4 = [[1, 2], [1, 3], [2, 3, 4]]
THRESHOLD23 = [[1, 2], [1, 3], [2, 3]]


def random_structure(rng, n):
    while True:
        count = rng.randint(1, 4)
        sets = []
        for _ in range(count):
            size = rng.randint(1, n)
            sets.append(rng.sample(range(1, n + 1), size))
        # keep only the minimal members so the antichain check passes
        masks = [PlayerSet.from_players(n, s) for s in sets]
        keep = [
            a for a in masks
            if not any(not b.bits & ~a.bits and b != a for b in masks)
        ]
        uniq = {m.bits: m for m in keep}
        try:
            return from_minimal_sets(n, [m.players() for m in uniq.values()])
        except StructureError:
            continue


def random_quantum_structure(rng, n):
    while True:
        s = random_structure(rng, n)
        if is_quantum(s):
            return s


class TestPlayerSet:
    def test_roundtrip(self):
        s = PlayerSet.from_players(5, [3, 1, 5])
        assert s.players() == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_out_of_range_bits(self):
        with pytest.raises(StructureError):
            PlayerSet(0b10000, 4)
        with pytest.raises(StructureError):
            PlayerSet.from_players(4, [5])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            PlayerSet(0, 17)


class TestFromMinimalSets:
    def test_gamma4(self):
        g = from_minimal_sets(4, GAMMA4)
        assert g.n == 4
        assert g.minimal_player_lists() == [[1, 2], [1, 3], [2, 3, 4]]

    def test_input_order_irrelevant(self):
        a = from_minimal_sets(4, GAMMA4)
        b = from_minimal_sets(4, [[2, 3, 4], [1, 3], [1, 2]])
        assert a == b

    def test_antichain_violation(self):
        with pytest.raises(StructureError) as info:
            from_minimal_sets(2, [[1], [1, 2]])
        assert str(info.value) == "antichain violated: (1) and (1,2) are nested"

    @pytest.mark.parametrize(
        "n,sets,message",
        [(3, [[1], [2], [1, 3]], "(1) and (1,3)"),
         (4, [[1, 2], [3], [2, 3, 4]], "(3) and (2,3,4)")],
    )
    def test_antichain_violation_names_the_first_nested_pair(self, n, sets, message):
        with pytest.raises(StructureError) as info:
            from_minimal_sets(n, sets)
        assert str(info.value) == f"antichain violated: {message} are nested"

    def test_duplicate_sets_rejected(self):
        with pytest.raises(StructureError) as info:
            from_minimal_sets(3, [[1, 2], [2, 1]])
        assert str(info.value) == "antichain violated: (1,2) and (1,2) are nested"

    def test_empty_collection(self):
        with pytest.raises(StructureError):
            from_minimal_sets(3, [])

    def test_empty_member(self):
        with pytest.raises(StructureError):
            from_minimal_sets(3, [[1], []])

    def test_index_out_of_range(self):
        with pytest.raises(StructureError):
            from_minimal_sets(3, [[1, 4]])


class TestAccessStructureConstructor:
    @pytest.mark.parametrize(
        "n, bits, error, message",
        [
            (16, [1], CapacityError, "player count 16 outside 1..15"),
            (3, [], StructureError, "at least one authorized set"),
            (3, [0, 1], StructureError, "must be nonempty"),
            (3, [(1, 4)], StructureError, "different ground"),
            (3, [3, 1 << 2], StructureError, "canonical order"),
        ],
        ids=["too-many-players", "no-sets", "empty-set", "other-ground", "out-of-order"],
    )
    def test_rejects(self, n, bits, error, message):
        sets = tuple(PlayerSet(*b) if isinstance(b, tuple) else PlayerSet(b, n) for b in bits)
        with pytest.raises(error, match=message):
            AccessStructure(n, sets)


class TestIsAuthorized:
    def test_gamma4_examples(self):
        g = from_minimal_sets(4, GAMMA4)
        assert g.is_authorized(g.subset([1, 2, 3]))
        assert not g.is_authorized(g.subset([2, 3]))

    def test_empty_never_authorized(self):
        for sets, n in [(GAMMA4, 4), (THRESHOLD23, 3), ([[1]], 1)]:
            g = from_minimal_sets(n, sets)
            assert not g.is_authorized(PlayerSet(0, n))

    def test_subset_of_another_ground_is_refused(self):
        g = from_minimal_sets(4, GAMMA4)
        with pytest.raises(StructureError, match="subset declared on a different ground"):
            g.is_authorized(PlayerSet.from_players(5, [1, 2]))


class TestDual:
    def test_gamma4_dual(self):
        # Oracle: brute force over all 16 subsets, complement the
        # unauthorized ones, take minimal members.
        g = from_minimal_sets(4, GAMMA4)
        expected = brute_force_dual(g)
        assert dual(g) == expected
        assert dual(g).minimal_player_lists() == [[1, 2], [1, 3], [2, 3], [1, 4]]
        assert sorted(dual(g).minimal_player_lists()) == [[1, 2], [1, 3], [1, 4], [2, 3]]

    def test_threshold_self_dual(self):
        t = from_minimal_sets(3, THRESHOLD23)
        assert dual(t) == t

    @pytest.mark.parametrize("n,count", [(2, 4), (3, 18), (4, 166)])
    def test_involution_exhaustive(self, n, count):
        structures = all_antichain_structures(n)
        # nonempty antichains of nonempty sets: Dedekind number minus 2
        assert len(structures) == count
        for s in structures:
            assert dual(dual(s)) == s

    def test_involution_random(self):
        rng = random.Random(20240817)
        for _ in range(200):
            s = random_structure(rng, rng.randint(2, 5))
            assert dual(dual(s)) == s

    def test_matches_brute_force_random(self):
        rng = random.Random(97)
        for _ in range(100):
            s = random_structure(rng, rng.randint(2, 5))
            assert dual(s) == brute_force_dual(s)


def brute_force_dual(structure):
    n = structure.n
    full = (1 << n) - 1
    members = [
        PlayerSet(mask, n)
        for mask in range(1 << n)
        if not structure.is_authorized(PlayerSet(full & ~mask, n))
    ]
    minimal = [
        a for a in members
        if a.bits and not any(b.bits != a.bits and not b.bits & ~a.bits for b in members)
    ]
    return from_minimal_sets(n, [m.players() for m in minimal])


class TestIsQuantum:
    def test_gamma4(self):
        assert is_quantum(from_minimal_sets(4, GAMMA4))

    def test_disjoint_singletons(self):
        assert not is_quantum(from_minimal_sets(2, [[1], [2]]))

    def test_purified_gamma4(self):
        assert is_quantum(purify(from_minimal_sets(4, GAMMA4)))

    def test_three_characterizations_agree(self):
        # (1) pairwise-intersecting minimal sets, (2) no set authorized
        # together with its complement, (3) every authorized set stays
        # authorized in the dual.
        rng = random.Random(4242)
        for _ in range(150):
            s = random_structure(rng, rng.randint(2, 5))
            by_pairs = is_quantum(s)
            n = s.n
            by_complement = all(
                not (
                    s.is_authorized(PlayerSet(m, n))
                    and s.is_authorized(PlayerSet(((1 << n) - 1) & ~m, n))
                )
                for m in range(1 << n)
            )
            d = dual(s)
            by_dual = all(
                d.is_authorized(PlayerSet(m, n))
                for m in range(1 << n)
                if s.is_authorized(PlayerSet(m, n))
            )
            assert by_pairs == by_complement == by_dual


class TestIsSelfDual:
    def test_purified_gamma4(self):
        assert is_self_dual(purify(from_minimal_sets(4, GAMMA4)))

    def test_gamma4_not_self_dual(self):
        assert not is_self_dual(from_minimal_sets(4, GAMMA4))

    def test_threshold(self):
        assert is_self_dual(from_minimal_sets(3, THRESHOLD23))

    def test_matches_the_dual_exhaustive(self):
        structures = [s for n in range(1, 5) for s in all_antichain_structures(n)]
        assert len(structures) == 189
        verdicts = [is_self_dual(s) for s in structures]
        assert verdicts == [dual(s) == s for s in structures]
        assert 0 < sum(verdicts) < len(structures)

    def test_matches_the_dual_random(self):
        rng = random.Random(31)
        for _ in range(100):
            s = random_quantum_structure(rng, rng.randint(5, 7))
            for t in (s, purify(s)):
                assert is_self_dual(t) == (dual(t) == t)


class TestPurify:
    def test_gamma4(self):
        g = from_minimal_sets(4, GAMMA4)
        p = purify(g)
        assert p.n == 5
        assert p.minimal_player_lists() == [
            [1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5],
        ]
        assert sorted(p.minimal_player_lists()) == [
            [1, 2], [1, 3], [1, 4, 5], [2, 3, 4], [2, 3, 5],
        ]

    def test_single_pair_becomes_threshold(self):
        # The only complementary unauthorized pair of {{1,2}} is ({1},{2});
        # promoting it yields the (2,3) threshold structure.
        p = purify(from_minimal_sets(2, [[1, 2]]))
        assert p == from_minimal_sets(3, THRESHOLD23)

    def test_self_dual_unchanged(self):
        t = from_minimal_sets(3, THRESHOLD23)
        assert purify(t) is t

    def test_rejects_non_quantum(self):
        with pytest.raises(StructureError):
            purify(from_minimal_sets(2, [[1], [2]]))

    def test_capacity(self):
        # quantum and not self-dual, so purifying needs a 16th player
        with pytest.raises(CapacityError, match="would exceed 15 players"):
            purify(from_minimal_sets(15, [[1, 2]]))

    def test_purify_properties_random(self):
        rng = random.Random(1123)
        seen_nontrivial = 0
        for _ in range(80):
            s = random_quantum_structure(rng, rng.randint(2, 4))
            p = purify(s)
            assert is_self_dual(p)
            assert is_quantum(p)
            if p is s:
                continue
            seen_nontrivial += 1
            assert p.n == s.n + 1
            # status of every original subset is preserved
            for mask in range(1 << s.n):
                assert s.is_authorized(PlayerSet(mask, s.n)) == p.is_authorized(
                    PlayerSet(mask, p.n)
                )
            # added minimal sets all contain the new party
            old = {m.bits for m in s.minimal_sets}
            for m in p.minimal_sets:
                if m.bits not in old:
                    assert s.n + 1 in m
        assert seen_nontrivial > 10


class TestCsirmaz:
    def test_k_values(self):
        assert csirmaz_k(4) == 2
        assert csirmaz_k(8) == 2
        assert csirmaz_k(9) == 3
        assert csirmaz_k(17) == 3
        assert csirmaz_k(18) == 4

    def test_n4(self):
        s, params = csirmaz(4)
        assert params.k == 2
        assert s.minimal_player_lists() == [[1, 2], [1, 3], [2, 3, 4]]

    def test_n5(self):
        s, params = csirmaz(5)
        assert params.k == 2
        assert s.minimal_player_lists() == [[1, 2], [1, 3], [2, 3, 4, 5]]

    def test_n9(self):
        s, params = csirmaz(9)
        assert params.k == 3
        assert len(s.minimal_sets) == 2 ** 3 - 1

    def test_rejects_small_n(self):
        with pytest.raises(StructureError):
            csirmaz(3)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_family_invariants(self, n):
        s, params = csirmaz(n)
        k = params.k
        count = 2 ** k - 1
        assert len(s.minimal_sets) == count
        assert is_quantum(s)

        a, b = params.a_sets, params.b_sets
        assert all(isinstance(m, int) for m in a + b)
        assert len(a) == 2 ** k
        assert PlayerSet(a[0], n).players() == tuple(range(1, k + 1))
        assert len(b) == count
        assert b[0] == 0
        assert PlayerSet(b[-1], n).players() == tuple(range(k + 1, n + 1))
        sizes = [x.bit_count() for x in a]
        assert sizes == sorted(sizes, reverse=True)
        for i in range(count):
            for j in range(i + 1, count):
                assert a[i] & ~a[j]  # A_i not within A_j for i < j
                assert not b[i] & ~b[j]
                if i > 0:
                    assert b[i] != b[j]
        for i in range(1, count - 1):
            assert PlayerSet(b[i], n).players() == tuple(range(k + 1, k + 1 + i))
        assert [m.bits for m in s.minimal_sets] == sorted(
            (a[i] | b[i] for i in range(count)), key=lambda m: (m.bit_count(), m)
        )

    @pytest.mark.parametrize("n", range(4, 10))
    def test_staircase_intermediate_sets_unauthorized(self, n):
        # A_j | B_i must be unauthorized whenever i < j.
        s, params = csirmaz(n)
        count = 2 ** params.k - 1
        for i in range(count):
            for j in range(i + 1, count):
                x = params.a_sets[j] | params.b_sets[i]
                assert not s.mask_authorized(x)


class TestReferenceBound:
    @pytest.mark.parametrize(
        "k,expected",
        [(2, Fraction(7, 5)), (3, Fraction(15, 7)), (4, Fraction(31, 9))],
    )
    def test_values(self, k, expected):
        assert theorem3_reference_bound(k) == expected

    def test_rejects_k1(self):
        with pytest.raises(StructureError):
            theorem3_reference_bound(1)


class TestJson:
    def test_roundtrip(self):
        g = from_minimal_sets(4, GAMMA4)
        assert structure_from_dict(structure_to_dict(g)) == g

    def test_extra_keys_ignored(self):
        d = structure_to_dict(from_minimal_sets(4, GAMMA4))
        d["k"] = 2
        assert structure_from_dict(d) == from_minimal_sets(4, GAMMA4)

    def test_missing_field(self):
        with pytest.raises(StructureError):
            structure_from_dict({"n": 3})

    @pytest.mark.parametrize("data", [[1, 2], "x", 3, None])
    def test_not_an_object(self, data):
        with pytest.raises(StructureError, match="^an access structure must be a JSON object$"):
            structure_from_dict(data)


def assert_matches_enumeration(s):
    """`dual`, `is_self_dual` and `purify` agree with the 2^n enumerations."""
    assert dual(s) == reference_dual(s)
    assert is_self_dual(s) == reference_is_self_dual(s)
    if not is_quantum(s):
        with pytest.raises(StructureError, match="requires a quantum"):
            purify(s)
        return
    expected, got = reference_purify(s), purify(s)
    assert got == expected
    assert (got is s) == (expected is s)


class TestAgainstEnumeration:
    def test_every_antichain(self):
        structures = [s for n in range(1, 4) for s in all_antichain_structures(n)]
        assert len(structures) == 23
        for s in structures:
            assert_matches_enumeration(s)

    @pytest.mark.parametrize("draw", [random_structure, random_quantum_structure])
    def test_seeded_random(self, draw):
        rng = random.Random(16)
        structures = [draw(rng, rng.randint(1, 8)) for _ in range(200)]
        for s in structures:
            assert_matches_enumeration(s)
        kinds = {(is_quantum(s), is_self_dual(s)) for s in structures}
        assert {(True, True), (True, False)} <= kinds

    @pytest.mark.parametrize("n", range(4, 13))
    def test_csirmaz(self, n):
        assert_matches_enumeration(csirmaz(n)[0])

    def test_csirmaz14_purification(self):
        s = csirmaz(14)[0]
        assert purify(s) == reference_purify(s)
