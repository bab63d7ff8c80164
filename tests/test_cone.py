from fractions import Fraction
from math import comb

import pytest

from qssbounds.cone import (
    GroundSet,
    build_system,
    mutual_information_expr,
    purity_constraint,
    qss_constraints,
    vn_inequalities,
)
from qssbounds.structures import (
    CapacityError,
    PlayerSet,
    StructureError,
    from_minimal_sets,
    purify,
)

GAMMA4 = from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]])
GAMMA4_BAR = purify(GAMMA4)
THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])


def qutrit_threshold_vector(ground):
    """Known entropy point of the (2,3) qutrit threshold scheme.

    Singletons 1, pairs 2, S(123) = 1, S(R) = 1, S(iR) = 2, S(ijR) = 1,
    S(123R) = 0, in units of the secret's entropy.
    """
    assert ground.players == 3
    r = ground.reference_mask
    point = {0: Fraction(0), r: Fraction(1)}
    for mask in range(1, 8):
        size = mask.bit_count()
        point[mask] = Fraction(1 if size in (1, 3) else 2)
        point[mask | r] = Fraction({1: 2, 2: 1, 3: 0}[size])
    return point


def incomparable_pairs(g):
    total = comb(2 ** g - 1, 2)
    comparable = 3 ** g - 2 ** (g + 1) + 1
    return total - comparable


def overlapping_pairs(g):
    total = comb(2 ** g - 1, 2)
    disjoint = (3 ** g - 2 ** (g + 1) + 1) // 2
    return total - disjoint


class TestGroundSet:
    def test_indexing(self):
        g = GroundSet(3)
        assert g.total == 4
        assert g.reference_mask == 0b1000
        assert g.player_mask == 0b0111
        assert g.full_mask == 0b1111
        assert g.var_count == 16

    def test_labels(self):
        g = GroundSet(3)
        assert g.label(0) == "∅"
        assert g.label(0b0101) == "1,3"
        assert g.label(0b1101) == "1,3,R"
        assert g.label(g.reference_mask) == "R"

    def test_capacity(self):
        with pytest.raises(CapacityError):
            GroundSet(16)


class TestVnInequalities:
    def test_full_counts_match_enumeration_formula(self):
        for players in (1, 2, 3):
            ground = GroundSet(players)
            g = ground.total
            cons = vn_inequalities(ground, "full")
            by_family = {}
            for c in cons:
                by_family.setdefault(c.family, []).append(c)
            assert len(by_family["emptyset"]) == 1
            assert len(by_family["nonneg"]) == 2 ** g - 1
            assert len(by_family["ssa"]) == incomparable_pairs(g)
            assert len(by_family["wm"]) == overlapping_pairs(g)

    def test_elemental_ssa_count_four_elements(self):
        # pairs of elements times subsets of the remaining two: 6 * 4 = 24
        ground = GroundSet(3)
        cons = [c for c in vn_inequalities(ground, "elemental") if c.family == "ssa"]
        assert len(cons) == 24

    def test_elemental_wm_count(self):
        # one instance per element and unordered partition of the rest:
        # g * 2^(g-2)
        for players in (2, 3, 4):
            ground = GroundSet(players)
            g = ground.total
            cons = [c for c in vn_inequalities(ground, "elemental") if c.family == "wm"]
            assert len(cons) == g * 2 ** (g - 2)

    def test_subadditivity_instance_present(self):
        # S(1)+S(2) >= S(12) with empty conditioning set
        ground = GroundSet(2)
        cons = {c.id: c for c in vn_inequalities(ground, "elemental")}
        c = cons["ssa:1;2|∅"]
        assert c.terms == ((0b01, Fraction(1)), (0b10, Fraction(1)), (0b11, Fraction(-1)))
        assert c.rel == ">=" and c.rhs == 0

    def test_full_contains_quoted_ssa_example(self):
        # S(13)+S(23) >= S(123)+S(3) on a three-player ground
        ground = GroundSet(3)
        cons = {c.id for c in vn_inequalities(ground, "full")}
        assert "ssa:1;2|3" in cons

    def test_elemental_ids_subset_of_full(self):
        # Bounds are solved on the elemental rows and replayed on the full
        # ones, so every elemental id must name an identical full row, for
        # ground sets of 2 to 7 elements.
        for players in range(1, 7):
            ground = GroundSet(players)
            full = {c.id: c for c in vn_inequalities(ground, "full")}
            for c in vn_inequalities(ground, "elemental"):
                assert full.get(c.id) == c, (ground.total, c.id)

    def test_no_duplicate_term_maps(self):
        for mode in ("full", "elemental"):
            cons = vn_inequalities(GroundSet(3), mode)
            keys = [(c.terms, c.rel, c.rhs) for c in cons]
            assert len(keys) == len(set(keys))

    def test_deterministic(self):
        a = vn_inequalities(GroundSet(3), "full")
        b = vn_inequalities(GroundSet(3), "full")
        assert a == b

    def test_rejects_unknown_mode(self):
        with pytest.raises(StructureError):
            vn_inequalities(GroundSet(2), "both")


class TestQssConstraints:
    def test_counts(self):
        ground = GroundSet(4)
        cons = qss_constraints(GAMMA4, ground)
        assert len(cons) == 2 ** 4 - 1 + 1
        assert sum(c.family == "normalize" for c in cons) == 1

    def test_recover_form(self):
        # authorized {1,2}: S(12)+S(R)-S(12R) = 2, i.e. S(12R) = S(12)-1
        ground = GroundSet(4)
        cons = {c.id: c for c in qss_constraints(GAMMA4, ground)}
        c = cons["recover:1,2"]
        r = ground.reference_mask
        assert c.terms == ((0b0011, Fraction(1)), (r, Fraction(1)), (0b0011 | r, Fraction(-1)))
        assert c.rel == "=" and c.rhs == 2

    def test_secrecy_form(self):
        # unauthorized {2,3}: S(23)+S(R)-S(23R) = 0, i.e. S(23R) = S(23)+1
        ground = GroundSet(4)
        cons = {c.id: c for c in qss_constraints(GAMMA4, ground)}
        c = cons["secrecy:2,3"]
        assert c.rel == "=" and c.rhs == 0

    def test_singletons_of_gamma4_are_secrecy(self):
        ground = GroundSet(4)
        cons = {c.id: c for c in qss_constraints(GAMMA4, ground)}
        for i in (1, 2, 3, 4):
            assert f"secrecy:{i}" in cons

    def test_ground_mismatch(self):
        with pytest.raises(StructureError):
            qss_constraints(GAMMA4, GroundSet(5))


class TestPurity:
    def test_form(self):
        ground = GroundSet(5)
        c = purity_constraint(ground)
        assert c.terms == ((0b111111, Fraction(1)),)
        assert c.rel == "=" and c.rhs == 0

    def test_absent_in_mixed_mode(self):
        system = build_system(GAMMA4_BAR, pure=False)
        assert "purity" not in system.by_id
        assert "purity" in build_system(GAMMA4_BAR, pure=True).by_id


class TestMutualInformation:
    def test_basic(self):
        a = PlayerSet.from_players(4, [1])
        r = PlayerSet.from_players(4, [4])  # reference modelled as element 4 here
        expr = mutual_information_expr(a, r)
        assert expr == {0b0001: 1, 0b1000: 1, 0b1001: -1}

    def test_empty_argument_gives_zero_form(self):
        a = PlayerSet.empty(4)
        b = PlayerSet.from_players(4, [2])
        assert mutual_information_expr(a, b) == {}

    def test_three_term_expansion(self):
        a = PlayerSet.from_players(6, [1, 2])
        b = PlayerSet.from_players(6, [3])
        expr = mutual_information_expr(a, b)
        assert sorted(expr.values()) == [-1, 1, 1]

    def test_rejects_overlap(self):
        a = PlayerSet.from_players(3, [1, 2])
        b = PlayerSet.from_players(3, [2])
        with pytest.raises(StructureError):
            mutual_information_expr(a, b)


class TestSystem:
    def test_contains_required_rows_once(self):
        system = build_system(THRESHOLD23)
        ids = [c.id for c in system.constraints]
        assert ids.count("emptyset") == 1
        assert ids.count("normalize") == 1
        assert ids.count("purity") == 1

    def test_qutrit_vector_satisfies_everything(self):
        # The entropy point of an actual scheme must satisfy every row the
        # generator emits, in both inequality modes.
        for ineq in ("full", "elemental"):
            system = build_system(THRESHOLD23, pure=True, ineq=ineq)
            point = qutrit_threshold_vector(system.ground)
            for c in system.constraints:
                assert c.satisfied_by(point), f"{ineq} violates {c.id}"

    def test_deterministic_bytes(self):
        a = build_system(GAMMA4_BAR, pure=True, ineq="full").dump()
        b = build_system(GAMMA4_BAR, pure=True, ineq="full").dump()
        assert a == b

    def test_dump_format(self):
        system = build_system(THRESHOLD23, pure=True, ineq="elemental")
        lines = system.dump().splitlines()
        assert lines[0] == "emptyset : 1*S(∅) = 0"
        assert any(line.startswith("nonneg:1,2,R : 1*S(1,2,R) >= 0") for line in lines)
        assert any(" >= " in line for line in lines)
