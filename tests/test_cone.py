import hashlib
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from qssbounds.cone import (
    GroundSet,
    build_system,
    purity_constraint,
    qss_constraints,
    vn_inequalities,
)
from qssbounds.prover import Certificate, Objective, verify_certificate
from qssbounds.structures import (
    CapacityError,
    StructureError,
    csirmaz,
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

    @pytest.mark.parametrize("mask", [-1, -2, -0b1000])
    def test_negative_mask_has_no_label(self, mask):
        # the printer built a label from that of the mask less its top
        # bit, which for a negative mask never reaches 0
        g = GroundSet(3)
        with pytest.raises(ValueError, match="negative mask"):
            g.label(mask)
        assert g.label(0b0101) == "1,3"

    def test_capacity(self):
        with pytest.raises(CapacityError):
            GroundSet(16)

    def test_needs_a_player(self):
        with pytest.raises(StructureError, match="a ground set needs at least one player"):
            GroundSet(0)


class TestVnInequalities:
    def test_full_counts_match_enumeration_formula(self):
        for players in (1, 2, 3):
            ground = GroundSet(players)
            g = ground.total
            cons = vn_inequalities(ground, "full")
            by_family = {}
            for c in cons:
                by_family.setdefault(c.family, []).append(c)
            assert "emptyset" not in by_family  # S(∅) is zero, no variable
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
        assert "purity" not in {c.id for c in system.constraints}
        assert "purity" in {c.id for c in build_system(GAMMA4_BAR, pure=True).constraints}


class TestSystem:
    def test_contains_required_rows_once(self):
        system = build_system(THRESHOLD23)
        ids = [c.id for c in system.constraints]
        assert "emptyset" not in ids
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
        assert lines[0] == "nonneg:1 : 1*S(1) >= 0"
        assert any(line.startswith("nonneg:1,2,R : 1*S(1,2,R) >= 0") for line in lines)
        assert any(" >= " in line for line in lines)


def row_digest(system):
    """SHA-256 over every row's ``(id, terms, rel, rhs)``, in system order."""
    h = hashlib.sha256()
    for c in system.constraints:
        terms = " ".join(f"{v}:{coef}" for v, coef in c.terms)
        h.update(f"{c.id}\t{terms}\t{c.rel}\t{c.rhs}\n".encode())
    return h.hexdigest()


PINNED_STRUCTURES = {
    "threshold23": THRESHOLD23,
    "g4bar": GAMMA4_BAR,
    "csirmaz5bar": purify(csirmaz(5)[0]),
    "csirmaz6bar": purify(csirmaz(6)[0]),
}
PINNED_ROWS = json.loads(
    (Path(__file__).parent / "data" / "pinned_rows.json").read_text(encoding="utf-8")
)


class TestPinnedRowDigest:
    """Every row, id and row order of ``build_system`` stays as recorded.

    Bland's rule picks pivots by row position, so certificates and the
    pinned pivot counts depend on the exact row sequence, not only on
    the row set.
    """

    @pytest.mark.parametrize("key", sorted(PINNED_ROWS))
    def test_digest(self, key):
        name, ineq, mode = key.split("/")
        system = build_system(PINNED_STRUCTURES[name], pure=mode == "pure", ineq=ineq)
        assert len(system) == PINNED_ROWS[key]["rows"]
        assert row_digest(system) == PINNED_ROWS[key]["sha256"]


class TestRowsUniqueByConstruction:
    """The generators never emit a row twice, so nothing deduplicates them."""

    @pytest.mark.parametrize("players", range(1, 7))
    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_rows(self, players, ineq, pure):
        structure = from_minimal_sets(players, [list(range(1, players + 1))])
        system = build_system(structure, pure=pure, ineq=ineq)
        ids = [c.id for c in system.constraints]
        assert len(ids) == len(set(ids))
        keys = [(c.terms, c.rel, c.rhs) for c in system.constraints]
        assert len(keys) == len(set(keys))
        for c in system.constraints:
            masks = [v for v, _ in c.terms]
            assert masks == sorted(set(masks)), c.id
            assert all(masks), c.id
            assert all(coef for _, coef in c.terms), c.id


class TestRowsIntegral:
    """Every generated row holds plain ints, so no row arithmetic needs ``Fraction``."""

    @pytest.mark.parametrize("players", range(1, 7))
    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_rows(self, players, ineq, pure):
        structure = from_minimal_sets(players, [list(range(1, players + 1))])
        for c in build_system(structure, pure=pure, ineq=ineq).constraints:
            assert type(c.rhs) is int, c.id
            assert all(type(coef) is int for _, coef in c.terms), c.id


def mixed_structure(players):
    """Authorizes exactly the sets holding players 1 and ``players``, so both
    recover and secrecy rows occur from two players on."""
    return from_minimal_sets(players, [sorted({1, players})])


class TestRowById:
    """``row`` makes each generated row from its id alone, and nothing else."""

    @pytest.mark.parametrize("players", range(1, 7))
    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_every_generated_row_parses_back(self, players, ineq, pure):
        structure = mixed_structure(players)
        generated = build_system(structure, pure=pure, ineq=ineq).constraints
        system = build_system(structure, pure=pure, ineq=ineq)
        for c in generated:
            assert system.row(c.id) == c, c.id
        assert system.row(generated[-1].id) is system.row(generated[-1].id)
        assert "constraints" not in vars(system)

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_other_family_rejected(self, pure):
        # the elemental rows are full rows, id for id; every other full
        # row is refused by an elemental system
        for players in (2, 3, 4):
            structure = mixed_structure(players)
            full = build_system(structure, pure=pure, ineq="full")
            elemental = build_system(structure, pure=pure, ineq="elemental")
            members = {c.id for c in elemental.constraints}
            probe = build_system(structure, pure=pure, ineq="elemental")
            for c in full.constraints:
                if c.id in members:
                    assert probe.row(c.id) == c
                else:
                    with pytest.raises(KeyError):
                        probe.row(c.id)
        with pytest.raises(KeyError):
            build_system(THRESHOLD23, pure=False).row("purity")
        assert build_system(THRESHOLD23, pure=True).row("purity").family == "purity"

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    def test_rearranged_ids_parse_only_when_generated(self, ineq):
        # B;A, A;C|B and the other orders of the three labels, on every
        # ssa and wm row: a rearranged id is accepted exactly when the
        # family holds a row under that id, and then gives that row
        for pure in (True, False):
            system = build_system(GAMMA4_BAR, pure=pure, ineq=ineq)
            members = {c.id: c for c in system.constraints}
            probe = build_system(GAMMA4_BAR, pure=pure, ineq=ineq)
            for c in system.constraints:
                if c.family not in ("ssa", "wm"):
                    continue
                body = c.id.split(":", 1)[1]
                ab, cond = body.split("|")
                a, b = ab.split(";")
                swapped = f"{c.family}:{b};{a}|{cond}"
                with pytest.raises(KeyError):
                    probe.row(swapped)
                for x, y, z in ((a, cond, b), (b, cond, a), (cond, a, b), (cond, b, a)):
                    variant = f"{c.family}:{x};{y}|{z}"
                    if variant in members:
                        assert probe.row(variant) == members[variant]
                    else:
                        with pytest.raises(KeyError):
                            probe.row(variant)

    HOSTILE = [
        # overlapping operands
        "ssa:1;1,2|∅", "ssa:1;2|1", "ssa:1,3;2,3|∅", "wm:1;2|2", "wm:1;1|2",
        # empty operands where the family needs them
        "ssa:∅;2|1", "ssa:1;∅|2", "ssa:∅;∅|1", "wm:1;2|∅", "wm:∅;∅|1", "wm:∅;∅|∅",
        "nonneg:∅", "recover:∅",
        # player numbers out of range, and R where only players may stand
        "nonneg:0", "nonneg:4", "nonneg:-1", "ssa:1;5|∅", "recover:1,R", "secrecy:R",
        # labels that are not canonical
        "nonneg:01", "nonneg:2,1", "nonneg:1, 2", "nonneg:1 ", "nonneg: 1", "nonneg:1,1",
        "nonneg:R,1", "nonneg:R,R", "nonneg:1,", "nonneg:", "ssa:01;2|∅", "ssa:1;2|∅ ",
        "ssa:1;2", "ssa:1;2|∅|3", "ssa:1;2;3|∅", "wm:∅;1|2|R",
        # tokens int() chokes on or reads wrongly
        "nonneg:²", "nonneg:١", "nonneg:1_0", "nonneg:+1", "nonneg:" + "1" * 5000,
        # scheme rows under the wrong family for threshold(2,3)
        "recover:1", "secrecy:1,2", "recover:1,2,3,R",
        # ids no family has
        "unknown:nonneg:1", "unknown:", "", "emptyset", "emptyset:", "normalize:R", "purity:1",
        "nonneg", "NONNEG:1", "objlink:1",
    ]

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    def test_hostile_ids_rejected(self, ineq):
        system = build_system(THRESHOLD23, pure=True, ineq=ineq)
        for rid in self.HOSTILE:
            with pytest.raises(KeyError):
                system.row(rid)
        for rid in (None, 5, ("nonneg:1",)):
            with pytest.raises(KeyError):
                system.row(rid)
        assert system.row("recover:1,2").rhs == 2
        assert system.row("secrecy:1").rhs == 0
        assert "constraints" not in vars(system)
        # once the list is generated the memo holds every row; the rest still parse and fail
        generated = next(c for c in system.constraints if c.id == "secrecy:1")
        assert system.row("secrecy:1") is generated
        for rid in self.HOSTILE:
            with pytest.raises(KeyError):
                system.row(rid)


def closed_form_cases():
    for players in range(1, 8):
        for ineq in ("full", "elemental"):
            for pure in (True, False):
                yield pytest.param(players, ineq, pure,
                                   id=f"{players + 1}el-{ineq}-{'pure' if pure else 'mixed'}")


class TestLazySystem:
    """Building, counting and replaying make no row that is not asked for."""

    @pytest.mark.parametrize("players,ineq,pure", closed_form_cases())
    def test_len_is_the_generated_count(self, players, ineq, pure):
        system = build_system(mixed_structure(players), pure=pure, ineq=ineq)
        count = len(system)
        assert "constraints" not in vars(system)
        assert count == len(system.constraints)

    def test_unknown_mode_refused_at_build(self):
        with pytest.raises(StructureError):
            build_system(THRESHOLD23, ineq="both")

    def test_fifteen_players_replay_without_labels(self):
        # replay prints the labels its rows name and no table of all 2^16
        structure = from_minimal_sets(15, [[1, 2]])
        for ineq in ("full", "elemental"):
            system = build_system(structure, pure=False, ineq=ineq)
            # counted from the closed form: the full family has about 4^16 / 2 rows
            assert len(system) > (10 ** 9 if ineq == "full" else 10 ** 5)
            single = Certificate(Fraction(0), (("nonneg:1", Fraction(1)),), ())
            assert verify_certificate(system, single, objective=Objective("minsum", (1,)))
            # S(1,2) >= 1 from recover:1,2, normalize and nonneg:1,2,R
            r = 1 << 15
            entries = (("recover:1,2", Fraction(1)), ("normalize", Fraction(-1)),
                       ("nonneg:1,2,R", Fraction(1)))
            form = ((0b11, 1),)
            assert verify_certificate(system, Certificate(Fraction(1), entries, form), objective=form)
            assert not verify_certificate(system, Certificate(Fraction(2), entries, form),
                                          objective=form)
            assert system.row("ssa:1;15|R").terms == ((r, -1), (r | 1, 1), (r | 1 << 14, 1),
                                                      (r | 1 | 1 << 14, -1))
            with pytest.raises(KeyError):
                verify_certificate(
                    system, Certificate(Fraction(0), (("nonneg:16", Fraction(1)),), form),
                    objective=form,
                )
            assert "constraints" not in vars(system)
            assert set(system.ground.labels.values()) == {"∅", "1", "1,2", "1,2,R", "15", "R"}
