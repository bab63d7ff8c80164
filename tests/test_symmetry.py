"""The symmetry fold of bound LPs against the unfolded LP it replaces.

`structures.symmetries` generates the player permutations that map the
minimal sets onto themselves and fix given player sets, without listing
the group.  `share_bound` solves on the quotient that those fixing the
objective's players (and, in pure mode, the top player) fold further:
one variable per orbit of masks, one row per orbit of rows, and a
certificate that spreads each multiplier evenly over its row's orbit.
The reference is the plain LP with the equalities kept as rows, solved by
`helpers.solve_with_equalities`, as `TestPinnedPivotSequence.test_bound`
does.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qssbounds import cone
from qssbounds.cone import Quotient
from qssbounds.prover import (
    Objective,
    ProverError,
    cached_system,
    objective_rows,
    share_bound,
    verify_certificate,
)
from qssbounds.simplex import LPProblem
from qssbounds.structures import csirmaz, from_minimal_sets, purify, symmetries

from helpers import (
    orbit_minima,
    permute,
    random_quantum_structure,
    reference_pure_rows,
    solve_with_equalities,
    unfolded_bound,
)

THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
# a self-dual structure on 7 players that no permutation but the identity fixes
RIGID7 = from_minimal_sets(7, [
    [1, 2, 4], [2, 4, 5], [1, 2, 6], [3, 4, 6], [2, 3, 7], [1, 4, 7], [2, 4, 7],
    [2, 6, 7], [4, 6, 7], [1, 3, 5, 7], [1, 5, 6, 7],
])
SRC = str(Path(__file__).resolve().parents[1] / "src")


def closure(gens, n):
    """Every permutation the generators make, by breadth-first composition."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def brute_force_group(structure, *fixed):
    """The symmetries by trying each of the n! permutations."""
    n, mins = structure.n, {m.bits for m in structure.minimal_sets}

    def image(p, mask):
        return sum(1 << p[i] for i in range(n) if mask >> i & 1)

    return {
        p for p in itertools.permutations(range(n))
        if {image(p, m) for m in mins} == mins and all(image(p, f) == f for f in fixed)
    }


def seeded_structures(seed, count):
    rng = random.Random(seed)
    return [random_quantum_structure(rng, rng.randint(3, 5)) for _ in range(count)]


class TestGroupSearch:
    @pytest.mark.parametrize("structure", seeded_structures(31, 12) + [
        purify(csirmaz(4)[0]), purify(csirmaz(5)[0]), THRESHOLD23,
    ])
    def test_generators_make_exactly_the_brute_force_group(self, structure):
        n = structure.n
        for fixed in ((), ((1 << n) - 1, 1 << (n - 1)), (1, 0), (0b11, 0)):
            gens = symmetries(structure, *fixed)
            assert all(sorted(g) == list(range(n)) for g in gens)
            assert closure(gens, n) == brute_force_group(structure, *fixed)

    @pytest.mark.parametrize("n,order", [(4, 2), (5, 4), (6, 12), (7, 48), (8, 240)])
    def test_staircase_groups_fixing_the_top_player(self, n, order):
        structure = purify(csirmaz(n)[0])
        gens = symmetries(structure, (1 << structure.n) - 1, 1 << (structure.n - 1))
        assert len(closure(gens, structure.n)) == order

    def test_threshold_7_13_orbits_are_the_set_sizes(self):
        # 12! permutations fix the top player; the search never lists them
        # and gives one generator per base point that moves
        structure = from_minimal_sets(13, itertools.combinations(range(1, 14), 7))
        top = 1 << 12
        gens = symmetries(structure, top)
        assert 1 <= len(gens) <= 12 and all(g[12] == 12 for g in gens)
        # the pure table maps each mask below the top player to its orbit's least
        quotient = Quotient(cone.build_system(structure, pure=True, ineq="elemental"), gens)
        least = [m for m, _ in quotient._table[:top]]
        assert least == [(1 << x.bit_count()) - 1 for x in range(top)]
        assert len(set(least)) == quotient.var_count + 1 == 13

    def test_rigid_structure_has_no_generator(self):
        assert symmetries(RIGID7) == ()
        assert symmetries(THRESHOLD23, 0b001, 0b100) == ()

    def test_generators_and_orbits_do_not_depend_on_hash_order(self):
        script = (
            "import json, itertools\n"
            "from qssbounds.structures import csirmaz, purify, symmetries, from_minimal_sets\n"
            "from qssbounds.prover import cached_system\n"
            "out = []\n"
            "for s in [purify(csirmaz(n)[0]) for n in (5, 6, 7)] + [\n"
            "        from_minimal_sets(7, itertools.combinations(range(1, 8), 4))]:\n"
            "    top = 1 << (s.n - 1)\n"
            "    quotient = cached_system(s, True, 'elemental').folded((1 << s.n) - 1)\n"
            "    out.append([symmetries(s, (1 << s.n) - 1, top), quotient._table,\n"
            "                [row.id for row in quotient.rows]])\n"
            "print(json.dumps(out))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]


class TestFoldedQuotient:
    def test_trivial_group_gives_the_unfolded_quotient(self):
        for structure, players in ((RIGID7, 0b1111111), (THRESHOLD23, 0b001)):
            system = cached_system(structure, True, "elemental")
            assert system.folded(players) is system.quotient
            alone = Quotient(system, ())
            assert alone._table == system.quotient._table
            assert alone.rows == system.quotient.rows
            assert alone.var_count == system.quotient.var_count

    def test_trivial_group_solves_exactly_the_unfolded_lp(self):
        report = share_bound(THRESHOLD23, objective="minsum", players=[1])
        system = cached_system(THRESHOLD23, True, "full")
        _, solution, cert = unfolded_bound(system, report.objective)
        assert (report.pivots, report.certificate) == (solution.pivots, cert)

    @pytest.mark.parametrize("pure", [True, False])
    def test_folded_table_is_constant_on_orbits(self, pure):
        structure = purify(csirmaz(6)[0])
        system = cached_system(structure, pure, "elemental")
        players = (1 << structure.n) - 1
        quotient = system.folded(players)
        assert quotient is not system.quotient
        ground = system.ground
        for g in quotient.group:
            assert g[ground.players] == ground.players  # R is fixed
            for x in range(1, ground.full_mask + 1):
                image = permute(g, x)
                assert quotient.fold(((image, 1),)) == quotient.fold(((x, 1),))
        # every variable is the smallest mask of its orbit
        variables = {v for row in quotient.rows for v, _ in row.terms}
        assert len(variables) == quotient.var_count < system.quotient.var_count
        for v in variables:
            assert all(permute(g, v) >= v for g in quotient.group)

    def test_orbit_of_a_row_holds_its_images(self):
        structure = purify(csirmaz(5)[0])
        system = cached_system(structure, True, "elemental")
        quotient = system.folded((1 << structure.n) - 1)
        for row in quotient.rows:
            orbit = quotient.orbit(system.row(row.id))
            assert orbit[0].id == row.id and len({r.id for r in orbit}) == len(orbit)
            folded = {quotient.fold(r.terms) for r in orbit}
            assert len(folded) == 1
            for r in orbit:
                assert system.row(r.id) == r


def folded_quotients(structure, pure):
    """The quotients of ``structure``'s bounds: minmax, and minsum over each one player."""
    system = cached_system(structure, pure, "elemental")
    everyone = (1 << structure.n) - 1
    return [system.folded(players) for players in (everyone, *(1 << i for i in range(structure.n)))]


TABLES = [(f"csirmaz{n}bar", purify(csirmaz(n)[0])) for n in (4, 5, 6, 7)] + [
    (f"seeded{i}", purify(s)) for i, s in enumerate(seeded_structures(41, 4))
]
SKIPPED = (
    [("threshold23", THRESHOLD23), ("g4bar", purify(from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]])))]
    + [(f"csirmaz{n}bar", purify(csirmaz(n)[0])) for n in (4, 5, 6, 7)]
    + [(f"seeded{i}", purify(random_quantum_structure(rng, rng.randint(4, 5))))
       for rng in [random.Random(53)] for i in range(20)]
)


class TestMaskTables:
    """`Quotient`'s image tables and skipped candidates against their references."""

    @pytest.mark.parametrize("name,structure", TABLES, ids=[t[0] for t in TABLES])
    @pytest.mark.parametrize("pure", [True, False])
    def test_tables_and_minima_match_the_bit_loop(self, name, structure, pure):
        ground = cached_system(structure, pure, "elemental").ground
        h = ground.reference_mask >> pure  # the table's variables lie below h
        for quotient in folded_quotients(structure, pure):
            assert len(quotient._images) == len(quotient.group)
            for g, image in zip(quotient.group, quotient._images):
                assert image == [permute(g, m) for m in range(ground.full_mask + 1)]
            least = [m for m, _ in quotient._table[:h]]
            assert least == orbit_minima(quotient.group, h)

    @pytest.mark.parametrize("pure", [True, False])
    def test_orbits_of_csirmaz6bar_rows_match_the_group_closure(self, pure):
        structure = purify(csirmaz(6)[0])
        system = cached_system(structure, pure, "elemental")
        fresh = cone.build_system(structure, pure=pure, ineq="elemental")
        quotient = system.folded((1 << structure.n) - 1)
        extra, _, _ = objective_rows(system, Objective("minmax", tuple(range(1, structure.n + 1))))
        group = closure(quotient.group, system.ground.total)
        t = system.ground.var_count
        for row in [quotient.original(r) for r in quotient.rows] + list(extra):
            orbit = quotient.orbit(row, extra)
            assert orbit[0] == row
            images = {tuple(sorted((v if v == t else permute(p, v), c) for v, c in row.terms))
                      for p in group}
            assert [r.terms for r in orbit] == list(dict.fromkeys(r.terms for r in orbit))
            assert {r.terms for r in orbit} == images
            for r in orbit:
                assert r == (r if r.family == "objlink" else fresh.row(r.id))

    @pytest.mark.parametrize("name,structure", SKIPPED, ids=[s[0] for s in SKIPPED])
    def test_pure_rows_match_folding_every_candidate(self, name, structure):
        for quotient in folded_quotients(structure, True):
            assert quotient.rows == reference_pure_rows(quotient)


def objectives(n):
    everyone = tuple(range(1, n + 1))
    return [Objective("minmax", everyone), Objective("minsum", everyone),
            Objective("minsum", (1,)), Objective("minsum", (n,))]


DIFFERENTIAL = (
    [(f"csirmaz{n}bar", purify(csirmaz(n)[0])) for n in (4, 5, 6)]
    + [(f"seeded{i}", s) for i, s in enumerate(seeded_structures(7, 6))]
)


class TestAgainstTheUnfoldedLP:
    @pytest.mark.parametrize("name,structure", DIFFERENTIAL, ids=[d[0] for d in DIFFERENTIAL])
    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_values_match_and_certificates_replay(self, name, structure, mode):
        pure = mode == "pure"
        solved = purify(structure) if pure else structure
        elemental = cached_system(solved, pure, "elemental")
        full = cached_system(solved, pure, "full")
        if name.startswith("csirmaz"):  # the staircases' bounds do fold
            assert elemental.folded((1 << solved.n) - 1) is not elemental.quotient
        for objective in objectives(solved.n):
            extra, form, num_vars = objective_rows(elemental, objective)
            problem = LPProblem(num_vars, form, elemental.constraints + extra)
            plain = solve_with_equalities(problem)
            options = dict(mode=mode, ineq="elemental", objective=objective.kind,
                           players=objective.players)
            if plain.value == 0:  # a dummy player's share bounds no rate
                with pytest.raises(ProverError, match="bounds no information rate"):
                    share_bound(solved, **options)
                continue
            folded = share_bound(solved, **options)
            assert folded.lp_value == plain.value, objective
            for system in (elemental, full):
                assert verify_certificate(system, folded.certificate, objective=objective)
