"""The quotient against the plain LP it replaces.

The equalities pin variables (S(X) = S(F\\X) in pure mode, and S(A ∪ R)
= S(A) -/+ 1 in both modes), so every LP is solved on the variables they
leave free, with no equality row, and its certificates are expanded back
onto the elemental rows.  The plain LPs here are built in the tests
themselves or by `helpers.equality_lp_rows`, and solved by the reference
`helpers.solve_with_equalities`, since `simplex` takes ``>=`` rows only.
"""

import json
import random
from fractions import Fraction

import pytest

from qssbounds import cone, prover
from qssbounds.cone import build_system, complement_chain, sparse_form
from qssbounds.prover import (
    Certificate,
    Objective,
    _expand,
    cached_system,
    check_implied,
    lemma_suite,
    objective_rows,
    scheme_relation_instances,
    share_bound,
    theorem3_chain,
    verify_certificate,
)
from qssbounds.simplex import LinearConstraint, LPProblem, Session, solve
from qssbounds.structures import (
    StructureError,
    csirmaz,
    from_minimal_sets,
    is_quantum,
    is_self_dual,
    purify,
)

from helpers import (
    Elimination,
    all_antichain_structures,
    equality_lp_rows,
    plain_certificate,
    random_quantum_structure,
    solve_with_equalities,
)

THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
GAMMA4 = from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]])
GAMMA4_BAR = purify(GAMMA4)
STAR3_BAR = purify(from_minimal_sets(3, [[1, 2], [1, 3]]))
ONE_PLAYER = from_minimal_sets(1, [[1]])
ONE = Fraction(1)
# the families of the equalities that the quotient folds into its variables
EQUALITIES = ("normalize", "recover", "secrecy", "purity")


def seeded_structure(rng, elements):
    """A self-dual quantum structure on ``elements`` ground elements.

    Every player lies in some minimal set, so none is a dummy.
    """
    known = (THRESHOLD23, GAMMA4_BAR, STAR3_BAR)
    while True:
        s = random_quantum_structure(rng, rng.randint(elements - 2, elements - 1))
        if not is_self_dual(s):
            s = purify(s)
        used = {p for m in s.minimal_sets for p in m.players()}
        if s.n + 1 == elements and len(used) == s.n and s not in known:
            return s


RNG = random.Random(2)
SEEDED = [seeded_structure(RNG, elements) for elements in (5, 6, 7)]
STRUCTURES = [THRESHOLD23, GAMMA4_BAR, STAR3_BAR] + SEEDED
IDS = ["threshold23", "g4bar", "star3bar", "seeded-5el", "seeded-6el", "seeded-7el"]
# Plain solves at 7 elements take about 0.1 s each and a 7-element
# structure has hundreds of targets, so there a seeded sample is checked.
SAMPLED_TARGETS_AT_7 = 10


def replay_systems(structure, max_full=6):
    """Elemental rows, and full rows up to ``max_full`` elements."""
    ineqs = ("elemental", "full") if structure.n + 1 <= max_full else ("elemental",)
    return [cached_system(structure, True, ineq) for ineq in ineqs]


def assert_quotient_is_the_reference(structure, pure=True):
    """The quotient's rows against the reference elimination of the LP
    with equality rows: its folded rows that the presolve keeps, in
    order, each under the id of the first row that folds to it."""
    system = build_system(structure, pure=pure, ineq="elemental")
    quotient = system.quotient
    elimination = Elimination(equality_lp_rows(system))
    assert not elimination.infeasible and not elimination.presolved.infeasible
    folded = [elimination.folded[k] for k in elimination.presolved.row_index]
    assert quotient.rows == tuple(folded)
    assert {row.rel for row in quotient.rows} <= {">="}
    used = {v for row in quotient.rows for v, _ in row.terms}
    assert used == set(range(1, quotient.var_count + 1))


# one player: S(1) = 1, so no variable is left and every row folds to
# 0 >= c with c <= 0
@pytest.mark.parametrize(
    "structure", [ONE_PLAYER, THRESHOLD23, GAMMA4_BAR] + SEEDED[1:],
    ids=["one-player"] + IDS[:2] + IDS[4:],
)
def test_quotient_keeps_each_mapped_row_once_under_its_first_id(structure):
    assert_quotient_is_the_reference(structure)


def small_pure_structures():
    """Self-dual or purified quantum structures, each once.

    Every quantum antichain on up to 4 players, 40 seeded ones on up to 5
    players and the staircases on 4 to 6 players.
    """
    found = [s for n in range(1, 5) for s in all_antichain_structures(n) if is_quantum(s)]
    rng = random.Random(40)
    found += [random_quantum_structure(rng, rng.randint(2, 5)) for _ in range(40)]
    found += [csirmaz(n)[0] for n in (4, 5, 6)]
    return list(dict.fromkeys(s if is_self_dual(s) else purify(s) for s in found))


def test_quotient_matches_the_reference_on_small_structures():
    structures = small_pure_structures()
    assert ONE_PLAYER in structures and len(structures) > 90
    for structure in structures:
        assert_quotient_is_the_reference(structure)


def test_mixed_quotient_matches_the_reference_on_small_structures():
    structures = [s for n in range(1, 4) for s in all_antichain_structures(n) if is_quantum(s)]
    for structure in structures + [GAMMA4, GAMMA4_BAR]:
        assert_quotient_is_the_reference(structure, pure=False)


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_quotient_of_full_rows_is_the_elemental_quotient(pure):
    for structure in (ONE_PLAYER, THRESHOLD23, GAMMA4_BAR):
        full = build_system(structure, pure=pure, ineq="full").quotient
        elemental = build_system(structure, pure=pure, ineq="elemental").quotient
        assert full.rows == elemental.rows
        assert presolve_fields(full.presolved) == presolve_fields(elemental.presolved)


def presolve_fields(state):
    """Every field of a presolved state, with each dict as its list of items
    and each number with its type, so order and int-ness are compared too."""
    def plain(value):
        if isinstance(value, dict):
            return [(plain(k), plain(v)) for k, v in value.items()]
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return value if isinstance(value, str) else (type(value).__name__, value)
    return {name: plain(value) for name, value in vars(state).items()}


def closed_form_structures():
    """Self-dual structures on 1 and 2 players, the purified quantum ones on
    3, seeded ones on 4 and 5 players (purified when not self-dual) and the
    purified staircases on 4 to 6 players."""
    small = [s for n in (1, 2) for s in all_antichain_structures(n) if is_self_dual(s)]
    pool = [purify(s) for s in all_antichain_structures(3) if is_quantum(s)]
    rng = random.Random(18)
    seeded = [random_quantum_structure(rng, n) for n in (4, 5) for _ in range(4)]
    seeded = [s if is_self_dual(s) else purify(s) for s in seeded]
    return list(dict.fromkeys(small + pool + seeded + [purify(csirmaz(n)[0]) for n in (4, 5, 6)]))


def added_rows(system):
    """Four sets of ``>=`` rows a problem may add, on the system's variables,
    each with whether it makes the pure problem infeasible."""
    ground = system.ground
    p, r = ground.player_mask, ground.reference_mask
    links, _, _ = objective_rows(system, Objective("minmax", tuple(range(1, ground.players + 1))))
    # S(1) is pinned on one player and free on more, and S(R,1) folds
    # onto S(1) -/+ 1 in mixed mode and onto S(P\1) in pure mode
    cutoff = LinearConstraint(
        "cutoff", ((1, Fraction(-3, 2)), (r | 1, Fraction(2))), ">=", Fraction(-7, 3)
    )
    repeat = system.row("nonneg:1")._replace(id="repeat")
    negative = LinearConstraint("negative", ((p, -1),), ">=", 0)  # -S(P) >= 0 reads 0 >= 1
    return [(links, False), ((cutoff,), False), ((repeat,), False), ((negative,), True)]


PRESOLVE_FIELDS = ("cols", "costs", "scales", "cost_scale", "var_pos", "rhs", "infeasible")


def test_closed_form_presolve_is_the_generic_presolve():
    # the quotient folds the equalities in closed form; every state, an
    # infeasible one too, is then the presolve of the reference elimination
    # of the LP that keeps them as rows
    structures = closed_form_structures()
    assert ONE_PLAYER in structures and {s.n for s in structures} == {1, 2, 3, 4, 5, 6, 7}
    for structure in structures:
        for pure in (True, False):
            system = build_system(structure, pure=pure, ineq="elemental")
            quotient = system.quotient
            num_vars = system.ground.var_count + 1
            for extra, infeasible in [((), False)] + added_rows(system):
                problem, _ = quotient.problem(num_vars, (), extra)
                state = problem.presolved
                elimination = Elimination(equality_lp_rows(system, extra))
                reference = elimination.presolved
                assert {row.rel for row in problem.rows} <= {">="}
                got = [getattr(state, name) for name in PRESOLVE_FIELDS]
                assert got == [getattr(reference, name) for name in PRESOLVE_FIELDS], structure
                assert [problem.rows[i].id for i in state.row_index] == [
                    elimination.folded[i].id for i in reference.row_index
                ]
                if pure:
                    assert state.infeasible == infeasible
            assert quotient.problem(num_vars, ())[0].presolved is quotient.presolved


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_a_problem_adds_only_inequalities(pure):
    quotient = cached_system(THRESHOLD23, pure, "elemental").quotient
    with pytest.raises(ValueError, match="unsupported relation '=' in row eq"):
        quotient.problem(quotient.ground.var_count, (), (LinearConstraint("eq", ((1, 1),), "=", 0),))


@pytest.mark.parametrize(
    "structure",
    [from_minimal_sets(3, [[1, 2], [1, 3]]), from_minimal_sets(2, [[1], [2]])],
    ids=["quantum", "not-quantum"],
)
def test_pure_quotient_of_a_structure_that_is_not_self_dual_is_refused(structure):
    # its scheme rows contradict purity, so the refusal drops no feasible LP
    assert not is_self_dual(structure)
    system = build_system(structure, pure=True, ineq="elemental")
    with pytest.raises(StructureError, match="pure quotient needs a self-dual structure"):
        system.quotient
    plain = LPProblem(system.ground.var_count, (), system.constraints)
    assert solve_with_equalities(plain).status == "infeasible"


@pytest.mark.parametrize(
    "ineq,elements", [("elemental", e) for e in range(2, 9)] + [("full", e) for e in range(2, 6)]
)
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_order_key_sorts_ids_into_generation_order(ineq, elements, pure):
    # player 1 alone is authorized, so both recover and secrecy rows occur;
    # certificates name elemental rows only, so either family orders those
    structure = from_minimal_sets(elements - 1, [[1]])
    system = build_system(structure, pure=pure, ineq=ineq)
    ids = [c.id for c in build_system(structure, pure=pure, ineq="elemental").constraints]
    shuffled = random.Random(elements).sample(ids, len(ids))
    assert sorted(shuffled, key=system.order_key) == ids
    keys = [system.order_key(rid) for rid in ids]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_pure_solves_generate_no_row_list(monkeypatch):
    # bounds, suites and chains solve on the quotient and replay by id
    calls = []
    original = cone.vn_inequalities
    monkeypatch.setattr(cone, "vn_inequalities", lambda *a: calls.append(a) or original(*a))
    cached_system.cache_clear()
    for ineq in ("full", "elemental"):
        share_bound(GAMMA4, auto_purify=True, ineq=ineq)
    assert lemma_suite(GAMMA4_BAR).all_implied
    assert theorem3_chain(4).all_implied
    assert calls == []


@pytest.mark.parametrize("structure", STRUCTURES, ids=IDS)
def test_every_lemma_target_matches_the_plain_lp(structure):
    elemental = cached_system(structure, True, "elemental")
    quotient = elemental.quotient
    elimination = Elimination(elemental.constraints)
    systems = replay_systems(structure)
    # a witness that satisfies the elemental rows satisfies the full ones;
    # checking them too costs seconds from 6 elements on
    witness_systems = replay_systems(structure, max_full=5)
    num_vars = elemental.ground.var_count
    statuses = set()
    targets = scheme_relation_instances(structure, elemental.ground)
    if structure.n + 1 == 7:
        targets = random.Random(7).sample(targets, SAMPLED_TARGETS_AT_7)
    for inst in targets:
        form = dict(inst.terms)
        negated = {v: -c for v, c in form.items()}
        for terms, bound in ((form, inst.rhs), (negated, -inst.rhs)):
            objective = tuple(sorted(terms.items()))
            plain = solve_with_equalities(
                LPProblem(num_vars, objective, elemental.constraints), elimination=elimination
            )
            folded, constant = quotient.fold(objective)
            reduced = solve(LPProblem(num_vars, folded, quotient.rows, quotient.presolved))
            value = None if reduced.value is None else reduced.value + constant
            assert (reduced.status, value) == (plain.status, plain.value), inst.id
            statuses.add(plain.status)
            result = check_implied(elemental, terms, ">=", bound)
            assert result.implied == (plain.status == "optimal" and plain.value >= bound)
            for cert in result.certificates:
                for system in systems:
                    assert verify_certificate(system, cert, objective=objective), inst.id
            if result.witness is not None:
                for system in witness_systems:
                    assert all(c.satisfied_by(result.witness) for c in system.constraints)
    assert "optimal" in statuses


@pytest.mark.parametrize("structure", STRUCTURES, ids=IDS)
def test_session_solves_match_cold_solves(structure):
    # every target in both directions, in suite order, in one session
    elemental = cached_system(structure, True, "elemental")
    quotient = elemental.quotient
    state = quotient.presolved
    systems = replay_systems(structure)
    session = Session()
    statuses, warm_pivots = set(), 0
    for inst in scheme_relation_instances(structure, elemental.ground):
        for sign in (1, -1):
            objective = tuple(sorted((v, sign * c) for v, c in inst.terms))
            folded, constant = quotient.fold(objective)
            problem = LPProblem(elemental.ground.var_count, folded, quotient.rows, state)
            warm = solve(problem, session)
            cold = solve(problem)
            assert (warm.status, warm.value) == (cold.status, cold.value), inst.id
            statuses.add(warm.status)
            warm_pivots += warm.pivots
            if warm.status != "optimal":
                continue
            entries = _expand(elemental, (), problem.rows, *warm.multipliers, objective)
            cert = Certificate(warm.value + constant, entries, objective)
            for system in systems:
                assert verify_certificate(system, cert, objective=objective), inst.id
    assert statuses == {"optimal", "unbounded"}
    assert warm_pivots > 0


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_forms_that_fold_to_a_constant(pure):
    # S(R) = 1 in both modes and S(P) = 1 in pure mode, where the top
    # player's share folds to S(P\top) plus a constant; in mixed mode
    # S(P) is an unknown whose least value is 1 on threshold(2,3)
    structure = GAMMA4_BAR if pure else THRESHOLD23
    system = cached_system(structure, pure, "elemental")
    ground = system.ground
    p, r, top = ground.player_mask, ground.reference_mask, 1 << (structure.n - 1)
    assert system.quotient.fold(((r, ONE),)) == ((), 1)
    assert (system.quotient.fold(((p, ONE),)) == ((), 1)) == pure
    assert (system.quotient.fold(((top, ONE),))[1] != 0) == pure
    report = share_bound(structure, mode="pure" if pure else "mixed", ineq="elemental",
                         objective="minsum", players=[structure.n])
    plain = solve_with_equalities(LPProblem(ground.var_count, ((top, ONE),), system.constraints))
    assert report.lp_value == plain.value
    for replay in (system, cached_system(structure, pure, "full")):
        assert verify_certificate(replay, report.certificate, objective=report.objective)
    for mask in (p, r):
        result = check_implied(system, {mask: ONE}, ">=", ONE)
        assert result.implied
        (cert,) = result.certificates
        assert verify_certificate(system, cert, objective=((mask, ONE),))
        result = check_implied(system, {mask: ONE}, ">=", 2)
        assert not result.implied and result.witness[mask] == 1
        assert all(row.satisfied_by(result.witness) for row in system.constraints)


@pytest.mark.parametrize("structure", STRUCTURES, ids=IDS)
def test_minmax_bound_matches_the_plain_lp(structure):
    elemental = cached_system(structure, True, "elemental")
    objective = Objective("minmax", tuple(range(1, structure.n + 1)))
    extra, form, num_vars = objective_rows(elemental, objective)
    plain = solve_with_equalities(LPProblem(num_vars, form, elemental.constraints + extra))
    report = share_bound(structure, ineq="elemental")
    assert plain.status == "optimal"
    assert report.lp_value == plain.value
    for system in replay_systems(structure):
        assert verify_certificate(system, report.certificate, objective=objective)


class TestExpansion:
    """Quotient multipliers carried back onto elemental rows."""

    @pytest.mark.parametrize("structure", [THRESHOLD23, GAMMA4_BAR, STAR3_BAR], ids=IDS[:3])
    def test_certificate_ids_are_elemental_rows(self, structure):
        elemental = cached_system(structure, True, "elemental")
        report = share_bound(structure, ineq="full")
        links = {f"objlink:{i}" for i in range(1, structure.n + 1)}
        members = {c.id for c in elemental.constraints}
        assert {rid for rid, _ in report.certificate.entries} <= members | links
        for inst in scheme_relation_instances(structure, elemental.ground):
            for cert in check_implied(elemental, dict(inst.terms), inst.rel, inst.rhs).certificates:
                assert {rid for rid, _ in cert.entries} <= members

    def test_chain_sums_to_the_complement_relation(self):
        elemental = cached_system(STAR3_BAR, True, "elemental")
        ground = elemental.ground
        full = ground.full_mask
        for y in range(1, full):
            chain = complement_chain(ground, y)
            assert len(chain) == y.bit_count()
            total = {}
            for row in chain:
                assert elemental.row(row.id) == row
                assert (row.rel, row.rhs) == (">=", 0)
                for v, c in row.terms:
                    total[v] = total.get(v, 0) + c
            assert {v: c for v, c in total.items() if c} == dict(
                sparse_form((y, ONE), (full & ~y, -ONE), (full, ONE))
            )

    @staticmethod
    def expanded_g4bar():
        """The g4bar bound certificate and the rows its expansion added."""
        elemental = cached_system(GAMMA4_BAR, True, "elemental")
        quotient = elemental.quotient
        objective = Objective("minmax", (1, 2, 3, 4, 5))
        extra, form, num_vars = objective_rows(elemental, objective)
        problem, _ = quotient.problem(num_vars, form, extra)
        found = dict(plain_certificate(problem, solve(problem)).entries)
        report = share_bound(GAMMA4_BAR, ineq="elemental")
        added = [
            rid for rid, mult in report.certificate.entries
            if rid.partition(":")[0] not in EQUALITIES and found.get(rid) != mult
        ]
        return elemental, report, added

    def test_dropping_any_chain_row_is_rejected(self):
        elemental, report, added = self.expanded_g4bar()
        assert added and all(rid.startswith("wm:") for rid in added)
        assert verify_certificate(elemental, report.certificate, objective=report.objective)
        for rid in added:
            entries = tuple(e for e in report.certificate.entries if e[0] != rid)
            cert = Certificate(report.lp_value, entries, report.certificate.objective)
            assert not verify_certificate(elemental, cert, objective=report.objective), rid

    @pytest.mark.parametrize("delta", [Fraction(1), Fraction(-1, 3)])
    def test_changed_purity_multiplier_is_rejected(self, delta):
        # and a changed normalize, recover or secrecy multiplier: the bounds
        # on g4bar and, in mixed mode, on g4, and S(R) >= 1 in both modes
        elemental, report, _ = self.expanded_g4bar()
        mixed = cached_system(GAMMA4, False, "elemental")
        mixed_report = share_bound(GAMMA4, mode="mixed", ineq="elemental")
        cases = [
            (elemental, report.certificate, report.objective),
            (mixed, mixed_report.certificate, mixed_report.objective),
        ]
        for system in (elemental, mixed):
            r = system.ground.reference_mask
            (cert,) = check_implied(system, {r: ONE}, ">=", ONE).certificates
            cases.append((system, cert, ((r, ONE),)))
        families = set()
        for system, cert, objective in cases:
            assert verify_certificate(system, cert, objective=objective)
            for rid, _ in cert.entries:
                if rid.partition(":")[0] not in EQUALITIES:
                    continue
                families.add(rid.partition(":")[0])
                entries = tuple(
                    (other, mult + delta if other == rid else mult) for other, mult in cert.entries
                )
                changed = Certificate(cert.claimed_bound, entries, cert.objective)
                assert not verify_certificate(system, changed, objective=objective), rid
        assert families == set(EQUALITIES)

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_target_term_on_the_empty_set_drops_out(self, pure):
        # S(∅) is zero and no variable: S(1) + 5*S(∅) >= 1 is proved as S(1) >= 1
        system = cached_system(THRESHOLD23, pure, "full")
        result = check_implied(system, {0b0001: ONE, 0: Fraction(5)}, ">=", ONE)
        assert result.implied
        (cert,) = result.certificates
        assert cert.objective == ((0b0001, ONE),)
        (plain,) = check_implied(system, {0b0001: ONE}, ">=", ONE).certificates
        assert cert.entries == plain.entries
        assert verify_certificate(system, cert, objective=((0b0001, ONE),))

    @pytest.mark.parametrize(
        "structure", [GAMMA4, THRESHOLD23, STAR3_BAR], ids=["g4", "threshold23", "star3"]
    )
    def test_mixed_mode_quotient_is_the_identity(self, structure):
        # on the player sets, the variables it keeps; it folds S(A ∪ R),
        # which the scheme rows and normalize pin, onto S(A) -/+ 1
        system = cached_system(structure, False, "elemental")
        quotient, r = system.quotient, system.ground.reference_mask
        assert quotient.var_count == r - 1
        for v in range(1, 2 * r):
            a = v & ~r
            if v < r:
                assert quotient.fold(((v, ONE),)) == (((v, ONE),), 0)
            else:
                shift = -1 if structure.mask_authorized(a) else 1
                assert quotient.fold(((v, ONE),)) == (((a, ONE),) if a else (), shift)
        # its LP is the reference elimination of the plain one, which keeps
        # the equalities as rows: same pivots, and the same certificate
        objective = Objective("minmax", tuple(range(1, structure.n + 1)))
        extra, form, num_vars = objective_rows(system, objective)
        rows = system.constraints + extra
        elimination = Elimination(rows)
        state = elimination.presolved
        problem = LPProblem(num_vars, form, rows)
        plain = solve_with_equalities(problem, elimination=elimination)
        report = share_bound(structure, mode="mixed", ineq="elemental")
        assert (report.lp_value, report.pivots) == (plain.value, plain.pivots)
        assert report.certificate.entries == plain_certificate(problem, plain).entries
        assert (report.rows, report.cols) == (len(state.cols), len(state.var_pos))


class TestCsirmazLadder:
    """Exact, replayed bounds on the purified staircase structures."""

    @pytest.mark.parametrize(
        "n,value,rows,cols",
        [(5, Fraction(7, 4), 221, 32), (6, Fraction(9, 5), 532, 64),
         (7, Fraction(11, 6), 1276, 128)],
    )
    def test_bound(self, n, value, rows, cols):
        structure, _ = csirmaz(n)
        report = share_bound(structure, auto_purify=True, ineq="elemental")
        assert report.structure.n + 1 == n + 2
        assert report.lp_value == value
        # the quotient LP: the player sets below the top player, plus t,
        # and the rows deduplicated after folding
        assert (report.rows, report.cols) == (rows, cols)
        assert report.lp_value >= report.theorem3_bound == Fraction(7, 5)
        elemental = cached_system(report.structure, True, "elemental")
        assert verify_certificate(elemental, report.certificate, objective=report.objective)


class TestOneSystemPerSolve:
    """Every LP runs on the elemental quotient of the system it is given."""

    @pytest.mark.parametrize("structure", STRUCTURES, ids=IDS)
    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_full_and_elemental_solves_agree(self, structure, mode):
        for objective in ("minmax", "minsum"):
            full, elemental = (
                share_bound(structure, mode=mode, ineq=ineq, objective=objective).to_json_dict()
                for ineq in ("full", "elemental")
            )
            assert json.dumps(full["certificate"]) == json.dumps(elemental["certificate"])
            for report, ineq in ((full, "full"), (elemental, "elemental")):
                assert report.pop("ineq") == ineq
                del report["stats"]["millis"]
            assert full == elemental, objective
        if mode == "pure":
            full, elemental = (lemma_suite(structure, ineq=ineq) for ineq in ("full", "elemental"))
            assert [(o.instance, o.implied, o.pivots) for o in full.outcomes] == [
                (o.instance, o.implied, o.pivots) for o in elemental.outcomes
            ]

    def test_full_solves_build_one_system_and_parse_each_id_once(self, monkeypatch):
        builds, parses, named = [], [], []
        build, parse = prover.build_system, cone.ConstraintSystem._parse
        verify = prover.verify_certificate

        def counted_verify(system, cert, *, objective):
            named.extend(rid for rid, _ in cert.entries if not rid.startswith("objlink:"))
            return verify(system, cert, objective=objective)

        def counted_build(*args, **kwargs):
            builds.append(kwargs["ineq"])
            return build(*args, **kwargs)

        def counted_parse(system, rid):
            parses.append(rid)
            return parse(system, rid)

        monkeypatch.setattr(prover, "build_system", counted_build)
        monkeypatch.setattr(cone.ConstraintSystem, "_parse", counted_parse)
        monkeypatch.setattr(prover, "verify_certificate", counted_verify)
        runs = (lambda: share_bound(GAMMA4_BAR, ineq="full"), lambda: lemma_suite(THRESHOLD23))
        for run in runs:
            cached_system.cache_clear()
            for seen in (builds, parses, named):
                seen.clear()
            run()
            assert builds == ["full"]
            # the rows of one memo serve the expansion and the replay
            assert named and sorted(parses) == sorted(set(named))
