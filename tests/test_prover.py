import gc
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from qssbounds import cone, prover, simplex
from qssbounds.prover import (
    Certificate,
    Objective,
    ProverError,
    cached_system,
    certificate_from_json_dict,
    certificate_to_json_dict,
    check_implied,
    lemma_suite,
    objective_rows,
    scheme_relation_instances,
    share_bound,
    staircase_chain_instances,
    theorem3_chain,
    verify_certificate,
)
from qssbounds.simplex import LinearConstraint, LPProblem, Presolved, solve
from qssbounds.structures import (
    CAPACITY,
    CapacityError,
    StructureError,
    csirmaz,
    from_minimal_sets,
    is_quantum,
    is_self_dual,
    purify,
)

from helpers import (
    Elimination,
    bump_first_multiplier,
    count_quantum_scans,
    lp_lemma_suite,
    plain_certificate,
    qutrit_threshold_vector,
    random_quantum_structure,
    solve_with_equalities,
)

THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
GAMMA4 = from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]])
GAMMA4_BAR = purify(GAMMA4)
# three players, not self-dual: purified, a 5-element ground set
STAR3_BAR = purify(from_minimal_sets(3, [[1, 2], [1, 3]]))
ZERO, ONE = Fraction(0), Fraction(1)

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_solves.json").read_text(encoding="utf-8")
)


class TestShareBound:
    def test_threshold_is_exactly_one(self):
        report = share_bound(THRESHOLD23, mode="pure", ineq="full")
        assert report.lp_value == 1
        assert report.rate_upper_bound == 1
        assert not report.purified

    def test_threshold_oracle_vector_attains_the_bound(self):
        # Independent upper bound: the qutrit scheme's entropy vector is
        # feasible with every share entropy equal to 1, so the exact LP
        # minimum of the largest share cannot exceed 1.
        system = cached_system(THRESHOLD23, True, "full")
        point = qutrit_threshold_vector(system.ground)
        for c in system.constraints:
            assert c.satisfied_by(point)
        assert max(point[1 << i] for i in range(3)) == 1
        assert share_bound(THRESHOLD23).lp_value == 1

    def test_purified_gamma4_at_least_three_halves(self):
        report = share_bound(GAMMA4_BAR, players=[1, 2, 3, 4])
        assert report.lp_value >= Fraction(3, 2)
        assert report.rate_upper_bound <= Fraction(2, 3)
        assert report.lp_value * report.rate_upper_bound == 1

    def test_csirmaz4_report_carries_reference(self):
        report = share_bound(GAMMA4, auto_purify=True)
        assert report.purified
        assert report.k == 2
        assert report.theorem3_bound == Fraction(7, 5)
        assert report.lp_value >= Fraction(7, 5)

    def test_non_csirmaz_has_no_reference(self):
        report = share_bound(THRESHOLD23)
        assert report.k is None and report.theorem3_bound is None

    def test_five_players_scan_only_the_input(self, monkeypatch):
        # the four-player staircase the input is compared with is quantum
        # by construction
        star = from_minimal_sets(5, [[1, 2], [1, 3], [1, 4], [1, 5]])
        calls = count_quantum_scans(monkeypatch)
        report = share_bound(star, auto_purify=True, ineq="elemental")
        assert report.purified and report.k is None
        assert calls == [star]

    def test_purify_then_bound_consistency(self):
        direct = share_bound(GAMMA4_BAR, players=[1, 2, 3, 4])
        auto = share_bound(GAMMA4, auto_purify=True, players=[1, 2, 3, 4])
        assert direct.lp_value == auto.lp_value

    def test_rejects_non_quantum(self):
        bad = from_minimal_sets(2, [[1], [2]])
        with pytest.raises(StructureError):
            share_bound(bad)

    def test_pure_needs_self_dual_or_flag(self):
        with pytest.raises(StructureError):
            share_bound(GAMMA4, auto_purify=False)

    def test_auto_purify_is_refused_in_mixed_mode(self):
        # mixed mode never purifies, so the flag would be ignored
        for structure in (GAMMA4, THRESHOLD23):
            with pytest.raises(StructureError, match="auto_purify applies to pure mode only"):
                share_bound(structure, auto_purify=True, mode="mixed")

    def test_self_duality_is_refused_before_purification_capacity(self):
        # purifying 15 players needs a 16th; without auto_purify the
        # refusal names self-duality, not capacity
        wide = from_minimal_sets(15, [[1, 2]])
        with pytest.raises(StructureError, match="pure mode needs a self-dual structure"):
            prover.prepare_structure(wide, max_elements=CAPACITY)
        with pytest.raises(CapacityError, match="would exceed 15 players"):
            prover.prepare_structure(wide, auto_purify=True, max_elements=CAPACITY)

    def test_limit_guard(self):
        big, _ = csirmaz(9)
        with pytest.raises(CapacityError, match="--limit-elements"):
            share_bound(big, auto_purify=True)

    def test_capacity_limit_admits_every_structure(self):
        # 15 players plus the reference fill the 16 ground elements
        widest = from_minimal_sets(CAPACITY - 1, [[1]])
        assert prover.prepare_structure(widest, max_elements=CAPACITY) == (widest, False)
        with pytest.raises(CapacityError, match="16 ground elements exceed the limit 15"):
            prover.prepare_structure(widest, max_elements=CAPACITY - 1)

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_zero_lp_value_names_the_objective(self, mode, ineq):
        # player 1 is a dummy, so its share can be empty: the LP value is
        # 0 and bounds no information rate
        dummy = from_minimal_sets(4, [[2]])
        with pytest.raises(ProverError, match="the minsum over players 1 objective"):
            share_bound(dummy, auto_purify=mode == "pure", mode=mode, ineq=ineq,
                        objective="minsum", players=[1])

    def test_single_objective(self):
        # minsum over one player bounds that share alone
        report = share_bound(THRESHOLD23, objective="minsum", players=[2])
        assert report.objective == Objective("minsum", (2,))
        assert report.lp_value == 1

    @pytest.mark.parametrize("spec", ["single:x", "single:", "single:1.5", "single:2", "median"])
    def test_malformed_single_objective_is_a_structure_error(self, spec):
        with pytest.raises(StructureError, match=repr(spec)):
            share_bound(THRESHOLD23, objective=spec)

    def test_objective_parse_defaults_to_every_player(self):
        assert Objective.parse("minsum", None, 3) == Objective("minsum", (1, 2, 3))
        assert Objective.parse("minsum", (2,), 3) == Objective("minsum", (2,))

    def test_single_share_kind_is_gone(self):
        # one share is minsum over that player, its only spelling
        with pytest.raises(StructureError, match="unknown objective kind 'single'"):
            Objective("single", (1,))

    def test_unknown_mode_rejected(self):
        with pytest.raises(StructureError, match="unknown mode 'median'"):
            share_bound(THRESHOLD23, mode="median")

    def test_minsum_objective(self):
        report = share_bound(THRESHOLD23, objective="minsum")
        assert report.lp_value == 3

    def test_mixed_mode_runs_without_purity(self):
        report = share_bound(GAMMA4, mode="mixed")
        assert report.lp_value >= 1

    def test_empty_player_selection_rejected(self):
        with pytest.raises(StructureError):
            share_bound(THRESHOLD23, players=[])

    def test_objective_player_out_of_range(self):
        with pytest.raises(StructureError):
            share_bound(THRESHOLD23, players=[1, 9])

    @pytest.mark.parametrize("kind", ["minmax", "minsum"])
    def test_repeated_objective_player_rejected(self, kind):
        # two objlink rows with one id would leave the certificate one
        # multiplier short, so a repeated player is refused up front
        with pytest.raises(StructureError, match="names a player twice"):
            Objective(kind, (1, 2, 1))
        for mode in ("pure", "mixed"):
            with pytest.raises(StructureError, match="names a player twice"):
                share_bound(THRESHOLD23, mode=mode, objective=kind, players=[1, 1])

    def test_report_json_shape(self):
        report = share_bound(THRESHOLD23)
        data = report.to_json_dict()
        assert list(data) == [
            "structure", "purified", "k", "theorem3_bound", "mode", "ineq",
            "objective", "lp_value", "rate_upper_bound", "certificate", "stats",
        ]
        assert data["lp_value"] == "1/1"
        # the quotient LP: S(1), S(2) and S(1,2) are the unknowns the
        # equalities leave free, and the swap of players 1 and 2, which
        # fixes the top player 3, folds S(1) and S(2) into one; plus t
        assert (data["stats"]["rows"], data["stats"]["cols"]) == (9, 3)
        mixed = share_bound(THRESHOLD23, mode="mixed").to_json_dict()["stats"]
        # the seven player sets, one unknown per size under every
        # permutation of the players, plus t
        assert (mixed["rows"], mixed["cols"]) == (13, 4)
        assert all(
            isinstance(e["mult"], str) and "/" in e["mult"]
            for e in data["certificate"]["entries"]
        )


def pinned_structure(case):
    """The structure a pinned case was solved on (purified when needed)."""
    if "csirmaz" in case:
        structure, _ = csirmaz(case["csirmaz"])
    else:
        structure = from_minimal_sets(case["n"], case["minimal_sets"])
    return structure if is_self_dual(structure) else purify(structure)


def entry_strings(cert):
    """Each entry's id and its multiplier ``u / den`` as a reduced ``"p/q"``."""
    mults = ((rid, Fraction(u, cert.den)) for rid, u in cert.entries)
    return [[rid, f"{m.numerator}/{m.denominator}"] for rid, m in mults]


class TestPinnedPivotSequence:
    """Exact solves pinned to the pivot sequence of the solver's one route.

    Every solve, cold or in a session, finds its session's basis with the
    zero objective (Bland's rule from the unit columns, every pivot
    degenerate) and then solves each objective by the dual simplex
    (dual steepest edge, then the dual Bland rule after a degenerate
    run).  The route is deterministic, so any exact kernel that keeps
    those rules and their tie-breaks makes the same pivots and must
    reproduce the pivot counts, the values and every certificate entry
    of ``data/pinned_solves.json`` exactly.  Each pinned LP in
    ``bounds`` is the minmax bound LP over all players on the named row
    set, solved directly.
    """

    @pytest.mark.parametrize("case", PINNED["bounds"], ids=lambda c: c["name"])
    def test_bound(self, case):
        structure = pinned_structure(case)
        system = cached_system(structure, True, case["ineq"])
        objective = Objective("minmax", tuple(range(1, structure.n + 1)))
        extra, form, num_vars = objective_rows(system, objective)
        problem = LPProblem(num_vars, form, system.constraints + extra)
        solution = solve_with_equalities(problem)
        assert solution.pivots == case["pivots"]
        assert solution.value == Fraction(case["lp_value"])
        assert entry_strings(plain_certificate(problem, solution)) == case["entries"]

    @pytest.mark.parametrize(
        "name", sorted({c["name"].rsplit("_", 1)[0] for c in PINNED["bounds"]})
    )
    def test_share_bound_on_full_rows_solves_the_elemental_lp(self, name):
        # share_bound solves the quotient of the elemental rows whatever
        # ineq is; its pins are recorded in the "share_bound" section
        any_case = next(c for c in PINNED["bounds"] if c["name"].startswith(name + "_"))
        structure = pinned_structure(any_case)
        report = share_bound(structure, ineq="full")
        elemental = share_bound(structure, ineq="elemental")
        assert report.lp_value == Fraction(any_case["lp_value"])
        assert (report.pivots, entry_strings(report.certificate)) == (
            elemental.pivots, entry_strings(elemental.certificate)
        )
        pinned = PINNED["share_bound"][name]
        assert report.pivots == pinned["pivots"]
        assert entry_strings(report.certificate) == pinned["entries"]
        for ineq in ("full", "elemental"):
            system = cached_system(structure, True, ineq)
            assert verify_certificate(system, report.certificate, objective=report.objective)

    def test_share_bound_csirmaz6bar_elemental(self):
        # the largest pin, an 8-element ground set: the LP where pivots
        # whose element is not the common denominator add up
        pinned = PINNED["share_bound"]["csirmaz6bar"]
        report = share_bound(purify(csirmaz(6)[0]), ineq="elemental")
        assert report.lp_value == Fraction(pinned["lp_value"])
        assert report.pivots == pinned["pivots"]
        assert entry_strings(report.certificate) == pinned["entries"]

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    def test_lemma_suite_threshold(self, ineq):
        # the LP route of the suite solves its targets in one session:
        # each one restarts from the basis of the one before, so the pins
        # are per target in suite order (threshold(2,3) has one feasible
        # point, whose basis the first target finds)
        report = lp_lemma_suite(THRESHOLD23, ineq=ineq)
        got = [[o.instance.id, o.pivots] for o in report.outcomes]
        assert got == PINNED["lemmas_threshold23"][ineq]

    def test_lemma_suite_g4bar_elemental_total(self):
        # 136 targets, 135 pivots in total on the LP route, in one session
        # on the complement quotient (6339 when each direction is solved
        # cold there)
        report = lp_lemma_suite(GAMMA4_BAR, ineq="elemental")
        assert len(report.outcomes) == 136
        assert report.all_implied
        assert sum(o.pivots for o in report.outcomes) == 135


def cold_direction_pivots(structure, instances):
    """Pivots of every target direction of a suite, each solved cold."""
    elemental = cached_system(structure, True, "elemental")
    quotient = elemental.quotient
    total = 0
    for inst in instances:
        signs = (1, -1) if inst.rel == "=" else (1,)
        for sign in signs:
            objective, _ = quotient.fold(sorted((v, sign * c) for v, c in inst.terms))
            problem = LPProblem(
                elemental.ground.var_count, objective, quotient.rows, quotient.presolved
            )
            total += solve(problem).pivots
    return total


class TestSuiteSessions:
    """The chain suite and the lemma suite's LP route warm-start each target in one session."""

    def test_warm_pivots_are_no_more_than_cold(self):
        # a warm start that pivots more than a cold solve would be a
        # regression: the dual Bland rule alone took the final step of
        # theorem3_chain(6) from 245 pivots cold to 884
        warm = cold = 0
        for n in (4, 5, 6):
            report = theorem3_chain(n, ineq="elemental")
            assert report.all_implied
            warm += sum(s.pivots for s in report.steps)
            purified, _, instances = staircase_chain_instances(n)
            cold += cold_direction_pivots(purified, instances)
        suite = lp_lemma_suite(GAMMA4_BAR, ineq="elemental")
        warm += sum(o.pivots for o in suite.outcomes)
        cold += cold_direction_pivots(GAMMA4_BAR, [o.instance for o in suite.outcomes])
        assert warm <= cold

    def test_final_step_of_chain_7_pivots_no_more_than_cold(self):
        # the dual Bland rule, once it took over after 50 degenerate
        # pivots, made this warm solve 18206 pivots long against 846 cold
        report = theorem3_chain(7)
        assert report.all_implied
        final = report.steps[-1]
        assert final.instance.id == "final"
        purified, _, _ = staircase_chain_instances(7)
        assert final.pivots <= cold_direction_pivots(purified, [final.instance])

    @pytest.mark.parametrize(
        "run",
        [lambda: lp_lemma_suite(GAMMA4_BAR, ineq="elemental"), lambda: theorem3_chain(4)],
        ids=["lemma_suite", "theorem3_chain"],
    )
    def test_session_tableau_dies_with_the_suite(self, monkeypatch, run):
        sessions = []

        class Recorded(simplex.Session):
            def __init__(self):
                super().__init__()
                sessions.append(weakref.ref(self))

        monkeypatch.setattr(prover, "Session", Recorded)
        tableaux = []
        original = simplex.solve

        def recording_solve(problem, session=None):
            solution = original(problem, session)
            if session is not None and session.tableau is not None:
                tableaux.append(weakref.ref(session.tableau))
            return solution

        monkeypatch.setattr(prover, "solve", recording_solve)
        assert run().all_implied
        assert len(sessions) == 1 and tableaux
        gc.collect()
        assert sessions[0]() is None
        assert all(ref() is None for ref in tableaux)


class TestSharedPresolve:
    """Solves with a quotient's shared presolve equal fresh solves."""

    @staticmethod
    def both_ways(num_vars, objective, rows, state):
        shared = solve(LPProblem(num_vars, objective, rows, state))
        fresh = solve(LPProblem(num_vars, objective, rows))
        assert shared == fresh
        return shared

    @pytest.mark.parametrize(
        "structure,elements",
        [(THRESHOLD23, 4), (STAR3_BAR, 5)],
        ids=["threshold23", "star3bar"],
    )
    def test_every_lemma_target_both_directions(self, structure, elements):
        assert structure.n + 1 == elements
        system = cached_system(structure, True, "elemental")
        quotient = system.quotient
        statuses = set()
        for inst in scheme_relation_instances(structure, system.ground):
            for sign in (1, -1):
                objective, _ = quotient.fold((v, sign * c) for v, c in inst.terms)
                solution = self.both_ways(
                    system.ground.var_count, objective, quotient.rows, quotient.presolved
                )
                statuses.add(solution.status)
        # a reversed ">=" target is unbounded: its dual run fails after a
        # zero phase that found the rows feasible
        assert statuses == {"optimal", "unbounded"}

    def test_objective_on_a_variable_no_row_contains(self):
        quotient = cached_system(THRESHOLD23, True, "elemental").quotient
        free = quotient.ground.var_count  # a variable outside every row
        for objective in (((free, ONE),), ((1, ONE), (free, -ONE)), ((1, ONE), (free, ZERO))):
            solution = self.both_ways(free + 1, objective, quotient.rows, quotient.presolved)
            assert solution.status == ("optimal" if objective[-1][1] == 0 else "unbounded")

    def test_contradictory_equalities(self):
        system = cached_system(THRESHOLD23, True, "elemental")
        r = system.ground.reference_mask
        renormalize = LinearConstraint("renormalize", ((r, ONE),), "=", Fraction(2))
        rows = system.constraints + (renormalize,)
        elimination = Elimination(rows)
        assert elimination.infeasible
        for objective in (((1, ONE),), ((1, -ONE),)):
            problem = LPProblem(system.ground.var_count, objective, rows)
            solution = solve_with_equalities(problem, elimination=elimination)
            assert solution == solve_with_equalities(problem)
            assert (solution.status, solution.pivots) == ("infeasible", 0)

    @staticmethod
    def count_presolves(monkeypatch):
        """A list that records the rows of each state ``Presolved`` builds."""
        states = []
        init = Presolved.__init__

        def counted_init(self, rows):
            states.append(rows)
            init(self, rows)

        monkeypatch.setattr(Presolved, "__init__", counted_init)
        cached_system.cache_clear()
        return states

    @staticmethod
    def relations(states):
        return {row.rel for rows in states for row in rows}

    def test_chain_presolves_its_rows_once(self, monkeypatch):
        # one quotient folds its rows once; the suite's shared state and
        # the bound's state, with its objective links, are built from them
        states = self.count_presolves(monkeypatch)
        assert theorem3_chain(4).all_implied
        assert len(states) == 2 and self.relations(states) == {">="}

    def test_refutation_cutoff_presolves_in_closed_form(self, monkeypatch):
        # -S(1) has no minimum, so the witness comes from a cutoff row; the
        # quotient's table folds every equality, so no state gets one
        states = self.count_presolves(monkeypatch)
        system = cached_system(THRESHOLD23, True, "elemental")
        witness = []
        below = prover._witness_below
        monkeypatch.setattr(
            prover, "_witness_below", lambda *a: witness.append(a) or below(*a)
        )
        result = check_implied(system, {1: -ONE}, ">=", 0)
        assert not result.implied and result.witness[1] > 0
        assert len(witness) == 1
        # the shared state for the target and the state with the cutoff
        assert len(states) == 2 and self.relations(states) == {">="}

    @pytest.mark.parametrize("structure", [THRESHOLD23, GAMMA4_BAR], ids=["threshold23", "g4bar"])
    def test_pure_self_dual_bound_presolves_in_closed_form(self, monkeypatch, structure):
        states = self.count_presolves(monkeypatch)
        share_bound(structure, ineq="elemental")
        assert len(states) == 1 and self.relations(states) == {">="}

    def test_mixed_solves_derive_every_state(self, monkeypatch):
        # the bound's state with its links, a check's shared state and its cutoff's
        states = self.count_presolves(monkeypatch)
        share_bound(THRESHOLD23, mode="mixed", ineq="elemental")
        system = cached_system(THRESHOLD23, False, "elemental")
        assert not check_implied(system, {1: -ONE}, ">=", 0).implied
        assert len(states) == 3 and self.relations(states) == {">="}

    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_no_prover_lp_has_an_equality_row(self, monkeypatch, mode):
        # bounds with and without objective links, implied checks in both
        # directions, an optimal refutation and one through a cutoff row
        states = self.count_presolves(monkeypatch)
        solved = []
        original = prover.solve
        monkeypatch.setattr(
            prover, "solve", lambda problem, *a: solved.append(problem) or original(problem, *a)
        )
        structure = GAMMA4_BAR if mode == "pure" else GAMMA4
        for objective in ("minmax", "minsum"):
            share_bound(structure, mode=mode, ineq="elemental", objective=objective)
        system = cached_system(structure, mode == "pure", "elemental")
        for inst in scheme_relation_instances(structure, system.ground)[:6]:
            check_implied(system, inst.terms, inst.rel, inst.rhs)
        assert not check_implied(system, {1: ONE}, ">=", 2).implied
        assert not check_implied(system, {1: -ONE}, ">=", 0).implied
        assert len(solved) > 10 and all(problem.presolved for problem in solved)
        assert set(states) == {problem.rows for problem in solved}
        assert self.relations(states) == {">="}

    def test_shared_state_lives_with_the_system(self):
        system = cached_system(THRESHOLD23, True, "elemental")
        assert system.quotient is system.quotient
        assert system.quotient.presolved is system.quotient.presolved
        assert system.quotient.presolved.rows is system.quotient.rows
        cached_system.cache_clear()
        fresh = cached_system(THRESHOLD23, True, "elemental")
        assert fresh.quotient.presolved is not system.quotient.presolved


class TestVerifyCertificate:
    def test_round_trip(self):
        report = share_bound(GAMMA4_BAR, players=[1, 2, 3, 4])
        system = cached_system(GAMMA4_BAR, True, "full")
        assert verify_certificate(system, report.certificate, objective=report.objective)

    def test_perturbed_multiplier_rejected(self):
        report = share_bound(THRESHOLD23)
        system = cached_system(THRESHOLD23, True, "full")
        rid, u = report.certificate.entries[0]
        den = report.certificate.den
        tampered = Certificate(
            report.certificate.claimed_bound,
            ((rid, u + den),) + report.certificate.entries[1:],
            den,
            report.certificate.objective,
        )
        assert not verify_certificate(system, tampered, objective=report.objective)

    def test_raised_claim_rejected(self):
        report = share_bound(THRESHOLD23)
        system = cached_system(THRESHOLD23, True, "full")
        greedy = Certificate(
            report.certificate.claimed_bound + Fraction(1, 7),
            report.certificate.entries,
            report.certificate.den,
            report.certificate.objective,
        )
        assert not verify_certificate(system, greedy, objective=report.objective)

    def test_unknown_id_raises(self):
        report = share_bound(THRESHOLD23)
        system = cached_system(THRESHOLD23, True, "full")
        bogus = Certificate(
            report.certificate.claimed_bound,
            (("nonsense:1", report.certificate.den),) + report.certificate.entries,
            report.certificate.den,
            report.certificate.objective,
        )
        with pytest.raises(KeyError):
            verify_certificate(system, bogus, objective=report.objective)

    def test_negative_multiplier_on_inequality_rejected(self):
        system = cached_system(THRESHOLD23, True, "full")
        some_ineq = next(c for c in system.constraints if c.rel == ">=")
        cert = Certificate(Fraction(0), ((some_ineq.id, -1),), 1, ())
        assert not verify_certificate(
            system, cert, objective=[(v, -c) for v, c in some_ineq.terms]
        )

    def test_json_round_trip(self):
        report = share_bound(THRESHOLD23)
        data = certificate_to_json_dict(report.certificate)
        back = certificate_from_json_dict(data)
        assert back.entries == report.certificate.entries
        assert back.den == report.certificate.den
        assert back.claimed_bound == report.certificate.claimed_bound

    def test_denominator_not_positive_rejected(self):
        system = cached_system(GAMMA4_BAR, True, "full")
        # no entries and no objective: 0 >= 0, whose sums match over any den
        assert verify_certificate(system, Certificate(Fraction(0), (), 1, ()), objective=())
        assert not verify_certificate(system, Certificate(Fraction(0), (), 0, ()), objective=())
        # the entries of a proof of form >= claim match -form >= -claim over -den
        (cert,) = check_implied(system, {0b00011: ONE, 0b11100: -ONE}, ">=", ONE).certificates
        negated = tuple((v, -c) for v, c in cert.objective)
        flipped = Certificate(-cert.claimed_bound, cert.entries, -cert.den, negated)
        assert not verify_certificate(system, flipped, objective=negated)

    def test_doubled_multipliers_and_denominator_verify(self):
        report = share_bound(GAMMA4_BAR, players=[1, 2, 3, 4])
        system = cached_system(GAMMA4_BAR, True, "full")
        cert = report.certificate
        doubled = Certificate(cert.claimed_bound, tuple((rid, 2 * u) for rid, u in cert.entries),
                              2 * cert.den, cert.objective)
        assert verify_certificate(system, doubled, objective=report.objective)
        assert certificate_to_json_dict(doubled) == certificate_to_json_dict(cert)


def reference_replay(system, cert, objective):
    """``verify_certificate`` as a plain ``Fraction`` sum, entry by entry.

    An unknown id raises and a negative inequality multiplier rejects,
    whichever comes first in entry order.
    """
    if isinstance(objective, Objective):
        extra, form, _ = objective_rows(system, objective)
    else:
        extra, form = (), tuple(objective)
    rows = {c.id: c for c in system.constraints}
    rows.update((row.id, row) for row in extra)
    combo, total = {}, Fraction(0)
    for rid, u in cert.entries:
        mult = Fraction(u, cert.den)
        if rid not in rows:
            raise KeyError(rid)
        row = rows[rid]
        if row.rel != "=" and mult < 0:
            return False
        total += Fraction(mult) * Fraction(row.rhs)
        for v, c in row.terms:
            combo[v] = combo.get(v, Fraction(0)) + Fraction(mult) * Fraction(c)
    combo = {v: c for v, c in combo.items() if c}
    return combo == {v: Fraction(c) for v, c in form if c} and total >= cert.claimed_bound


def replay_outcome(replay, system, cert, objective):
    try:
        return replay(system, cert, objective=objective)
    except KeyError:
        return "KeyError"


def certificate_variants(system, cert):
    """The certificate and variants of it that replay must judge alike, as
    ``(name, entries, den, claim)``."""
    entries, den, claim = cert.entries, cert.den, cert.claimed_bound
    first = next(i for i, (rid, _) in enumerate(entries) if system.row(rid).rel == ">=")
    rid, u = entries[first]
    rest = entries[:first] + entries[first + 1:]

    def with_mult(new, entries=entries):
        return entries[:first] + ((rid, new),) + entries[first + 1:]

    unused = next(c.id for c in system.constraints if c.id not in dict(entries))
    negative = (rid, -u)
    unknown = ("nonsense:1", den)
    sevenths = tuple((r, 7 * m) for r, m in entries)  # over 7 * den
    yield "genuine", entries, den, claim
    yield "raised-claim", entries, den, claim + Fraction(1, 7)
    yield "thirds", entries, 3 * den, claim / 3
    yield "tampered", with_mult(7 * u + den, sevenths), 7 * den, claim  # the multiplier + 1/7
    yield "zero-unused", entries + ((unused, 0),), den, claim
    yield "zero-used", with_mult(0), den, claim
    yield "negative-ineq", rest + (negative,), den, claim
    yield "unknown-id", (unknown,) + entries, den, claim
    yield "negative-then-unknown", (negative, unknown) + rest, den, claim
    yield "unknown-then-negative", (unknown, negative) + rest, den, claim


class TestReplayMatchesFractionSum:
    """Integer replay judges every certificate as a ``Fraction`` sum does."""

    def cases(self):
        report = share_bound(GAMMA4_BAR, players=[1, 2, 3, 4])
        yield report.certificate, report.objective
        system = cached_system(GAMMA4_BAR, True, "full")
        res = check_implied(
            system, {0b00011: Fraction(1), 0b11100: Fraction(-1)}, "=", Fraction(1)
        )
        for cert in res.certificates:
            yield cert, cert.objective

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    def test_variants(self, ineq):
        system = cached_system(GAMMA4_BAR, True, ineq)
        seen = {}
        fractional = False
        for cert, objective in self.cases():
            fractional |= cert.den > 1  # in lowest terms, so some multiplier is not whole
            for name, entries, den, claim in certificate_variants(system, cert):
                variant = Certificate(claim, entries, den, cert.objective)
                got = replay_outcome(verify_certificate, system, variant, objective)
                want = replay_outcome(reference_replay, system, variant, objective)
                assert got == want, name
                seen.setdefault(name, set()).add(got)
        assert fractional
        assert seen["genuine"] == {True} and seen["zero-unused"] == {True}
        assert seen["negative-then-unknown"] == {False}
        assert seen["unknown-then-negative"] == seen["unknown-id"] == {"KeyError"}
        for name in ("raised-claim", "thirds", "tampered", "zero-used", "negative-ineq"):
            assert seen[name] == {False}, name


class TestReplayGeneratesNoRows:
    """Replay makes the rows a certificate names and never the row list."""

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_replay_never_calls_the_generators(self, monkeypatch, ineq, mode):
        report = share_bound(GAMMA4, auto_purify=mode == "pure", mode=mode, players=[1, 2, 3, 4])
        implied = check_implied(
            cached_system(GAMMA4_BAR, True, "elemental"),
            {0b00011: Fraction(1), 0b11100: Fraction(-1)}, "=", Fraction(1),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("rows were generated")

        monkeypatch.setattr(cone, "vn_inequalities", refuse)
        monkeypatch.setattr(cone, "qss_constraints", refuse)
        system = prover.build_system(report.structure, pure=mode == "pure", ineq=ineq)
        assert verify_certificate(system, report.certificate, objective=report.objective)
        raised = Certificate(report.lp_value + 1, report.certificate.entries,
                             report.certificate.den, ())
        assert not verify_certificate(system, raised, objective=report.objective)
        with pytest.raises(KeyError, match="unknown constraint 'nonneg:01'"):
            unknown = Certificate(report.lp_value, (("nonneg:01", 1),), 1, ())
            verify_certificate(system, unknown, objective=report.objective)
        if mode == "pure":
            for cert in implied.certificates:
                assert verify_certificate(system, cert, objective=cert.objective)
        assert "constraints" not in vars(system)


class TestCheckImplied:
    def test_lemma4_instance_on_gamma4_bar(self):
        system = cached_system(GAMMA4_BAR, True, "full")
        res = check_implied(
            system,
            {0b00111: Fraction(1), 0b01110: Fraction(1),
             0b01111: Fraction(-1), 0b00110: Fraction(-1)},
            ">=",
            Fraction(2),
        )
        assert res.implied
        assert len(res.certificates) == 1

    def test_complement_equality_for_authorized_sets(self):
        system = cached_system(GAMMA4_BAR, True, "full")
        res = check_implied(
            system, {0b00011: Fraction(1), 0b11100: Fraction(-1)}, "=", Fraction(1)
        )
        assert res.implied
        assert len(res.certificates) == 2

    def test_refutation_returns_valid_witness(self):
        system = cached_system(GAMMA4_BAR, True, "full")
        res = check_implied(system, {0b00001: Fraction(1)}, ">=", Fraction(2))
        assert not res.implied
        assert res.witness is not None
        assert res.witness[0b00001] < 2
        for c in system.constraints:
            assert c.satisfied_by(res.witness)

    def test_unbounded_direction_still_yields_witness(self):
        system = cached_system(THRESHOLD23, True, "full")
        res = check_implied(system, {0b0001: Fraction(-1)}, ">=", Fraction(0))
        assert not res.implied
        assert res.witness is not None
        assert res.witness[0b0001] > 0

    def test_fast_path_certificates_replay_on_full_system(self):
        system = cached_system(GAMMA4_BAR, True, "full")
        res = check_implied(
            system, {0b00011: Fraction(1), 0b11100: Fraction(-1)}, "=", Fraction(1)
        )
        for cert in res.certificates:
            assert verify_certificate(system, cert, objective=cert.objective)

    def test_unsupported_relation_rejected(self):
        system = cached_system(THRESHOLD23, True, "full")
        with pytest.raises(StructureError, match="unsupported target relation '<='"):
            check_implied(system, {0b0001: Fraction(1)}, "<=", Fraction(1))

    @pytest.mark.parametrize("mask", [-1, 16, 99], ids=["negative", "var-count", "99"])
    def test_mask_outside_the_ground_set_refused_before_any_solve(self, monkeypatch, mask):
        # 16 is threshold(2,3)'s var_count, one past its full mask
        system = cached_system(THRESHOLD23, True, "full")
        assert system.ground.var_count == 16
        monkeypatch.setattr(prover, "solve", lambda *a: pytest.fail("solved"))
        with pytest.raises(StructureError, match=f"target mask {mask} is outside 0..15"):
            check_implied(system, {mask: 1}, ">=", 0)

    def test_fractional_target_refuted_through_the_cutoff_row(self, monkeypatch):
        # -S(1)/2 is unbounded below, so the witness comes from the cutoff
        # row, scaled to ints: -S(1)/2 <= 1/3 - 1 reads 3 S(1) >= 4
        system = cached_system(THRESHOLD23, True, "full")
        cutoffs = []
        original = prover._witness_below
        monkeypatch.setattr(
            prover, "_witness_below", lambda *a: cutoffs.append(a) or original(*a)
        )
        res = check_implied(system, {1: Fraction(-1, 2)}, ">=", Fraction(1, 3))
        assert not res.implied and len(cutoffs) == 1
        assert Fraction(-1, 2) * res.witness[1] == Fraction(-2, 3)
        assert all(c.satisfied_by(res.witness) for c in system.constraints)

    def test_fractional_target_implied_with_a_certificate_that_replays(self):
        system = cached_system(THRESHOLD23, True, "full")
        res = check_implied(system, {1: Fraction(3, 2)}, ">=", Fraction(3, 2))
        assert res.implied and len(res.certificates) == 1
        cert = res.certificates[0]
        assert cert.claimed_bound == Fraction(3, 2)
        assert verify_certificate(system, cert, objective=cert.objective)

    def test_fractional_terms_that_fold_into_one_term(self):
        # S(1)/3 + 2*S(2,3,R)/3 folds to S(1) in pure mode, so the LP's
        # denominator need not hold the 3 that the certificate does
        system = cached_system(THRESHOLD23, True, "full")
        form = ((0b0001, Fraction(1, 3)), (0b1110, Fraction(2, 3)))
        problem, _ = system.quotient.problem(system.ground.var_count, form)
        assert problem.objective == ((1, 1),) and solve(problem).multipliers[1] % 3
        (cert,) = check_implied(system, dict(form), ">=", ONE).certificates
        assert cert.den == 6 and dict(cert.entries)["purity"] == -2
        assert verify_certificate(system, cert, objective=form)

    def test_accepts_term_pairs_as_target(self):
        system = cached_system(THRESHOLD23, True, "full")
        res = check_implied(system, ((0b0001, Fraction(1)),), ">=", Fraction(1))
        assert res.implied

    def test_full_and_elemental_systems_agree(self):
        full = cached_system(THRESHOLD23, True, "full")
        elemental = cached_system(THRESHOLD23, True, "elemental")
        targets = [
            ({0b0001: Fraction(1)}, ">=", Fraction(1)),
            ({0b0011: Fraction(1), 0b0001: Fraction(-1)}, ">=", Fraction(0)),
            ({0b0111: Fraction(1)}, "=", Fraction(1)),
            ({0b0001: Fraction(1)}, ">=", Fraction(2)),
            ({0b0001: Fraction(-1)}, ">=", Fraction(0)),
        ]
        outcomes = set()
        for terms, rel, rhs in targets:
            on_full = check_implied(full, dict(terms), rel, rhs)
            on_elemental = check_implied(elemental, dict(terms), rel, rhs)
            assert on_full.implied == on_elemental.implied
            outcomes.add(on_full.implied)
            for res in (on_full, on_elemental):
                for cert in res.certificates:
                    assert verify_certificate(full, cert, objective=cert.objective)
                if res.witness is not None:
                    assert all(c.satisfied_by(res.witness) for c in full.constraints)
        assert outcomes == {True, False}


class TestFailureGates:
    """Replay stands in front of every output, and a runaway solve stops."""

    def test_bound_certificate_that_fails_replay_is_refused(self, monkeypatch):
        bump_first_multiplier(monkeypatch)
        with pytest.raises(ProverError, match="emitted certificate failed independent replay"):
            share_bound(THRESHOLD23)

    def test_check_certificate_that_fails_replay_is_refused(self, monkeypatch):
        bump_first_multiplier(monkeypatch)
        system = cached_system(THRESHOLD23, True, "full")
        with pytest.raises(ProverError, match="emitted certificate failed independent replay"):
            check_implied(system, {0b0001: ONE}, ">=", ONE)

    def test_mixed_system_of_a_structure_not_quantum_is_infeasible(self):
        # shares 1 and 2 would each recover the secret alone: no scheme does
        clones = from_minimal_sets(2, [[1], [2]])
        assert not is_quantum(clones)
        for ineq in ("full", "elemental"):
            system = cached_system(clones, False, ineq)
            with pytest.raises(ProverError, match="implication system is infeasible"):
                check_implied(system, {0b01: ONE}, ">=", ZERO)

    def test_cold_solve_stops_at_the_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
        with pytest.raises(simplex.SimplexError, match="iteration limit exceeded"):
            share_bound(THRESHOLD23)

    def test_warm_solve_stops_at_the_iteration_limit(self, monkeypatch):
        system = cached_system(THRESHOLD23, True, "full")
        session = simplex.Session()
        assert check_implied(system, {0b0001: ONE}, ">=", ONE, session=session).implied
        assert session.tableau is not None
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
        with pytest.raises(simplex.SimplexError, match="iteration limit exceeded"):
            check_implied(system, {0b0011: ONE}, ">=", ONE, session=session)


class TestSuites:
    def test_threshold_suite_all_implied(self):
        report = lemma_suite(THRESHOLD23)
        assert report.all_implied
        assert len(report.outcomes) > 15
        kinds = {o.instance.id.split(":")[0] for o in report.outcomes}
        assert kinds == {"joint1", "joint2", "joint3", "withref", "gap"}

    def test_suite_requires_self_dual(self):
        with pytest.raises(StructureError):
            lemma_suite(GAMMA4)

    def test_instance_counts_threshold(self):
        system = cached_system(THRESHOLD23, True, "full")
        instances = scheme_relation_instances(THRESHOLD23, system.ground)
        authorized = [m for m in range(1, 8) if THRESHOLD23.mask_authorized(m)]
        assert len(authorized) == 4  # three pairs and the full set
        ids = [i.id for i in instances]
        assert sum(i.startswith("joint") for i in ids) == 3 * len(authorized)
        assert sum(i.startswith("withref") for i in ids) == 7
        assert sum(i.startswith("gap") for i in ids) == 3  # pairs with single meet

    def test_full_set_relation_consistent_with_purity(self):
        system = cached_system(THRESHOLD23, True, "full")
        instances = {i.id: i for i in scheme_relation_instances(THRESHOLD23, system.ground)}
        full_rel = instances["joint3:1,2,3"]
        assert full_rel.terms == ((0b0111, Fraction(1)),)
        assert full_rel.rhs == 1

    def test_suite_json(self):
        report = lemma_suite(THRESHOLD23)
        data = report.to_json_dict()
        assert data["all_implied"] is True
        assert data["total"] == len(report.outcomes)
        assert data["implied"] == data["total"]


class TestChain:
    def test_chain_instances_n4(self):
        purified, k, instances = staircase_chain_instances(4)
        assert purified == GAMMA4_BAR
        assert k == 2
        ids = [i.id for i in instances]
        assert ids == ["step:0", "step:1", "telescoped", "final"]
        final = instances[-1]
        assert final.terms == ((0b00011, Fraction(2)), (0b10000, Fraction(1)))
        assert final.rhs == 7
        step0 = instances[0]
        assert step0.terms == (
            (0b00011, Fraction(1)), (0b00100, Fraction(1)), (0b00111, Fraction(-1)),
        )
        assert step0.rhs == 2

    def test_chain_scans_only_the_structure_it_solves(self, monkeypatch):
        # the staircases it generates are quantum by construction
        calls = count_quantum_scans(monkeypatch)
        assert theorem3_chain(4).all_implied
        assert [s.n for s in calls] == [5, 5]

    def test_chain_n4(self):
        report = theorem3_chain(4)
        assert report.k == 2
        assert report.reference_bound == Fraction(7, 5)
        assert report.all_implied
        assert report.bound.lp_value >= Fraction(7, 5)
        data = report.to_json_dict()
        assert data["theorem3_bound"] == "7/5"
        assert data["all_implied"] is True

    def test_chain_n5(self):
        # no independent ground truth here; the chain itself is the check
        report = theorem3_chain(5)
        assert report.k == 2
        assert report.all_implied
        assert report.bound.lp_value >= report.reference_bound

    def test_chain_limit_guard(self):
        with pytest.raises(CapacityError):
            theorem3_chain(9)


class TestFloorProperty:
    def test_random_structures_bounded_below_by_one(self):
        rng = random.Random(555)
        for _ in range(8):
            s = random_quantum_structure(rng, rng.randint(2, 4))
            report = share_bound(s, auto_purify=True)
            assert report.lp_value >= 1

    def test_exhaustive_small_structures_bounded_below_by_one(self):
        # every quantum structure on up to three players
        from test_structures import all_antichain_structures

        checked = 0
        for n in (1, 2, 3):
            for s in all_antichain_structures(n):
                if not is_quantum(s):
                    continue
                report = share_bound(s, auto_purify=True)
                assert report.lp_value >= 1, s
                checked += 1
        assert checked > 10


class TestModeEquality:
    def test_random_self_dual_structures_agree_across_modes(self):
        rng = random.Random(777)
        seen = set()
        while len(seen) < 6:
            s = purify(random_quantum_structure(rng, rng.randint(2, 4)))
            if s in seen:
                continue
            seen.add(s)
            full = share_bound(s, ineq="full")
            elemental = share_bound(s, ineq="elemental")
            assert full.lp_value == elemental.lp_value


class TestElementalSpansFullCone:
    def test_sampled_full_rows_implied_by_elemental_system(self):
        # Every full-mode inequality must be a nonnegative combination of
        # the elemental ones; spot-check by implication on a sample.
        rng = random.Random(31337)
        elemental = cached_system(THRESHOLD23, True, "elemental")
        full = cached_system(THRESHOLD23, True, "full")
        candidates = [c for c in full.constraints if c.family in ("ssa", "wm")]
        for c in rng.sample(candidates, 25):
            res = check_implied(elemental, dict(c.terms), ">=", c.rhs)
            assert res.implied, c.id
