import random
from fractions import Fraction

import pytest

from qssbounds import simplex
from qssbounds.simplex import (
    LinearConstraint,
    LPProblem,
    Presolved,
    SimplexError,
    extract_certificate,
    rat_str,
    solve,
)


def make_problem(num_vars, objective, rows):
    lp_rows = tuple(
        LinearConstraint(f"r{i}", tuple(sorted(terms.items())), rel, Fraction(rhs))
        for i, (terms, rel, rhs) in enumerate(rows)
    )
    return LPProblem(num_vars, tuple(sorted(objective.items())), lp_rows)


class TestRationalStrings:
    def test_roundtrip(self):
        assert rat_str(Fraction(3, 2)) == "3/2"
        assert rat_str(Fraction(-7)) == "-7/1"

    def test_canonical(self):
        q = Fraction(6, -4)
        assert (q.numerator, q.denominator) == (-3, 2)


class TestSmallSolves:
    def test_single_bound(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 3)])
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == 3
        assert s.primal == (Fraction(3),)

    def test_forced_equality(self):
        p = make_problem(
            2,
            {0: Fraction(1), 1: Fraction(1)},
            [
                ({0: Fraction(1)}, ">=", 1),
                ({1: Fraction(1)}, ">=", 2),
                ({0: Fraction(1), 1: Fraction(1)}, "=", 3),
            ],
        )
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == 3
        assert s.primal[0] + s.primal[1] == 3

    def test_infeasible(self):
        p = make_problem(
            1,
            {0: Fraction(1)},
            [({0: Fraction(1)}, ">=", 1), ({0: Fraction(-1)}, ">=", 0)],
        )
        assert solve(p).status == "infeasible"

    def test_contradictory_equalities(self):
        p = make_problem(
            1,
            {0: Fraction(1)},
            [({0: Fraction(1)}, "=", 1), ({0: Fraction(1)}, "=", 2)],
        )
        assert solve(p).status == "infeasible"

    def test_unbounded(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(-1)}, ">=", -5)])
        assert solve(p).status == "unbounded"

    def test_unbounded_free_variable(self):
        p = make_problem(2, {0: Fraction(1)}, [({1: Fraction(1)}, ">=", 0)])
        assert solve(p).status == "unbounded"

    def test_free_variables_take_negative_values(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, "=", -7)])
        s = solve(p)
        assert s.status == "optimal"
        assert s.primal == (Fraction(-7),)

    def test_minmax_shape(self):
        # minimize t subject to t >= x, t >= y, x + y = 3
        t, x, y = 0, 1, 2
        p = make_problem(
            3,
            {t: Fraction(1)},
            [
                ({t: Fraction(1), x: Fraction(-1)}, ">=", 0),
                ({t: Fraction(1), y: Fraction(-1)}, ">=", 0),
                ({x: Fraction(1), y: Fraction(1)}, "=", 3),
            ],
        )
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == Fraction(3, 2)

    def test_fractional_optimum(self):
        p = make_problem(
            2,
            {0: Fraction(2), 1: Fraction(3)},
            [
                ({0: Fraction(1), 1: Fraction(2)}, ">=", 1),
                ({0: Fraction(2), 1: Fraction(1)}, ">=", 1),
            ],
        )
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == Fraction(5, 3)

    def test_redundant_equalities_ok(self):
        p = make_problem(
            2,
            {0: Fraction(1)},
            [
                ({0: Fraction(1), 1: Fraction(1)}, "=", 2),
                ({0: Fraction(2), 1: Fraction(2)}, "=", 4),
                ({0: Fraction(1)}, ">=", 0),
            ],
        )
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == 0

    def test_duplicate_inequalities_share_one_dual(self):
        p = make_problem(
            1,
            {0: Fraction(1)},
            [({0: Fraction(1)}, ">=", 3), ({0: Fraction(1)}, ">=", 3)],
        )
        s = solve(p)
        assert s.status == "optimal"
        assert sorted(s.duals) == [0, 1]


class TestSolutionQuality:
    def test_duals_reconstruct_objective(self):
        p = make_problem(
            2,
            {0: Fraction(1), 1: Fraction(2)},
            [
                ({0: Fraction(1), 1: Fraction(1)}, ">=", 4),
                ({0: Fraction(1), 1: Fraction(-1)}, ">=", 0),
                ({1: Fraction(1)}, ">=", 1),
            ],
        )
        s = solve(p)
        assert s.status == "optimal"
        combo = {}
        rhs = Fraction(0)
        for row, u in zip(p.rows, s.duals):
            assert u >= 0
            rhs += u * row.rhs
            for v, c in row.terms:
                combo[v] = combo.get(v, Fraction(0)) + u * c
        combo = {v: c for v, c in combo.items() if c}
        assert combo == dict(p.objective)
        assert rhs == s.value

    def test_determinism(self):
        p = make_problem(
            3,
            {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
            [
                ({0: Fraction(1), 1: Fraction(1)}, ">=", 2),
                ({1: Fraction(1), 2: Fraction(1)}, ">=", 2),
                ({0: Fraction(1), 2: Fraction(1)}, ">=", 2),
            ],
        )
        a, b = solve(p), solve(p)
        assert a == b
        assert a.pivots == b.pivots

    def test_rhs_scaling(self):
        rows = [
            ({0: Fraction(1), 1: Fraction(1)}, ">=", 4),
            ({0: Fraction(1), 1: Fraction(-1)}, ">=", 0),
            ({1: Fraction(1)}, "=", 1),
        ]
        base = solve(make_problem(2, {0: Fraction(1)}, rows))
        for factor in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            scaled_rows = [(t, rel, Fraction(r) * factor) for t, rel, r in rows]
            scaled = solve(make_problem(2, {0: Fraction(1)}, scaled_rows))
            assert scaled.value == base.value * factor

    @pytest.mark.parametrize(
        "seed,trials,degenerate,fractional",
        [
            pytest.param(7321, 120, False, False, id="7321-120-False"),
            pytest.param(480, 80, True, False, id="480-80-True"),
            pytest.param(2718, 120, False, True, id="2718-120-fractional"),
        ],
    )
    def test_random_lps_against_scipy(self, seed, trials, degenerate, fractional):
        # the degenerate batch forces many zero right-hand sides and
        # duplicate rows, the territory where anti-cycling rules matter;
        # the fractional batch has non-integer coefficients, right-hand
        # sides and objective entries, so the solver must scale columns,
        # right-hand side and costs to integers
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(seed)

        def number(bound):
            if fractional:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return Fraction(rng.randint(-bound, bound))

        checked = 0
        for _ in range(trials):
            n = rng.randint(1, 5 if degenerate else 4)
            rows = []
            for _ in range(rng.randint(1, 8 if degenerate else 6)):
                terms = {v: number(3) for v in range(n) if rng.random() < 0.8}
                terms = {v: c for v, c in terms.items() if c}
                if not terms:
                    continue
                rel = "=" if rng.random() < 0.25 else ">="
                rhs = 0 if degenerate and rng.random() < 0.7 else number(4)
                rows.append((terms, rel, rhs))
                if degenerate and rng.random() < 0.3:
                    rows.append((dict(terms), rel, rhs))
            if not rows:
                continue
            objective = {v: number(3) for v in range(n)}
            objective = {v: c for v, c in objective.items() if c}
            p = make_problem(n, objective, rows)
            s = solve(p)

            c = [float(objective.get(v, 0)) for v in range(n)]
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for terms, rel, rhs in rows:
                dense = [float(terms.get(v, 0)) for v in range(n)]
                if rel == ">=":
                    a_ub.append([-x for x in dense])
                    b_ub.append(-float(rhs))
                else:
                    a_eq.append(dense)
                    b_eq.append(float(rhs))
            ref = scipy_opt.linprog(
                c,
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=a_eq or None,
                b_eq=b_eq or None,
                bounds=[(None, None)] * n,
                method="highs",
            )
            if ref.status == 0:
                assert s.status == "optimal"
                assert abs(float(s.value) - ref.fun) < 1e-7
                checked += 1
            elif ref.status == 2:
                assert s.status == "infeasible"
            elif ref.status == 3:
                assert s.status == "unbounded"
        assert checked > 20


class TestIntegerKernel:
    def test_negative_pivot_while_driving_out_artificials(self, monkeypatch):
        # Presolve substitutes x1 = 1, which leaves no objective weight on
        # x0.  The artificial of x0 ends phase 1 basic at zero and is
        # driven out onto -2*x0 >= 0, a negative pivot element; phase 2
        # then pivots -2*x0 >= 2 in, and its ratio test is only right if
        # the common denominator was kept positive.
        pivot_elements = []
        pivot = simplex._Tableau._pivot

        def spy(tableau, entering, leave, w):
            pivot_elements.append(w[leave])
            pivot(tableau, entering, leave, w)

        monkeypatch.setattr(simplex._Tableau, "_pivot", spy)
        p = make_problem(
            2,
            {1: Fraction(1)},
            [
                ({1: Fraction(1)}, "=", 1),
                ({0: Fraction(-2)}, ">=", 0),
                ({0: Fraction(-2)}, ">=", 2),
            ],
        )
        s = solve(p)
        assert pivot_elements[0] < 0 and len(pivot_elements) == 2
        assert s.status == "optimal"
        assert s.value == 1
        assert s.duals == (Fraction(1), Fraction(0), Fraction(0))
        assert s.primal == (Fraction(-1), Fraction(1))

    def test_fractional_data_keeps_exact_values(self):
        # columns, right-hand sides and objective all need scaling
        # (the objective is 1/2 of the first row plus 1/3 of the second)
        p = make_problem(
            2,
            {0: Fraction(1, 2), 1: Fraction(7, 18)},
            [
                ({0: Fraction(1, 2), 1: Fraction(2, 3)}, ">=", Fraction(1, 5)),
                ({0: Fraction(3, 4), 1: Fraction(1, 6)}, ">=", Fraction(2, 7)),
            ],
        )
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == Fraction(41, 210)
        assert s.duals == (Fraction(1, 2), Fraction(1, 3))
        assert s.primal == (Fraction(66, 175), Fraction(3, 175))


class TestVerifyOptimal:
    """``_verify_optimal`` rejects every kind of wrong optimum.

    The rows have fractional coefficients and right-hand sides, so the
    integer evaluation must bring each row over its own denominator.  The
    optimum of the two inequalities is (66/175, 3/175) with duals
    (1/2, 1/3); the equality holds there and carries a zero multiplier.
    """

    ROWS = [
        ({0: Fraction(1, 2), 1: Fraction(2, 3)}, ">=", Fraction(1, 5)),
        ({0: Fraction(3, 4), 1: Fraction(1, 6)}, ">=", Fraction(2, 7)),
        ({0: Fraction(2, 3), 1: Fraction(-3, 5)}, "=", Fraction(211, 875)),
    ]
    OBJECTIVE = {0: Fraction(1, 2), 1: Fraction(7, 18)}

    def optimum(self):
        problem = make_problem(2, self.OBJECTIVE, self.ROWS)
        x = [Fraction(66, 175), Fraction(3, 175)]
        duals = [Fraction(1, 2), Fraction(1, 3), Fraction(0)]
        return problem, x, duals, Fraction(41, 210)

    def test_true_optimum_passes(self):
        problem, x, duals, value = self.optimum()
        simplex._verify_optimal(problem, x, duals, value)
        assert solve(problem).value == value

    @pytest.mark.parametrize(
        "shift,message",
        [
            (Fraction(-1, 10**30), "violates inequality r0"),
            (Fraction(1, 10**30), "violates equality r2"),
        ],
    )
    def test_wrong_primal_point(self, shift, message):
        problem, x, duals, value = self.optimum()
        x[0] += shift
        with pytest.raises(SimplexError, match=message):
            simplex._verify_optimal(problem, x, duals, value)

    def test_negative_inequality_multiplier(self):
        problem, x, duals, value = self.optimum()
        duals[1] = Fraction(-1, 3)
        with pytest.raises(SimplexError, match="negative multiplier on inequality r1"):
            simplex._verify_optimal(problem, x, duals, value)

    @pytest.mark.parametrize("row,delta", [(1, Fraction(1, 100)), (2, Fraction(-1, 7))])
    def test_dual_combination_misses_objective(self, row, delta):
        problem, x, duals, value = self.optimum()
        duals[row] += delta
        with pytest.raises(SimplexError, match="does not reproduce the objective"):
            simplex._verify_optimal(problem, x, duals, value)

    def test_nonzero_gap(self):
        problem, x, duals, value = self.optimum()
        with pytest.raises(SimplexError, match="duality gap"):
            simplex._verify_optimal(problem, x, duals, value + Fraction(1, 1000))


class TestPresolvedState:
    def test_state_of_other_rows_refused(self):
        problem = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 3)])
        other = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 4)])
        with pytest.raises(ValueError, match="different row tuple"):
            solve(LPProblem(1, problem.objective, problem.rows, Presolved(other.rows)))

    def test_state_of_equal_but_distinct_tuple_refused(self):
        problem = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 3)])
        copy = tuple(list(problem.rows))
        assert copy == problem.rows and copy is not problem.rows
        with pytest.raises(ValueError, match="different row tuple"):
            solve(LPProblem(1, problem.objective, problem.rows, Presolved(copy)))

    def test_state_serves_several_objectives(self):
        rows = [
            ({0: Fraction(1), 1: Fraction(1)}, ">=", 4),
            ({0: Fraction(1), 1: Fraction(-1)}, ">=", 0),
            ({1: Fraction(1)}, "=", 1),
        ]
        base = make_problem(2, {}, rows)
        state = Presolved(base.rows)
        for objective in ({0: Fraction(1)}, {0: Fraction(2), 1: Fraction(1)},
                          {0: Fraction(-1)}, {1: Fraction(3)}, {}):
            fresh = make_problem(2, objective, rows)
            shared = LPProblem(2, fresh.objective, base.rows, state)
            assert solve(shared) == solve(fresh)

    def test_objective_variable_below_the_row_variables(self):
        # x0 is in no row, so a nonzero objective weight on it leaves the
        # dual infeasible, and a zero weight leaves the dual unchanged
        rows = [
            ({1: Fraction(1), 2: Fraction(1)}, ">=", 2),
            ({2: Fraction(1)}, ">=", Fraction(1, 2)),
        ]
        base = make_problem(3, {}, rows)
        state = Presolved(base.rows)
        expected = {
            ((0, Fraction(1)),): ("unbounded", None),
            ((0, Fraction(0)), (1, Fraction(1)), (2, Fraction(1))): ("optimal", 2),
            ((0, Fraction(0)), (2, Fraction(1))): ("optimal", Fraction(1, 2)),
        }
        for objective, (status, value) in expected.items():
            solution = solve(LPProblem(3, objective, base.rows, state))
            assert (solution.status, solution.value) == (status, value)
            assert solution == solve(LPProblem(3, objective, base.rows))

    def test_infeasible_inequalities_with_an_objective_variable_outside_them(self):
        # x1 is in no row, so the dual is infeasible before any pivot, and
        # the zero-objective solve on the same state finds no primal point
        base = make_problem(2, {}, [({0: Fraction(1)}, ">=", 1), ({0: Fraction(-1)}, ">=", 0)])
        state = Presolved(base.rows)
        for objective in (((1, Fraction(1)),), ((0, Fraction(1)), (1, Fraction(-1)))):
            solution = solve(LPProblem(2, objective, base.rows, state))
            assert solution.status == "infeasible"
            assert solution == solve(LPProblem(2, objective, base.rows))

    @pytest.mark.parametrize(
        "rows",
        [
            [({0: Fraction(1), 1: Fraction(0)}, "=", 1), ({1: Fraction(1)}, ">=", 0)],
            [({0: Fraction(1), 1: Fraction(0)}, "=", 1)],
        ],
        ids=["with-inequality", "equality-alone"],
    )
    def test_zero_coefficient_refused(self, rows):
        # make_problem keeps the zero term: x0 + 0*x1 = 1
        problem = make_problem(2, {0: Fraction(1)}, rows)
        assert problem.rows[0].terms == ((0, Fraction(1)), (1, Fraction(0)))
        with pytest.raises(ValueError, match="zero coefficient in row r0"):
            solve(problem)


class TestCertificates:
    def test_identity_combination(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 3)])
        cert = extract_certificate(p, solve(p))
        assert cert.entries == (("r0", Fraction(1)),)
        assert cert.claimed_bound == 3

    def test_non_optimal_rejected(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(-1)}, ">=", -5)])
        with pytest.raises(ValueError):
            extract_certificate(p, solve(p))

    def test_dropping_any_entry_breaks_reconstruction(self):
        p = make_problem(
            2,
            {0: Fraction(1), 1: Fraction(1)},
            [
                ({0: Fraction(1)}, ">=", 1),
                ({1: Fraction(1)}, ">=", 2),
            ],
        )
        s = solve(p)
        cert = extract_certificate(p, s)
        rows = {r.id: r for r in p.rows}
        assert len(cert.entries) >= 2
        for dropped in range(len(cert.entries)):
            combo = {}
            for i, (rid, mult) in enumerate(cert.entries):
                if i == dropped:
                    continue
                for v, c in rows[rid].terms:
                    combo[v] = combo.get(v, Fraction(0)) + mult * c
            combo = {v: c for v, c in combo.items() if c}
            assert combo != dict(p.objective)


def int_problem(num_vars, objective, rows):
    """``make_problem`` with plain int coefficients and right-hand sides."""
    lp_rows = tuple(
        LinearConstraint(f"r{i}", tuple(sorted(terms.items())), rel, rhs)
        for i, (terms, rel, rhs) in enumerate(rows)
    )
    return LPProblem(num_vars, tuple(sorted(objective.items())), lp_rows)


def as_fractions(problem):
    """The same problem with every number a ``Fraction``."""
    rows = tuple(
        LinearConstraint(r.id, tuple((v, Fraction(c)) for v, c in r.terms), r.rel, Fraction(r.rhs))
        for r in problem.rows
    )
    objective = tuple((v, Fraction(c)) for v, c in problem.objective)
    return LPProblem(problem.num_vars, objective, rows)


def exact_numbers(solution):
    values = [] if solution.value is None else [solution.value]
    return values + list(solution.primal or ()) + list(solution.duals or ())


class TestIntegerRows:
    """Integral rows are solved in ints, and a division never gives a float."""

    def test_uneven_pivot_division_gives_a_fraction(self):
        presolve = simplex._Presolve()
        assert presolve.add_equality(0, {1: 2}, 1)  # 2*x1 = 1
        terms, rhs, weights = presolve.reduce_form({0: 1, 1: 1}, 0)
        assert (terms, rhs, weights) == ({0: 1}, Fraction(-1, 2), {0: Fraction(1, 2)})
        assert type(rhs) is Fraction and type(weights[0]) is Fraction
        x = presolve.lift_primal({}, 2)
        assert x == [0, Fraction(1, 2)] and type(x[1]) is Fraction

    def test_even_pivot_division_stays_int(self):
        presolve = simplex._Presolve()
        assert presolve.add_equality(0, {0: 2, 1: 2}, 4)  # 2*x0 + 2*x1 = 4
        terms, rhs, weights = presolve.reduce_form({1: 4}, 0)
        assert (terms, rhs, weights) == ({0: -4}, -8, {0: 2})
        assert type(rhs) is int and type(weights[0]) is int
        x = presolve.lift_primal({0: 3}, 2)
        assert x == [3, -1] and type(x[1]) is int

    def test_solve_with_a_pivot_coefficient_of_two(self):
        p = int_problem(2, {0: 1, 1: 1}, [({1: 2}, "=", 1), ({0: 1}, ">=", 0)])
        s = solve(p)
        assert s.status == "optimal"
        assert s.value == Fraction(1, 2) and type(s.value) is Fraction
        assert s.primal == (0, Fraction(1, 2)) and type(s.primal[1]) is Fraction
        assert s.duals == (Fraction(1, 2), 1)
        assert s == solve(as_fractions(p))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seeded_int_lps_match_their_fraction_copies(self, seed):
        rng = random.Random(seed)
        statuses = set()
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = []
            for _ in range(rng.randint(1, 8)):
                terms = {v: rng.choice((-2, -1, 1, 2)) for v in range(n) if rng.random() < 0.6}
                if terms:
                    rel = "=" if rng.random() < 0.25 else ">="
                    rows.append((terms, rel, rng.choice((0, 1, 2))))
            if not rows:
                continue
            objective = {v: rng.choice((-2, -1, 1, 2)) for v in range(n) if rng.random() < 0.7}
            p = int_problem(n, objective, rows)
            s = solve(p)
            statuses.add(s.status)
            assert all(type(v) in (int, Fraction) for v in exact_numbers(s))
            assert s == solve(as_fractions(p))
            if s.status == "optimal":
                assert type(s.value) is Fraction
        assert statuses == {"optimal", "infeasible", "unbounded"}
