import math
import random
import re
from fractions import Fraction

import pytest

from qssbounds import simplex
from qssbounds.prover import bound_setup, objective_rows, rat_str, share_bound
from qssbounds.simplex import (
    LinearConstraint,
    LPProblem,
    Presolved,
    SimplexError,
    solve,
)
from qssbounds.structures import csirmaz, is_quantum, purify

from helpers import (
    DenseTableau,
    Elimination,
    all_antichain_structures,
    plain_certificate,
    random_lp,
    solve_with_equalities,
    two_phase_solve,
    verify_optimal,
    whole,
)


def make_problem(num_vars, objective, rows):
    """The LP of ``rows``, with every whole number in them an ``int``."""
    lp_rows = tuple(
        LinearConstraint(f"r{i}", tuple(sorted((v, whole(c)) for v, c in terms.items())), rel,
                         whole(rhs))
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
        s = solve_with_equalities(p)
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
        assert solve_with_equalities(p).status == "infeasible"

    def test_unbounded(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(-1)}, ">=", -5)])
        assert solve(p).status == "unbounded"

    def test_unbounded_free_variable(self):
        p = make_problem(2, {0: Fraction(1)}, [({1: Fraction(1)}, ">=", 0)])
        assert solve(p).status == "unbounded"

    def test_free_variables_take_negative_values(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, "=", -7)])
        s = solve_with_equalities(p)
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
        s = solve_with_equalities(p)
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
        s = solve_with_equalities(p)
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
        base = solve_with_equalities(make_problem(2, {0: Fraction(1)}, rows))
        for factor in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            scaled_rows = [(t, rel, Fraction(r) * factor) for t, rel, r in rows]
            scaled = solve_with_equalities(make_problem(2, {0: Fraction(1)}, scaled_rows))
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
            s = solve_with_equalities(p)

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
        # The elimination substitutes x1 = 1, which leaves no objective
        # weight on x0.  No row is x0 >= 0, so the equation of x0 starts on
        # its artificial, which is driven out onto -2*x0 >= 0, a negative
        # pivot element; the zero phase then pivots -2*x0 >= 2 in, and its
        # ratio test is only right if the common denominator was kept
        # positive.
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
        s = solve_with_equalities(p)
        assert pivot_elements[0] < 0 and len(pivot_elements) == 2
        assert s.status == "optimal"
        assert s.value == 1
        assert s.duals == (Fraction(1), Fraction(0), Fraction(0))
        assert s.primal == (Fraction(-1), Fraction(1))

    def test_fractional_data_keeps_exact_values(self):
        # the reference scales each row to ints and the objective is
        # scaled on restart (it is 1/2 of the first row plus 1/3 of the
        # second); the multipliers lift back onto the fractional rows
        p = make_problem(
            2,
            {0: Fraction(1, 2), 1: Fraction(7, 18)},
            [
                ({0: Fraction(1, 2), 1: Fraction(2, 3)}, ">=", Fraction(1, 5)),
                ({0: Fraction(3, 4), 1: Fraction(1, 6)}, ">=", Fraction(2, 7)),
            ],
        )
        s = solve_with_equalities(p)
        assert s.status == "optimal"
        assert s.value == Fraction(41, 210)
        assert s.duals == (Fraction(1, 2), Fraction(1, 3))
        assert s.primal == (Fraction(66, 175), Fraction(3, 175))


def verify_fractions(check, problem, x, duals, value):
    """``check`` on ``Fraction`` vectors, each over the lcm of its denominators."""
    x_den = math.lcm(*(v.denominator for v in x))
    dual_den = math.lcm(*(u.denominator for u in duals))
    check(
        problem,
        [v.numerator * (x_den // v.denominator) for v in x],
        x_den,
        [u.numerator * (dual_den // u.denominator) for u in duals],
        dual_den,
        value,
    )


class TestVerifyOptimal:
    """``_verify_optimal`` and the reference check reject every kind of wrong optimum.

    The rows have fractional coefficients and right-hand sides, so the
    integer evaluation must bring each row over its own denominator.  The
    optimum of the two inequalities is (66/175, 3/175) with duals
    (1/2, 1/3); the equality holds there and carries a zero multiplier.
    ``_verify_optimal`` checks the inequalities, and the reference
    ``helpers.verify_optimal`` all three rows.
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

    @staticmethod
    def checks(problem, duals, *, on_the_equality=False):
        """Each check with the problem and multipliers it sees; a defect
        on the equality row is the reference's alone."""
        inequalities = LPProblem(problem.num_vars, problem.objective, problem.rows[:2])
        reference = [(verify_optimal, problem, duals)]
        if on_the_equality:
            return reference
        return [(simplex._verify_optimal, inequalities, duals[:2])] + reference

    def test_true_optimum_passes(self):
        problem, x, duals, value = self.optimum()
        (_, inequalities, _), _ = cases = self.checks(problem, duals)
        for check, checked, multipliers in cases:
            verify_fractions(check, checked, x, multipliers, value)
        values = {solve_with_equalities(lp).value for lp in (inequalities, problem)}
        assert values == {value}

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
        for check, checked, multipliers in self.checks(problem, duals, on_the_equality=shift > 0):
            with pytest.raises(SimplexError, match=message):
                verify_fractions(check, checked, x, multipliers, value)

    def test_negative_inequality_multiplier(self):
        problem, x, duals, value = self.optimum()
        duals[1] = Fraction(-1, 3)
        for check, checked, multipliers in self.checks(problem, duals):
            with pytest.raises(SimplexError, match="negative multiplier on inequality r1"):
                verify_fractions(check, checked, x, multipliers, value)

    @pytest.mark.parametrize("row,delta", [(1, Fraction(1, 100)), (2, Fraction(-1, 7))])
    def test_dual_combination_misses_objective(self, row, delta):
        problem, x, duals, value = self.optimum()
        duals[row] += delta
        for check, checked, multipliers in self.checks(problem, duals, on_the_equality=row == 2):
            with pytest.raises(SimplexError, match="does not reproduce the objective"):
                verify_fractions(check, checked, x, multipliers, value)

    def test_nonzero_gap(self):
        problem, x, duals, value = self.optimum()
        for check, checked, multipliers in self.checks(problem, duals):
            with pytest.raises(SimplexError, match="duality gap"):
                verify_fractions(check, checked, x, multipliers, value + Fraction(1, 1000))


ROW = LinearConstraint("a", ((0, 1),), ">=", 1)
NOT_INTS = [("fraction", Fraction(1)), ("float", 1.0), ("bool", True)]
ZERO_TERM = {0: Fraction(1), 1: Fraction(0)}
MALFORMED = [
    pytest.param(
        make_problem(2, {0: Fraction(1)}, [(ZERO_TERM, "=", 1), ({1: Fraction(1)}, ">=", 0)]),
        "zero coefficient in row r0",
        id="with-inequality",
    ),
    pytest.param(
        make_problem(2, {0: Fraction(1)}, [(ZERO_TERM, "=", 1)]),
        "zero coefficient in row r0",
        id="equality-alone",
    ),
    pytest.param(
        make_problem(2, {0: Fraction(1)}, [(ZERO_TERM, ">=", 1)]),
        "zero coefficient in row r0",
        id="inequality-alone",
    ),
    # read as a dict the objective is x0, summed it is 2*x0
    pytest.param(
        LPProblem(1, ((0, 1), (0, 1)), (ROW,)),
        "variables of the objective are not nonnegative and strictly increasing",
        id="objective-repeats",
    ),
    pytest.param(
        LPProblem(2, ((1, 1), (0, 1)), (ROW,)),
        "variables of the objective are not",
        id="objective-unsorted",
    ),
    pytest.param(
        LPProblem(2, ((0, 1),), (ROW._replace(terms=((0, 1), (0, 1))),)),
        "variables of row a are not nonnegative and strictly increasing",
        id="row-repeats",
    ),
    pytest.param(
        LPProblem(2, ((0, 1),), (ROW._replace(terms=((1, 1), (0, 1))),)),
        "variables of row a are not",
        id="row-unsorted",
    ),
    pytest.param(
        LPProblem(1, ((0, 1),), (ROW._replace(terms=((-1, 1), (0, 1))),)),
        "variables of row a are not",
        id="row-negative",
    ),
    pytest.param(
        LPProblem(1, ((-1, 1),), (ROW,)),
        "variables of the objective are not",
        id="objective-negative",
    ),
    pytest.param(
        LPProblem(1, ((0, 1),), (ROW._replace(terms=((0, 1), (1, 1))),)),
        "variable 1 is not below num_vars 1",
        id="row-above-num-vars",
    ),
    pytest.param(
        LPProblem(1, ((1, 1),), (ROW,)),
        "variable 1 is not below num_vars 1",
        id="objective-above-num-vars",
    ),
    # a row 0 >= 1 leaves the state infeasible, and the check still runs
    pytest.param(
        LPProblem(1, ((0, 1),), (ROW._replace(terms=()), ROW._replace(id="b", terms=((3, 1),)))),
        "variable 3 is not below num_vars 1",
        id="infeasible-state-above-num-vars",
    ),
    # rows are ints: any other number is refused, a whole one too
    *[
        pytest.param(
            LPProblem(1, ((0, 1),), (ROW._replace(terms=((0, number),)),)),
            re.escape(f"coefficient {number!r} in row a is not an int"),
            id=f"coefficient-{kind}",
        )
        for kind, number in NOT_INTS
    ],
    *[
        pytest.param(
            LPProblem(1, ((0, 1),), (ROW._replace(rhs=number),)),
            re.escape(f"right-hand side {number!r} of row a is not an int"),
            id=f"rhs-{kind}",
        )
        for kind, number in NOT_INTS
    ],
]


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
        elimination = Elimination(base.rows)
        for objective in ({0: Fraction(1)}, {0: Fraction(2), 1: Fraction(1)},
                          {0: Fraction(-1)}, {1: Fraction(3)}, {}):
            fresh = make_problem(2, objective, rows)
            shared = LPProblem(2, fresh.objective, base.rows)
            assert solve_with_equalities(shared, elimination=elimination) == (
                solve_with_equalities(fresh)
            )

    def test_objective_variable_below_the_row_variables(self):
        # x0 is in no row, so a nonzero objective weight on it leaves the
        # dual infeasible, and a zero weight leaves the dual unchanged;
        # the fractional row goes through the reference, whose state is
        # shared by every objective
        rows = [
            ({1: Fraction(1), 2: Fraction(1)}, ">=", 2),
            ({2: Fraction(1)}, ">=", Fraction(1, 2)),
        ]
        base = make_problem(3, {}, rows)
        elimination = Elimination(base.rows)
        expected = {
            ((0, Fraction(1)),): ("unbounded", None),
            ((0, Fraction(0)), (1, Fraction(1)), (2, Fraction(1))): ("optimal", 2),
            ((0, Fraction(0)), (2, Fraction(1))): ("optimal", Fraction(1, 2)),
        }
        for objective, (status, value) in expected.items():
            problem = LPProblem(3, objective, base.rows)
            solution = solve_with_equalities(problem, elimination=elimination)
            assert (solution.status, solution.value) == (status, value)
            assert solution == solve_with_equalities(problem)

    def test_infeasible_inequalities_with_an_objective_variable_outside_them(self):
        # x1 is in no row, so the dual has no feasible point, and the zero
        # phase of the state finds no primal point either
        base = make_problem(2, {}, [({0: Fraction(1)}, ">=", 1), ({0: Fraction(-1)}, ">=", 0)])
        state = Presolved(base.rows)
        for objective in (((1, Fraction(1)),), ((0, Fraction(1)), (1, Fraction(-1)))):
            solution = solve(LPProblem(2, objective, base.rows, state))
            assert solution.status == "infeasible"
            assert solution == solve(LPProblem(2, objective, base.rows))

    def test_unsupported_relation_refused(self):
        for rel in ("<=", "="):
            row = LinearConstraint("r0", ((0, Fraction(1)),), rel, Fraction(1))
            with pytest.raises(ValueError, match=f"unsupported relation '{rel}' in row r0"):
                Presolved((row,))
            with pytest.raises(ValueError, match=f"unsupported relation '{rel}' in row r0"):
                solve(LPProblem(1, ((0, Fraction(1)),), (row,)))

    @pytest.mark.parametrize("problem,message", MALFORMED)
    def test_zero_coefficient_refused(self, problem, message):
        # the reference refuses a zero term in an equality, as Presolved
        # does in an inequality; solve refuses indices that are out of
        # order, negative or not below num_vars, and numbers that are not
        # ints; Presolved refuses every defect of a row of inequalities
        if "zero" in message:
            # make_problem keeps the zero term: x0 + 0*x1
            assert problem.rows[0].terms == ((0, Fraction(1)), (1, Fraction(0)))
        with pytest.raises(ValueError, match=message):
            if any(row.rel == "=" for row in problem.rows):
                solve_with_equalities(problem)
            else:
                solve(problem)
        if " row " in message and all(row.rel == ">=" for row in problem.rows):
            with pytest.raises(ValueError, match=message):
                Presolved(problem.rows)


class TestCertificates:
    def test_identity_combination(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 3)])
        cert = plain_certificate(p, solve(p))
        assert cert.entries == (("r0", Fraction(1)),)
        assert cert.claimed_bound == 3

    def test_non_optimal_rejected(self):
        p = make_problem(1, {0: Fraction(1)}, [({0: Fraction(-1)}, ">=", -5)])
        with pytest.raises(ValueError):
            plain_certificate(p, solve(p))

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
        cert = plain_certificate(p, s)
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
    """Rows are solved in ints, `simplex` takes no other number in a row,
    and a division never gives a float."""

    def test_uneven_pivot_division_gives_a_fraction(self):
        presolve = Elimination((LinearConstraint("e", ((1, 2),), "=", 1),))  # 2*x1 = 1
        assert not presolve.infeasible and presolve.pivot_vars == [1]
        terms, rhs, weights = presolve.reduce_form({0: 1, 1: 1}, 0)
        assert (terms, rhs, weights) == ({0: 1}, Fraction(-1, 2), {0: Fraction(1, 2)})
        assert type(rhs) is Fraction and type(weights[0]) is Fraction
        # the uneven division rescales the whole point: x1 = 1/2
        x, den = presolve.lift_primal({}, 1, 2)
        assert (x, den) == ([0, 1], 2) and type(x[1]) is int
        assert [Fraction(v, den) for v in x] == [0, Fraction(1, 2)]

    def test_even_pivot_division_stays_int(self):
        presolve = Elimination((LinearConstraint("e", ((0, 2), (1, 2)), "=", 4),))  # 2*x0 + 2*x1 = 4
        assert not presolve.infeasible and presolve.pivot_vars == [1]
        terms, rhs, weights = presolve.reduce_form({1: 4}, 0)
        assert (terms, rhs, weights) == ({0: -4}, -8, {0: 2})
        assert type(rhs) is int and type(weights[0]) is int
        x, den = presolve.lift_primal({0: 3}, 1, 2)
        assert (x, den) == ([3, -1], 1) and type(x[1]) is int
        # x0 = 3/2 lifts to x1 = 1/2 over the same denominator
        assert presolve.lift_primal({0: 3}, 2, 2) == ([3, 1], 2)

    def test_add_scaled_drops_cancelled_keys_and_keeps_ints(self):
        acc = {1: 2, 2: 1}
        simplex.add_scaled(acc, ((1, -1), (3, 1)), 2)
        assert acc == {2: 1, 3: 2} and all(type(v) is int for v in acc.values())
        simplex.add_scaled(acc, {2: 1}.items(), Fraction(1, 2))
        assert acc == {2: Fraction(3, 2), 3: 2} and type(acc[3]) is int

    def test_solve_with_a_pivot_coefficient_of_two(self):
        p = int_problem(2, {0: 1, 1: 1}, [({1: 2}, "=", 1), ({0: 1}, ">=", 0)])
        s = solve_with_equalities(p)
        assert s.status == "optimal"
        assert s.value == Fraction(1, 2) and type(s.value) is Fraction
        assert s.primal == (0, Fraction(1, 2)) and type(s.primal[1]) is Fraction
        assert s.duals == (Fraction(1, 2), 1)
        assert s == solve_with_equalities(as_fractions(p))

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
            s = solve_with_equalities(p)
            statuses.add(s.status)
            assert all(type(v) in (int, Fraction) for v in exact_numbers(s))
            # simplex refuses the copy's rows; the reference scales them to ints
            copy = as_fractions(p)
            inequalities = tuple(row for row in copy.rows if row.rel == ">=")
            if inequalities:
                with pytest.raises(ValueError, match="is not an int"):
                    Presolved(inequalities)
            assert s == solve_with_equalities(copy)
            if s.status == "optimal":
                assert type(s.value) is Fraction
        assert statuses == {"optimal", "infeasible", "unbounded"}


def random_session_lp(rng, shape):
    """The number of variables, rows, their elimination and many objectives on them.

    Shapes: ``degenerate`` rows are mostly tight at a seeded integer
    point and often repeated; ``lowrank`` rows span fewer directions
    than there are variables, so some equations of the dual stay
    redundant and keep an artificial basic; ``infeasible`` rows add one
    row that contradicts another.  Most objectives are nonnegative
    combinations of the rows (bounded when the rows are feasible), the
    rest are random (often unbounded); some have fractional entries.
    """
    n = rng.randint(2, 5)
    point = [rng.randint(-2, 2) for _ in range(n)]
    dirs = [{v: rng.choice((-1, 1, 2)) for v in range(n) if rng.random() < 0.7}
            for _ in range(rng.randint(1, n - 1))]
    rows = []
    for _ in range(rng.randint(2, 9)):
        if shape == "lowrank":
            terms = {}
            for d in dirs:
                simplex.add_scaled(terms, d.items(), rng.randint(-2, 2))
        else:
            terms = {v: rng.choice((-2, -1, 1, 2)) for v in range(n) if rng.random() < 0.6}
        if not terms:
            continue
        rel = "=" if rng.random() < 0.2 else ">="
        slack = 0 if rel == "=" or (shape != "general" and rng.random() < 0.7) else rng.randint(0, 2)
        rhs = sum(c * point[v] for v, c in terms.items()) - slack
        rows.append((terms, rel, rhs))
        if shape == "degenerate" and rng.random() < 0.3:
            rows.append((dict(terms), rel, rhs))
    inequalities = [r for r in rows if r[1] == ">="]
    if shape == "infeasible" and inequalities:
        terms, _, rhs = rng.choice(inequalities)
        rows.append(({v: -c for v, c in terms.items()}, ">=", 1 - rhs))
    base = make_problem(n, {}, rows)
    objectives = []
    for _ in range(12):
        objective = {}
        if rng.random() < 0.7:
            for terms, rel, _ in rows:
                weight = rng.randint(-1, 2) if rel == "=" else rng.randint(0, 2)
                simplex.add_scaled(objective, terms.items(), Fraction(weight, rng.randint(1, 3)))
        else:
            objective = {v: Fraction(rng.randint(-3, 3)) for v in range(n)}
        objectives.append(tuple(sorted((v, Fraction(c)) for v, c in objective.items() if c)))
    return n, base.rows, Elimination(base.rows), objectives


@pytest.fixture
def checked_duals(monkeypatch):
    """Checks the tableau's kept duals against a fresh ``c_B q`` at every read.

    ``multipliers`` is read once by every optimal solve, cold or warm;
    the fixture's list counts those reads.
    """
    reads = []
    original = simplex._Tableau.multipliers

    def multipliers(self):
        assert self.y == self._duals()
        reads.append(self.pivots)
        return original(self)

    monkeypatch.setattr(simplex._Tableau, "multipliers", multipliers)
    return reads


class TestSessions:
    """Warm restarts in a session against cold solves on the same state."""

    # 50 switches to the dual Bland rule on far shorter degenerate runs than the default
    @pytest.mark.parametrize("degenerate_run", [simplex.DEGENERATE_RUN, 50, 1, 0])
    @pytest.mark.parametrize("shape", ["general", "degenerate", "lowrank", "infeasible"])
    def test_seeded_objectives_match_cold_solves(
        self, monkeypatch, checked_duals, shape, degenerate_run
    ):
        # degenerate_run 0 runs the dual Bland rule from the first pivot
        monkeypatch.setattr(simplex, "DEGENERATE_RUN", degenerate_run)
        rng = random.Random(f"{shape}-{degenerate_run}")
        statuses, warm_pivots, artificial_kept, optimal = set(), 0, False, 0
        for _ in range(40):
            num_vars, rows, elimination, objectives = random_session_lp(rng, shape)
            session = simplex.Session()
            for objective in objectives:
                problem = LPProblem(num_vars, objective, rows)
                warm_start = session.tableau is not None
                warm = solve_with_equalities(problem, session, elimination)
                cold = solve_with_equalities(problem, elimination=elimination)
                assert (warm.status, warm.value) == (cold.status, cold.value), objective
                if not warm_start:
                    # a cold solve is a fresh session's first objective
                    assert (warm.pivots, warm.point, warm.multipliers) == (
                        cold.pivots, cold.point, cold.multipliers
                    )
                optimal += 2 * (warm.status == "optimal")
                statuses.add(warm.status)
                if warm_start:
                    warm_pivots += warm.pivots
                if warm.status == "optimal":
                    assert plain_certificate(problem, warm).claimed_bound == warm.value
                tableau = session.tableau
                if tableau is not None:
                    artificial_kept |= any(b >= tableau.n for b in tableau.basis)
                    # kept current through every warm pivot, whatever the status
                    assert tableau.y == tableau._duals()
        expected = {
            "general": {"optimal", "unbounded"},
            "degenerate": {"optimal", "unbounded"},
            "lowrank": {"optimal", "unbounded"},
            "infeasible": {"infeasible"},
        }[shape]
        assert expected <= statuses
        if shape != "infeasible":
            assert warm_pivots > 0
        if shape == "lowrank":
            assert artificial_kept
        # every optimal solve read the kept duals, and they were current
        assert len(checked_duals) >= optimal

    def test_repeated_objective_restarts_with_no_pivot(self):
        rows = [
            ({0: Fraction(1), 1: Fraction(1)}, ">=", 4),
            ({0: Fraction(1), 1: Fraction(-1)}, ">=", 0),
            ({1: Fraction(1)}, ">=", 1),
        ]
        problem = make_problem(2, {0: Fraction(1), 1: Fraction(2)}, rows)
        state = Presolved(problem.rows)
        problem = LPProblem(2, problem.objective, problem.rows, state)
        session = simplex.Session()
        first = solve(problem, session)
        again = solve(problem, session)
        assert first == solve(problem) and first.pivots > 0
        assert (again.status, again.value, again.pivots) == ("optimal", first.value, 0)

    def test_session_of_another_state_refused(self):
        problem = make_problem(1, {0: Fraction(1)}, [({0: Fraction(1)}, ">=", 3)])
        session = simplex.Session()
        state = Presolved(problem.rows)
        solve(LPProblem(1, problem.objective, problem.rows, state), session)
        assert session.tableau.state is state
        with pytest.raises(ValueError, match="different presolved state"):
            solve(problem, session)

    def test_unbounded_objective_keeps_the_basis(self):
        # the second objective leaves the dual infeasible from the warm
        # basis, and the zero phase already showed the rows feasible, so
        # the LP is unbounded with no second solve and no pivot
        rows = [({0: Fraction(1)}, ">=", 1), ({0: Fraction(1), 1: Fraction(1)}, ">=", 0)]
        base = make_problem(2, {}, rows)
        state = Presolved(base.rows)
        session = simplex.Session()
        bounded = solve(LPProblem(2, ((0, Fraction(1)),), base.rows, state), session)
        kept = session.tableau
        unbounded = solve(LPProblem(2, ((0, Fraction(-1)),), base.rows, state), session)
        assert (bounded.status, bounded.value) == ("optimal", 1)
        assert (unbounded.status, unbounded.pivots) == ("unbounded", 0)
        assert session.tableau is kept



def seeded_lps():
    """``(num_vars, rows, objectives)`` of the seeded families of this module
    and of ``test_postsolve.py``: optimal LPs with and without equalities,
    degenerate, low-rank (redundant equations) and infeasible rows, and
    random objectives, often unbounded."""
    for family in ("integral", "fraction", "degenerate", "equalities", "evenpivot"):
        rng = random.Random(f"two-phase-{family}")
        for _ in range(40):
            problem = random_lp(rng, family)
            yield problem.num_vars, problem.rows, [problem.objective]
    for shape in ("general", "degenerate", "lowrank", "infeasible"):
        rng = random.Random(f"two-phase-{shape}")
        for _ in range(20):
            num_vars, rows, _, objectives = random_session_lp(rng, shape)
            yield num_vars, rows, objectives


class TestAgainstTwoPhaseBland:
    """A cold solve against the two-phase Bland solve of ``helpers``.

    The two take different paths, so only statuses and values must
    agree, and every optimum of either must pass the reference
    ``verify_optimal``.  Both solve the same ``>=`` LPs: raw rows with
    equalities are folded by ``Elimination`` first.
    """

    @staticmethod
    def compare(problem):
        session = simplex.Session()
        route, reference = solve(problem, session), two_phase_solve(problem)
        assert (route.status, route.value) == (reference.status, reference.value)
        for solution in (route, reference):
            if solution.status == "optimal":
                verify_optimal(problem, *solution.point, *solution.multipliers, solution.value)
        return route.status, session.tableau

    def test_seeded_lps(self):
        statuses, outside, redundant = set(), set(), 0
        for num_vars, rows, objectives in seeded_lps():
            elimination = Elimination(rows)
            if elimination.infeasible:
                continue
            for objective in objectives:
                terms, _, _ = elimination.reduce_form(objective, 0)
                folded = tuple(sorted(terms.items()))
                problem = LPProblem(num_vars, folded, elimination.folded, elimination.presolved)
                status, tableau = self.compare(problem)
                statuses.add(status)
                if tableau is not None:
                    redundant += any(b >= tableau.n for b in tableau.basis)
                # the same objective plus a variable that no row contains
                wider = LPProblem(
                    num_vars + 1, folded + ((num_vars, 1),), elimination.folded,
                    elimination.presolved,
                )
                outside.add(self.compare(wider)[0])
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert outside == {"infeasible", "unbounded"}
        assert redundant > 0

    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_quotient_lps_of_every_small_quantum_structure(self, mode):
        solved = 0
        for n in range(1, 5):
            for structure in all_antichain_structures(n):
                if not is_quantum(structure):
                    continue
                for objective in ("minmax", "minsum"):
                    _, _, system, obj = bound_setup(
                        structure, auto_purify=mode == "pure", mode=mode, ineq="elemental",
                        objective=objective, players=None, max_elements=16,
                    )
                    extra, form, num_vars = objective_rows(system, obj)
                    problem, _ = system.quotient.problem(num_vars, form, extra)
                    assert self.compare(problem)[0] == "optimal"
                    solved += 1
        # 1, 3, 11 and 80 quantum antichains on 1..4 players, two objectives each
        assert solved == 2 * (1 + 3 + 11 + 80)


def recording(kernel, trace):
    """``kernel`` with the tableau's state appended to ``trace`` after every pivot.

    An entry holds whether the pivot element was the common denominator
    up to sign and whether it was negative, then ``basis``, ``q``, ``x``,
    ``y`` (None before the zero phase first prices) and ``den``.
    """

    class Recording(kernel):
        def _pivot(self, entering, leave, w):
            even, negative = abs(w[leave]) == self.den, w[leave] < 0
            super()._pivot(entering, leave, w)
            y = getattr(self, "y", None)
            trace.append((even, negative, self.basis[:], [row[:] for row in self.q], self.x[:],
                          y and y[:], self.den))

    return Recording


def traced_solves(monkeypatch, kernel, lps):
    """Every objective of each ``(num_vars, rows, objectives)`` solved in
    one session per LP on ``kernel``, and the state after every pivot."""
    trace, solutions = [], []
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_Tableau", recording(kernel, trace))
        for num_vars, rows, objectives in lps:
            elimination = Elimination(rows)
            session = simplex.Session()
            for objective in objectives:
                problem = LPProblem(num_vars, objective, rows)
                solutions.append(solve_with_equalities(problem, session, elimination))
    return trace, solutions


class TestSparseUpdates:
    """The sparse Bareiss updates against the dense ones of ``helpers.DenseTableau``.

    A pivot whose element is the common denominator updates ``q``, ``x``
    and ``y`` on the nonzero entries of the pivot row only; every other
    pivot is dense.  Either way the state after every pivot, and so every
    pivot and result, must be the dense kernel's.
    """

    def test_state_after_every_pivot_is_the_dense_kernels(self, monkeypatch):
        negative_drive_out = make_problem(
            2, {1: Fraction(1)},
            [({1: Fraction(1)}, "=", 1), ({0: Fraction(-2)}, ">=", 0), ({0: Fraction(-2)}, ">=", 2)],
        )
        lps = [(2, negative_drive_out.rows, [negative_drive_out.objective])] + list(seeded_lps())
        sparse, solved = traced_solves(monkeypatch, simplex._Tableau, lps)
        dense, reference = traced_solves(monkeypatch, DenseTableau, lps)
        assert sparse == dense
        assert solved == reference
        # the first LP drives a negative pivot element out of an artificial
        assert sparse[0][:2] == (False, True)
        kinds = {entry[:2] for entry in sparse}
        assert kinds == {(True, False), (True, True), (False, False), (False, True)}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_share_bound_is_the_dense_kernels(self, monkeypatch, n):
        structure = purify(csirmaz(n)[0])
        report = share_bound(structure, ineq="elemental")
        monkeypatch.setattr(simplex, "_Tableau", DenseTableau)
        reference = share_bound(structure, ineq="elemental")
        assert (report.lp_value, report.pivots) == (reference.lp_value, reference.pivots)
        assert report.certificate.entries == reference.certificate.entries


def test_cached_row_norms_are_exact_after_every_dual_pivot(monkeypatch):
    # the zero phase runs before any dual run, so a tableau with norms is
    # in a dual run; kinds records, for the pivots that leave norms
    # cached, whether the pivot element was the common denominator
    checked, kinds = [0], set()
    pivot = simplex._Tableau._pivot

    def checking(tableau, entering, leave, w):
        even = abs(w[leave]) == tableau.den
        pivot(tableau, entering, leave, w)
        norms = getattr(tableau, "norms", {})
        for i, norm in norms.items():
            assert norm == sum(a * a for a in tableau.q[i])
        if norms:
            kinds.add(even)
        checked[0] += len(norms)

    monkeypatch.setattr(simplex._Tableau, "_pivot", checking)
    for num_vars, rows, objectives in seeded_lps():
        elimination = Elimination(rows)
        session = simplex.Session()
        for objective in objectives:
            solve_with_equalities(LPProblem(num_vars, objective, rows), session, elimination)
    share_bound(purify(csirmaz(6)[0]), ineq="elemental")
    assert checked[0] > 0 and kinds == {True, False}

