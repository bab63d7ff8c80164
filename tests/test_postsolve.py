"""The integer post-solve against the ``Fraction`` post-solve it replaced.

The integer post-solve is :func:`simplex.solve` on ``>=`` rows of
ints, and ``helpers.solve_with_equalities`` on rows with equalities or
``Fraction`` numbers, which lifts the solve of the folded int LP back
onto them.  ``reference_post_solve``
keeps the old path: the tableau's results turned into ``Fraction``
values, back-substituted term by term, and checked by the old
``_verify_optimal`` over the lcm of their denominators.  Both paths
start from the same cold tableau, so every number must agree.
"""

import random
from fractions import Fraction

import pytest

from qssbounds import simplex
from qssbounds.prover import cached_system, scheme_relation_instances
from qssbounds.simplex import LinearConstraint, LPProblem, SimplexError, solve
from qssbounds.structures import from_minimal_sets, purify

from helpers import (
    Elimination,
    exact_div,
    plain_certificate,
    random_lp,
    scaled_to_ints,
    solve_with_equalities,
    verify_optimal,
)

THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
GAMMA4_BAR = purify(from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]]))


def reference_lift(elimination, reduced, num_vars):
    """The old ``lift_primal``: back-substitution in ``Fraction`` values."""
    x = [0] * num_vars
    for v, val in reduced.items():
        x[v] = val
    for k in range(len(elimination.pivot_vars) - 1, -1, -1):
        acc = elimination.rest_rhs[k]
        for v, c in elimination.rests[k].items():
            if x[v]:
                acc -= c * x[v]
        x[elimination.pivot_vars[k]] = exact_div(acc, elimination.pivot_coefs[k])
    return x


def reference_verify(problem, x, duals, value):
    """The old ``_verify_optimal``, over the lcm of the point's denominators."""
    xs, scale = scaled_to_ints(x)
    for row, u in zip(problem.rows, duals):
        lhs = sum(c * xs[v] for v, c in row.terms)
        target = row.rhs * scale
        if row.rel == "=":
            if lhs != target:
                raise SimplexError(f"primal violates equality {row.id}")
        elif lhs < target:
            raise SimplexError(f"primal violates inequality {row.id}")
        if u < 0 and row.rel != "=":
            raise SimplexError(f"negative multiplier on inequality {row.id}")
    # the old weighted_sum: every multiplier over the lcm of their denominators
    used = [(u, row) for u, row in zip(duals, problem.rows) if u]
    weights, dual_scale = scaled_to_ints([u for u, _ in used])
    combo, rhs_total = {}, 0
    for w, (_, row) in zip(weights, used):
        rhs_total += w * row.rhs
        simplex.add_scaled(combo, row.terms, w)
    if combo != {v: c * dual_scale for v, c in problem.objective if c}:
        raise SimplexError("dual combination does not reproduce the objective")
    primal_value = sum(c * x[v] for v, c in problem.objective)
    if primal_value != value or rhs_total != value * dual_scale:
        raise SimplexError("duality gap is not zero")


def reference_post_solve(problem):
    """Value, primal, duals and the tableau's primal denominator, the old way.

    Runs the steps of a cold :func:`simplex.solve` on the state of a
    fresh elimination (a new tableau's zero phase, then ``restart`` and
    the dual run), then the old post-solve on its tableau.
    """
    elimination = Elimination(problem.rows)
    state = elimination.presolved
    red_obj, neg_offset, alpha = elimination.reduce_form(problem.objective, 0)
    tableau = simplex._Tableau(state)
    assert tableau.feasible
    tableau.restart([red_obj.get(v, 0) for v in state.var_pos])
    assert tableau.dual_run() == "optimal"
    u, u_den = tableau.solution()
    y, y_den = tableau.multipliers()
    row_duals = {j: Fraction(a, u_den) for j, a in u.items()}
    reduced = {v: Fraction(y[i], y_den) for v, i in state.var_pos.items() if y[i]}
    value = Fraction(-neg_offset - sum(a * state.costs[j] for j, a in row_duals.items()))
    x = reference_lift(elimination, reduced, problem.num_vars)
    duals = [0] * len(problem.rows)
    for j in sorted(row_duals):
        k = state.row_index[j]  # its folded row, the original times scales[k]
        u = row_duals[j] * elimination.scales[k]
        duals[elimination.origin[k]] = u
        simplex.add_scaled(alpha, elimination.weights[k].items(), -u)
    for j, lam in elimination.equality_duals(alpha).items():
        duals[j] = lam
    reference_verify(problem, x, duals, value)
    return value, tuple(x), tuple(duals), y_den


def quotient_lps(structure):
    """Every lemma target of the structure, both signs, on its quotient rows."""
    elemental = cached_system(structure, True, "elemental")
    quotient = elemental.quotient
    for inst in scheme_relation_instances(structure, elemental.ground):
        for sign in (1, -1):
            objective = tuple(sorted((v, sign * c) for v, c in inst.terms))
            folded, _ = quotient.fold(objective)
            yield LPProblem(elemental.ground.var_count, folded, quotient.rows)


def assert_same_as_reference(problem):
    """The new solve equals the old post-solve; returns it and the tableau's primal denominator."""
    solution = solve_with_equalities(problem)
    assert solution.status == "optimal"
    if all(row.rel == ">=" for row in problem.rows):
        if all(type(c) is int for row in problem.rows for _, c in row.terms + ((0, row.rhs),)):
            assert solve(problem) == solution
        else:
            # simplex takes int rows only; the reference scales them
            with pytest.raises(ValueError, match="is not an int"):
                solve(problem)
    value, primal, duals, tableau_den = reference_post_solve(problem)
    assert solution.value == value and type(solution.value) is Fraction
    assert solution.primal == primal and solution.duals == duals
    assert all(type(v) is Fraction for v in solution.primal + solution.duals)
    entries = tuple((row.id, u) for row, u in zip(problem.rows, duals) if u)
    plain = plain_certificate(problem, solution)
    assert tuple((rid, Fraction(u, plain.den)) for rid, u in plain.entries) == entries
    return solution, tableau_den


def tamper_cases(problem, solution):
    """Integer forms of ``solution`` with one defect each, and the error each must raise.

    A tight row with a nonzero multiplier has one variable moved by
    ``1/den`` against its coefficient; an inequality gets multiplier -1;
    one multiplier grows by ``1/den``; the value grows by ``1/den``.  For
    a gap on the dual side alone, an inequality's multiplier moves to a
    copy of it added with its right-hand side lowered by 1: the
    combination and the point stay right, the weighted sum drops.
    """
    (x, x_den), (duals, dual_den) = solution.point, solution.multipliers
    value = solution.value
    used = [i for i, u in enumerate(duals) if u]
    if used:
        v, c = problem.rows[used[0]].terms[0]
        moved = list(x)
        moved[v] -= 1 if c > 0 else -1
        yield problem, (moved, x_den, list(duals), dual_den, value), "primal violates"
        grown = list(duals)
        grown[used[-1]] += 1
        yield problem, (list(x), x_den, grown, dual_den, value), "does not reproduce"
    inequalities = [i for i, row in enumerate(problem.rows) if row.rel == ">="]
    if inequalities:
        negative = list(duals)
        negative[inequalities[-1]] = -1
        yield problem, (list(x), x_den, negative, dual_den, value), "negative multiplier"
    shifted = value + Fraction(1, dual_den)
    yield problem, (list(x), x_den, list(duals), dual_den, shifted), "duality gap"
    for i in used:
        row = problem.rows[i]
        if row.rel == ">=":
            weak = LinearConstraint("weak", row.terms, ">=", row.rhs - 1)
            widened = LPProblem(problem.num_vars, problem.objective, problem.rows + (weak,))
            moved = list(duals) + [duals[i]]
            moved[i] = 0
            yield widened, (list(x), x_den, moved, dual_den, value), "duality gap"
            break


FAMILIES = ["integral", "fraction", "degenerate", "equalities", "evenpivot"]


class TestAgainstTheFractionPostSolve:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeded_lps(self, family):
        rng = random.Random(f"postsolve-{family}")
        rescaled = records = 0
        for _ in range(80):
            problem = random_lp(rng, family)
            solution, tableau_den = assert_same_as_reference(problem)
            rescaled += solution.point[1] != tableau_den
            records += len(Elimination(problem.rows).pivot_vars)
        assert records > 0
        if family == "evenpivot":
            assert rescaled > 0  # the odd-remainder branch of lift_primal ran

    @pytest.mark.parametrize("structure", [THRESHOLD23, GAMMA4_BAR], ids=["threshold23", "g4bar"])
    def test_quotient_lps(self, structure):
        optimal = 0
        for problem in quotient_lps(structure):
            if solve(problem).status == "optimal":
                assert_same_as_reference(problem)
                optimal += 1
        assert optimal > 10

    def test_pivot_coefficient_two_with_an_odd_remainder(self):
        # 2*x1 + x0 = 0 pins x1 = -x0/2, and the optimum x0 = 1 leaves the
        # remainder -1 over the pivot coefficient 2
        rows = (
            LinearConstraint("e", ((0, 1), (1, 2)), "=", 0),
            LinearConstraint("lo", ((0, 1),), ">=", 1),
        )
        problem = LPProblem(2, ((0, 1), (1, 1)), rows)
        solution, tableau_den = assert_same_as_reference(problem)
        assert solution.point == ((2, -1), 2) and tableau_den == 1
        assert solution.primal == (1, Fraction(-1, 2)) and solution.value == Fraction(1, 2)
        assert solution.duals == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_defect_is_rejected_by_both_checks(self, family):
        rng = random.Random(f"tamper-{family}")
        seen = []
        for _ in range(30):
            problem = random_lp(rng, family)
            for tampered, args, message in tamper_cases(problem, solve_with_equalities(problem)):
                x, x_den, duals, dual_den, value = args
                # simplex checks >= rows only, the reference equalities too
                equalities = any(row.rel == "=" for row in tampered.rows)
                with pytest.raises(SimplexError, match=message):
                    (verify_optimal if equalities else simplex._verify_optimal)(tampered, *args)
                with pytest.raises(SimplexError, match=message):
                    reference_verify(
                        tampered,
                        [Fraction(a, x_den) for a in x],
                        [Fraction(u, dual_den) for u in duals],
                        value,
                    )
                seen.append((message, tampered is problem))
        assert set(seen) == {
            ("primal violates", True),
            ("does not reproduce", True),
            ("negative multiplier", True),
            ("duality gap", True),
            ("duality gap", False),
        }


class CountingFraction(Fraction):
    """A ``Fraction`` that counts how often it is built."""

    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "session"])
def test_integral_solve_builds_only_the_value_fraction(monkeypatch, warm):
    problems = list(quotient_lps(GAMMA4_BAR))
    state = cached_system(GAMMA4_BAR, True, "elemental").quotient.presolved
    monkeypatch.setattr(simplex, "Fraction", CountingFraction)
    session = simplex.Session() if warm else None
    optimal = 0
    for problem in problems:
        problem = LPProblem(problem.num_vars, problem.objective, problem.rows, state)
        before = CountingFraction.made
        solution = solve(problem, session)
        if solution.status != "optimal":
            assert CountingFraction.made == before
            continue
        optimal += 1
        assert CountingFraction.made - before == 1 and type(solution.value) is CountingFraction
        primal = solution.primal
        assert CountingFraction.made - before == 1 + len(primal)
        assert solution.duals is solution.duals and solution.primal is primal
        assert CountingFraction.made - before == 1 + len(primal) + len(problem.rows)
    assert optimal > 10
