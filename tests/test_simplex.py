import random
from fractions import Fraction

import pytest

from qssbounds import simplex
from qssbounds.simplex import (
    LinearConstraint,
    LPProblem,
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
