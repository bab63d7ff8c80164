"""Exact rational linear programming with verifiable duals.

Problems are minimizations of a sparse rational form over free variables
subject to ``>=`` and ``=`` rows.  There is no floating point anywhere
in the solve path, so optima such as 3/2 are proved rather than
approximated.  A row is a :class:`LinearConstraint` named tuple whose
numbers are ``int`` or ``Fraction``.  The rows this package generates
are all ints, and the presolve, the optimality checks and
:func:`weighted_sum` stay in ints wherever the values are whole: a
``Fraction`` appears only where a division does not come out even.

The solver is a two-phase simplex with Bland's anti-cycling rule.  The
systems this package generates have far more rows than variables, so the
pivoting works on the dual standard form (one nonnegative multiplier per
row) after a presolve that eliminates equality rows by exact
substitution.  The presolve depends only on the rows, so it is a
:class:`Presolved` state built once per row tuple: the eliminations, the
reduced and deduplicated inequality rows with the weights that lift
their multipliers back, and those rows as integer-scaled dual columns
and costs.  A problem may carry the state of its rows (the rows a
constraint system is solved on, its complement quotient in pure mode,
keep one and hand it to every objective solved on them); otherwise
:func:`solve` builds it.  Only the objective is reduced per solve.
The solver sees only the rows it is given: mapping a system onto its
quotient and carrying certificates back is the caller's business.

Every status comes out of the same tableau on the same state.  An
unbounded dual means an infeasible primal.  An infeasible dual leaves
the primal infeasible or unbounded, and it is unbounded exactly when the
same rows with the zero objective solve to optimal.

The pivoting kernel is fraction-free: columns, right-hand side and
costs are scaled to integers, and the basis inverse is an integer
matrix Q over one positive common denominator D.  A pivot updates them
by the Bareiss rule, Q'[i] = (w_r*Q[i] - w_i*Q[r]) // D, whose division
is always exact, and the pivot element w_r becomes the new D (all signs
are flipped when it is negative, so D stays positive).  Every quantity
the pivot rule compares is the exact one times a positive factor, so
the pivot sequence is the one a rational basis inverse would make.
Only the final values are turned back into :class:`fractions.Fraction`:
primal values and per-row dual multipliers for the *original* problem
are reconstructed exactly and re-verified against every original row
(feasibility, sign conditions, the dual combination and a zero duality
gap, with the rows evaluated in integers over the common denominator of
the primal point) before an optimal status is returned.  Identical
problems produce identical pivot sequences and identical solutions,
whether or not their presolved state was shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple


class SimplexError(RuntimeError):
    """Internal solver invariant violation; indicates a bug, not bad input."""


def rat_str(value: Fraction) -> str:
    """Canonical "p/q" serialization (never floats)."""
    return f"{value.numerator}/{value.denominator}"


class LinearConstraint(NamedTuple):
    """Sparse rational row ``terms . x rel rhs``.

    ``terms`` pairs variable indices with nonzero coefficients in
    increasing index order.  Coefficients and ``rhs`` are ``int`` or
    ``Fraction``; every row this package generates is integral and
    holds plain ints.  ``id`` is unique within a problem and starts
    with the row's family, as in ``ssa:1;2|3``, so certificates that
    name rows stay meaningful after deduplication.
    """

    id: str
    terms: tuple[tuple[int, int | Fraction], ...]
    rel: str  # ">=" or "="
    rhs: int | Fraction

    @property
    def family(self) -> str:
        return self.id.split(":", 1)[0]

    def terms_dict(self) -> dict[int, int | Fraction]:
        return dict(self.terms)

    def evaluate(self, point: list | dict) -> int | Fraction:
        if isinstance(point, dict):
            return sum(c * point.get(v, 0) for v, c in self.terms)
        return sum(c * point[v] for v, c in self.terms)

    def satisfied_by(self, point) -> bool:
        val = self.evaluate(point)
        return val == self.rhs if self.rel == "=" else val >= self.rhs


@dataclass(frozen=True)
class LPProblem:
    """Minimize ``objective . x`` over free x subject to the rows.

    ``presolved`` may carry the :class:`Presolved` state of exactly this
    ``rows`` tuple, to share it with other objectives on the same rows.
    """

    num_vars: int
    objective: tuple[tuple[int, Fraction], ...]
    rows: tuple[LinearConstraint, ...]
    presolved: Presolved | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    primal: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None  # one multiplier per problem row
    pivots: int


@dataclass(frozen=True)
class Certificate:
    """Replayable nonnegative combination of rows proving a lower bound.

    The weighted sum of the referenced row forms equals ``objective`` and
    the weighted right-hand sides add up to at least ``claimed_bound``.
    """

    claimed_bound: Fraction
    entries: tuple[tuple[str, Fraction], ...]
    objective: tuple[tuple[int, Fraction], ...]
    description: str = ""


class _Presolve:
    """Exact elimination of equality rows by back-substitution.

    Each usable equality pins its highest-index variable.  Reduction of
    any form records which eliminations were applied with what weights,
    so dual multipliers of the reduced problem can be lifted to exact
    multipliers on the original equality rows.  Values stay ``int``
    while every division by a pivot coefficient comes out even.
    """

    def __init__(self) -> None:
        self.pivots: list[int] = []          # pivot variable per record
        self.coefs: list[int | Fraction] = []  # pivot coefficient per record
        self.rests: list[dict[int, int | Fraction]] = []
        self.rhss: list[int | Fraction] = []
        # record k as a combination of original equality-row indices
        self.trans: list[dict[int, int | Fraction]] = []

    def reduce_form(self, terms: dict, rhs) -> tuple[dict, int | Fraction, dict]:
        """Apply all recorded substitutions to ``terms . x >= rhs``.

        Returns the reduced terms, reduced rhs and the sparse weight
        vector t (record index -> weight) that was subtracted.
        """
        terms = dict(terms)
        weights = {}
        for k, pivot in enumerate(self.pivots):
            coef = terms.get(pivot)
            if not coef:
                terms.pop(pivot, None)
                continue
            t = _exact_div(coef, self.coefs[k])
            weights[k] = t
            del terms[pivot]
            for v, c in self.rests[k].items():
                nv = terms.get(v, 0) - t * c
                if nv:
                    terms[v] = nv
                else:
                    terms.pop(v, None)
            rhs = rhs - t * self.rhss[k]
        return terms, rhs, weights

    def add_equality(self, row_index: int, terms: dict, rhs) -> bool:
        """Digest one equality row; returns False on contradiction."""
        red_terms, red_rhs, weights = self.reduce_form(terms, rhs)
        combo = {row_index: 1}
        for k, t in weights.items():
            for j, w in self.trans[k].items():
                nv = combo.get(j, 0) - t * w
                if nv:
                    combo[j] = nv
                else:
                    combo.pop(j, None)
        if not red_terms:
            return red_rhs == 0  # redundant when 0 = 0, contradiction otherwise
        pivot = max(red_terms)
        coef = red_terms.pop(pivot)
        self.pivots.append(pivot)
        self.coefs.append(coef)
        self.rests.append(red_terms)
        self.rhss.append(red_rhs)
        self.trans.append(combo)
        return True

    def lift_primal(self, reduced: dict, num_vars: int) -> list[int | Fraction]:
        x = [0] * num_vars
        for v, val in reduced.items():
            x[v] = val
        for k in range(len(self.pivots) - 1, -1, -1):
            acc = self.rhss[k]
            for v, c in self.rests[k].items():
                if x[v]:
                    acc -= c * x[v]
            x[self.pivots[k]] = _exact_div(acc, self.coefs[k])
        return x

    def equality_duals(self, alpha: dict) -> dict:
        """Multipliers on original equality rows from record weights."""
        lam = {}
        for k, a in alpha.items():
            if not a:
                continue
            for j, w in self.trans[k].items():
                nv = lam.get(j, 0) + a * w
                if nv:
                    lam[j] = nv
                else:
                    lam.pop(j, None)
        return lam


def _exact_div(a, b):
    """``a / b`` as the ``int`` quotient when it is whole, else a ``Fraction``.

    Plain ``/`` on two ints would give a float.
    """
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


class Presolved:
    """Everything a solve derives from the rows alone, built once.

    Equality rows are eliminated; the inequality rows are reduced by
    those eliminations, and duplicates and rows that reduce to
    ``0 >= rhs`` with ``rhs <= 0`` are dropped.  Per reduced row,
    ``row_index``, ``weights`` and ``rhs`` keep its original row, the
    weights that lift its multiplier and its reduced right-hand side.
    ``var_pos`` numbers the variables the reduced rows contain, in
    increasing order.  Reduced row ``j`` times ``scales[j]`` (the lcm of
    its denominators) is the integer dual column ``cols[j]`` over those
    positions, with cost ``costs[j] = -rhs[j] * scales[j] * cost_scale``;
    positive column scalings change no pivot.  ``infeasible`` records
    contradictory equalities or a row that reduces to ``0 >= rhs > 0``;
    every solve on the rows is then infeasible.  Solves only read the
    state, so one state serves any number of objectives.
    """

    def __init__(self, rows: tuple[LinearConstraint, ...]) -> None:
        self.rows = rows
        self.eliminations = _Presolve()
        self.infeasible = False
        self.row_index: list[int] = []
        self.weights: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        self.var_pos: dict[int, int] = {}
        self.cols: list[list[tuple[int, int]]] = []
        self.scales: list[int] = []
        self.costs: list[int] = []
        self.cost_scale = 1

        for idx, row in enumerate(rows):
            if row.rel not in (">=", "="):
                raise ValueError(f"unsupported relation {row.rel!r} in row {row.id}")
            if not all(c for _, c in row.terms):
                raise ValueError(f"zero coefficient in row {row.id}")
            if row.rel == "=" and not self.eliminations.add_equality(idx, dict(row.terms), row.rhs):
                self.infeasible = True
                return

        reduced: list[tuple[tuple[int, Fraction], ...]] = []
        seen: set[tuple] = set()
        for idx, row in enumerate(rows):
            if row.rel == "=":
                continue
            terms, rhs, weights = self.eliminations.reduce_form(dict(row.terms), row.rhs)
            if not terms:
                if rhs > 0:
                    self.infeasible = True
                    return
                continue
            items = tuple(sorted(terms.items()))
            if (items, rhs) in seen:
                continue
            seen.add((items, rhs))
            reduced.append(items)
            self.row_index.append(idx)
            self.weights.append(weights)
            self.rhs.append(rhs)

        var_ids = sorted({v for items in reduced for v, _ in items})
        pos = self.var_pos = {v: i for i, v in enumerate(var_ids)}
        scaled_costs = []
        for items, rhs in zip(reduced, self.rhs):
            scale = _lcm_of_denominators(c for _, c in items)
            self.scales.append(scale)
            self.cols.append([(pos[v], _scaled(c, scale)) for v, c in items])
            scaled_costs.append(-rhs * scale)
        self.cost_scale = _lcm_of_denominators(scaled_costs)
        self.costs = [_scaled(c, self.cost_scale) for c in scaled_costs]


class _Tableau:
    """Revised simplex on equality standard form, fraction-free.

    minimize cost . u  subject to  M u = d, u >= 0, where columns are
    sparse.  Artificial variables open phase 1; Bland's rule (lowest
    eligible column index enters, lowest basis id leaves on ties) makes
    every run deterministic and cycle-free.  The columns are the dual
    columns of a :class:`Presolved` state and ``d`` the reduced objective,
    so a positive phase 1 value means the dual is infeasible and an
    unbounded phase 2 means the primal is.

    All pivoting is in integers, on the state's shared columns and costs
    and with ``d`` scaled by the lcm of its denominators.  The basis
    inverse is ``q / den`` and the basic values are ``x / den`` over one
    common denominator ``den`` (the basis determinant up to sign).  An
    equation with a negative ``d`` entry gets the artificial column
    ``-e_v`` instead of ``e_v``, so the start is ``q = diag(sign)`` and
    ``x = |d|``; that is the same as negating the equation, without
    touching the shared columns.  A pivot on ``w_r`` applies the Bareiss
    update ``q'[i] = (w_r*q[i] - w_i*q[r]) // den`` (and the same to
    ``x``), a division that is always exact, and ``w_r`` becomes the new
    denominator; when it is negative (possible only while driving out
    artificials) ``q``, ``x`` and ``den`` are negated so ``den`` stays
    positive.  Pricing uses the integer duals ``y = c_B q``, moved by one
    rank-one step per pivot.  Values, ratios and reduced costs are the
    exact ones times positive factors, so the pivot sequence is the one
    an explicit rational basis inverse would make; results turn back
    into ``Fraction`` only in :meth:`solution`, :meth:`multipliers` and
    :meth:`phase1_value`.
    """

    def __init__(self, state: Presolved, rhs: list[Fraction]) -> None:
        self.m = m = len(rhs)
        self.n = len(state.cols)
        self.cols, self.costs = state.cols, state.costs
        self.col_scale, self.cost_scale = state.scales, state.cost_scale
        self.rhs_scale = _lcm_of_denominators(rhs)
        self.x = [_scaled(r, self.rhs_scale) for r in rhs]
        self.q = [[0] * m for _ in range(m)]
        for v in range(m):
            sign = -1 if self.x[v] < 0 else 1
            self.q[v][v] = sign
            self.x[v] *= sign
        self.den = 1
        self.basis = [self.n + v for v in range(m)]  # artificial ids
        self.pivots = 0

    def _column(self, j: int) -> list[int]:
        """``den`` times the entering column in basis coordinates."""
        w = [0] * self.m
        for v, c in self.cols[j]:
            w = [a + c * row[v] for a, row in zip(w, self.q)]
        return w

    def _duals(self, phase: int) -> list[int]:
        """``y = c_B q``: ``den`` times the simplex multipliers."""
        y = [0] * self.m
        for i, b in enumerate(self.basis):
            if phase == 1:
                cb = 1 if b >= self.n else 0
            else:
                cb = 0 if b >= self.n else self.costs[b]
            if cb:
                y = [a + cb * qv for a, qv in zip(y, self.q[i])]
        return y

    def run(self, phase: int, max_iters: int = 2_000_000) -> str:
        """Pivot until optimal or unbounded; returns the stop reason."""
        cols = self.cols
        costs = self.costs
        y = self._duals(phase)
        in_basis = set(self.basis)
        for _ in range(max_iters):
            den = self.den
            entering = -1
            for j in range(self.n):  # artificials never re-enter
                if j in in_basis:
                    continue
                red = den * costs[j] if phase == 2 else 0
                for v, c in cols[j]:
                    red -= y[v] * c
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            w = self._column(entering)
            x = self.x
            basis = self.basis
            leave = -1
            for i in range(self.m):
                wi = w[i]
                if wi > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # x[i]/wi against x[leave]/w[leave], cross-multiplied
                    lhs = x[i] * w[leave]
                    rhs = x[leave] * wi
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded"
            wr = w[leave]
            y = [(wr * a + red * b) // den for a, b in zip(y, self.q[leave])]
            in_basis.discard(basis[leave])
            in_basis.add(entering)
            self._pivot(entering, leave, w)
        raise SimplexError("iteration limit exceeded")

    def _pivot(self, entering: int, leave: int, w: list[int]) -> None:
        q, x, den = self.q, self.x, self.den
        wr = w[leave]
        qr = q[leave]
        xr = x[leave]
        for i, wi in enumerate(w):
            if i == leave:
                continue
            if wi:
                q[i] = [(wr * a - wi * b) // den for a, b in zip(q[i], qr)]
                x[i] = (wr * x[i] - wi * xr) // den
            elif wr != den:
                q[i] = [wr * a // den for a in q[i]]
                x[i] = wr * x[i] // den
        if wr < 0:
            self.q = [[-a for a in row] for row in q]
            self.x = [-a for a in x]
            wr = -wr
        self.den = wr
        self.basis[leave] = entering
        self.pivots += 1

    def phase1_value(self) -> Fraction:
        total = sum(self.x[i] for i in range(self.m) if self.basis[i] >= self.n)
        return Fraction(total, self.den * self.rhs_scale)

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials onto real columns.

        Must run between the phases: a later pivot may not move an
        artificial away from zero.  Rows where every real column has a
        zero entry are redundant equations; their artificial stays basic
        at zero and no ratio test can ever touch the row again.  The
        pivot element here may be negative; :meth:`_pivot` then flips
        the signs so the common denominator stays positive.
        """
        in_basis = set(self.basis)
        for i in range(self.m):
            if self.basis[i] < self.n:
                continue
            if self.x[i] != 0:
                raise SimplexError("positive artificial after phase 1")
            row = self.q[i]
            for j in range(self.n):
                if j in in_basis:
                    continue
                if sum(row[v] * c for v, c in self.cols[j]):
                    self._pivot(j, i, self._column(j))
                    in_basis = set(self.basis)
                    break

    def solution(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, b in enumerate(self.basis):
            if b < self.n and self.x[i]:
                out[b] = Fraction(self.x[i] * self.col_scale[b], self.den * self.rhs_scale)
        return out

    def multipliers(self) -> list[Fraction]:
        """Row multipliers -pi of the equations (phase 2)."""
        scale = self.den * self.cost_scale
        return [Fraction(-y, scale) for y in self._duals(2)]


def _lcm_of_denominators(values) -> int:
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return scale


def _scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` for a multiple ``scale`` of its denominator."""
    return value.numerator * (scale // value.denominator)


def solve(problem: LPProblem) -> LPSolution:
    """Exact optimum of the problem with primal point and row duals.

    Statuses are ``optimal`` (with a strong-duality-checked solution),
    ``infeasible`` and ``unbounded``; arithmetic is exact, so there are
    no tolerance failures.  The problem's ``presolved`` state is used
    when present and must have been built from ``problem.rows`` itself;
    otherwise the state is built here.
    """
    state = problem.presolved
    if state is None:
        state = Presolved(problem.rows)
    elif state.rows is not problem.rows:
        raise ValueError("presolved state was built from a different row tuple")
    if state.infeasible:
        return LPSolution("infeasible", None, None, None, 0)

    red_obj, obj_offset_neg, obj_weights = state.eliminations.reduce_form(
        dict(problem.objective), 0
    )
    # reduce_form treats the constant like a rhs: c.x = red.x - obj_offset_neg
    obj_offset = -obj_offset_neg

    if any(c and v not in state.var_pos for v, c in red_obj.items()):
        # the objective keeps a variable no reduced row contains: its dual
        # equation has no column, so the dual has no feasible point
        return _infeasible_or_unbounded(problem, state, 0)

    tableau = _Tableau(state, [red_obj.get(v, 0) for v in state.var_pos])
    if tableau.run(1) != "optimal":
        raise SimplexError("phase 1 cannot be unbounded")
    if tableau.phase1_value() != 0:
        return _infeasible_or_unbounded(problem, state, tableau.pivots)
    tableau.drive_out_artificials()
    reason = tableau.run(2)
    pivots = tableau.pivots
    if reason == "unbounded":
        return LPSolution("infeasible", None, None, None, pivots)
    row_duals = tableau.solution()
    mult = tableau.multipliers()
    reduced_primal = {v: mult[i] for v, i in state.var_pos.items() if mult[i]}
    value = Fraction(obj_offset + sum(u * state.rhs[j] for j, u in row_duals.items()))

    x = state.eliminations.lift_primal(reduced_primal, problem.num_vars)

    alpha = dict(obj_weights)
    duals = [0] * len(problem.rows)
    for j in sorted(row_duals):
        uj = row_duals[j]
        duals[state.row_index[j]] = uj
        for k, t in state.weights[j].items():
            nv = alpha.get(k, 0) - uj * t
            if nv:
                alpha[k] = nv
            else:
                alpha.pop(k, None)
    for j, lam in state.eliminations.equality_duals(alpha).items():
        duals[j] = lam

    _verify_optimal(problem, x, duals, value)
    return LPSolution("optimal", value, tuple(x), tuple(duals), pivots)


def _infeasible_or_unbounded(problem: LPProblem, state: Presolved, pivots: int) -> LPSolution:
    """Infeasible or unbounded, for a problem whose dual is infeasible.

    It is unbounded exactly when the rows have a feasible point, that is
    when the zero objective, whose dual is feasible at ``u = 0``, solves
    to a verified optimum on the same state.
    """
    feasibility = solve(LPProblem(problem.num_vars, (), problem.rows, state))
    status = "unbounded" if feasibility.status == "optimal" else "infeasible"
    return LPSolution(status, None, None, None, pivots + feasibility.pivots)


def _verify_optimal(
    problem: LPProblem,
    x: list[int | Fraction],
    duals: list[int | Fraction],
    value: Fraction,
) -> None:
    """Exact post-checks against every row of the problem.

    Primal feasibility, nonnegative multipliers on inequalities, a dual
    combination equal to the objective, and a zero duality gap.  ``xs``
    is ``x`` times its common denominator ``scale``, so on integral rows
    ``lhs = (row . x) * scale`` is summed in ints, with no ``Fraction``
    per term; the dual combination is a :func:`weighted_sum`, in ints too.
    """
    scale = _lcm_of_denominators(x)
    xs = [_scaled(v, scale) for v in x]
    for row, u in zip(problem.rows, duals):
        lhs = 0
        for v, c in row.terms:
            lhs += c * xs[v]
        target = row.rhs * scale
        if row.rel == "=":
            if lhs != target:
                raise SimplexError(f"primal violates equality {row.id}")
        elif lhs < target:
            raise SimplexError(f"primal violates inequality {row.id}")
        if u < 0 and row.rel != "=":
            raise SimplexError(f"negative multiplier on inequality {row.id}")
    combo, rhs_total, dual_scale = weighted_sum(zip(duals, problem.rows))
    if combo != {v: c * dual_scale for v, c in problem.objective if c}:
        raise SimplexError("dual combination does not reproduce the objective")
    primal_value = sum(c * x[v] for v, c in problem.objective)
    if primal_value != value or rhs_total != value * dual_scale:
        raise SimplexError("duality gap is not zero")


def weighted_sum(pairs) -> tuple[dict[int, int | Fraction], int | Fraction, int]:
    """``scale`` times the sum of ``u * row`` over ``(u, row)`` pairs.

    ``scale`` is the lcm of the multipliers' denominators, so each
    multiplier becomes the integer ``u * scale`` and, on integral rows,
    every product and sum is an ``int``.  Returns the combined terms with
    zeros dropped, the combined right-hand side and ``scale``.
    """
    pairs = [(u, row) for u, row in pairs if u]
    scale = _lcm_of_denominators(u for u, _ in pairs)
    combo: dict = {}
    rhs = 0
    for u, row in pairs:
        w = _scaled(u, scale)
        rhs += w * row.rhs
        for v, c in row.terms:
            combo[v] = combo.get(v, 0) + w * c
    return {v: c for v, c in combo.items() if c}, rhs, scale


def extract_certificate(
    problem: LPProblem, solution: LPSolution, description: str = ""
) -> Certificate:
    """Nonnegative combination of rows reconstructing objective and value."""
    if solution.status != "optimal":
        raise ValueError("certificates exist only for optimal solves")
    entries = tuple(
        (row.id, u)
        for row, u in zip(problem.rows, solution.duals)
        if u
    )
    return Certificate(
        claimed_bound=solution.value,
        entries=entries,
        objective=problem.objective,
        description=description,
    )
