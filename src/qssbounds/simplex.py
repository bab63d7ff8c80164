"""Exact rational linear programming with verifiable duals.

Problems are minimizations of a sparse rational form over free variables
subject to ``>=`` rows; a row of any other relation is refused.
Equalities are eliminated before the solve: for the prover,
``cone.Quotient`` folds every one (purity, the scheme rows,
``normalize``) into its variables, and for the raw LPs of the tests the
reference elimination in ``tests/helpers.py`` folds them and lifts the
solution back.  There is no floating point anywhere in the solve path,
so optima such as 3/2 are proved rather than approximated.  A row is a
:class:`LinearConstraint` named tuple whose numbers are ``int`` or
``Fraction``.  The rows this package generates are all ints, and the
post-solve stays in ints: the optimum is the one ``Fraction`` a solve
builds; every sparse row update goes through :func:`add_scaled`.

The solver is a two-phase simplex with Bland's anti-cycling rule.  The
systems this package generates have far more rows than variables, so the
pivoting works on the dual standard form (one nonnegative multiplier per
row).  That form depends only on the rows, so it is one
:class:`Presolved` state per row tuple: the checked and deduplicated
rows as integer-scaled dual columns and costs.  A problem may carry the
state of its rows (a quotient shares one between objectives); otherwise
:func:`solve` builds it.  The solver sees only the rows it is given and
returns a value, a point and one multiplier per row: mapping a system
onto its quotient, turning multipliers into a certificate and printing
rationals are the caller's business.

The costs of the dual form come from the rows alone and an objective
only sets its right-hand side, so an optimal basis for one objective
stays dual-feasible for every other objective on the same state.  A
:class:`Session`, which the caller opens and passes to :func:`solve`
with each problem, keeps that basis and nothing else: the next
objective on the same state restarts from it and runs a dual simplex
(dual steepest edge, falling back to the dual Bland rule after a run of
degenerate pivots) instead of two phases from an all-artificial basis.
Without a session every solve is cold.

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
The primal point and the per-row multipliers are read off the tableau
as integers over one positive denominator each, and checked in integers
against every row (feasibility, sign conditions, the dual combination
and a zero duality gap) before an optimal status is returned;
``Fraction`` tuples are built only when read.  Identical problems
solved cold produce identical pivot sequences and identical solutions,
whether or not their presolved state was shared; solved in a session,
the same holds for the same sequence of objectives on a fresh session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


#: Pivots one phase of a tableau may make before the solve is abandoned.
MAX_ITERATIONS = 2_000_000

#: Consecutive degenerate dual pivots after which the dual Bland rule takes over.
DEGENERATE_RUN = 500

# what the variable indices of a row and of an objective must be
_INCREASING = "nonnegative and strictly increasing"


class SimplexError(RuntimeError):
    """Internal solver invariant violation; indicates a bug, not bad input."""


class LinearConstraint(NamedTuple):
    """Sparse rational row ``terms . x rel rhs``.

    ``terms`` pairs variable indices with nonzero coefficients in
    increasing index order.  Coefficients and ``rhs`` are ``int`` or
    ``Fraction``; every row this package generates is integral and
    holds plain ints.  ``rel`` is ``>=`` or ``=``: the solver takes
    ``>=`` rows only, and certificate replay reads both.  ``id`` is
    unique within a problem and starts with the row's family, as in
    ``ssa:1;2|3``, so certificates that name rows stay meaningful after
    deduplication.
    """

    id: str
    terms: tuple[tuple[int, int | Fraction], ...]
    rel: str  # ">=" or "="
    rhs: int | Fraction

    @property
    def family(self) -> str:
        return self.id.split(":", 1)[0]

    def satisfied_by(self, point: dict) -> bool:
        val = sum(c * point.get(v, 0) for v, c in self.terms)
        return val == self.rhs if self.rel == "=" else val >= self.rhs


@dataclass(frozen=True)
class LPProblem:
    """Minimize ``objective . x`` over free x subject to the ``>=`` rows.

    The objective pairs variable indices with coefficients in increasing
    index order, as a row's ``terms`` do, and every index is below
    ``num_vars``.  ``presolved`` may carry the :class:`Presolved` state
    of exactly this ``rows`` tuple, to share it with other objectives on
    the same rows.
    """

    num_vars: int
    objective: tuple[tuple[int, Fraction], ...]
    rows: tuple[LinearConstraint, ...]
    presolved: Presolved | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LPSolution:
    """A solve's status, pivot count and, when optimal, its verified optimum.

    ``point`` and ``multipliers`` (one per row) are ``(numerators,
    denominator)`` pairs of ints, and ``==`` compares these pairs;
    ``primal`` and ``duals`` build their ``Fraction`` tuples on first read.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[tuple[int, ...], int] | None
    multipliers: tuple[tuple[int, ...], int] | None
    pivots: int

    @cached_property
    def primal(self) -> tuple[Fraction, ...] | None:
        return _fractions(self.point)

    @cached_property
    def duals(self) -> tuple[Fraction, ...] | None:
        return _fractions(self.multipliers)


def _fractions(scaled: tuple[tuple[int, ...], int] | None) -> tuple[Fraction, ...] | None:
    return None if scaled is None else tuple(Fraction(n, scaled[1]) for n in scaled[0])


def add_scaled(acc: dict, terms, factor) -> None:
    """``acc += factor * terms`` for ``(key, coefficient)`` pairs.

    Keys whose sum cancels are dropped, and int sums stay ints.
    """
    for k, c in terms:
        nv = acc.get(k, 0) + factor * c
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)


class Presolved:
    """Everything a solve derives from the rows alone, built once per row tuple.

    Every row must be a ``>=`` row whose variables are nonnegative and
    strictly increasing, with no zero coefficient; anything else is a
    ``ValueError``.  Duplicate rows and rows ``0 >= rhs`` with ``rhs <=
    0`` are dropped.  Per kept row, ``row_index`` and ``rhs`` keep its
    index in ``rows`` and its right-hand side.  ``var_pos`` numbers the
    variables the kept rows contain, in increasing order.  Kept row ``j``
    times ``scales[j]`` (the lcm of its denominators) is the integer dual
    column ``cols[j]`` over those positions, with cost ``costs[j] =
    -rhs[j] * scales[j] * cost_scale``; positive column scalings change
    no pivot.  ``infeasible`` records a row ``0 >= rhs`` with ``rhs >
    0``; every solve on the rows is then infeasible.  Solves only read
    the state, so one state serves any number of objectives.
    """

    def __init__(self, rows: tuple[LinearConstraint, ...]) -> None:
        self.rows = rows
        self.infeasible = False
        kept = {}  # (terms, rhs) -> row index, first row first
        for idx, (rid, terms, rel, rhs) in enumerate(rows):
            if rel != ">=":
                raise ValueError(f"unsupported relation {rel!r} in row {rid}")
            prev = -1
            for v, c in terms:
                if not c:
                    raise ValueError(f"zero coefficient in row {rid}")
                if v <= prev:
                    raise ValueError(f"variables of row {rid} are not {_INCREASING}")
                prev = v
            if terms:
                kept.setdefault((terms, rhs), idx)
            elif rhs > 0:
                self.infeasible = True
        variables = sorted({v for terms, _ in kept for v, _ in terms})
        self.var_pos = pos = {v: i for i, v in enumerate(variables)}
        self.scales = [_lcm_of_denominators([c for _, c in terms]) for terms, _ in kept]
        self.cols = [
            tuple([(pos[v], _scaled(c, scale)) for v, c in terms])
            for (terms, _), scale in zip(kept, self.scales)
        ]
        self.rhs = [rhs for _, rhs in kept]
        self.row_index = list(kept.values())
        scaled_costs = [-rhs * scale for rhs, scale in zip(self.rhs, self.scales)]
        self.cost_scale = _lcm_of_denominators(scaled_costs)
        self.costs = [_scaled(c, self.cost_scale) for c in scaled_costs]


class _Tableau:
    """Revised simplex on equality standard form, fraction-free.

    minimize cost . u  subject to  M u = d, u >= 0, where columns are
    sparse.  Artificial variables open phase 1; Bland's rule (lowest
    eligible column index enters, lowest basis id leaves on ties) makes
    every run deterministic and cycle-free.  The columns are the dual
    columns of a :class:`Presolved` state and ``d`` the objective,
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
    denominator; a negative ``w_r`` (while driving out artificials, and on
    every dual pivot) and the pivot row are negated first, so ``den``
    stays positive.  Pricing uses the integer duals ``y = c_B q``, kept on
    the tableau: :meth:`run` computes them for its phase and each pivot of
    :meth:`run` and :meth:`dual_run` moves them by one rank-one step, so
    after phase 2 they stay current (:meth:`restart` changes neither ``q``
    nor ``y``) and :meth:`dual_run` and :meth:`multipliers` read them as
    they are.  Values, ratios and reduced costs are the exact ones times
    positive factors, so the pivot sequence is the one an explicit
    rational basis inverse would make; the results stay integers over a
    common denominator.  After phase 2 the basis is
    dual-feasible for every ``d``: :meth:`restart` takes a new one and
    :meth:`dual_run` re-optimises from there.
    """

    def __init__(self, state: Presolved, rhs: list[Fraction]) -> None:
        self.state = state
        self.m = m = len(rhs)
        self.n = len(state.cols)
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
        for v, c in self.state.cols[j]:
            w = [a + c * row[v] for a, row in zip(w, self.q)]
        return w

    def _duals(self, phase: int) -> list[int]:
        """``y = c_B q``: ``den`` times the simplex multipliers."""
        y = [0] * self.m
        for i, b in enumerate(self.basis):
            if phase == 1:
                cb = 1 if b >= self.n else 0
            else:
                cb = 0 if b >= self.n else self.state.costs[b]
            if cb:
                y = [a + cb * qv for a, qv in zip(y, self.q[i])]
        return y

    def run(self, phase: int) -> str:
        """Pivot until optimal or unbounded; returns the stop reason."""
        cols, costs = self.state.cols, self.state.costs
        self.y = y = self._duals(phase)
        in_basis = set(self.basis)
        for _ in range(MAX_ITERATIONS):
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
            self.y = y = [(wr * a + red * b) // den for a, b in zip(y, self.q[leave])]
            in_basis.discard(basis[leave])
            in_basis.add(entering)
            self._pivot(entering, leave, w)
        raise SimplexError("iteration limit exceeded")

    def _pivot(self, entering: int, leave: int, w: list[int]) -> None:
        q, x, den = self.q, self.x, self.den
        wr = w[leave]
        if wr < 0:
            # negating the pivot row and w_r negates every updated row
            wr = -wr
            q[leave] = [-a for a in q[leave]]
            x[leave] = -x[leave]
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
        self.den = wr
        self.basis[leave] = entering
        self.pivots += 1

    def restart(self, rhs: list[Fraction]) -> None:
        """Keep the basis and recompute the basic values for a new ``d``."""
        self.rhs_scale = _lcm_of_denominators(rhs)
        d = [(v, _scaled(r, self.rhs_scale)) for v, r in enumerate(rhs) if r]
        self.x = [sum(row[v] * dv for v, dv in d) for row in self.q]
        self.pivots = 0

    def dual_run(self) -> str:
        """Dual simplex from a dual-feasible phase-2 basis.

        Returns ``optimal`` once every basic value is nonnegative, or
        ``infeasible`` when ``M u = d, u >= 0`` has no solution: a basic
        artificial (whose row of ``q`` is orthogonal to every column) has
        a nonzero value, or a leaving row has no entering column.  The
        leaving row has the largest ``x_i**2 / |q_i|**2`` among negative
        values (dual steepest edge, with exact row norms of the basis
        inverse); after :data:`DEGENERATE_RUN` consecutive pivots that
        leave the dual objective unchanged it is the lowest basis id
        instead (the dual Bland rule) until a pivot makes progress.  The
        entering column wins the ratio test ``red_j / -alpha_j``, ties
        going to the lowest index.  Pivot elements are negative, so
        :meth:`_pivot` flips the signs and ``y`` is flipped with them.
        """
        n, cols, costs, basis = self.n, self.state.cols, self.state.costs, self.basis
        if any(xi for xi, b in zip(self.x, basis) if b >= n):
            return "infeasible"
        y = self.y
        degenerate = 0
        for _ in range(MAX_ITERATIONS):
            q, x, den = self.q, self.x, self.den
            leave, leave_norm = -1, 0
            for i, xi in enumerate(x):
                if xi >= 0:
                    continue
                if degenerate >= DEGENERATE_RUN:
                    if leave < 0 or basis[i] < basis[leave]:
                        leave = i
                    continue
                norm = sum(a * a for a in q[i])
                if leave >= 0:
                    # x_i^2/norm_i against x_leave^2/norm_leave, cross-multiplied
                    lhs = xi * xi * leave_norm
                    rhs = x[leave] * x[leave] * norm
                    if lhs < rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, leave_norm = i, norm
            if leave < 0:
                return "optimal"
            qr = q[leave]
            entering, red, alpha = -1, 0, 0
            for j, col in enumerate(cols):  # a basic column has a = den or 0
                a = 0
                for v, c in col:
                    a += qr[v] * c
                if a >= 0:
                    continue
                rj = den * costs[j]
                for v, c in col:
                    rj -= y[v] * c
                # rj/-a against red/-alpha, cross-multiplied
                if entering < 0 or rj * alpha > red * a:
                    entering, red, alpha = j, rj, a
            if entering < 0:
                return "infeasible"
            degenerate = degenerate + 1 if red == 0 else 0
            # the rank-one dual update of run(), negated with the pivot
            self.y = y = [(-alpha * a - red * b) // den for a, b in zip(y, qr)]
            self._pivot(entering, leave, self._column(entering))
        raise SimplexError("iteration limit exceeded")

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
                if sum(row[v] * c for v, c in self.state.cols[j]):
                    self._pivot(j, i, self._column(j))
                    in_basis = set(self.basis)
                    break

    def solution(self) -> tuple[dict[int, int], int]:
        """Nonzero basic ``u`` by column, as numerators over their denominator."""
        u = {b: xi * self.state.scales[b] for b, xi in zip(self.basis, self.x) if xi and b < self.n}
        return u, self.den * self.rhs_scale

    def multipliers(self) -> tuple[list[int], int]:
        """Row multipliers -pi of the equations (phase 2), over their denominator."""
        return [-y for y in self.y], self.den * self.state.cost_scale


class Session:
    """A warm-start basis for successive objectives on one presolved state.

    The caller opens a session and passes it to :func:`solve` with each
    problem; the first optimal solve leaves its dual-feasible tableau
    here, and the session then refuses a problem on any other state.  It
    keeps nothing else and lives as long as the caller holds it.
    """

    def __init__(self) -> None:
        self.tableau: _Tableau | None = None


def _lcm_of_denominators(values) -> int:
    return math.lcm(*[v.denominator for v in values])


def _scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` for a multiple ``scale`` of its denominator."""
    return value.numerator * (scale // value.denominator)


def solve(problem: LPProblem, session: Session | None = None) -> LPSolution:
    """Exact optimum of the problem with primal point and row duals.

    Statuses are ``optimal`` (with a strong-duality-checked solution),
    ``infeasible`` and ``unbounded``; arithmetic is exact, so there are
    no tolerance failures.  Every row must be a ``>=`` row (see
    :class:`Presolved`), the objective's variables must be nonnegative
    and strictly increasing, and every variable must be below
    ``num_vars``; anything else is a ``ValueError``.  The problem's
    ``presolved`` state is used when present and must have been built
    from ``problem.rows`` itself; otherwise the state is built here.
    With a ``session`` the solve restarts from the session's basis when
    it has one, which must be a basis on the same state, and leaves its
    own dual-feasible basis there.
    """
    state = problem.presolved
    if state is None:
        state = Presolved(problem.rows)
    elif state.rows is not problem.rows:
        raise ValueError("presolved state was built from a different row tuple")
    prev = -1
    for v, _ in problem.objective:
        if v <= prev:
            raise ValueError(f"variables of the objective are not {_INCREASING}")
        prev = v
    top = max(prev, next(reversed(state.var_pos), -1))
    if top >= problem.num_vars:
        raise ValueError(f"variable {top} is not below num_vars {problem.num_vars}")
    tableau = session.tableau if session is not None else None
    if tableau is not None and tableau.state is not state:
        raise ValueError("session holds a basis of a different presolved state")
    if state.infeasible:
        return LPSolution("infeasible", None, None, None, 0)

    objective = dict(problem.objective)
    if any(c and v not in state.var_pos for v, c in objective.items()):
        # the objective has a variable no row contains: its dual equation
        # has no column, so the dual has no feasible point
        return _infeasible_or_unbounded(problem, state, 0, session)

    rhs = [objective.get(v, 0) for v in state.var_pos]
    if tableau is not None:
        tableau.restart(rhs)
        if tableau.dual_run() != "optimal":
            return _infeasible_or_unbounded(problem, state, tableau.pivots, session)
    else:
        tableau = _Tableau(state, rhs)
        if tableau.run(1) != "optimal":
            raise SimplexError("phase 1 cannot be unbounded")
        if any(xi for xi, b in zip(tableau.x, tableau.basis) if b >= tableau.n):
            return _infeasible_or_unbounded(problem, state, tableau.pivots, session)
        tableau.drive_out_artificials()
        if tableau.run(2) == "unbounded":
            return LPSolution("infeasible", None, None, None, tableau.pivots)
        if session is not None:
            session.tableau = tableau
    row_duals, dual_den = tableau.solution()
    mult, primal_den = tableau.multipliers()
    x = [0] * problem.num_vars
    for v, i in state.var_pos.items():
        x[v] = mult[i]
    value = Fraction(sum(u * state.rhs[j] for j, u in row_duals.items()), dual_den)
    duals = [0] * len(problem.rows)
    for j, u in row_duals.items():
        duals[state.row_index[j]] = u

    _verify_optimal(problem, x, primal_den, duals, dual_den, value)
    point, multipliers = (tuple(x), primal_den), (tuple(duals), dual_den)
    return LPSolution("optimal", value, point, multipliers, tableau.pivots)


def _infeasible_or_unbounded(
    problem: LPProblem, state: Presolved, pivots: int, session: Session | None
) -> LPSolution:
    """Infeasible or unbounded, for a problem whose dual is infeasible.

    It is unbounded exactly when the rows have a feasible point, that is
    when the zero objective, whose dual is feasible at ``u = 0``, solves
    to a verified optimum on the same state (in the same session, where
    a dual-feasible basis is already optimal for it).
    """
    feasibility = solve(LPProblem(problem.num_vars, (), problem.rows, state), session)
    status = "unbounded" if feasibility.status == "optimal" else "infeasible"
    return LPSolution(status, None, None, None, pivots + feasibility.pivots)


def _verify_optimal(
    problem: LPProblem, x: list[int], x_den: int, duals: list[int], dual_den: int, value: Fraction
) -> None:
    """Exact post-checks against every row of the problem.

    Primal feasibility, nonnegative multipliers, a dual combination
    equal to the objective, and a zero duality gap, for the point ``x /
    x_den`` and multipliers ``duals / dual_den`` (ints over positive
    denominators), with every sum in ints on integral rows.
    """
    combo, rhs_total = {}, 0
    for (rid, terms, _, rhs), u in zip(problem.rows, duals):
        lhs = 0
        for v, c in terms:
            lhs += c * x[v]
        if lhs < rhs * x_den:
            raise SimplexError(f"primal violates inequality {rid}")
        if u:
            if u < 0:
                raise SimplexError(f"negative multiplier on inequality {rid}")
            rhs_total += u * rhs
            add_scaled(combo, terms, u)
    if combo != {v: c * dual_den for v, c in problem.objective if c}:
        raise SimplexError("dual combination does not reproduce the objective")
    primal_value = sum(c * x[v] for v, c in problem.objective)
    p, q = value.numerator, value.denominator
    if primal_value * q != p * x_den or rhs_total * q != p * dual_den:
        raise SimplexError("duality gap is not zero")
