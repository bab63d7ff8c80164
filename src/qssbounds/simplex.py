"""Exact rational linear programming with verifiable duals.

Problems are minimizations of a sparse rational form over free variables
subject to ``>=`` rows; a row of any other relation is refused.
Equalities are eliminated before the solve: for the prover,
``cone.Quotient`` folds every one (purity, the scheme rows,
``normalize``) into its variables, and for the raw LPs of the tests the
reference elimination in ``tests/helpers.py`` folds them and lifts the
solution back.  There is no floating point anywhere in the solve path,
so optima such as 3/2 are proved rather than approximated.  A row is a
:class:`LinearConstraint` named tuple of ints (:class:`Presolved`
refuses any other number), and only the objective may be rational.
The post-solve stays in ints: the optimum is the one ``Fraction`` a
solve builds; every sparse row update goes through :func:`add_scaled`.

The systems this package generates have far more rows than variables,
so the simplex pivots on the dual standard form (one nonnegative
multiplier per row).  That form depends only on the rows, so it is one
:class:`Presolved` state per row tuple: the checked and deduplicated
rows as dual columns and costs.  A problem may carry the state of its
rows (a quotient shares one between objectives); otherwise
:func:`solve` builds it.  The solver sees only the rows it is given and
returns a value, a point and one multiplier per row: mapping a system
onto its quotient, turning multipliers into a certificate and printing
rationals are the caller's business.

The costs of the dual form come from the rows alone and an objective
only sets its right-hand side, so a dual-feasible basis for one
objective is dual-feasible for every other on the same state.  Every
solve runs in a :class:`Session`, the caller's or a fresh one, so a
cold solve is a fresh session's first objective.  A session finds its
basis once, with the zero objective: Bland's rule with the real costs,
from unit columns (such as the ``nonneg`` rows of the prover's LPs) or
artificials, where every pivot is degenerate.  Every objective then
restarts from that basis and runs a dual simplex (dual steepest edge,
falling back to the dual Bland rule after a run of degenerate pivots).

Every status comes out of that one tableau.  An unbounded zero phase is
a Farkas ray: the rows are infeasible.  Otherwise they are feasible, and
an objective is unbounded exactly when its dual is infeasible.

The pivoting kernel is fraction-free: the columns and costs are the
rows' ints, the objective is scaled to integers, and the basis inverse
is an integer matrix Q over one positive common denominator D.  A pivot updates them
by the Bareiss rule, Q'[i] = (w_r*Q[i] - w_i*Q[r]) // D, whose division
is always exact, and the pivot element w_r becomes the new D (all signs
are flipped when it is negative, so D stays positive).  Most pivots have
w_r = D, where the rule is Q[i][k] -= w_i*Q[r][k] // D, so they update Q
and the duals on the nonzero entries of the pivot row only.  Every
quantity the pivot rule compares is the exact one times a positive
factor, so the pivot sequence is the one a rational basis inverse would
make.
The primal point and the per-row multipliers are read off the tableau
as integers over one positive denominator each, and checked in integers
against every row (feasibility, sign conditions, the dual combination
and a zero duality gap) before an optimal status is returned;
``Fraction`` tuples are built only when read.  Identical problems
solved cold produce identical pivot sequences and identical solutions,
whether or not their presolved state was shared, and so does the same
sequence of objectives on a fresh session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


#: Pivots one run of a tableau (the zero phase, or one dual run) may make
#: before the solve is abandoned.
MAX_ITERATIONS = 2_000_000

#: Consecutive degenerate dual pivots after which the dual Bland rule takes over.
DEGENERATE_RUN = 500

# what the variable indices of a row and of an objective must be
_INCREASING = "nonnegative and strictly increasing"


class SimplexError(RuntimeError):
    """Internal solver invariant violation; indicates a bug, not bad input."""


class LinearConstraint(NamedTuple):
    """Sparse row ``terms . x rel rhs``.

    ``terms`` pairs variable indices with nonzero coefficients in
    increasing index order.  ``rel`` is ``>=`` or ``=``: the solver
    takes ``>=`` rows of ints only, and certificate replay reads both.
    Every row this package generates holds plain ints.  ``id`` is
    unique within a problem and starts with the row's family, as in
    ``ssa:1;2|3``, so certificates that name rows stay meaningful after
    deduplication.
    """

    id: str
    terms: tuple[tuple[int, int], ...]
    rel: str  # ">=" or "="
    rhs: int

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
    strictly increasing, with no zero coefficient, and whose coefficients
    and right-hand side are ``int`` (not ``Fraction``, ``float`` or
    ``bool``); anything else is a ``ValueError`` that names the row.
    Duplicate rows and rows ``0 >= rhs`` with ``rhs <= 0`` are dropped.
    Per kept row, ``row_index`` keeps its index in ``rows``.  ``var_pos``
    numbers the variables the kept rows contain, in increasing order.
    Kept row ``j`` is the dual column ``cols[j]`` over those positions,
    its coefficients as they are, with cost ``costs[j] = -rhs``.
    ``infeasible`` records a row ``0 >= rhs`` with ``rhs > 0``; every
    solve on the rows is then infeasible.  Solves only read the state,
    so one state serves any number of objectives.
    """

    def __init__(self, rows: tuple[LinearConstraint, ...]) -> None:
        self.rows = rows
        self.infeasible = False
        kept = {}  # (terms, rhs) -> row index, first row first
        for idx, (rid, terms, rel, rhs) in enumerate(rows):
            if rel != ">=":
                raise ValueError(f"unsupported relation {rel!r} in row {rid}")
            if type(rhs) is not int:
                raise ValueError(f"right-hand side {rhs!r} of row {rid} is not an int")
            prev = -1
            for v, c in terms:
                if type(c) is not int:
                    raise ValueError(f"coefficient {c!r} in row {rid} is not an int")
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
        self.cols = [tuple([(pos[v], c) for v, c in terms]) for terms, _ in kept]
        self.costs = [-rhs for _, rhs in kept]
        self.row_index = list(kept.values())


class _Tableau:
    """Revised simplex on equality standard form, fraction-free.

    minimize cost . u  subject to  M u = d, u >= 0, where columns are
    sparse.  The columns are the dual columns of a :class:`Presolved`
    state and ``d`` the objective, so an unbounded dual means an
    infeasible primal and an infeasible dual one that is infeasible or
    unbounded.

    A tableau starts at ``d = 0``, where every basis is primal-feasible:
    equation ``v`` on the lowest-index column equal to ``e_v``, or on its
    artificial, so ``q = I``, ``den = 1`` and ``x = 0``.
    :meth:`drive_out_artificials` and Bland's rule (:meth:`run`; lowest
    eligible column index enters, lowest basis id leaves on ties) follow,
    with degenerate pivots only.  ``unbounded`` there is a ray ``u >= 0``
    with ``M u = 0`` and negative cost, so the rows are infeasible;
    ``optimal`` leaves a basis dual-feasible for every ``d``
    (``feasible`` records which).  :meth:`restart` then takes an
    objective's ``d`` and :meth:`dual_run` re-optimises.

    All pivoting is in integers, on the state's shared columns and costs
    and with ``d`` scaled by the lcm of its denominators.  The basis
    inverse is ``q / den`` and the basic values are ``x / den`` over one
    common denominator ``den`` (the basis determinant up to sign).  A
    pivot on ``w_r`` applies the Bareiss update ``q'[i] = (w_r*q[i] -
    w_i*q[r]) // den`` (and the same to ``x``), a division that is always
    exact, and ``w_r`` becomes the new denominator; a negative ``w_r``
    (while driving out artificials, and on every dual pivot) and the
    pivot row are negated first, so ``den`` stays positive.  When ``w_r
    == den`` it is ``q[i][k] -= w_i*q[r][k] // den``, done in place on
    the nonzero entries of the pivot row only.  Pricing uses
    the integer duals ``y = c_B q``, kept on the tableau: :meth:`run`
    computes them and each pivot of :meth:`run` and :meth:`dual_run`
    moves them by one rank-one step (:meth:`_update_duals`, sparse in the
    same way), so they stay current
    (:meth:`restart` changes neither ``q`` nor ``y``) and :meth:`dual_run`
    and :meth:`multipliers` read them as they are.  Values, ratios and
    reduced costs are the exact ones times positive factors, so the pivot
    sequence is the one an explicit rational basis inverse would make;
    the results stay integers over a common denominator.  ``pivots``
    counts the pivots since :func:`solve` last read it.
    """

    def __init__(self, state: Presolved) -> None:
        self.state = state
        self.m = m = len(state.var_pos)
        self.n = n = len(state.cols)
        unit = {}
        for j, col in enumerate(state.cols):
            if len(col) == 1 and col[0][1] == 1:
                unit.setdefault(col[0][0], j)
        self.basis = [unit.get(v, n + v) for v in range(m)]  # n + v: artificial
        self.x = [0] * m
        self.q = [[int(i == v) for i in range(m)] for v in range(m)]
        self.den = 1
        self.pivots = 0
        self.drive_out_artificials()
        self.feasible = self.run() == "optimal"

    def _column(self, j: int) -> list[int]:
        """``den`` times the entering column in basis coordinates."""
        w = [0] * self.m
        for v, c in self.state.cols[j]:
            w = [a + c * row[v] for a, row in zip(w, self.q)]
        return w

    def _duals(self) -> list[int]:
        """``y = c_B q``: ``den`` times the simplex multipliers."""
        y = [0] * self.m
        for i, b in enumerate(self.basis):
            cb = 0 if b >= self.n else self.state.costs[b]
            if cb:
                y = [a + cb * qv for a, qv in zip(y, self.q[i])]
        return y

    def run(self) -> str:
        """Pivot by Bland's rule until optimal or unbounded; returns the stop reason."""
        cols, costs = self.state.cols, self.state.costs
        self.y = y = self._duals()
        in_basis = set(self.basis)
        for _ in range(MAX_ITERATIONS):
            den = self.den
            entering = -1
            for j in range(self.n):  # artificials never re-enter
                if j in in_basis:
                    continue
                red = den * costs[j]
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
            self._update_duals(w[leave], red, self.q[leave])
            y = self.y
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
        if wr == den:
            # (den*a - wi*b) // den is a - wi*b // den, and only where b is nonzero
            nonzero = [(k, b) for k, b in enumerate(qr) if b]
            for i, wi in enumerate(w):
                if wi and i != leave:
                    row = q[i]
                    for k, b in nonzero:
                        row[k] -= wi * b // den
                    x[i] -= wi * xr // den
        else:
            for i, wi in enumerate(w):
                if i == leave:
                    continue
                if wi:
                    q[i] = [(wr * a - wi * b) // den for a, b in zip(q[i], qr)]
                    x[i] = (wr * x[i] - wi * xr) // den
                else:
                    q[i] = [wr * a // den for a in q[i]]
                    x[i] = wr * x[i] // den
        self.den = wr
        self.basis[leave] = entering
        self.pivots += 1

    def _update_duals(self, wr: int, red: int, qr: list[int]) -> None:
        """The rank-one step ``y' = (wr*y + red*qr) // den`` of a pivot, before :meth:`_pivot`.

        When ``wr == den`` only the entries where ``qr`` is nonzero move.
        """
        y, den = self.y, self.den
        if wr == den:
            for k, b in enumerate(qr):
                if b:
                    y[k] += red * b // den
        else:
            self.y = [(wr * a + red * b) // den for a, b in zip(y, qr)]

    def restart(self, rhs: list[int | Fraction]) -> None:
        """Keep the basis and recompute the basic values for a new rational ``d``."""
        self.rhs_scale = scale = math.lcm(*[r.denominator for r in rhs])
        d = [(v, r.numerator * (scale // r.denominator)) for v, r in enumerate(rhs) if r]
        self.x = [sum(row[v] * dv for v, dv in d) for row in self.q]

    def dual_run(self) -> str:
        """Dual simplex from the zero phase's dual-feasible basis.

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

        ``norms`` keeps each squared row norm it computes between pivots: a
        pivot drops the rows it changes (``w_i != 0``), keeps its own row's
        norm and multiplies every other by ``w_r**2/den**2``, exactly.
        """
        n, cols, costs, basis = self.n, self.state.cols, self.state.costs, self.basis
        if any(xi for xi, b in zip(self.x, basis) if b >= n):
            return "infeasible"
        self.norms = norms = {}
        degenerate = 0
        for _ in range(MAX_ITERATIONS):
            q, x, y, den = self.q, self.x, self.y, self.den
            leave, leave_norm = -1, 0
            for i, xi in enumerate(x):
                if xi >= 0:
                    continue
                if degenerate >= DEGENERATE_RUN:
                    if leave < 0 or basis[i] < basis[leave]:
                        leave = i
                    continue
                norm = norms.get(i)
                if norm is None:
                    norm = norms[i] = sum(a * a for a in q[i])
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
            self._update_duals(-alpha, -red, qr)
            w = self._column(entering)
            self.norms = norms = {
                i: v if i == leave else v * alpha * alpha // (den * den)
                for i, v in norms.items() if i == leave or not w[i]
            }
            self._pivot(entering, leave, w)
        raise SimplexError("iteration limit exceeded")

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials onto real columns.

        Runs at ``d = 0``, before :meth:`run`.  Rows where every real
        column has a zero entry are redundant equations; their artificial
        stays basic and no ratio test can ever touch the row again, so
        :meth:`dual_run` reads a nonzero value there after a
        :meth:`restart` as a ``d`` outside the columns' span.  The
        pivot element here may be negative; :meth:`_pivot` then flips
        the signs so the common denominator stays positive.
        """
        in_basis = set(self.basis)
        for i in range(self.m):
            if self.basis[i] < self.n:
                continue
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
        u = {b: xi for b, xi in zip(self.basis, self.x) if xi and b < self.n}
        return u, self.den * self.rhs_scale

    def multipliers(self) -> tuple[list[int], int]:
        """Row multipliers -pi of the equations, over their denominator."""
        return [-y for y in self.y], self.den


class Session:
    """The zero phase's basis, shared by successive objectives on one state.

    The caller opens a session and passes it to :func:`solve` with each
    problem (a solve without one opens its own).  The first solve that
    builds a tableau leaves it here, and the session then refuses a
    problem on any other state.  It keeps nothing else and lives as long
    as the caller holds it.
    """

    def __init__(self) -> None:
        self.tableau: _Tableau | None = None


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
    The solve runs in ``session``, or in a fresh session when there is
    none: a session without a tableau gets one (the zero phase runs, and
    its pivots count in this solve), and one with a tableau must hold a
    basis of the same state.  The objective then restarts from that
    basis and runs the dual simplex.
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
    if session is None:
        session = Session()
    elif session.tableau is not None and session.tableau.state is not state:
        raise ValueError("session holds a basis of a different presolved state")
    if state.infeasible:
        return LPSolution("infeasible", None, None, None, 0)

    if session.tableau is None:
        session.tableau = _Tableau(state)
    tableau = session.tableau
    objective = dict(problem.objective)
    if not tableau.feasible:
        status = "infeasible"
    elif any(c and v not in state.var_pos for v, c in objective.items()):
        # the objective has a variable no row contains: its dual equation
        # has no column, so the dual has no feasible point
        status = "unbounded"
    else:
        tableau.restart([objective.get(v, 0) for v in state.var_pos])
        status = "unbounded" if tableau.dual_run() == "infeasible" else "optimal"
    pivots, tableau.pivots = tableau.pivots, 0
    if status != "optimal":
        return LPSolution(status, None, None, None, pivots)
    row_duals, dual_den = tableau.solution()
    mult, primal_den = tableau.multipliers()
    x = [0] * problem.num_vars
    for v, i in state.var_pos.items():
        x[v] = mult[i]
    value = Fraction(-sum(u * state.costs[j] for j, u in row_duals.items()), dual_den)
    duals = [0] * len(problem.rows)
    for j, u in row_duals.items():
        duals[state.row_index[j]] = u

    _verify_optimal(problem, x, primal_den, duals, dual_den, value)
    point, multipliers = (tuple(x), primal_den), (tuple(duals), dual_den)
    return LPSolution("optimal", value, point, multipliers, pivots)


def _verify_optimal(
    problem: LPProblem, x: list[int], x_den: int, duals: list[int], dual_den: int, value: Fraction
) -> None:
    """Exact post-checks against every row of the problem.

    Primal feasibility, nonnegative multipliers, a dual combination
    equal to the objective, and a zero duality gap, for the point ``x /
    x_den`` and multipliers ``duals / dual_den`` (ints over positive
    denominators), with every sum in ints.
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
