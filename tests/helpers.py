"""Shared test utilities: every antichain and random structures, known
entropy points, the certificate of a plain LP, the LP with equality rows
that a quotient folds and the reference solve of such an LP, seeded
optimal LPs, a two-phase Bland solve as the reference for `solve`, the
dense Bareiss kernel as the reference for the sparse one, the
2^n enumerations behind `dual`, `is_self_dual` and `purify`, a counter on
the pair scan of `is_quantum`, a certificate emitter that replay
must reject, the lemma suite on the LP route alone, a bound solved on
the quotient that no symmetry folds, and the bit-loop permutation, orbit
minima and fold-every-candidate pure rows that `cone.Quotient`'s lookup
tables and skipped candidates replace."""

import math
import sys
from fractions import Fraction

from qssbounds import prover, simplex, structures
from qssbounds.cone import _submasks, build_system, sparse_form
from qssbounds.prover import Certificate
from qssbounds.relations import scheme_relation_instances
from qssbounds.simplex import (
    LinearConstraint,
    LPProblem,
    LPSolution,
    Presolved,
    SimplexError,
    add_scaled,
    solve,
)
from qssbounds.structures import (
    CAPACITY,
    AccessStructure,
    CapacityError,
    PlayerSet,
    StructureError,
    from_minimal_sets,
    is_quantum,
)


def all_antichain_structures(n):
    """Every access structure on n players (all antichains of nonempty sets)."""
    masks = list(range(1, 1 << n))
    found = []

    def extend(prefix, start):
        for idx in range(start, len(masks)):
            m = masks[idx]
            if any(p & m in (p, m) for p in prefix):
                continue
            cur = prefix + [m]
            found.append(cur)
            extend(cur, idx + 1)

    extend([], 0)
    return [
        from_minimal_sets(n, [PlayerSet(m, n).players() for m in sets])
        for sets in found
    ]


def random_structure(rng, n):
    while True:
        count = rng.randint(1, 4)
        sets = []
        for _ in range(count):
            size = rng.randint(1, n)
            sets.append(rng.sample(range(1, n + 1), size))
        masks = [PlayerSet.from_players(n, s) for s in sets]
        keep = [
            a for a in masks
            if not any(not b.bits & ~a.bits and b != a for b in masks)
        ]
        uniq = {m.bits: m for m in keep}
        try:
            return from_minimal_sets(n, [m.players() for m in uniq.values()])
        except StructureError:
            continue


def random_quantum_structure(rng, n):
    while True:
        s = random_structure(rng, n)
        if is_quantum(s):
            return s


def _minimal_members(n, member):
    """Minimal elements of a monotone family given by a mask predicate."""
    out = []
    for mask in range(1, 1 << n):
        if not member(mask):
            continue
        m = mask
        lowered = False
        while m:
            low = m & -m
            if member(mask & ~low):
                lowered = True
                break
            m &= m - 1
        if not lowered:
            out.append(PlayerSet(mask, n))
    out.sort(key=PlayerSet.sort_key)
    return out


def reference_dual(structure):
    """`dual` by enumerating the 2^n subsets and keeping the minimal members."""
    n = structure.n
    full = (1 << n) - 1

    def member(mask):
        return not structure.mask_authorized(full & ~mask)

    return AccessStructure(n, tuple(_minimal_members(n, member)))


def reference_is_self_dual(structure):
    """`is_self_dual` by checking that one set of each complementary pair is authorized."""
    full, auth = (1 << structure.n) - 1, structure.mask_authorized
    return all(auth(m) != auth(full & ~m) for m in range(1 << (structure.n - 1)))


def reference_purify(structure):
    """`purify` by enumerating the 2^(n+1) subsets of the purified ground set."""
    if not is_quantum(structure):
        raise StructureError("purification requires a quantum access structure")
    if reference_is_self_dual(structure):
        return structure
    n = structure.n
    if n + 1 > CAPACITY - 1:
        raise CapacityError(f"purification would exceed {CAPACITY - 1} players")
    full = (1 << n) - 1
    new_bit = 1 << n

    def member(mask):
        inner = mask & full
        if structure.mask_authorized(inner):
            return True
        if not mask & new_bit:
            return False
        return not structure.mask_authorized(full & ~inner)

    return AccessStructure(n + 1, tuple(_minimal_members(n + 1, member)))


def plain_certificate(problem, solution):
    """The reference certificate of an LP solved on its own rows.

    Every row with a nonzero multiplier, in row order, and the optimum as
    the claimed bound; no quotient and no replay.
    """
    if solution.status != "optimal":
        raise ValueError("certificates exist only for optimal solves")
    duals, den = solution.multipliers
    entries = tuple((row.id, Fraction(u, den)) for row, u in zip(problem.rows, duals) if u)
    return Certificate(solution.value, entries, problem.objective)


def equality_lp_rows(system, extra=()):
    """The rows of an LP on ``system`` with its equalities kept as rows.

    The elemental rows, and then ``extra``, with each S(X) that holds R
    written as S(F\\X) in pure mode (S(F) drops out) and each ``(terms,
    rel, rhs)`` kept once under its first id; a row that maps to
    ``0 = 0`` or ``0 >= 0`` is dropped.  Solving them leaves the
    elimination of the equalities to `Elimination`, the reference.
    """
    ground = system.ground
    full, r = ground.full_mask, ground.reference_mask
    elemental = build_system(system.structure, pure=system.pure, ineq="elemental").constraints
    first = {}
    for row in elemental + tuple(extra):
        terms = row.terms
        if system.pure:
            terms = sparse_form(*((full ^ v if v & r else v, c) for v, c in terms))
        if terms or row.rhs:
            first.setdefault((terms, row.rel, row.rhs), row._replace(terms=terms))
    return tuple(first.values())


def whole(value):
    """``value`` as an ``int`` when it is whole, else as it is.

    The tests' LP builders pass every integral number through it, so
    their rows are int rows wherever the numbers allow.
    """
    return int(value) if value == int(value) else value


def scaled_to_ints(values):
    """``values`` times the lcm of their denominators, as ints, and that lcm."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def exact_div(a, b):
    """``a / b`` as an ``int`` when it is whole, else a ``Fraction`` (never a float)."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


class Elimination:
    """The equality rows of a raw LP eliminated by exact substitution.

    `simplex` solves ``>=`` rows only and the package's quotients fold
    their equalities in closed form, so this is the reference for the
    tests that feed ``=`` rows.  Each usable equality row, reduced by
    the records before it, becomes record ``k``: ``pivot_coefs[k] *
    x[pivot_vars[k]] + rests[k] . x = rest_rhs[k]``, pinning its
    highest-index variable, and ``combos[k]`` is that record as a
    combination of original equality rows (row index -> weight).
    :meth:`reduce_form` substitutes the records into any form and returns
    the record weights it used, so multipliers of the folded LP lift to
    exact multipliers on the original equality rows
    (:meth:`equality_duals`) and a folded point lifts to the original
    variables (:meth:`lift_primal`), both in integers over a common
    denominator, which a pivot coefficient that does not divide rescales.

    Each ``>=`` row, reduced by the records and multiplied by
    ``scales[j]``, the lcm of its denominators, is the int row ``j`` of
    ``folded`` under its own id, in row order, since `simplex` takes int
    rows only; ``origin`` and ``weights`` keep its index in ``rows`` and
    the record weights that lift its multiplier, which is ``scales[j]``
    times the folded row's.  ``presolved`` is the state of ``folded``,
    which drops duplicates under their first id and rows that fold to
    ``0 >= rhs`` with ``rhs <= 0``.  ``infeasible`` records
    contradictory equalities; there is then no folded LP.
    """

    def __init__(self, rows):
        self.rows = rows
        self.pivot_vars, self.pivot_coefs, self.rests, self.rest_rhs, self.combos = [], [], [], [], []
        self.infeasible = False
        for idx, row in enumerate(rows):
            if row.rel not in (">=", "="):
                raise ValueError(f"unsupported relation {row.rel!r} in row {row.id}")
            if not all(c for _, c in row.terms):
                raise ValueError(f"zero coefficient in row {row.id}")
            if row.rel == "=" and not self.infeasible:
                terms, rhs, weights = self.reduce_form(row.terms, row.rhs)
                if not terms:
                    # 0 = rhs contradicts; 0 = 0 is redundant
                    self.infeasible = bool(rhs)
                    continue
                combo = self.equality_duals({k: -t for k, t in weights.items()})
                combo[idx] = 1
                pivot = max(terms)
                self.pivot_vars.append(pivot)
                self.pivot_coefs.append(terms.pop(pivot))
                self.rests.append(terms)
                self.rest_rhs.append(rhs)
                self.combos.append(combo)
        if self.infeasible:
            return
        folded, self.origin, self.weights, self.scales = [], [], [], []
        for idx, row in enumerate(rows):
            if row.rel == ">=":
                terms, rhs, weights = self.reduce_form(row.terms, row.rhs)
                variables, coefs = zip(*sorted(terms.items())) if terms else ((), ())
                (rhs, *coefs), scale = scaled_to_ints([rhs, *coefs])
                folded.append(LinearConstraint(row.id, tuple(zip(variables, coefs)), ">=", rhs))
                self.origin.append(idx)
                self.weights.append(weights)
                self.scales.append(scale)
        self.folded = tuple(folded)
        self.presolved = Presolved(self.folded)

    def reduce_form(self, terms, rhs):
        """Substitute every record into ``terms . x >= rhs``.

        ``terms`` is a mapping or ``(variable, coefficient)`` pairs.
        Returns the reduced terms, the reduced rhs and the sparse weight
        vector (record index -> weight) that was subtracted.
        """
        terms = dict(terms)
        weights = {}
        for k, pivot in enumerate(self.pivot_vars):
            coef = terms.pop(pivot, 0)
            if not coef:
                continue
            t = weights[k] = exact_div(coef, self.pivot_coefs[k])
            add_scaled(terms, self.rests[k].items(), -t)
            rhs = rhs - t * self.rest_rhs[k]
        return terms, rhs, weights

    def lift_primal(self, reduced, den, num_vars):
        """The original point of ``reduced / den``, as ``(numerators, denominator)``."""
        x = [0] * num_vars
        for v, val in reduced.items():
            x[v] = val
        for k in range(len(self.pivot_vars) - 1, -1, -1):
            acc = self.rest_rhs[k] * den
            for v, c in self.rests[k].items():
                if x[v]:
                    acc -= c * x[v]
            t = exact_div(acc, self.pivot_coefs[k])
            if type(t) is not int:
                x = [a * t.denominator for a in x]
                den *= t.denominator
                t = t.numerator
            x[self.pivot_vars[k]] = t
        return x, den

    def equality_duals(self, alpha):
        """Multipliers on original equality rows from record weights."""
        lam = {}
        for k, a in alpha.items():
            add_scaled(lam, self.combos[k].items(), a)
        return lam


def solve_with_equalities(problem, session=None, elimination=None):
    """`simplex.solve` of a raw LP whose rows may be equalities.

    Solves the folded LP of ``elimination`` (built here from
    ``problem.rows`` when not given) in ``session``, lifts its point and
    multipliers (each folded row's times its scale) back onto the
    original rows and checks them against every original row with
    :func:`verify_optimal`.  Pivots and statuses
    are those of the folded LP.
    """
    if elimination is None:
        elimination = Elimination(problem.rows)
    elif elimination.rows is not problem.rows:
        raise ValueError("elimination was built from a different row tuple")
    if elimination.infeasible:
        return LPSolution("infeasible", None, None, None, 0)
    objective, neg_offset, alpha = elimination.reduce_form(problem.objective, 0)
    # reduce_form treats the constant like a rhs: c.x = red.x - neg_offset
    folded = solve(
        LPProblem(problem.num_vars, tuple(sorted(objective.items())), elimination.folded,
                  elimination.presolved),
        session,
    )
    if folded.status != "optimal":
        return folded
    (point, primal_den), (folded_duals, dual_den) = folded.point, folded.multipliers
    reduced = {v: a for v, a in enumerate(point) if a}
    x, primal_den = elimination.lift_primal(reduced, primal_den, problem.num_vars)
    value = folded.value - neg_offset

    # dual_den times alpha: the objective's record weights less the row duals'
    alpha = {k: a * dual_den for k, a in alpha.items()}
    duals = [0] * len(problem.rows)
    for j, u in enumerate(folded_duals):
        if u:
            u *= elimination.scales[j]
            duals[elimination.origin[j]] = u
            add_scaled(alpha, elimination.weights[j].items(), -u)
    lam = elimination.equality_duals(alpha)
    scale = math.lcm(*[u.denominator for u in lam.values()])
    if scale != 1:  # a record weight whose division did not come out even
        duals = [u * scale for u in duals]
        dual_den *= scale
    for j, u in lam.items():
        duals[j] = u.numerator * (scale // u.denominator)

    verify_optimal(problem, x, primal_den, duals, dual_den, value)
    point, multipliers = (tuple(x), primal_den), (tuple(duals), dual_den)
    return LPSolution("optimal", value, point, multipliers, folded.pivots)


def verify_optimal(problem, x, x_den, duals, dual_den, value):
    """`simplex._verify_optimal` against rows that may be equalities.

    Primal feasibility, nonnegative multipliers on inequalities (an
    equality's may have either sign), a dual combination equal to the
    objective, and a zero duality gap, for the point ``x / x_den`` and
    multipliers ``duals / dual_den`` (ints over positive denominators).
    """
    combo, rhs_total = {}, 0
    for (rid, terms, rel, rhs), u in zip(problem.rows, duals):
        lhs = sum(c * x[v] for v, c in terms)
        if rel == "=":
            if lhs != rhs * x_den:
                raise SimplexError(f"primal violates equality {rid}")
        elif lhs < rhs * x_den:
            raise SimplexError(f"primal violates inequality {rid}")
        if u:
            if u < 0 and rel != "=":
                raise SimplexError(f"negative multiplier on inequality {rid}")
            rhs_total += u * rhs
            add_scaled(combo, terms, u)
    if combo != {v: c * dual_den for v, c in problem.objective if c}:
        raise SimplexError("dual combination does not reproduce the objective")
    primal_value = sum(c * x[v] for v, c in problem.objective)
    p, q = value.numerator, value.denominator
    if primal_value * q != p * x_den or rhs_total * q != p * dual_den:
        raise SimplexError("duality gap is not zero")


def random_lp(rng, family):
    """A feasible LP with a bounded objective, from one family.

    ``integral`` rows hold ints, ``fraction`` rows ``Fraction``
    coefficients and right-hand sides (ints where they are whole);
    ``degenerate`` rows are mostly tight at one point and often
    repeated; ``equalities`` rows are mostly equalities; ``evenpivot``
    equalities give their highest variable, the one the presolve pins,
    the coefficient 2.  Every row holds at a
    seeded point, and the objective is a combination of the rows with
    nonnegative weights on the inequalities, so the LP is optimal.
    """
    n = rng.randint(2, 6)
    coefs = (-2, -1, 1, 2)
    if family == "fraction":
        coefs += (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
        point = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
    else:
        point = [rng.randint(-3, 3) for _ in range(n)]
    share = {"equalities": 0.6, "evenpivot": 0.5}.get(family, 0.2)
    rows = []
    for _ in range(rng.randint(2, 10)):
        terms = {v: rng.choice(coefs) for v in range(n) if rng.random() < 0.6}
        if not terms:
            continue
        rel = "=" if rng.random() < share else ">="
        if rel == "=" and family == "evenpivot":
            terms = {v: rng.choice((-1, 1)) for v in terms}
            terms[max(terms)] = 2
        tight = rel == "=" or family == "degenerate" and rng.random() < 0.8
        rhs = sum(c * point[v] for v, c in terms.items()) - (0 if tight else rng.randint(0, 2))
        rows.append((terms, rel, rhs))
        if family == "degenerate" and rng.random() < 0.3:
            rows.append((dict(terms), rel, rhs))
    objective = {}
    for terms, rel, _ in rows:
        weight = rng.randint(-2, 2) if rel == "=" else rng.randint(0, 2)
        add_scaled(objective, terms.items(), weight)
    lp_rows = tuple(
        LinearConstraint(f"r{i}", tuple(sorted((v, whole(c)) for v, c in terms.items())), rel,
                         whole(rhs))
        for i, (terms, rel, rhs) in enumerate(rows)
    )
    return LPProblem(n, tuple(sorted(objective.items())), lp_rows)


class TwoPhaseTableau(simplex._Tableau):
    """The tableau of a two-phase Bland solve.

    It starts on the all-artificial basis of ``M u = d`` for the
    objective's ``d``.  An equation with a negative ``d`` entry gets the
    artificial column ``-e_v`` instead of ``e_v``, so the start is ``q =
    diag(sign)`` and ``x = |d|``: the same as negating the equation,
    without touching the shared columns.  :meth:`phase1` prices the
    artificials at cost 1 and the real columns at 0; phase 2 is the
    tableau's own Bland :meth:`run` with the real costs.
    """

    def __init__(self, state, rhs):
        self.state = state
        self.m = m = len(rhs)
        self.n = len(state.cols)
        self.x, self.rhs_scale = scaled_to_ints(rhs)
        self.q = [[0] * m for _ in range(m)]
        for v in range(m):
            sign = -1 if self.x[v] < 0 else 1
            self.q[v][v] = sign
            self.x[v] *= sign
        self.den = 1
        self.basis = [self.n + v for v in range(m)]  # artificial ids
        self.pivots = 0

    def phase1(self):
        """Bland's rule on the phase-1 costs until they are optimal."""
        cols = self.state.cols
        y = [0] * self.m
        for i, b in enumerate(self.basis):
            if b >= self.n:
                y = [a + qv for a, qv in zip(y, self.q[i])]
        in_basis = set(self.basis)
        for _ in range(simplex.MAX_ITERATIONS):
            den = self.den
            entering = -1
            for j in range(self.n):  # artificials never re-enter
                if j in in_basis:
                    continue
                red = 0
                for v, c in cols[j]:
                    red -= y[v] * c
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return
            w = self._column(entering)
            x, basis = self.x, self.basis
            leave = -1
            for i in range(self.m):
                if w[i] > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs, rhs = x[i] * w[leave], x[leave] * w[i]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise SimplexError("phase 1 cannot be unbounded")
            wr = w[leave]
            y = [(wr * a + red * b) // den for a, b in zip(y, self.q[leave])]
            in_basis.discard(basis[leave])
            in_basis.add(entering)
            self._pivot(entering, leave, w)
        raise SimplexError("iteration limit exceeded")


def two_phase_solve(problem):
    """Two-phase Bland solve, the reference that `simplex.solve` is compared against.

    ``problem`` has ``>=`` rows only, and its ``presolved`` state is
    used when present.  A dual that keeps a positive artificial after
    phase 1, or has no column for an objective variable, leaves the LP
    infeasible or unbounded: unbounded exactly when the zero objective
    solves to optimal on the same state.  An unbounded phase 2 means an
    infeasible LP.  An optimum is checked by :func:`verify_optimal`.
    Pivots count both phases and the zero-objective solve.
    """
    state = problem.presolved or Presolved(problem.rows)
    if state.infeasible:
        return LPSolution("infeasible", None, None, None, 0)
    objective = dict(problem.objective)
    pivots = 0
    if all(not c or v in state.var_pos for v, c in objective.items()):
        tableau = TwoPhaseTableau(state, [objective.get(v, 0) for v in state.var_pos])
        tableau.phase1()
        pivots = tableau.pivots
        if not any(xi for xi, b in zip(tableau.x, tableau.basis) if b >= tableau.n):
            tableau.drive_out_artificials()
            if tableau.run() == "unbounded":
                return LPSolution("infeasible", None, None, None, tableau.pivots)
            row_duals, dual_den = tableau.solution()
            mult, x_den = tableau.multipliers()
            x = [0] * problem.num_vars
            for v, i in state.var_pos.items():
                x[v] = mult[i]
            value = Fraction(-sum(u * state.costs[j] for j, u in row_duals.items()), dual_den)
            duals = [0] * len(problem.rows)
            for j, u in row_duals.items():
                duals[state.row_index[j]] = u
            verify_optimal(problem, x, x_den, duals, dual_den, value)
            point, multipliers = (tuple(x), x_den), (tuple(duals), dual_den)
            return LPSolution("optimal", value, point, multipliers, tableau.pivots)
    feasibility = two_phase_solve(LPProblem(problem.num_vars, (), problem.rows, state))
    status = "unbounded" if feasibility.status == "optimal" else "infeasible"
    return LPSolution(status, None, None, None, pivots + feasibility.pivots)


class DenseTableau(simplex._Tableau):
    """The tableau with the dense Bareiss updates, the reference for the sparse ones.

    Every pivot updates every entry of ``q``, ``x`` and ``y`` by the
    Bareiss rule, whether or not the pivot element equals the common
    denominator; the pivots, the duals and every result must be those of
    the package's kernel.
    """

    def _pivot(self, entering, leave, w):
        q, x, den = self.q, self.x, self.den
        wr = w[leave]
        if wr < 0:
            wr = -wr
            q[leave] = [-a for a in q[leave]]
            x[leave] = -x[leave]
        qr, xr = q[leave], x[leave]
        for i, wi in enumerate(w):
            if i != leave:
                q[i] = [(wr * a - wi * b) // den for a, b in zip(q[i], qr)]
                x[i] = (wr * x[i] - wi * xr) // den
        self.den = wr
        self.basis[leave] = entering
        self.pivots += 1

    def _update_duals(self, wr, red, qr):
        self.y = [(wr * a + red * b) // self.den for a, b in zip(self.y, qr)]


def qutrit_threshold_vector(ground):
    """Entropy point of the (2,3) qutrit threshold scheme, unit secret."""
    assert ground.players == 3
    r = ground.reference_mask
    point = {0: Fraction(0), r: Fraction(1)}
    for mask in range(1, 8):
        size = mask.bit_count()
        point[mask] = Fraction(1 if size in (1, 3) else 2)
        point[mask | r] = Fraction({1: 2, 2: 1, 3: 0}[size])
    return point


def count_quantum_scans(monkeypatch):
    """A list that records the structure of each run of `is_quantum`'s pair
    scan, under every name the package's modules import it by."""
    calls = []
    original = structures.is_quantum

    def counted(structure):
        calls.append(structure)
        return original(structure)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qssbounds" and vars(module).get("is_quantum") is original:
            monkeypatch.setattr(module, "is_quantum", counted)
    return calls


def bump_first_multiplier(monkeypatch):
    """Make `prover._expand` raise its first multiplier by 1, so that every
    certificate it emits fails replay."""
    real = prover._expand

    def bumped(*args):
        (rid, mult), *rest = real(*args)
        return ((rid, mult + 1), *rest)

    monkeypatch.setattr(prover, "_expand", bumped)


def lp_lemma_suite(structure, ineq="full"):
    """`lemma_suite` on its LP route, the reference for the hand proofs.

    `check_implied` on every scheme relation of a self-dual ``structure``,
    in suite order and in one session, with no proof replayed; every
    target counts as a fallback.  The session and the solves are looked up
    in `prover` at call time, so a test that patches them there sees them.
    """
    system = prover.cached_system(structure, True, ineq)
    session = prover.Session()
    outcomes = []
    for inst in scheme_relation_instances(structure, system.ground):
        res = prover.check_implied(system, inst.terms, inst.rel, inst.rhs, session=session)
        outcomes.append(prover.SuiteOutcome(inst, res.implied, res.pivots))
    return prover.SuiteReport(structure, ineq, tuple(outcomes), 0, len(outcomes))


def unfolded_bound(system, objective):
    """A bound LP solved on ``system.quotient``, which no symmetry folds.

    `share_bound` solves the same LP folded by the symmetries that fix
    ``objective`` (`ConstraintSystem.folded`); this is the reference.
    Returns the problem, its solution and the certificate `prover._certify`
    makes from it, replayed on ``system``.
    """
    extra, form, num_vars = prover.objective_rows(system, objective)
    problem, constant = system.quotient.problem(num_vars, form, extra)
    solution = solve(problem)
    value = solution.value + constant
    return problem, solution, prover._certify(
        system, objective, extra, form, problem, solution, value
    )


def permute(perm, mask):
    """The image of ``mask`` when element i goes to element ``perm[i]``, bit by bit.

    The reference for `cone.Quotient`'s image tables.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def orbit_minima(group, size):
    """The smallest mask of each mask's orbit under ``group``, for the masks
    below ``size``, which every generator maps among themselves."""
    least = list(range(size))
    for x in range(size):
        todo = [x] if least[x] == x else []
        while todo:
            y = todo.pop()
            for g in group:
                z = permute(g, y)
                if least[z] != x:
                    least[z] = x
                    todo.append(z)
    return least


def reference_pure_rows(quotient):
    """The rows of a pure ``quotient`` with every candidate folded.

    `cone.Quotient` skips a candidate whose table entries match one it
    has folded; this folds each ``nonneg`` and ``ssa`` candidate and keeps
    each ``(terms, rhs)`` under its first id, so the two row tuples must
    be equal, order included.
    """
    ground, kept = quotient.ground, {}
    labels, full = ground.labels, ground.full_mask

    def keep(prefix, mask, terms):
        terms, constant = quotient.fold(terms)
        if (terms or constant < 0) and (terms, -constant) not in kept:
            kept[terms, -constant] = LinearConstraint(prefix + labels[mask], terms, ">=", -constant)

    for x in range(1, ground.reference_mask):
        keep("nonneg:", x, ((x, 1),))
    for ei in range(ground.total):
        for ej in range(ei + 1, ground.total):
            i_bit, j_bit = 1 << ei, 1 << ej
            rest = full & ~(i_bit | j_bit)
            for k in _submasks(rest):
                if k < rest & ~k:
                    break
                x, y = i_bit | k, j_bit | k
                keep(f"ssa:{labels[i_bit]};{labels[j_bit]}|", k,
                     ((k, -1), (x, 1), (y, 1), (x | y, -1)))
    return tuple(kept.values())
