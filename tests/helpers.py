"""Shared test utilities: every antichain and random structures, known
entropy points, the certificate of a plain LP, the LP with equality rows
that a quotient folds and the reference solve of such an LP, the 2^n
enumerations behind `dual`, `is_self_dual` and `purify`, a counter on
the pair scan of `is_quantum`, and a certificate emitter that replay
must reject."""

import math
import sys
from fractions import Fraction

from qssbounds import prover, structures
from qssbounds.cone import build_system, sparse_form
from qssbounds.prover import Certificate
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

    Each ``>=`` row, reduced by the records, is a row of ``folded`` under
    its own id, in row order; ``origin`` and ``weights`` keep its index
    in ``rows`` and the record weights that lift its multiplier.
    ``presolved`` is the state of ``folded``, which drops duplicates
    under their first id and rows that fold to ``0 >= rhs`` with ``rhs
    <= 0``.  ``infeasible`` records contradictory equalities; there is
    then no folded LP.
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
        folded, self.origin, self.weights = [], [], []
        for idx, row in enumerate(rows):
            if row.rel == ">=":
                terms, rhs, weights = self.reduce_form(row.terms, row.rhs)
                folded.append(LinearConstraint(row.id, tuple(sorted(terms.items())), ">=", rhs))
                self.origin.append(idx)
                self.weights.append(weights)
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
    multipliers back onto the original rows and checks them against
    every original row with :func:`verify_optimal`.  Pivots and statuses
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
