"""Shared test utilities: every antichain and random structures, known
entropy points, the certificate of a plain LP, the LP with equality rows
that a quotient folds, the 2^n enumerations behind `dual`,
`is_self_dual` and `purify`, a counter on the pair scan of `is_quantum`,
and a certificate emitter that replay must reject."""

import sys
from fractions import Fraction

from qssbounds import prover, structures
from qssbounds.cone import build_system, sparse_form
from qssbounds.prover import Certificate
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
    elimination of the equalities to `Presolved`, the generic presolve.
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
