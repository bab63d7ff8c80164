"""Shared test utilities: random structures, known entropy points and
the certificate of a plain LP."""

from fractions import Fraction

from qssbounds.prover import Certificate
from qssbounds.structures import PlayerSet, StructureError, from_minimal_sets, is_quantum


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
            if not any(b.issubset(a) and b != a for b in masks)
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
