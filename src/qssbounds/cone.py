"""Linear constraint systems over subset-entropy variables.

The ground set holds the m players of an access structure plus one
reference system R (bit m).  Every subset X of the ground set gets one
variable S(X), indexed by its bitmask, with S of the empty set pinned to
zero.  Generators emit three kinds of material:

* universal entropy inequalities: nonnegativity, strong subadditivity
  (equivalently submodularity) and the weak-monotonicity / triangle
  family, in a ``full`` set-level flavour or a much smaller ``elemental``
  flavour that spans the same cone;
* perfect-scheme constraints: recoverability I(A:R) = 2 for authorized
  A, secrecy I(A:R) = 0 for unauthorized A, and the normalization
  S(R) = 1 that fixes the unit to the secret's entropy;
* optionally, global purity S(players + R) = 0, which together with the
  triangle instances forces S(X) = S(complement) for every X
  (Araki-Lieb).  Pure systems are therefore solved on their
  :class:`Quotient`, with one variable per complementary pair, and
  :func:`complement_chain` names the rows that carry a quotient
  certificate back onto the system's own rows.

Terms never mention the empty set (its entropy is identically zero); the
single ``emptyset`` equality keeps the variable pinned for solvers.
Generation is deterministic: identical input yields an identical list.
Rows leave their generators final, with sorted nonzero terms, and are
unique by construction, so nothing deduplicates them: ssa and wm rows
come from distinct pairs of subsets, and the scheme rows are equalities
where the entropy rows are inequalities.

Rows are :class:`simplex.LinearConstraint` named tuples of plain ints:
every coefficient is -1 or 1 and every right-hand side 0, 1 or 2.  The
quotient's merged terms stay ints, so no row arithmetic needs
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .simplex import LinearConstraint, Presolved
from .structures import CAPACITY, AccessStructure, CapacityError, PlayerSet, StructureError

ZERO = 0
ONE = 1
NEG_ONE = -1
TWO = 2

@dataclass(frozen=True)
class GroundSet:
    """Players 1..m at bits 0..m-1 plus the reference system R at bit m."""

    players: int

    def __post_init__(self) -> None:
        if self.players < 1:
            raise StructureError("a ground set needs at least one player")
        if self.players + 1 > CAPACITY:
            raise CapacityError(
                f"{self.players} players + reference exceeds capacity {CAPACITY}"
            )

    @property
    def total(self) -> int:
        return self.players + 1

    @property
    def reference_mask(self) -> int:
        return 1 << self.players

    @property
    def player_mask(self) -> int:
        return (1 << self.players) - 1

    @property
    def full_mask(self) -> int:
        return (1 << self.total) - 1

    @property
    def var_count(self) -> int:
        return 1 << self.total

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every subset's label, indexed by mask, built on first use."""
        table = [""]
        for name in [str(i + 1) for i in range(self.players)] + ["R"]:
            table += [f"{t},{name}" if t else name for t in table]
        table[0] = "∅"
        return tuple(table)

    def label(self, mask: int) -> str:
        """Subset label: sorted players, reference last, ∅ when empty."""
        return self.labels[mask]


def sparse_form(*entries: tuple[int, int | Fraction]) -> tuple[tuple[int, int | Fraction], ...]:
    """Sorted sparse form of a sum of ``(mask, coefficient)`` terms.

    Coefficients on the same mask add up; the empty set (mask 0, whose
    entropy is identically zero) and terms that cancel are dropped.
    """
    terms: dict[int, int | Fraction] = {}
    for mask, coef in entries:
        if mask:
            terms[mask] = terms[mask] + coef if mask in terms else coef
    return tuple(sorted((v, c) for v, c in terms.items() if c))


def _submasks(mask: int):
    """Every submask of ``mask`` in decreasing order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _ssa_constraint(ground: GroundSet, x: int, y: int) -> LinearConstraint:
    """Submodularity on the incomparable pair {x, y}, where x < y.

    Then x\\y < y\\x, the meet lies below x and the join above y, so the
    id's operands and the terms are already in order.
    """
    labels = ground.labels
    c = x & y
    ident = f"ssa:{labels[x & ~y]};{labels[y & ~x]}|{labels[c]}"
    terms = ((x, ONE), (y, ONE), (x | y, NEG_ONE))
    return LinearConstraint(ident, ((c, NEG_ONE),) + terms if c else terms, ">=", ZERO)


def _wm_constraint(ground: GroundSet, x: int, y: int) -> LinearConstraint:
    """Weak monotonicity / triangle on the overlapping pair {x, y}.

    The differences are disjoint from each other and proper submasks of
    x and y, so the nonzero masks are distinct.  With a < b the
    differences and lo < hi the pair, a lies below lo and b below hi,
    so one comparison of b with lo puts the terms in order.
    """
    labels = ground.labels
    a, b = x & ~y, y & ~x
    if a > b:
        a, b = b, a
    lo, hi = (x, y) if x < y else (y, x)
    ident = f"wm:{labels[a]};{labels[b]}|{labels[x & y]}"
    middle = ((b, NEG_ONE), (lo, ONE)) if b < lo else ((lo, ONE), (b, NEG_ONE))
    terms = ((a, NEG_ONE),) + middle + ((hi, ONE),) if a else middle + ((hi, ONE),)
    return LinearConstraint(ident, terms, ">=", ZERO)


def vn_inequalities(ground: GroundSet, mode: str = "full") -> list[LinearConstraint]:
    """Universal von Neumann entropy inequalities for the ground set.

    ``full`` emits S(X) >= 0 for every nonempty X, every submodularity
    instance S(X)+S(Y) >= S(X|Y)+S(X&Y) on incomparable pairs (empty
    intersections give plain subadditivity), and every weak-monotonicity
    instance S(X)+S(Y) >= S(X\\Y)+S(Y\\X) on overlapping pairs (nested
    pairs give the triangle inequalities).  ``elemental`` emits S(X) >= 0,
    the conditional mutual informations I(i;j|K) >= 0, and a small
    weak-monotonicity family.  Rows are unique by construction: each
    comes from a distinct subset or pair, and the elemental wm family
    visits each unordered partition of the other elements once.
    """
    if mode not in ("full", "elemental"):
        raise StructureError(f"unknown inequality mode {mode!r}")
    labels = ground.labels
    out = [LinearConstraint("emptyset", ((0, ONE),), "=", ZERO)]
    for mask in range(1, ground.var_count):
        out.append(LinearConstraint(f"nonneg:{labels[mask]}", ((mask, ONE),), ">=", ZERO))
    if mode == "full":
        masks = range(1, ground.var_count)
        for x in masks:
            for y in range(x + 1, ground.var_count):
                if x & ~y and y & ~x:
                    out.append(_ssa_constraint(ground, x, y))
        for x in masks:
            for y in range(x + 1, ground.var_count):
                if x & y:
                    out.append(_wm_constraint(ground, x, y))
    else:
        elements = list(range(ground.total))
        for ei in elements:
            for ej in elements:
                if ej <= ei:
                    continue
                i_bit, j_bit = 1 << ei, 1 << ej
                for sub in _submasks(ground.full_mask & ~(i_bit | j_bit)):
                    out.append(_ssa_constraint(ground, i_bit | sub, j_bit | sub))
        # weak monotonicity S(iA)+S(iB) >= S(A)+S(B) once per unordered
        # partition {A,B} of the elements other than i, as the pair with
        # A > B; this family spans the same cone as the full one
        for ei in elements:
            e_bit = 1 << ei
            rest = ground.full_mask & ~e_bit
            for sub in _submasks(rest):
                other = rest & ~sub
                if sub > other:
                    out.append(_wm_constraint(ground, e_bit | sub, e_bit | other))
    return out


def qss_constraints(structure: AccessStructure, ground: GroundSet) -> list[LinearConstraint]:
    """Perfect-scheme constraints: normalization plus one row per subset.

    S(R) = 1 fixes the unit; every nonempty player subset A then gets
    S(A)+S(R)-S(A,R) = 2 (recoverability) when authorized and = 0
    (secrecy) when not, equivalently S(A,R) = S(A) -/+ 1.
    """
    if ground.players != structure.n:
        raise StructureError("ground set does not match the structure's players")
    r = ground.reference_mask
    labels = ground.labels
    out = [LinearConstraint("normalize", ((r, ONE),), "=", ONE)]
    # a player subset lies below r, and r below the subset joined with R
    for mask in range(1, ground.player_mask + 1):
        authorized = structure.mask_authorized(mask)
        family = "recover" if authorized else "secrecy"
        out.append(
            LinearConstraint(
                f"{family}:{labels[mask]}",
                ((mask, ONE), (r, ONE), (mask | r, NEG_ONE)),
                "=",
                TWO if authorized else ZERO,
            )
        )
    return out


def purity_constraint(ground: GroundSet) -> LinearConstraint:
    """Global purity: S(all players and R) = 0."""
    return LinearConstraint("purity", ((ground.full_mask, ONE),), "=", ZERO)


def mutual_information_expr(a: PlayerSet, b: PlayerSet) -> dict[int, Fraction]:
    """Sparse form of I(A:B) = S(A)+S(B)-S(A,B) for disjoint A, B."""
    if a.n != b.n:
        raise StructureError("operands live on different ground sets")
    if a.bits & b.bits:
        raise StructureError("mutual information needs disjoint arguments")
    return dict(sparse_form((a.bits, ONE), (b.bits, ONE), (a.bits | b.bits, NEG_ONE)))


class ConstraintSystem:
    """Ordered constraint list, unique ids, for one structure and mode."""

    def __init__(
        self,
        structure: AccessStructure,
        ground: GroundSet,
        constraints: list[LinearConstraint],
        *,
        pure: bool,
        ineq: str,
    ) -> None:
        self.structure = structure
        self.ground = ground
        self.constraints = tuple(constraints)
        self.pure = pure
        self.ineq = ineq
        self.by_id = {c.id: c for c in self.constraints}
        if len(self.by_id) != len(self.constraints):
            raise StructureError("constraint ids are not unique")

    def __len__(self) -> int:
        return len(self.constraints)

    @cached_property
    def quotient(self) -> Quotient:
        """The rows every LP on this system is solved on, built on first use.

        It lives as long as the system, so a cache that drops the system
        drops the quotient and its presolve too.
        """
        return Quotient(self)

    def dump(self) -> str:
        """Line-oriented debug text, one constraint per line."""
        lines = []
        for c in self.constraints:
            terms = " ".join(
                f"{coef}*S({self.ground.label(v)})" for v, coef in c.terms
            )
            lines.append(f"{c.id} : {terms} {c.rel} {c.rhs}")
        return "\n".join(lines)


class Quotient:
    """A system's rows with one variable per complementary pair.

    In pure mode every feasible point has S(X) = S(F\\X), where F is the
    whole ground set, so every term S(X) with R in X is written as
    S(F\\X); S(F) becomes S(∅) and drops out with the other zero terms.
    Rows that become ``0 = 0`` or ``0 >= c`` with ``c <= 0`` are dropped,
    and a row repeated after mapping is kept once, under the first id
    that produced it.  The variables left are the masks below R.  In
    mixed mode the map is the identity and the rows are the system's
    own.  A lifted quotient point satisfies every row of the system,
    because each row there has the value of its mapped row here.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self.ground = system.ground
        self.pure = system.pure
        if not self.pure:
            self.rows = system.constraints
            self.var_count = self.ground.var_count
            return
        self.var_count = self.ground.reference_mask
        rows = []
        seen: set[tuple] = set()
        for row in system.constraints:
            mapped = self.map_row(row)
            if not mapped.terms and (mapped.rhs == 0 if mapped.rel == "=" else mapped.rhs <= 0):
                continue
            key = (mapped.terms, mapped.rel, mapped.rhs)
            if key not in seen:
                seen.add(key)
                rows.append(mapped)
        self.rows = tuple(rows)

    @cached_property
    def presolved(self) -> Presolved:
        """The rows' presolve, shared by every objective solved on ``rows``."""
        return Presolved(self.rows)

    def map_terms(self, terms) -> tuple[tuple[int, Fraction], ...]:
        """Sparse form of ``terms`` on the quotient's variables."""
        if not self.pure:
            return tuple(terms)
        r, full = self.ground.reference_mask, self.ground.full_mask
        return sparse_form(*((full & ~v if v & r else v, c) for v, c in terms))

    def map_row(self, row: LinearConstraint) -> LinearConstraint:
        terms = self.map_terms(row.terms)
        if terms == row.terms:
            return row
        return LinearConstraint(row.id, terms, row.rel, row.rhs)

    def lift(self, primal) -> dict[int, Fraction]:
        """The system's point for a quotient primal: S(X) = S(F\\X) when R is in X."""
        r = self.ground.reference_mask if self.pure else 0
        full = self.ground.full_mask
        return {v: primal[full & ~v if v & r else v] for v in range(self.ground.var_count)}


def complement_chain(ground: GroundSet, y: int) -> list[LinearConstraint]:
    """Elemental wm rows that add up to S(Y) - S(F\\Y) + S(F) >= 0.

    ``y`` is a proper nonempty subset Y of the ground set F.  Each step
    drops the lowest element i of the current set Z, starting from
    Z = Y, with the row S(Z) + S(i ∪ F\\Z) >= S(Z\\i) + S(F\\Z); the
    sum telescopes, and the last step, Z = {i}, is the triangle
    ``wm:∅;F\\i|i``.  Every right-hand side is 0.
    """
    full = ground.full_mask
    chain = []
    z = y
    while z:
        i = z & -z
        chain.append(_wm_constraint(ground, z, i | (full & ~z)))
        z &= ~i
    return chain


def build_system(
    structure: AccessStructure,
    *,
    pure: bool = True,
    ineq: str = "full",
) -> ConstraintSystem:
    """Assemble the full constraint system for a quantum structure."""
    ground = GroundSet(structure.n)
    constraints = vn_inequalities(ground, ineq)
    constraints.extend(qss_constraints(structure, ground))
    if pure:
        constraints.append(purity_constraint(ground))
    return ConstraintSystem(structure, ground, constraints, pure=pure, ineq=ineq)
