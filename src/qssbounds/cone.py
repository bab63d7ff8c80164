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
  triangle instances forces S(X) = S(complement) for every X.

Terms never mention the empty set (its entropy is identically zero); the
single ``emptyset`` equality keeps the variable pinned for solvers.
Generation is deterministic: identical input yields an identical list.
Rows leave their generators final, with sorted nonzero terms, and are
unique by construction, so nothing deduplicates them: ssa and wm rows
come from distinct pairs of subsets, and the scheme rows are equalities
where the entropy rows are inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .simplex import LinearConstraint, Presolved
from .structures import CAPACITY, AccessStructure, CapacityError, PlayerSet, StructureError

ZERO = Fraction(0)
ONE = Fraction(1)
NEG_ONE = Fraction(-1)
TWO = Fraction(2)

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


def sparse_form(*entries: tuple[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    """Sorted sparse form of a sum of ``(mask, coefficient)`` terms.

    Coefficients on the same mask add up; the empty set (mask 0, whose
    entropy is identically zero) and terms that cancel are dropped.
    """
    terms: dict[int, Fraction] = {}
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
    x and y, so the nonzero masks are distinct and only need sorting.
    """
    labels = ground.labels
    a, b = sorted((x & ~y, y & ~x))
    ident = f"wm:{labels[a]};{labels[b]}|{labels[x & y]}"
    terms = sorted(((x, ONE), (y, ONE), (b, NEG_ONE)) + (((a, NEG_ONE),) if a else ()))
    return LinearConstraint(ident, tuple(terms), ">=", ZERO)


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
    def presolved(self) -> Presolved:
        """The rows' presolve, built on first use.

        Every objective solved on ``self.constraints`` can share it as
        ``LPProblem.presolved``.  It lives as long as the system, so a
        cache that drops the system drops its presolve too.
        """
        return Presolved(self.constraints)

    def dump(self) -> str:
        """Line-oriented debug text, one constraint per line."""
        lines = []
        for c in self.constraints:
            terms = " ".join(
                f"{coef}*S({self.ground.label(v)})" for v, coef in c.terms
            )
            lines.append(f"{c.id} : {terms} {c.rel} {c.rhs}")
        return "\n".join(lines)


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
