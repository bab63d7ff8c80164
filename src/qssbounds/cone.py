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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .simplex import LinearConstraint, Presolved
from .structures import CAPACITY, AccessStructure, CapacityError, PlayerSet, StructureError

ZERO = Fraction(0)
ONE = Fraction(1)

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

    def label(self, mask: int) -> str:
        """Subset label: sorted players, reference last, ∅ when empty."""
        if mask == 0:
            return "∅"
        parts = [str(i + 1) for i in range(self.players) if mask >> i & 1]
        if mask & self.reference_mask:
            parts.append("R")
        return ",".join(parts)


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


def empty_set_constraint() -> LinearConstraint:
    return LinearConstraint("emptyset", ((0, ONE),), "=", ZERO)


def _ssa_constraint(ground: GroundSet, x: int, y: int) -> LinearConstraint:
    """Submodularity on the incomparable pair {x, y}."""
    a, b = sorted((x & ~y, y & ~x))
    c = x & y
    ident = f"ssa:{ground.label(a)};{ground.label(b)}|{ground.label(c)}"
    return LinearConstraint(
        ident, sparse_form((x, ONE), (y, ONE), (x | y, -ONE), (c, -ONE)), ">=", ZERO
    )


def _wm_constraint(ground: GroundSet, x: int, y: int) -> LinearConstraint:
    """Weak monotonicity / triangle on the overlapping pair {x, y}."""
    a, b = sorted((x & ~y, y & ~x))
    shared = x & y
    ident = f"wm:{ground.label(a)};{ground.label(b)}|{ground.label(shared)}"
    return LinearConstraint(
        ident, sparse_form((x, ONE), (y, ONE), (a, -ONE), (b, -ONE)), ">=", ZERO
    )


def vn_inequalities(ground: GroundSet, mode: str = "full") -> list[LinearConstraint]:
    """Universal von Neumann entropy inequalities for the ground set.

    ``full`` emits S(X) >= 0 for every nonempty X, every submodularity
    instance S(X)+S(Y) >= S(X|Y)+S(X&Y) on incomparable pairs (empty
    intersections give plain subadditivity), and every weak-monotonicity
    instance S(X)+S(Y) >= S(X\\Y)+S(Y\\X) on overlapping pairs (nested
    pairs give the triangle inequalities).  ``elemental`` emits S(X) >= 0,
    the conditional mutual informations I(i;j|K) >= 0, and a small
    weak-monotonicity family; duplicates are emitted once.
    """
    if mode not in ("full", "elemental"):
        raise StructureError(f"unknown inequality mode {mode!r}")
    out = [empty_set_constraint()]
    for mask in range(1, ground.var_count):
        out.append(
            LinearConstraint(f"nonneg:{ground.label(mask)}", ((mask, ONE),), ">=", ZERO)
        )
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
                rest = ground.full_mask & ~(i_bit | j_bit)
                # iterate all submasks of rest, including the empty one
                sub = rest
                while True:
                    out.append(_ssa_constraint(ground, i_bit | sub, j_bit | sub))
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
        # weak monotonicity S(iA)+S(iB) >= S(A)+S(B) for each partition
        # (A,B) of the elements other than i; this family spans the same
        # cone as the full one
        seen_ids: set[str] = set()
        for ei in elements:
            e_bit = 1 << ei
            rest = ground.full_mask & ~e_bit
            sub = rest
            while True:
                other = rest & ~sub
                cons = _wm_constraint(ground, e_bit | sub, e_bit | other)
                if cons.id not in seen_ids:
                    seen_ids.add(cons.id)
                    out.append(cons)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    return _dedupe(out)


def _dedupe(constraints: list[LinearConstraint]) -> list[LinearConstraint]:
    seen: set[tuple] = set()
    out = []
    for c in constraints:
        key = (c.terms, c.rel, c.rhs)
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
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
    out = [LinearConstraint("normalize", ((r, ONE),), "=", ONE)]
    for mask in range(1, ground.player_mask + 1):
        authorized = structure.mask_authorized(mask)
        family = "recover" if authorized else "secrecy"
        rhs = Fraction(2) if authorized else ZERO
        out.append(
            LinearConstraint(
                f"{family}:{ground.label(mask)}",
                sparse_form((mask, ONE), (r, ONE), (mask | r, -ONE)),
                "=",
                rhs,
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
    return dict(sparse_form((a.bits, ONE), (b.bits, ONE), (a.bits | b.bits, -ONE)))


class ConstraintSystem:
    """Ordered, deduplicated constraint list for one structure and mode."""

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
    return ConstraintSystem(structure, ground, _dedupe(constraints), pure=pure, ineq=ineq)
