"""Linear constraint systems over subset-entropy variables.

The ground set holds the m players of an access structure plus one
reference system R (bit m).  Every nonempty subset X of the ground set
gets one variable S(X), indexed by its bitmask; S(∅) is zero by
definition, so mask 0 is no variable and no row names it.  Generators
emit three kinds of material:

* universal entropy inequalities: nonnegativity, strong subadditivity
  (equivalently submodularity) and the weak-monotonicity / triangle
  family, in a ``full`` set-level flavour or a much smaller ``elemental``
  flavour that spans the same cone;
* perfect-scheme constraints: recoverability I(A:R) = 2 for authorized
  A, secrecy I(A:R) = 0 for unauthorized A, and the normalization
  S(R) = 1 that fixes the unit to the secret's entropy;
* optionally, global purity S(players + R) = 0, which together with the
  triangle instances forces S(X) = S(complement) for every X
  (Araki-Lieb).  Every system is solved on its :class:`Quotient` of the
  elemental rows, whatever its family, in pure mode with one variable
  per complementary pair.  The quotient alone decides the LP's
  variables and its presolve: it maps rows forward and, with
  :meth:`Quotient.cancel` and the elemental wm rows of
  :func:`complement_chain`, carries a combination of rows back onto
  the system's own rows.

Generation is deterministic: identical input yields an identical list.
Rows leave their generators final, with sorted nonzero terms, and are
unique by construction, so nothing deduplicates them: ssa and wm rows
come from distinct pairs of subsets, and the scheme rows are equalities
where the entropy rows are inequalities.

Rows are :class:`simplex.LinearConstraint` named tuples of plain ints:
every coefficient is -1 or 1 and every right-hand side 0, 1 or 2.  The
quotient's merged terms stay ints, so no row arithmetic needs
``Fraction``.

A :class:`ConstraintSystem` is addressed by row id and makes no row
until one is asked for.  Each id names its row: ``nonneg:X``,
``ssa:A;B|C``, ``wm:A;B|C``, ``recover:X``, ``secrecy:X``,
``normalize`` and ``purity``, with labels such as ``1,3,R`` and ``∅``
from the one printer ``GroundSet.labels``.
:meth:`ConstraintSystem.row` parses an id into masks and builds that one
row with the generators' own builders, which print the id again; it is
accepted only if the printed id is the id it was given and the row is a
member of the system's family (see :meth:`ConstraintSystem.row` for the
rules).  So replaying a certificate costs its own entries and labels,
not the 2^(2·elements) rows of the full family, and works on ground
sets too large to generate.  ``len`` and :meth:`ConstraintSystem.order_key`
count rows and order elemental ids in closed form, and the pure quotient
is made from masks, so the ordered list of every row (``constraints``) is
generated only for ``--dump-system``, witness checks and, on elemental
rows, mixed-mode quotients.  The pure quotient of a self-dual structure
also presolves its rows in closed form while it makes them (see
:class:`Quotient`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .simplex import LinearConstraint, LPProblem, Presolved, add_scaled
from .structures import CAPACITY, AccessStructure, CapacityError, StructureError


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
    def labels(self) -> _Labels:
        """The ground set's label printer and parser, made on first use."""
        return _Labels(self.players)

    def label(self, mask: int) -> str:
        """Subset label: sorted players, reference last, ∅ when empty."""
        return self.labels[mask]


class _Labels(dict):
    """Subset labels by mask, each printed on its first lookup and kept.

    The format is ``GroundSet.label``'s, each label printed from that of
    its set less the top element; a row looked up by id prints its few
    labels and their prefixes, never all 2^elements.  Parsing looks each
    token up among the element names, so a token that is not exactly
    ``R`` or a player number (``²``, ``١``, ``01``, `` 2``, 5000 digits)
    names no element, and no token is ever handed to ``int``.
    """

    __slots__ = ("names", "bits")

    def __init__(self, players: int) -> None:
        super().__init__({0: "∅"})
        self.names = [str(i + 1) for i in range(players)] + ["R"]
        self.bits = {name: 1 << i for i, name in enumerate(self.names)}

    def __missing__(self, mask: int) -> str:
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        label = self[mask] = f"{self[rest]},{self.names[top]}" if rest else self.names[top]
        return label

    def parse(self, text: str) -> int | None:
        """The mask ``text`` names, or None.

        A repeated or misordered token (``1,1``, ``2,1``) still parses;
        the caller prints the mask again and compares.
        """
        if text == "∅":
            return 0
        mask = 0
        for token in text.split(","):
            bit = self.bits.get(token)
            if bit is None:
                return None
            mask |= bit
        return mask


def sparse_form(*entries: tuple[int, int | Fraction]) -> tuple[tuple[int, int | Fraction], ...]:
    """Sorted sparse form of a sum of ``(mask, coefficient)`` terms.

    Coefficients on the same mask add up; the empty set (mask 0, whose
    entropy is identically zero) and terms that cancel are dropped.
    """
    terms: dict[int, int | Fraction] = {}
    add_scaled(terms, entries, 1)
    terms.pop(0, None)
    return tuple(sorted(terms.items()))


def _submasks(mask: int):
    """Every submask of ``mask`` in decreasing order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _ssa_constraint(labels, x: int, y: int) -> LinearConstraint:
    """Submodularity on the incomparable pair {x, y}, where x < y.

    Then x\\y < y\\x, the meet lies below x and the join above y, so the
    id's operands and the terms are already in order.  ``labels`` is the
    ground set's :class:`_Labels`.
    """
    c = x & y
    ident = f"ssa:{labels[x & ~y]};{labels[y & ~x]}|{labels[c]}"
    terms = ((x, 1), (y, 1), (x | y, -1))
    return LinearConstraint(ident, ((c, -1),) + terms if c else terms, ">=", 0)


def _wm_constraint(labels, x: int, y: int) -> LinearConstraint:
    """Weak monotonicity / triangle on the overlapping pair {x, y}.

    The differences are disjoint from each other and proper submasks of
    x and y, so the nonzero masks are distinct.  With a < b the
    differences and lo < hi the pair, a lies below lo and b below hi,
    so one comparison of b with lo puts the terms in order.
    """
    a, b = x & ~y, y & ~x
    if a > b:
        a, b = b, a
    lo, hi = (x, y) if x < y else (y, x)
    ident = f"wm:{labels[a]};{labels[b]}|{labels[x & y]}"
    middle = ((b, -1), (lo, 1)) if b < lo else ((lo, 1), (b, -1))
    terms = ((a, -1),) + middle + ((hi, 1),) if a else middle + ((hi, 1),)
    return LinearConstraint(ident, terms, ">=", 0)


def _nonneg_constraint(labels, x: int) -> LinearConstraint:
    return LinearConstraint(f"nonneg:{labels[x]}", ((x, 1),), ">=", 0)


def _scheme_constraint(structure: AccessStructure, labels, r: int, x: int) -> LinearConstraint:
    """Recoverability or secrecy of the player subset ``x``; ``r`` is R's mask."""
    # a player subset lies below r, and r below the subset joined with R
    authorized = structure.mask_authorized(x)
    return LinearConstraint(
        f"{'recover' if authorized else 'secrecy'}:{labels[x]}",
        ((x, 1), (r, 1), (x | r, -1)),
        "=",
        2 if authorized else 0,
    )


def _normalize_constraint(r: int) -> LinearConstraint:
    return LinearConstraint("normalize", ((r, 1),), "=", 1)


def _check_mode(mode: str) -> None:
    if mode not in ("full", "elemental"):
        raise StructureError(f"unknown inequality mode {mode!r}")


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
    _check_mode(mode)
    # every label is printed; a list of them indexes faster than the printer
    labels = [ground.labels[mask] for mask in range(ground.var_count)]
    out = [_nonneg_constraint(labels, mask) for mask in range(1, ground.var_count)]
    if mode == "full":
        masks = range(1, ground.var_count)
        for x in masks:
            for y in range(x + 1, ground.var_count):
                if x & ~y and y & ~x:
                    out.append(_ssa_constraint(labels, x, y))
        for x in masks:
            for y in range(x + 1, ground.var_count):
                if x & y:
                    out.append(_wm_constraint(labels, x, y))
    else:
        elements = list(range(ground.total))
        for ei in elements:
            for ej in elements:
                if ej <= ei:
                    continue
                i_bit, j_bit = 1 << ei, 1 << ej
                for sub in _submasks(ground.full_mask & ~(i_bit | j_bit)):
                    out.append(_ssa_constraint(labels, i_bit | sub, j_bit | sub))
        # weak monotonicity S(iA)+S(iB) >= S(A)+S(B) once per unordered
        # partition {A,B} of the elements other than i, as the pair with
        # A > B; this family spans the same cone as the full one
        for ei in elements:
            e_bit = 1 << ei
            rest = ground.full_mask & ~e_bit
            for sub in _submasks(rest):
                other = rest & ~sub
                if sub > other:
                    out.append(_wm_constraint(labels, e_bit | sub, e_bit | other))
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
    out = [_normalize_constraint(r)]
    for mask in range(1, ground.player_mask + 1):
        out.append(_scheme_constraint(structure, labels, r, mask))
    return out


def purity_constraint(ground: GroundSet) -> LinearConstraint:
    """Global purity: S(all players and R) = 0."""
    return LinearConstraint("purity", ((ground.full_mask, 1),), "=", 0)


class ConstraintSystem:
    """The rows of one structure, mode and inequality family, made on demand.

    Building a system makes no row.  :meth:`row` makes the one row an id
    names and keeps it in a memo that lives as long as the system;
    ``constraints`` generates the ordered list of every row on first read
    and fills the memo with it.  ``len`` and :meth:`order_key` count rows
    and order ids in closed form, making none.
    """

    def __init__(self, structure: AccessStructure, *, pure: bool, ineq: str) -> None:
        _check_mode(ineq)
        self.structure = structure
        self.ground = GroundSet(structure.n)
        self.pure = pure
        self.ineq = ineq
        self._memo: dict[str, LinearConstraint] = {}
        self._keys: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        n = self.ground.total
        if self.ineq == "full":
            ssa = (4 ** n - 2 * 3 ** n + 2 ** n) // 2
            wm = (4 ** n - 3 ** n - 2 ** n + 1) // 2
        else:
            ssa = comb(n, 2) << (n - 2)
            wm = n << (n - 2)
        # nonneg, then normalize and recover/secrecy, then purity
        return (1 << n) - 1 + ssa + wm + (1 << self.ground.players) + self.pure

    @cached_property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """Every row, in generation order, generated on first read."""
        return self._generate(self.ineq)

    def _generate(self, ineq: str) -> tuple[LinearConstraint, ...]:
        """Every row on the ``ineq`` family in generation order.

        The rows also fill the memo of :meth:`row`, which once it holds
        every row parses only ids that name none.
        """
        rows = vn_inequalities(self.ground, ineq)
        rows.extend(qss_constraints(self.structure, self.ground))
        if self.pure:
            rows.append(purity_constraint(self.ground))
        self._memo.update((c.id, c) for c in rows)
        return tuple(rows)

    def order_key(self, rid: str) -> tuple[int, ...]:
        """Sort key of ``rid`` in elemental generation order, made once per id from its row.

        Certificates name elemental rows only, whatever the family, so the
        key is theirs: families keep generation order; then ``ssa:A;B|C``
        sorts by (A, B, -C), ``wm:A;B|C`` by (C, -B) and any other row by
        its first term.
        """
        key = self._keys.get(rid)
        if key is None:
            family, terms = rid.partition(":")[0], self.row(rid).terms
            rank = ("nonneg", "ssa", "wm", "normalize", "recover", "purity").index(
                "recover" if family == "secrecy" else family
            )
            key = (rank, terms[0][0])
            if family in ("ssa", "wm"):
                x, y = (v for v, c in terms if c > 0)
                if family == "ssa":
                    key = (rank, x & ~y, y & ~x, -(x & y))
                else:
                    key = (rank, x & y, -max(x & ~y, y & ~x))
            self._keys[rid] = key
        return key

    def row(self, rid: str) -> LinearConstraint:
        """The row named ``rid``, made from the id alone; ``KeyError`` if none is.

        The id is parsed into masks and the row rebuilt by the generators'
        own builders, which print its id again: an id that does not come
        back the same is not canonical and names no row.  The builders
        print the differences and the meet of A ∪ C and B ∪ C, so the
        round trip also holds A, B and C disjoint.  The masks must name a
        member of the family:

        * ``ssa:A;B|C``: A and B nonempty, A ∪ C < B ∪ C as masks, and in
          the elemental family |A| = |B| = 1;
        * ``wm:A;B|C``: C nonempty, A < B, and in the elemental family
          |C| = 1 with A ∪ B ∪ C the whole ground set;
        * ``nonneg:X`` for nonempty X; ``recover:X`` or ``secrecy:X`` for
          a nonempty player set X, as the structure authorizes X or not;
        * ``normalize``, and ``purity`` in pure mode only.
        """
        row = self._memo.get(rid)
        if row is None:
            row = self._parse(rid) if isinstance(rid, str) else None
            if row is None or row.id != rid:
                raise KeyError(rid)
            self._memo[rid] = row
        return row

    def _parse(self, rid: str) -> LinearConstraint | None:
        """The row whose masks ``rid`` names, or None; the caller compares ids."""
        family, _, body = rid.partition(":")
        labels, ground, full = self.ground.labels, self.ground, self.ineq == "full"
        if family in ("ssa", "wm"):
            ab, _, c = body.partition("|")
            a, _, b = ab.partition(";")
            a, b, c = labels.parse(a), labels.parse(b), labels.parse(c)
            if a is None or b is None or c is None:
                return None
            if family == "ssa":
                if a and b and a | c < b | c and (full or a.bit_count() == b.bit_count() == 1):
                    return _ssa_constraint(labels, a | c, b | c)
            elif c and a < b and (full or c.bit_count() == 1 and a | b | c == ground.full_mask):
                return _wm_constraint(labels, a | c, b | c)
            return None
        x = labels.parse(body)
        if family == "nonneg" and x:
            return _nonneg_constraint(labels, x)
        if family in ("recover", "secrecy") and x and x <= ground.player_mask:
            return _scheme_constraint(self.structure, labels, ground.reference_mask, x)
        if family == "normalize":
            return _normalize_constraint(ground.reference_mask)
        return purity_constraint(ground) if family == "purity" and self.pure else None

    @cached_property
    def quotient(self) -> Quotient:
        """The elemental quotient every LP on this system is solved on, built on first use.

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

    The quotient alone decides the variables of every LP solved on a
    system and how that LP is presolved.  In pure mode every feasible
    point has S(X) = S(F\\X), where F is the whole ground set, so every
    term S(X) with R in X is written as S(F\\X); S(F) becomes S(∅) and
    drops out with the other zero terms.  The variables left are the
    masks below R.  The rows, made from masks, are the elemental rows
    mapped, less those that become ``0 = 0`` or ``0 >= 0``, each repeat
    kept under its first id: ``nonneg:X`` for X below R, ``ssa:i;j|K``
    for the larger K of each pair {K, rest\\K} (rest = F\\{i,j}; K itself
    when rest is empty), no wm row, and the scheme rows and ``normalize``
    mapped.  In mixed mode the rows are the elemental rows unmapped.  A
    lifted quotient point satisfies every elemental row, which has the
    value of its mapped row here, and so every row of either family,
    whose cones are the same.

    :meth:`problem` makes every LP solved on the quotient.  One on
    ``rows`` alone shares their :class:`simplex.Presolved` state
    ``presolved``; one that adds ``>=`` rows (the links of a minmax
    objective, a refutation's cutoff) gets a state built whole.  Mixed
    mode derives each state with ``Presolved(rows)``.  Pure mode needs a
    self-dual structure (of each player set A and its complement P\\A in
    the player set P exactly one is authorized; P always is), and
    ``StructureError`` refuses any other: its scheme rows contradict
    purity.  Then every state is known from the masks.  ``normalize``
    pins S(P) = 1 (record 0); the scheme row of each A below the top
    player's bit h pins S(P\\A) to S(A) - 1 when A is authorized and to
    S(A) + 1 when not (record A); the other scheme rows reduce to 0 = 0.
    A ``>=`` row then keeps its terms below h or outside the quotient,
    moves S(P) to the right-hand side and S(Y) for any other Y onto
    S(P\\Y).  The ``>=`` rows are reduced where a state is built, so no
    reduction outlives its state; each state, an infeasible one
    included, equals ``Presolved`` of its rows field for field.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self.ground = ground = system.ground
        self.pure = system.pure
        # the mask whose sets map onto their complements: none in mixed mode
        self._folded = ground.reference_mask if self.pure else 0
        if not self.pure:
            elemental = system.ineq == "elemental"
            self.rows = system.constraints if elemental else system._generate("elemental")
            self.var_count = ground.var_count
            return
        r = self.var_count = ground.reference_mask
        p, full, h = r - 1, ground.full_mask, r >> 1
        labels = ground.labels
        # normalize, then the scheme row of each player set A at index A
        scheme = [self.map_row(row) for row in qss_constraints(system.structure, ground)]
        if any(scheme[a].rhs == scheme[p ^ a].rhs for a in range(1, h)):
            raise StructureError(
                "a pure quotient needs a self-dual structure; its scheme rows contradict purity"
            )
        rows = [_nonneg_constraint(labels, x) for x in range(1, r)]
        for ei in range(ground.total):
            for ej in range(ei + 1, ground.total):
                i_bit, j_bit = 1 << ei, 1 << ej
                pair = f"ssa:{labels[i_bit]};{labels[j_bit]}|"
                rest = full & ~(i_bit | j_bit)
                for k in _submasks(rest):
                    # K and rest\K give one row; the submasks holding the
                    # top of rest come first and are the larger of a pair
                    if k < rest & ~k:
                        break
                    x, y = i_bit | k, j_bit | k
                    xy = x | y
                    if k & r:  # all four sets hold R: complementing reverses their order
                        terms = ((full ^ y, 1), (full ^ x, 1), (full ^ k, -1))
                        if xy != full:
                            terms = ((full ^ xy, -1),) + terms
                    else:
                        mapped = {}
                        for v, c in ((k, -1), (x, 1), (y, 1), (xy, -1)):
                            v = full ^ v if v & r else v
                            mapped[v] = mapped.get(v, 0) + c
                        mapped.pop(0, None)
                        terms = tuple(sorted([t for t in mapped.items() if t[1]]))
                    rows.append(LinearConstraint(pair + labels[k], terms, ">=", 0))
        i_norm = self._inequalities = len(rows)
        rows.extend(scheme)
        self.rows = tuple(rows)
        # the other scheme rows and recover:P reduce to 0 = 0; record 0
        # pins S(P) = 1, record A < h pins S(P\A) = S(A) - rest_rhs[A]
        rest_rhs = [1] + [scheme[a].rhs - 1 for a in range(1, h)]
        self._records = (
            [p] + [p ^ a for a in range(1, h)],
            [1] + [-1] * (h - 1),
            [{}] + [{a: 1} for a in range(1, h)],
            rest_rhs,
            [{i_norm: 1}] + [{i_norm: -1, i_norm + a: 1} for a in range(1, h)],
        )

    def _reduce(self, rows, start: int, reduced: dict) -> bool:
        """Substitute the records into the ``>=`` rows ``rows``, numbered from
        ``start``, keeping the first row of each result in ``reduced``.

        A row left with no term reads ``0 >= rhs``: False when rhs > 0,
        which only an added row can read, else the row is dropped.
        """
        h, p, rest_rhs = self.var_count >> 1, self.var_count - 1, self._records[3]
        for idx, (_, terms, _, rhs) in enumerate(rows, start):
            kept, weights = {}, {}
            for y, c in reversed(terms):  # masks down, so records up
                if y < h or y > p:
                    kept[y] = kept.get(y, 0) + c
                elif y == p:
                    weights[0] = c
                    rhs -= c
                else:
                    k = p ^ y
                    weights[k] = -c
                    kept[k] = kept.get(k, 0) + c
                    rhs += c * rest_rhs[k]
            items = tuple(sorted([t for t in kept.items() if t[1]]))
            if items:
                reduced.setdefault((items, rhs), (idx, weights))
            elif rhs > 0:
                return False
        return True

    def _state(self, rows, added=()) -> Presolved:
        """The presolve of ``rows``, which are ``self.rows`` then the mapped ``added``.

        Mixed mode derives it; pure mode reduces the ``>=`` rows in closed
        form and hands them to ``Presolved.from_reduction``, with None
        when an added row reduces to ``0 >= rhs > 0``.
        """
        if not self.pure:
            return Presolved(rows)
        reduced = {}
        self._reduce(self.rows[:self._inequalities], 0, reduced)
        # whole coefficients as ints, as Presolved.reduce_form divides them out
        added = [
            (rid, [(v, c.numerator if c.denominator == 1 else c) for v, c in terms], rel, rhs)
            for rid, terms, rel, rhs in added
        ]
        feasible = self._reduce(added, len(self.rows), reduced)
        return Presolved.from_reduction(rows, self._records, reduced if feasible else None)

    @cached_property
    def presolved(self) -> Presolved:
        """The presolve of ``rows``, shared by every problem without rows of its own."""
        return self._state(self.rows)

    def problem(self, num_vars: int, form, extra=()) -> LPProblem:
        """The LP that minimizes ``form`` over ``rows`` plus the ``>=`` rows ``extra``.

        ``form`` and ``extra`` are on the system's variables and are
        mapped here; ``num_vars`` counts those variables and any of the
        problem's own, such as the t of a minmax objective.  Without
        ``extra`` the problem shares ``presolved``; with it the problem
        gets a state of its own, built whole.  ``ValueError`` for an
        ``extra`` row that is not ``>=``.
        """
        objective = self.map_terms(form)
        if not extra:
            return LPProblem(num_vars, objective, self.rows, self.presolved)
        if any(row.rel != ">=" for row in extra):
            raise ValueError("a problem adds only >= rows")
        added = tuple(self.map_row(row) for row in extra)
        rows = self.rows + added
        return LPProblem(num_vars, objective, rows, self._state(rows, added))

    def map_terms(self, terms) -> tuple[tuple[int, Fraction], ...]:
        """Sparse form of ``terms`` on the quotient's variables."""
        r, full = self._folded, self.ground.full_mask
        return sparse_form(*((full & ~v if v & r else v, c) for v, c in terms))

    def map_row(self, row: LinearConstraint) -> LinearConstraint:
        return row._replace(terms=self.map_terms(row.terms))

    def lift(self, primal) -> dict[int, Fraction]:
        """The system's point for a quotient primal: S(X) = S(F\\X) when R is in X."""
        r, full = self._folded, self.ground.full_mask
        return {v: primal[full & ~v if v & r else v] for v in range(self.ground.var_count)}

    def cancel(self, residual: dict[int, int]) -> dict[str, int]:
        """Multipliers on the system's rows that add up to ``-residual``.

        ``residual`` is a combination of the system's rows minus a form,
        with weights that make it vanish on the quotient: c * (S(X) -
        S(F\\X)) on complementary pairs, plus a term on S(F).  Each pair
        is cancelled by |c| times the :func:`complement_chain` of X when
        c < 0, or of F\\X when c > 0, which adds |c| * S(F) and nothing to
        the right-hand side; ``purity`` absorbs the S(F) total.  In mixed
        mode the residual is empty, and so is the result.
        """
        ground = self.ground
        full, r = ground.full_mask, ground.reference_mask
        mult = {"purity": -residual.get(full, 0)}
        for v, c in residual.items():
            if v & r and v != full:
                for row in complement_chain(ground, v if c < 0 else full & ~v):
                    mult[row.id] = mult.get(row.id, 0) + abs(c)
                mult["purity"] -= abs(c)
        return {rid: u for rid, u in mult.items() if u}


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
        chain.append(_wm_constraint(ground.labels, z, i | (full & ~z)))
        z &= ~i
    return chain


def build_system(
    structure: AccessStructure,
    *,
    pure: bool = True,
    ineq: str = "full",
) -> ConstraintSystem:
    """The constraint system of a quantum structure; no row is made yet."""
    return ConstraintSystem(structure, pure=pure, ineq=ineq)
