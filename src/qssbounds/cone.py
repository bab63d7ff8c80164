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
  elemental rows, whatever its family.  The quotient alone decides the
  LP's variables: it folds every equality (purity, the scheme rows and
  normalization) into one table from each mask to a free variable plus
  a constant, so the LP has ``>=`` rows only, and with
  :meth:`Quotient.cancel` and the elemental wm rows of
  :func:`complement_chain` it carries a combination of folded rows
  back onto the system's own rows.

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
rows, mixed-mode quotients.
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
    """A system's ``>=`` rows on the variables its equalities leave free.

    The quotient alone decides the variables of every LP solved on a
    system, and it owns every equality: no LP it makes has an ``=`` row.
    Each equality pins one variable to another plus a constant, and one
    table maps each mask to that ``(mask, constant)`` pair.  With
    shift(A) = -1 for an authorized player set A and +1 for any other
    (∅ included), the scheme rows and ``normalize`` read S(A ∪ R) =
    S(A) + shift(A), so S(R) = 1.

    * Mixed mode maps every S(A ∪ R) onto S(A) + shift(A); the variables
      are the nonempty player sets.
    * Pure mode first writes S(X) as S(F\\X) for every X that holds R,
      where F is the whole ground set (S(F) becomes S(∅), which is
      zero); then S(Y) becomes S(P\\Y) + shift(P\\Y) for every player
      set Y that holds the top player h, so S(P) = 1.  The variables are
      the nonempty masks below h.  A pure quotient needs a self-dual
      structure (of each player set A and its complement P\\A exactly
      one is authorized), and ``StructureError`` refuses any other: its
      scheme rows contradict purity.

    Either way the variables are the masks 1 to ``var_count``.  The rows
    are the elemental ``>=`` rows folded, each ``(terms, rhs)`` kept
    once under its first id.  A row that folds to ``0 >= c`` is dropped
    when c <= 0 and kept when c > 0, so the LP comes out infeasible.
    Pure mode makes them from masks: ``nonneg:X`` for X below R, and
    ``ssa:i;j|K`` for the larger K of each pair {K, rest\\K} (rest =
    F\\{i,j}; K itself when rest is empty), which fold alike; the wm
    rows fold to rows it already has or to ``0 >= c`` with c <= 0.
    Mixed mode folds the elemental rows in generation order.
    :meth:`lift` reads the table to give a point its pinned entries back,
    and :meth:`cancel` carries a combination of folded rows back onto the
    system's own rows.  A lifted quotient point satisfies every elemental
    row, which has the value of its folded row here, and so every row of
    either family, whose cones are the same.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self.ground = ground = system.ground
        self.pure = system.pure
        r, p, full = ground.reference_mask, ground.player_mask, ground.full_mask
        authorized = system.structure.mask_authorized
        shift = [1] + [-1 if authorized(a) else 1 for a in range(1, r)]
        if not self.pure:
            self.var_count = p
            self._table = [(x, 0) for x in range(r)] + [(a, shift[a]) for a in range(r)]
            elemental = system.ineq == "elemental"
            rows = system.constraints if elemental else system._generate("elemental")
            self.rows = self._folded_rows(row for row in rows if row.rel == ">=")
            return
        h = r >> 1
        if any(shift[a] == shift[p ^ a] for a in range(1, h)):
            raise StructureError(
                "a pure quotient needs a self-dual structure; its scheme rows contradict purity"
            )
        self.var_count = h - 1
        players = [(y, 0) for y in range(h)] + [(p ^ y, shift[p ^ y]) for y in range(h, r)]
        self._table = players + [players[full ^ x] for x in range(r, full + 1)]
        self.rows = self._folded_rows(self._pure_rows())

    def _pure_rows(self):
        """The elemental rows that pure mode folds, made from masks."""
        ground = self.ground
        labels, full = ground.labels, ground.full_mask
        for x in range(1, ground.reference_mask):
            yield _nonneg_constraint(labels, x)
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
                    terms = ((k, -1), (x, 1), (y, 1), (x | y, -1))
                    yield LinearConstraint(pair + labels[k], terms, ">=", 0)

    def _folded_rows(self, rows) -> tuple[LinearConstraint, ...]:
        """``rows`` folded, each ``(terms, rhs)`` once under its first id."""
        kept = {}
        for rid, terms, rel, rhs in rows:
            terms, constant = self.fold(terms)
            rhs -= constant
            if (terms or rhs > 0) and (terms, rhs) not in kept:
                kept[terms, rhs] = LinearConstraint(rid, terms, rel, rhs)
        return tuple(kept.values())

    @cached_property
    def presolved(self) -> Presolved:
        """The presolve of ``rows``, shared by every problem without rows of its own."""
        return Presolved(self.rows)

    def problem(self, num_vars: int, form, extra=()) -> tuple[LPProblem, int | Fraction]:
        """The LP that minimizes ``form`` over ``rows`` plus the ``>=`` rows ``extra``,
        and the constant ``form`` folds to, which the LP's optimum leaves out.

        ``form`` and ``extra`` are on the system's variables and are
        folded here; ``num_vars`` counts those variables and any of the
        problem's own, such as the t of a minmax objective, which map to
        themselves.  Without ``extra`` the problem shares ``presolved``;
        with it the problem gets a state of its own, which refuses an
        ``extra`` row that is not ``>=`` with ``ValueError``.
        """
        objective, constant = self.fold(form)
        if not extra:
            return LPProblem(num_vars, objective, self.rows, self.presolved), constant
        added = []
        for rid, terms, rel, rhs in extra:
            terms, offset = self.fold(terms)
            added.append(LinearConstraint(rid, terms, rel, rhs - offset))
        rows = self.rows + tuple(added)
        return LPProblem(num_vars, objective, rows, Presolved(rows)), constant

    def fold(self, terms) -> tuple[tuple[tuple[int, int | Fraction], ...], int | Fraction]:
        """``terms`` on the quotient's variables: their sparse form and constant.

        The system's form ``terms`` equals the sparse form plus the
        constant at every point that satisfies the equalities; a
        variable outside the ground set's masks, such as a minmax t,
        maps to itself.
        """
        table, size = self._table, len(self._table)
        acc, constant = {}, 0
        for v, c in terms:
            if v < size:
                v, shift = table[v]
                if shift:
                    constant += c * shift
            acc[v] = acc.get(v, 0) + c
        acc.pop(0, None)
        return tuple(sorted([t for t in acc.items() if t[1]])), constant

    def lift(self, primal) -> dict[int, Fraction]:
        """The system's point for a quotient primal, pinned entries included."""
        return {v: primal[m] + shift for v, (m, shift) in enumerate(self._table)}

    def cancel(self, residual: dict[int, int]) -> dict[str, int]:
        """Multipliers on the system's rows that add up to ``-residual``.

        ``residual`` is a combination of the system's rows minus a form,
        with weights that make it fold to zero.  In three steps:

        1. each variable the scheme row of A pins (S(A ∪ R) in mixed
           mode, S(P\\A) in pure mode once each S(X) with R in X is
           written as S(F\\X)) is cancelled by its coefficient times that
           ``recover:A`` or ``secrecy:A`` row, which adds the same
           coefficient to S(A) and S(R);
        2. ``normalize`` takes the S(R) total, S(R) + S(P) in pure mode;
        3. in pure mode, c * (S(X) - S(F\\X)) is left on complementary
           pairs, plus a term on S(F).  Each pair is cancelled by |c|
           times the :func:`complement_chain` of X when c < 0, or of
           F\\X when c > 0, which adds |c| * S(F) and nothing to the
           right-hand side; ``purity`` absorbs the S(F) total.

        Each equality pins a variable of its own, so no other multipliers
        on the equalities cancel ``residual``.
        """
        ground = self.ground
        full, r, p, labels = ground.full_mask, ground.reference_mask, ground.player_mask, ground.labels
        left, mult, folded = dict(residual), {}, {}
        add_scaled(folded, ((full ^ v if self.pure and v & r else v, c) for v, c in residual.items()), 1)
        for v, c in folded.items():
            # the table maps the variable that the scheme row of A pins to
            # (A, shift(A)), and the one normalize pins to (∅, 1)
            a, shift = self._table[v]
            if shift and a:
                mult[f"{'recover' if shift < 0 else 'secrecy'}:{labels[a]}"] = c
                add_scaled(left, ((a, 1), (r, 1), (a | r, -1)), c)
        total = left.get(r, 0) + (left.get(p, 0) if self.pure else 0)
        mult["normalize"] = -total
        add_scaled(left, ((r, 1),), -total)
        if self.pure:
            mult["purity"] = -left.get(full, 0)
            for v, c in left.items():
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
