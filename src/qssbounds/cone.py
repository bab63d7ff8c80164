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
  elemental rows, whatever its family.  It folds every equality into one
  table from each mask to a free variable plus a constant, so the LP has
  ``>=`` rows only, and a bound's quotient (:meth:`ConstraintSystem.folded`)
  also folds each orbit of the structure's symmetries into one variable.
  :meth:`Quotient.cancel` and the elemental wm rows of
  :func:`complement_chain` carry a combination of folded rows back onto
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
from the one printer ``GroundSet.labels``.  Every row is made from
masks by the builders here, which print its id, and kept in the
system's memo under that id.  A bound's rows reach the memo from masks,
so a bound parses no id; :meth:`ConstraintSystem.row` parses an id the
memo lacks and accepts it only if the builder prints that id again and
the row is a member of the system's family.  So replaying a certificate
costs its own entries, not the 2^(2·elements) rows of the full family,
and works on ground sets too large to generate.  ``len`` and
:meth:`ConstraintSystem.order_key` count rows and order elemental ids in
closed form, so :func:`vn_inequalities` and the ordered list of every
row (``constraints``) run only for ``--dump-system`` and witness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .simplex import LinearConstraint, LPProblem, Presolved, add_scaled
from .structures import CAPACITY, AccessStructure, CapacityError, StructureError, symmetries


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
        if mask < 0:
            raise ValueError(f"no subset has the negative mask {mask}")
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
        self._folds: dict[int, Quotient] = {}

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
        """Every row, in generation order, generated on first read.

        The rows also fill the memo of :meth:`row`, which once it holds
        every row parses only ids that name none.
        """
        rows = vn_inequalities(self.ground, self.ineq)
        rows.extend(qss_constraints(self.structure, self.ground))
        if self.pure:
            rows.append(purity_constraint(self.ground))
        self._memo.update((c.id, c) for c in rows)
        return tuple(rows)

    def order_key(self, rid: str) -> tuple[int, ...]:
        """Sort key of ``rid`` in elemental generation order, made from its row.

        Certificates name elemental rows only, whatever the family, so the
        key is theirs: families keep generation order; then ``ssa:A;B|C``
        sorts by (A, B, -C), ``wm:A;B|C`` by (C, -B) and any other row by
        its first term.
        """
        family, terms = rid.partition(":")[0], self.row(rid).terms
        rank = ("nonneg", "ssa", "wm", "normalize", "recover", "purity").index(
            "recover" if family == "secrecy" else family
        )
        if family not in ("ssa", "wm"):
            return (rank, terms[0][0])
        x, y = (v for v, c in terms if c > 0)
        if family == "ssa":
            return (rank, x & ~y, y & ~x, -(x & y))
        return (rank, x & y, -max(x & ~y, y & ~x))

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

    def folded(self, players: int) -> Quotient:
        """The quotient folded by the symmetries that fix the player set ``players``.

        They are the structure's :func:`structures.symmetries` that map the
        mask ``players`` onto itself and, in pure mode, fix the top player,
        whose sets the pure table treats apart.  A trivial group gives
        ``quotient`` itself; each folded quotient lives as long as the
        system, like ``quotient``.
        """
        fold = self._folds.get(players)
        if fold is None:
            top = 1 << (self.ground.players - 1) if self.pure else 0
            group = symmetries(self.structure, players, top)
            fold = self._folds[players] = Quotient(self, group) if group else self.quotient
        return fold

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

    Either way the variables are the masks 1 to ``var_count``, unless a
    ``group`` of player permutations (generators from
    :func:`structures.symmetries`, in pure mode fixing h, each with a
    lookup table of its image of every mask) folds them further.  It
    permutes the rows and commutes with the table, which then maps each
    mask onto the smallest mask of its orbit, and the rows of one orbit
    fold alike.  The LP is the unfolded one restricted to the points the
    group fixes, which hold an optimum of any objective the group fixes
    (Bödi, Herr and Joswig, Math. Program. 2013).

    The rows are the elemental ``>=`` rows folded in generation order,
    each ``(terms, rhs)`` kept once under its first id; a row that folds
    to ``0 >= c`` is dropped when c <= 0 and kept when c > 0, so the LP
    comes out infeasible.  A folded row depends only on its masks' table
    entries, so the rows are made from masks, one fold per key of entries
    (X's for ``nonneg:X``; for an ssa or wm row, those of its negative
    masks, then the unordered pair of those of its positive ones).  Pure
    mode skips what folds to a row it has or to ``0 >= c`` with c <= 0:
    ``nonneg:X`` for X holding R, ``ssa:i;j|K`` for the smaller K of each
    pair {K, rest\\K} (rest = F\\{i,j}), and every wm row.  Only a kept row
    gets an id, and it records its builder and masks, from which
    :meth:`original` makes the system's row with no id parsed.
    :meth:`lift` gives a point its pinned entries back, and :meth:`cancel`
    carries a combination of folded rows back onto the system's own rows.
    A lifted quotient point satisfies every elemental row, which has the
    value of its folded row here, and so every row of either family,
    whose cones are the same.
    """

    def __init__(self, system: ConstraintSystem, group: tuple[tuple[int, ...], ...] = ()) -> None:
        self.ground = ground = system.ground
        self.pure, self.structure = system.pure, system.structure
        self._memo = system._memo  # the rows that orbit, original and cancel build
        r, p, full = ground.reference_mask, ground.player_mask, ground.full_mask
        # the group acts on the ground set, fixing R; the image of a mask
        # holding element e is that of the mask below 1 << e plus g[e]
        self.group = tuple(g + (ground.players,) for g in group)
        self._images = [[0] for _ in self.group]
        for g, image in zip(self.group, self._images):
            for e in g:
                image += [m | 1 << e for m in image]
        authorized = system.structure.mask_authorized
        shift = [1] + [-1 if authorized(a) else 1 for a in range(1, r)]
        h = r if not self.pure else r >> 1  # the variables lie below h
        if not self.pure:
            self._pins = [(x, 0) for x in range(r)] + [(a, shift[a]) for a in range(r)]
        elif any(shift[a] == shift[p ^ a] for a in range(1, h)):
            raise StructureError(
                "a pure quotient needs a self-dual structure; its scheme rows contradict purity"
            )
        else:
            players = [(y, 0) for y in range(h)] + [(p ^ y, shift[p ^ y]) for y in range(h, r)]
            self._pins = players + [players[full ^ x] for x in range(r, full + 1)]
        least = list(range(h))  # each orbit below h walked from its least mask
        for x in range(h):
            todo = [x] if least[x] == x else []
            for y in todo:  # the walk appends to the list it reads
                for image in self._images:
                    if least[image[y]] != x:
                        least[image[y]] = x
                        todo.append(image[y])
        self.var_count = len(set(least)) - 1  # the orbits but that of ∅
        self._table = [(least[m], c) for m, c in self._pins]
        self._sources = {}  # each kept row's source, by id
        self.rows = self._rows()

    def _rows(self) -> tuple[LinearConstraint, ...]:
        """The elemental rows folded in generation order, one fold per key of table entries."""
        ground, fold, kept, seen, pure = self.ground, self._fold, {}, set(), self.pure
        labels, full = ground.labels, ground.full_mask
        code = [4 * m + c for m, c in self._table]  # one int per table entry

        def keep(prefix, mask, source, terms):
            terms, constant = fold(terms)
            if (terms or constant < 0) and (terms, -constant) not in kept:
                rid = prefix + labels[mask]
                kept[terms, -constant] = LinearConstraint(rid, terms, ">=", -constant)
                self._sources[rid] = source

        for x in range(1, ground.reference_mask if pure else ground.var_count):
            if code[x] not in seen:
                seen.add(code[x])
                keep("nonneg:", x, (_nonneg_constraint, x), ((x, 1),))
        for ei in range(ground.total):
            for ej in range(ei + 1, ground.total):
                i_bit, j_bit = 1 << ei, 1 << ej
                pair = f"ssa:{labels[i_bit]};{labels[j_bit]}|"
                rest = full & ~(i_bit | j_bit)
                # K and rest\K fold alike in pure mode, which keeps the first: the larger
                top = 1 << rest.bit_length() >> 1 if pure else 0  # the top of rest
                for k in _submasks(rest):
                    if k < top:
                        break
                    x, y = i_bit | k, j_bit | k
                    a, b = code[x], code[y]
                    key = (code[k], code[x | y], a, b) if a < b else (code[k], code[x | y], b, a)
                    if key not in seen:
                        seen.add(key)
                        keep(pair, k, (_ssa_constraint, x, y), ((k, -1), (x, 1), (y, 1), (x | y, -1)))
        for e in range(0 if pure else ground.total):
            e_bit, rest = 1 << e, full & ~(1 << e)
            for k in _submasks(rest):  # one wm row per partition {K, rest\K}, K the larger
                other = rest & ~k
                if k < other:
                    break
                x, y = e_bit | k, e_bit | other
                key = (*sorted((code[other], code[k])), *sorted((code[x], code[y])))
                if key not in seen:
                    seen.add(key)
                    keep(f"wm:{labels[other]};{labels[k]}|", e_bit, (_wm_constraint, x, y),
                         ((other, -1), (k, -1), (x, 1), (y, 1)))
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
        ``extra`` row that is not a ``>=`` row of ints with ``ValueError``.
        """
        objective, constant = self.fold(form)
        if not extra:
            return LPProblem(num_vars, objective, self.rows, self.presolved), constant
        added = {}  # extra rows of one orbit fold alike, and the first is kept
        for rid, terms, rel, rhs in extra:
            terms, offset = self.fold(terms)
            row = LinearConstraint(rid, terms, rel, rhs - offset)
            added.setdefault((terms, rel, row.rhs), row)
        rows = self.rows + tuple(added.values())
        return LPProblem(num_vars, objective, rows, Presolved(rows)), constant

    def fold(self, terms) -> tuple[tuple[tuple[int, int | Fraction], ...], int | Fraction]:
        """``terms`` on the quotient's variables: their sparse form and constant.

        The system's form ``terms`` equals the sparse form plus the
        constant at every point that satisfies the equalities; a
        variable outside the ground set's masks, such as a minmax t,
        maps to itself.  A negative mask names no subset and is a
        ``ValueError``.
        """
        terms = tuple(terms)
        low = min(terms, default=(0,))[0]  # the lowest mask
        if low < 0:
            raise ValueError(f"no subset has the negative mask {low}")
        return self._fold(terms)

    def _fold(self, terms):
        """`fold` without its mask check, for the rows the generators make."""
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

    def orbit(self, row: LinearConstraint, extra=()) -> list[LinearConstraint]:
        """``row`` and every other row the group maps it onto, ``row`` first.

        The orbit is found on the terms through the image tables, and a
        variable above the masks (a minmax t) is fixed.  An image in
        ``extra`` is that row, and any other an elemental row built from
        its masks with coefficient 1 and kept in the system's row memo."""
        full, labels, family = self.ground.full_mask, self.ground.labels, row.family
        found, todo = {row.terms: row}, [row.terms]
        while todo:
            terms = todo.pop()
            for table in self._images:
                image = tuple(sorted([(table[v] if v <= full else v, c) for v, c in terms]))
                if image not in found:
                    found[image] = None
                    todo.append(image)
        builders = {"nonneg": _nonneg_constraint, "ssa": _ssa_constraint, "wm": _wm_constraint}
        build = builders.get(family)  # None for an extra row's family
        others = {r.terms: r for r in extra}
        for terms, image in found.items():
            if terms in others:
                found[terms] = others[terms]
            elif image is None:  # named by its masks with coefficient 1, in increasing order
                image = build(labels, *(v for v, c in terms if c > 0))
                found[terms] = self._memo.setdefault(image.id, image)
        return list(found.values())

    def original(self, row: LinearConstraint) -> LinearConstraint:
        """The elemental row the kept ``row`` folds from, built from its masks into the row memo."""
        build, *masks = self._sources[row.id]
        source = build(self.ground.labels, *masks)
        return self._memo.setdefault(source.id, source)

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
        on the equalities cancel ``residual``.  Each row is built and memoized.
        """
        ground, memo = self.ground, self._memo
        full, r, p, labels = ground.full_mask, ground.reference_mask, ground.player_mask, ground.labels
        left, mult, folded = dict(residual), {}, {}

        def use(row, u):  # memoize ``row`` and add u to its multiplier
            mult[row.id] = mult.get(row.id, 0) + u
            return memo.setdefault(row.id, row)

        add_scaled(folded, ((full ^ v if self.pure and v & r else v, c) for v, c in residual.items()), 1)
        for v, c in folded.items():
            # the equalities' table maps the variable that the scheme row
            # of A pins to (A, shift(A)), and the one normalize pins to (∅, 1)
            a, shift = self._pins[v]
            if shift and a:
                add_scaled(left, use(_scheme_constraint(self.structure, labels, r, a), c).terms, c)
        total = left.get(r, 0) + (left.get(p, 0) if self.pure else 0)
        use(_normalize_constraint(r), -total)
        add_scaled(left, ((r, 1),), -total)
        if self.pure:
            purity = -left.get(full, 0)
            for v, c in left.items():
                if v & r and v != full:
                    for row in complement_chain(ground, v if c < 0 else full & ~v):
                        use(row, abs(c))
                    purity -= abs(c)
            use(purity_constraint(ground), purity)
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
