"""Monotone access structures over small player sets.

Players are numbered 1..n and subsets are bitmasks with player i at bit
i-1.  An access structure is stored as the antichain of its minimal
authorized sets; everything else (authorization tests, duality,
quantum-validity, purification, the Csirmaz staircase family) is derived
from that antichain.  All values are immutable and all operations are
pure functions, so structures can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

#: Hard cap on ground-set elements (players, purifier and reference system).
CAPACITY = 16


class StructureError(ValueError):
    """Invalid access-structure input (bad index, broken antichain, ...)."""


class CapacityError(ValueError):
    """An operation would exceed the supported number of elements."""


@dataclass(frozen=True)
class PlayerSet:
    """Subset of {1..n} encoded as a bitmask, player i at bit i-1."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= CAPACITY:
            raise CapacityError(f"ground size {self.n} outside 1..{CAPACITY}")
        if self.bits < 0 or self.bits & ~((1 << self.n) - 1):
            raise StructureError(
                f"bitmask {self.bits:#x} sets bits outside ground {{1..{self.n}}}"
            )

    @classmethod
    def from_players(cls, n: int, players: Iterable[int]) -> "PlayerSet":
        bits = 0
        for p in players:
            if not 1 <= p <= n:
                raise StructureError(f"player {p} outside ground {{1..{n}}}")
            bits |= 1 << (p - 1)
        return cls(bits, n)

    def players(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, player: int) -> bool:
        return 1 <= player <= self.n and bool(self.bits >> (player - 1) & 1)

    def sort_key(self) -> tuple[int, int]:
        """Canonical order: cardinality ascending, bitmask value ascending."""
        return (self.bits.bit_count(), self.bits)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.players()) + ")"


@dataclass(frozen=True)
class AccessStructure:
    """Monotone access structure given by its antichain of minimal sets.

    The constructor validates the antichain and the canonical order; use
    :func:`from_minimal_sets` to build one from raw player lists.
    """

    n: int
    minimal_sets: tuple[PlayerSet, ...]

    def __post_init__(self) -> None:
        # Reserve one element for the reference system of the entropy model.
        if not 1 <= self.n <= CAPACITY - 1:
            raise CapacityError(f"player count {self.n} outside 1..{CAPACITY - 1}")
        if not self.minimal_sets:
            raise StructureError("an access structure needs at least one authorized set")
        for s in self.minimal_sets:
            if s.n != self.n:
                raise StructureError("minimal set declared on a different ground")
            if s.bits == 0:
                raise StructureError("minimal sets must be nonempty")
        bits = [s.bits for s in self.minimal_sets]
        for i, a in enumerate(bits):
            for b in bits[i + 1:]:
                if not a & ~b or not b & ~a:
                    a, b = self.minimal_sets[i], self.minimal_sets[bits.index(b, i + 1)]
                    raise StructureError(f"antichain violated: {a} and {b} are nested")
        if list(self.minimal_sets) != sorted(self.minimal_sets, key=PlayerSet.sort_key):
            raise StructureError("minimal sets not in canonical order")

    def is_authorized(self, subset: PlayerSet) -> bool:
        """True iff ``subset`` contains some minimal authorized set."""
        if subset.n != self.n:
            raise StructureError("subset declared on a different ground")
        return self.mask_authorized(subset.bits)

    def mask_authorized(self, mask: int) -> bool:
        """Authorization test on a raw bitmask (player i at bit i-1)."""
        return any(not m.bits & ~mask for m in self.minimal_sets)

    def subset(self, players: Iterable[int]) -> PlayerSet:
        return PlayerSet.from_players(self.n, players)

    def minimal_player_lists(self) -> list[list[int]]:
        return [list(m.players()) for m in self.minimal_sets]


def from_minimal_sets(n: int, sets: Iterable[Iterable[int]]) -> AccessStructure:
    """Build the canonical access structure from lists of player indices.

    Input order is irrelevant; the result stores the antichain sorted by
    (cardinality, bitmask).  Raises :class:`StructureError` on an empty
    collection, an empty member, an out-of-range index, or a violated
    antichain (one set containing another, duplicates included).
    """
    members = [PlayerSet.from_players(n, s) for s in sets]
    if not members:
        raise StructureError("no authorized sets given")
    for m in members:
        if m.bits == 0:
            raise StructureError("authorized sets must be nonempty")
    members.sort(key=PlayerSet.sort_key)
    return AccessStructure(n, tuple(members))


def _blocker(masks: Iterable[int]) -> list[int]:
    """Minimal transversals of the given sets, by Berge's sequential algorithm.

    After each set m the list holds the minimal transversals of the sets
    read so far: those that meet m stay, every other one is extended by
    each element of m, and an extension that contains another transversal
    is dropped.
    """
    blocker = [0]
    for m in masks:
        bits = [1 << i for i in range(m.bit_length()) if m >> i & 1]
        keep = [t for t in blocker if t & m]
        grown = {t | b for t in blocker if not t & m for b in bits}
        both = keep + list(grown)
        blocker = keep + [x for x in grown if not any(y != x and y & x == y for y in both)]
    return blocker


def _from_masks(n: int, masks: Iterable[int]) -> AccessStructure:
    """The structure on {1..n} whose minimal sets are the given antichain."""
    sets = sorted((PlayerSet(m, n) for m in masks), key=PlayerSet.sort_key)
    return AccessStructure(n, tuple(sets))


def dual(structure: AccessStructure) -> AccessStructure:
    """Dual structure: complements of the unauthorized sets.

    A set is in the dual exactly when it meets every authorized set, so
    the dual's minimal sets are the minimal transversals of the minimal
    sets; they are found without enumerating the 2^n subsets.
    """
    return _from_masks(structure.n, _blocker(m.bits for m in structure.minimal_sets))


def is_quantum(structure: AccessStructure) -> bool:
    """True iff no two authorized sets are disjoint.

    Equivalent to requiring that pairwise intersections of minimal sets
    are nonempty, and to the absence of a set that is authorized together
    with its complement.
    """
    mins = structure.minimal_sets
    return all(
        mins[i].bits & mins[j].bits
        for i in range(len(mins))
        for j in range(i + 1, len(mins))
    )


def unauthorized_transversals(structure: AccessStructure) -> list[int]:
    """Minimal sets of the dual that are unauthorized in ``structure``, as masks.

    A quantum structure is self-dual exactly when there are none, and
    :func:`promote` purifies it with them; a caller that has checked
    :func:`is_quantum` uses these two instead of :func:`is_self_dual` and
    :func:`purify`, which would check it again.
    """
    auth = structure.mask_authorized
    return [t for t in _blocker(m.bits for m in structure.minimal_sets) if not auth(t)]


def is_self_dual(structure: AccessStructure) -> bool:
    """True iff the structure equals its dual.

    A structure lies inside its dual exactly when it is quantum, and the
    dual lies inside it exactly when every minimal set of the dual is
    authorized; neither test builds the dual.
    """
    return is_quantum(structure) and not unauthorized_transversals(structure)


def purify(structure: AccessStructure) -> AccessStructure:
    """Self-dualize a quantum structure by adding one party.

    A self-dual input is returned unchanged (adding a party that sits in
    no minimal set would only distort rate reporting).  Otherwise party
    n+1 is added and, for every pair of complementary unauthorized sets,
    one side is promoted: the authorized sets of the result are those of
    the input plus ``{A + {n+1} : A and complement both unauthorized}``.
    Every subset of {1..n} keeps its authorized/unauthorized status.
    Those A are the unauthorized sets of the dual, so the new minimal sets
    are ``T + {n+1}`` for the minimal sets T of the dual that are unauthorized.
    """
    if not is_quantum(structure):
        raise StructureError("purification requires a quantum access structure")
    return promote(structure, unauthorized_transversals(structure))


def promote(structure: AccessStructure, unauthorized: list[int]) -> AccessStructure:
    """:func:`purify` of a quantum structure, given its :func:`unauthorized_transversals`."""
    n = structure.n
    promoted = [t | 1 << n for t in unauthorized]
    if not promoted:
        return structure
    if n + 1 > CAPACITY - 1:
        raise CapacityError(f"purification would exceed {CAPACITY - 1} players")
    return _from_masks(n + 1, [m.bits for m in structure.minimal_sets] + promoted)


def symmetries(structure: AccessStructure, *fixed: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the player permutations that map the minimal sets onto
    themselves and each mask in ``fixed`` onto itself.

    A generator g sends player i + 1 to player g[i] + 1.  The group is
    never listed (threshold(7,13) has 12! elements): for each base point
    b from the last player down, the permutations that fix the players
    below b are generated by those found so far plus one for each image
    of b not yet in b's orbit, found by `_extend`.  Players map only to
    players of the same signature (the fixed masks that hold them and the
    sizes of the minimal sets that do), and the search runs in player
    order, so the generators depend on the structure and ``fixed`` alone.
    """
    n, mins = structure.n, [m.bits for m in structure.minimal_sets]
    sig = [
        ([f >> i & 1 for f in fixed], sorted(m.bit_count() for m in mins if m >> i & 1))
        for i in range(n)
    ]
    gens: list[tuple[int, ...]] = []
    for b in reversed(range(n)):
        orbit, low = {b}, (1 << b) - 1
        for c in range(b + 1, n):
            if c in orbit or sig[c] != sig[b]:
                continue
            # players below b stay, b goes to c
            g = _extend(mins, sig, [*range(b), c], [m & low | (m >> b & 1) << c for m in mins],
                        [m & (low | 1 << c) for m in mins])
            if g is not None:
                gens.append(g)
                grown = orbit
                while grown:
                    grown = {h[x] for h in gens for x in grown} - orbit
                    orbit |= grown
    return tuple(gens)


def _extend(mins, sig, image, src, dst) -> tuple[int, ...] | None:
    """A symmetry that sends player i + 1 to ``image[i] + 1`` for each i given, or None.

    ``src`` holds the image of each minimal set's part on the players
    mapped so far, and ``dst`` each minimal set's part on their images;
    the two must agree as multisets, or no extension maps the minimal
    sets onto themselves.
    """
    if sorted(src) != sorted(dst):
        return None
    i = len(image)
    if i == len(sig):
        return tuple(image)
    for j in range(len(sig)):
        if j not in image and sig[j] == sig[i]:
            bit = 1 << j
            found = _extend(
                mins, sig, image + [j],
                [s | bit if m >> i & 1 else s for s, m in zip(src, mins)],
                [d | m & bit for d, m in zip(dst, mins)],
            )
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class CsirmazParams:
    """Bookkeeping for a Csirmaz staircase structure, sets as bitmasks.

    ``a_sets`` lists all 2^k subsets of A = {1..k} in decreasing
    cardinality (ties broken by ascending bitmask); ``b_sets`` is the
    chain B_0 = {} up to B_{2^k-2} = B = {k+1..n}.
    """

    n: int
    k: int
    a_sets: tuple[int, ...]
    b_sets: tuple[int, ...]


def csirmaz_k(n: int) -> int:
    """Largest k with n >= 2^k - 2 + k (defined for n >= 4)."""
    if n < 4:
        raise StructureError("the staircase family needs at least 4 players")
    k = 2
    while n >= 2 ** (k + 1) - 2 + (k + 1):
        k += 1
    return k


def csirmaz(n: int) -> tuple[AccessStructure, CsirmazParams]:
    """Csirmaz staircase structure on n players, with its parameters.

    A = {1..k} for the largest k with n >= 2^k - 2 + k and B = {k+1..n}.
    The minimal sets are A_i | B_i for 0 <= i < 2^k - 1 where the A_i
    run over subsets of A in decreasing cardinality and the B_i form a
    prefix chain of B ending with B itself.
    """
    k = csirmaz_k(n)
    a_sets = tuple(sorted(range(1 << k), key=lambda m: (-m.bit_count(), m)))
    count = 2 ** k - 1  # minimal sets; b_sets has indices 0 .. 2^k - 2
    # B_i = {k+1..k+i} below the last index, which holds all of B
    b_sets = tuple(((1 << i) - 1) << k for i in range(count - 1)) + (((1 << (n - k)) - 1) << k,)
    structure = _from_masks(n, [a | b for a, b in zip(a_sets, b_sets)])
    return structure, CsirmazParams(n=n, k=k, a_sets=a_sets, b_sets=b_sets)


def theorem3_reference_bound(k: int) -> Fraction:
    """Closed-form share-size bound (2^(k+1) - 1) / (2k + 1) for k >= 2."""
    if k < 2:
        raise StructureError("the reference bound is defined for k >= 2")
    return Fraction(2 ** (k + 1) - 1, 2 * k + 1)


def structure_to_dict(structure: AccessStructure) -> dict:
    """JSON-ready dict with 1-based player indices in canonical order."""
    return {"n": structure.n, "minimal_sets": structure.minimal_player_lists()}


def structure_from_dict(data: dict) -> AccessStructure:
    """Inverse of :func:`structure_to_dict`; extra keys are ignored."""
    if not isinstance(data, dict):
        raise StructureError("an access structure must be a JSON object")
    try:
        n = data["n"]
        sets = data["minimal_sets"]
    except KeyError as exc:
        raise StructureError(f"missing access-structure field: {exc}") from exc
    if not _is_int(n):
        raise StructureError("player count must be an integer")
    if not isinstance(sets, list) or not all(isinstance(m, list) for m in sets):
        raise StructureError("minimal_sets must be a list of player lists")
    for m in sets:
        for p in m:
            if not _is_int(p):
                raise StructureError(f"player index {p!r} is not an integer")
    return from_minimal_sets(n, sets)


def _is_int(value) -> bool:
    """JSON integer check; ``bool`` is an ``int`` subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)
