"""Bound computation, implied-inequality checking and certificates.

`share_bound` turns an access structure into the entropy constraint
system, attaches an objective over selected share entropies and solves it
exactly.  `bound_setup` turns its keywords into the structure, system
and objective, and the ``verify-cert`` command replays on those.

This module owns the :class:`Certificate`: `_certify` builds it from a
solve's multipliers, `certificate_to_json_dict` and
`certificate_from_json_dict` write and read it with rationals as
``"p/q"`` strings (`rat_str`), and `verify_certificate` replays it by
pure constraint arithmetic, never consulting the solver.  Every
certificate, of a bound or of a check, is replayed before it is
returned.

`check_implied` decides whether a linear inequality over subset
entropies is a consequence of a system by minimizing its slack; the
chain suite drives it, in one loop, over the steps of the staircase
argument.  The lemma suite checks the scheme relations that every
perfect realization must satisfy (:mod:`relations`) by replaying the
hand proof each carries, and falls back to `check_implied` in the same
loop for a target whose proof does not replay.

Every LP here is made by the quotient of the system it is given
(:meth:`cone.Quotient.problem`), the quotient of the elemental rows
whatever the family; a bound LP's is folded further by the structure's
symmetries that fix its objective (:meth:`cone.ConstraintSystem.folded`).
The elemental rows generate the same cone as the full rows and are a
subset of them, id for id, so a certificate on them is also one for the
full system, and a point satisfying them satisfies every full row.  The
quotient folds every equality into its variables, so each LP has ``>=``
rows only, and its objective may fold to a constant, which is added to
the optimum before it is claimed or compared.  `_expand` turns quotient
multipliers into a certificate on the system's rows, and the rows it
names fill the system's row memo, which :meth:`cone.ConstraintSystem.order_key`
and replay read, so a bound parses no id: each LP row's source row
(:meth:`cone.Quotient.original`), its orbit (:meth:`cone.Quotient.orbit`)
and the equalities and wm rows of :meth:`cone.Quotient.cancel`.  The
``ineq`` choice only names the row set that certificates are replayed on
and witnesses are checked against, and both checks run before any
result is returned.

A check's target is solved over the quotient's rows, on their shared
presolved state, and a bound LP or a refutation witness over those rows
plus its own ``>=`` rows, on a state of its own.  The checks of
one suite share one :class:`simplex.Session`: its zero phase runs once,
and each target restarts from the basis of the one before it.  The
session is a local of the suite (or of one `check_implied` call) and
dies with it; a bound LP runs in a fresh session of its own.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .cone import (
    ConstraintSystem,
    GroundSet,
    LinearConstraint,
    Quotient,
    build_system,
    sparse_form,
)
from .relations import SuiteInstance, scheme_relation_instances
from .simplex import LPProblem, LPSolution, Session, add_scaled, solve
from .structures import (
    CAPACITY,
    AccessStructure,
    CapacityError,
    StructureError,
    csirmaz,
    is_quantum,
    promote,
    structure_to_dict,
    theorem3_reference_bound,
    unauthorized_transversals,
)

#: Ground-set sizes above this need a larger ``max_elements``
#: (``--limit-elements``); exact pivoting on larger instances can take far
#: longer than the defaults should.  ``CAPACITY`` admits every structure.
DEFAULT_ELEMENT_LIMIT = 9


class ProverError(RuntimeError):
    """A solve that must succeed came back without an optimum."""


class ObjectivePlayerError(StructureError):
    """An objective names a player that the structure does not have."""


@dataclass(frozen=True)
class Objective:
    """Share-entropy objective: minmax or minsum over the chosen players."""

    kind: str
    players: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("minmax", "minsum"):
            raise StructureError(f"unknown objective kind {self.kind!r}")
        if not self.players:
            raise StructureError("objective needs at least one player")
        if len(set(self.players)) != len(self.players):
            raise StructureError(f"objective names a player twice: {self.players}")
        if min(self.players) < 1:
            raise ObjectivePlayerError(f"objective player {min(self.players)} is below 1")

    @classmethod
    def parse(cls, spec: str, players: Iterable[int] | None, n: int) -> "Objective":
        """``minmax`` or ``minsum`` over ``players`` (all of 1..n when None)."""
        return cls(spec, tuple(range(1, n + 1)) if players is None else tuple(players))

    def describe(self) -> str:
        return f"{self.kind} over players " + ",".join(map(str, self.players))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "players": list(self.players)}


@dataclass(frozen=True)
class Certificate:
    """Replayable nonnegative combination of rows proving a lower bound.

    The weighted sum of the referenced row forms equals ``objective``, the
    minimized form, which for a check records the direction proved, and
    the weighted right-hand sides add up to at least ``claimed_bound``.
    A certificate read from JSON has an empty ``objective``; replay takes
    the objective from its caller.
    """

    claimed_bound: Fraction
    entries: tuple[tuple[str, Fraction], ...]
    objective: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class BoundReport:
    """Proved lower bound on the largest share entropy, with certificate."""

    structure: AccessStructure
    purified: bool
    k: int | None
    theorem3_bound: Fraction | None
    mode: str
    ineq: str
    objective: Objective
    lp_value: Fraction
    rate_upper_bound: Fraction
    certificate: Certificate
    rows: int
    cols: int
    pivots: int
    millis: int

    def to_json_dict(self) -> dict:
        return {
            "structure": structure_to_dict(self.structure),
            "purified": self.purified,
            "k": self.k,
            "theorem3_bound": None if self.theorem3_bound is None else rat_str(self.theorem3_bound),
            "mode": self.mode,
            "ineq": self.ineq,
            "objective": self.objective.to_json_dict(),
            "lp_value": rat_str(self.lp_value),
            "rate_upper_bound": rat_str(self.rate_upper_bound),
            "certificate": certificate_to_json_dict(self.certificate),
            "stats": {
                "rows": self.rows,
                "cols": self.cols,
                "pivots": self.pivots,
                "millis": self.millis,
            },
        }


def certificate_to_json_dict(cert: Certificate) -> dict:
    return {
        "claimed_bound": rat_str(cert.claimed_bound),
        "entries": [
            {"id": rid, "mult": rat_str(mult)} for rid, mult in cert.entries
        ],
    }


def rat_str(value: Fraction) -> str:
    """Canonical "p/q" serialization (never floats); `_RATIONAL` reads it back."""
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")


def _rational_field(value, what: str) -> Fraction:
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"{what} must be a \"p/q\" string with q > 0, not {value!r}")
    return Fraction(int(match[1]), int(match[2]))


def certificate_from_json_dict(data) -> Certificate:
    """Inverse of :func:`certificate_to_json_dict`.

    Strict about shape: a malformed field, a rational that is not a
    ``"p/q"`` string or a repeated row id raises ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ValueError("a certificate must be a JSON object")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError("certificate entries must be a list")
    parsed = []
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"certificate entry {entry!r} is not an object")
        rid = entry.get("id")
        if not isinstance(rid, str):
            raise ValueError(f"certificate row id {rid!r} is not a string")
        if rid in seen:
            raise ValueError(f"certificate names row {rid!r} twice")
        seen.add(rid)
        parsed.append((rid, _rational_field(entry.get("mult"), f"multiplier of {rid!r}")))
    return Certificate(
        claimed_bound=_rational_field(data.get("claimed_bound"), "claimed_bound"),
        entries=tuple(parsed),
        objective=(),
    )


@lru_cache(maxsize=16)
def cached_system(structure: AccessStructure, pure: bool, ineq: str) -> ConstraintSystem:
    return build_system(structure, pure=pure, ineq=ineq)


def objective_rows(
    system: ConstraintSystem, objective: Objective
) -> tuple[tuple[LinearConstraint, ...], tuple[tuple[int, int], ...], int]:
    """Extra linking rows, minimized form and variable count for a bound LP."""
    ground = system.ground
    for p in objective.players:
        if p > ground.players:
            raise ObjectivePlayerError(f"objective player {p} outside 1..{ground.players}")
    if objective.kind == "minmax":
        t_var = ground.var_count
        extra = tuple(
            LinearConstraint(f"objlink:{i}", ((1 << (i - 1), -1), (t_var, 1)), ">=", 0)
            for i in objective.players
        )
        return extra, ((t_var, 1),), ground.var_count + 1
    form = sparse_form(*((1 << (i - 1), 1) for i in objective.players))
    return (), form, ground.var_count


def prepare_structure(
    structure: AccessStructure,
    *,
    pure: bool = True,
    auto_purify: bool = False,
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
) -> tuple[AccessStructure, bool]:
    """The structure a solve runs on, and whether it had to be purified.

    Rejects structures that are not quantum, pure mode on a structure
    that is not self-dual unless ``auto_purify`` is set, and ground sets
    (players plus reference) above ``max_elements``.
    """
    if not is_quantum(structure):
        raise StructureError("proving requires a quantum access structure")
    solved = structure
    unauthorized = unauthorized_transversals(structure) if pure else []
    if auto_purify:
        solved = promote(structure, unauthorized)
    elif unauthorized:
        raise StructureError(
            "pure mode needs a self-dual structure; purify it first "
            "(auto_purify=True, --auto-purify)"
        )
    if solved.n + 1 > max_elements:
        raise CapacityError(
            f"{solved.n + 1} ground elements exceed the limit {max_elements}; "
            f"raise max_elements (--limit-elements, up to {CAPACITY}) for long runs"
        )
    return solved, solved is not structure


def bound_setup(
    structure: AccessStructure, *, auto_purify: bool, mode: str, ineq: str,
    objective: str, players: Iterable[int] | None, max_elements: int,
) -> tuple[AccessStructure, bool, ConstraintSystem, Objective]:
    """The structure, purified flag, system and objective of a bound.

    Reads `share_bound`'s keywords; `Objective.parse` reads the objective
    over the players of the structure to solve.  ``auto_purify`` is
    refused in mixed mode, which never purifies.
    """
    if mode not in ("pure", "mixed"):
        raise StructureError(f"unknown mode {mode!r}")
    if auto_purify and mode == "mixed":
        raise StructureError("auto_purify applies to pure mode only; mixed mode never purifies")
    solved, purified = prepare_structure(
        structure, pure=mode == "pure", auto_purify=auto_purify, max_elements=max_elements
    )
    system = cached_system(solved, mode == "pure", ineq)
    return solved, purified, system, Objective.parse(objective, players, solved.n)


def share_bound(
    structure: AccessStructure,
    *,
    auto_purify: bool = False,
    mode: str = "pure",
    ineq: str = "full",
    objective: str = "minmax",
    players: Iterable[int] | None = None,
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
) -> BoundReport:
    """Exact lower bound on max share entropy, in units of the secret.

    Builds the constraint system for the structure (purifying first when
    ``auto_purify`` is set and the structure is not self-dual), attaches
    the requested objective and solves it on the quotient of the
    elemental rows.  The report carries the exact optimum, its
    reciprocal as an upper bound on the information rate, and a
    certificate on the original rows that has been replayed on the
    ``ineq`` rows before returning.  The LP is solved on the quotient
    folded by the symmetries that fix the objective's players (and the
    top player in pure mode), and each multiplier is spread evenly over
    its row's orbit.  ``rows`` and ``cols`` give the size of that LP: its
    ``>=`` rows, and the quotient's variables plus the objective's own.
    An objective whose LP value is 0, such as the share of a dummy
    player, bounds no rate and raises ``ProverError``.
    """
    started = time.perf_counter()
    solved, purified, system, obj = bound_setup(
        structure, auto_purify=auto_purify, mode=mode, ineq=ineq, objective=objective,
        players=players, max_elements=max_elements,
    )
    extra, form, num_vars = objective_rows(system, obj)
    quotient = system.folded(sum(1 << (i - 1) for i in obj.players))
    problem, constant = quotient.problem(num_vars, form, extra)
    solution = solve(problem)
    if solution.status != "optimal":
        raise ProverError(
            f"bound solve ended {solution.status}; the scheme constraints "
            "should always admit a bounded optimum"
        )
    value = solution.value + constant
    if value <= 0:
        raise ProverError(
            f"the {obj.describe()} objective has LP value {rat_str(value)}, "
            "which bounds no information rate"
        )
    cert = _certify(system, obj, extra, form, problem, solution, value, quotient)

    k = _csirmaz_k_of(structure)
    return BoundReport(
        structure=solved,
        purified=purified,
        k=k,
        theorem3_bound=None if k is None else theorem3_reference_bound(k),
        mode=mode,
        ineq=ineq,
        objective=obj,
        lp_value=value,
        rate_upper_bound=1 / value,
        certificate=cert,
        rows=len(problem.rows),
        # the quotient's variables plus the objective's own (t for minmax)
        cols=quotient.var_count + num_vars - system.ground.var_count,
        pivots=solution.pivots,
        millis=int((time.perf_counter() - started) * 1000),
    )


def _certify(
    system: ConstraintSystem, objective, extra, form,
    problem: LPProblem, solution: LPSolution, claimed: Fraction, quotient: Quotient | None = None,
) -> Certificate:
    """The certificate of ``form`` >= ``claimed`` from an optimal LP on ``quotient``
    (``system.quotient`` when None).

    Its entries are `_expand`'s; ``ProverError`` if it does not replay on
    ``system`` against ``objective`` (an :class:`Objective` or ``form``).
    """
    entries = _expand(system, extra, problem.rows, *solution.multipliers, form, quotient)
    cert = Certificate(claimed, entries, form)
    if not verify_certificate(system, cert, objective=objective):
        raise ProverError("emitted certificate failed independent replay")
    return cert


def _expand(
    system: ConstraintSystem,
    extra: tuple[LinearConstraint, ...],
    rows: Iterable[LinearConstraint],
    multipliers: Iterable[int],
    den: int,
    objective: Iterable[tuple[int, Fraction]],
    quotient: Quotient | None = None,
) -> tuple[tuple[str, Fraction], ...]:
    """Certificate entries on the original rows from quotient multipliers.

    ``multipliers[i] / den`` weights the row of ``extra`` that ``rows[i]``
    names, or else the one `Quotient.original` makes from its source
    (``ProverError`` if that prints another id), spread evenly over the
    row's orbit under the group of ``quotient`` (the LP's,
    ``system.quotient`` by default).  The spread sum is fixed by the
    group, as the objective is, and folds as the row does, so the two
    agree once the equalities are folded.  The work is in ints, a common
    multiple of ``den`` times the certificate.  The rows minus the
    objective leave what the equalities pin, and the rows that
    :meth:`cone.Quotient.cancel` returns for it are added.  Entries come
    out in the system's row order (its ``order_key``), then ``extra``'s.
    """
    quotient = quotient or system.quotient
    by_id = {row.id: row for row in extra}
    orbits = []
    for row, u in zip(rows, multipliers):
        if u:
            source = by_id.get(row.id) or quotient.original(row)
            if source.id != row.id:
                raise ProverError(f"the LP row {row.id!r} was recorded from the row {source.id!r}")
            orbits.append((u, quotient.orbit(source, extra)))
    scale = math.lcm(*(len(orbit) for _, orbit in orbits))
    den *= scale
    mult, left = {}, {}  # left is den times the weighted rows minus the objective
    for u, orbit in orbits:  # disjoint: the rows of one orbit fold alike, and one is kept
        u = u * scale // len(orbit)
        for row in orbit:
            mult[row.id] = u
            add_scaled(left, row.terms, u)
    add_scaled(left, objective, -den)
    add_scaled(mult, quotient.cancel(left).items(), 1)
    ids = sorted((rid for rid in mult if rid not in by_id), key=system.order_key)
    ids += [row.id for row in extra if row.id in mult]
    return tuple((rid, Fraction(mult[rid], den)) for rid in ids)


def _csirmaz_k_of(structure: AccessStructure) -> int | None:
    """k when the input is a staircase instance or its purification."""
    if structure.n >= 4:
        ref, params = csirmaz(structure.n)
        if ref == structure:
            return params.k
    if structure.n >= 5:
        ref, params = csirmaz(structure.n - 1)
        # a staircase is quantum by construction, so no pair scan is needed
        if promote(ref, unauthorized_transversals(ref)) == structure:
            return params.k
    return None


def verify_certificate(
    system: ConstraintSystem,
    cert: Certificate,
    *,
    objective: Objective | Iterable[tuple[int, Fraction]],
) -> bool:
    """Replay a certificate by exact arithmetic, no solver involved.

    Accepts iff multipliers on inequality rows are nonnegative, the
    weighted row forms add up exactly to the minimized objective form,
    and the weighted right-hand sides reach the claimed bound.  Unknown
    row ids raise; sign violations and mismatches just reject.
    """
    if isinstance(objective, Objective):
        extra, form, _ = objective_rows(system, objective)
    else:
        extra, form = (), tuple(objective)
    extra_by_id = {row.id: row for row in extra}

    weighted = []
    for rid, mult in cert.entries:
        try:
            row = extra_by_id.get(rid) or system.row(rid)
        except KeyError:
            raise KeyError(f"certificate references unknown constraint {rid!r}") from None
        # the numerator's sign is the multiplier's, and an int compare is cheaper
        if row.rel != "=" and mult.numerator < 0:
            return False
        weighted.append((mult, row))
    combo, total_rhs, scale = weighted_sum(weighted)
    if combo != {v: c * scale for v, c in form if c}:
        return False
    return total_rhs >= cert.claimed_bound * scale


def weighted_sum(pairs) -> tuple[dict[int, int | Fraction], int | Fraction, int]:
    """``scale`` times the sum of ``u * row`` over ``(u, row)`` pairs.

    ``scale`` is the lcm of the multipliers' denominators, so on integral
    rows every sum is an ``int``.  Returns the combined terms with zeros
    dropped, the combined right-hand side and ``scale``.
    """
    pairs = [(u, row) for u, row in pairs if u]
    scale = math.lcm(*(u.denominator for u, _ in pairs))
    combo: dict = {}
    rhs = 0
    for u, row in pairs:
        w = u.numerator * (scale // u.denominator)
        rhs += w * row.rhs
        add_scaled(combo, row.terms, w)
    return combo, rhs, scale


class CheckResult(NamedTuple):
    """Outcome of one implied-inequality check."""

    implied: bool
    certificates: tuple[Certificate, ...]
    witness: dict[int, Fraction] | None
    pivots: int


def check_implied(
    system: ConstraintSystem,
    terms: dict[int, Fraction] | Iterable[tuple[int, Fraction]],
    rel: str,
    rhs: Fraction,
    *,
    session: Session | None = None,
) -> CheckResult:
    """Is ``terms . S rel rhs`` a consequence of the system?

    Implied iff the minimum of the left-hand side over the elemental
    rows of the system's structure reaches the right-hand side (both
    directions for an equality); returns the dual certificates, replayed
    on the system's rows, or a feasible entropy vector refuting the
    target, checked against every one of them.  ``terms`` is taken in
    sparse form, so a term on S(∅), which is zero, drops out, and a mask
    outside the ground set's is a ``StructureError`` before any solve.
    The solves run in ``session``, or in one opened here.
    """
    if rel not in (">=", "="):
        raise StructureError(f"unsupported target relation {rel!r}")
    target = sparse_form(*(terms.items() if isinstance(terms, dict) else terms))
    full = system.ground.full_mask
    for v, _ in target:
        if not 0 <= v <= full:
            raise StructureError(f"target mask {v} is outside 0..{full}")
    if session is None:
        session = Session()
    certificates = []
    pivots = 0
    for form, bound in _directions(target, rel, Fraction(rhs)):
        cert, witness, used = _prove_direction(system, form, bound, session)
        pivots += used
        if cert is None:
            return CheckResult(False, (), witness, pivots)
        certificates.append(cert)
    return CheckResult(True, tuple(certificates), None, pivots)


def _directions(form, rel: str, rhs):
    """The ``>=`` targets of a relation: ``(form, rhs)``, and for ``=`` also ``(-form, -rhs)``."""
    if rel == "=":
        return ((form, rhs), (tuple((v, -c) for v, c in form), -rhs))
    return ((form, rhs),)


def _prove_direction(system: ConstraintSystem, objective, bound: Fraction, session: Session):
    """Try to certify the sparse form objective . S >= bound; return (cert, witness, pivots)."""
    quotient = system.quotient
    problem, constant = quotient.problem(system.ground.var_count, objective)
    solution = solve(problem, session)
    if solution.status == "optimal" and solution.value + constant >= bound:
        cert = _certify(system, objective, (), objective, problem, solution, bound)
        return cert, None, solution.pivots
    if solution.status == "optimal":
        witness = quotient.lift(solution.primal)
    elif solution.status == "unbounded":
        witness = _witness_below(quotient, objective, bound)
    else:
        raise ProverError("implication system is infeasible; cannot check targets")
    _validate_witness(system, witness)
    return None, witness, solution.pivots


def _witness_below(quotient: Quotient, objective, bound):
    """Feasible point with objective value strictly below the bound."""
    # -objective >= 1 - bound, times the lcm of its denominators: simplex takes ints
    rhs = 1 - bound
    scale = math.lcm(rhs.denominator, *[c.denominator for _, c in objective])
    cutoff = LinearConstraint(
        "cutoff", tuple((v, int(-c * scale)) for v, c in objective), ">=", int(rhs * scale)
    )
    problem, _ = quotient.problem(quotient.ground.var_count, (), (cutoff,))
    solution = solve(problem)
    if solution.status != "optimal":
        raise ProverError("failed to materialize a refutation witness")
    return quotient.lift(solution.primal)


def _validate_witness(system: ConstraintSystem, point: dict[int, Fraction]) -> None:
    for c in system.constraints:
        if not c.satisfied_by(point):
            raise ProverError(f"refutation witness violates {c.id}")


class SuiteOutcome(NamedTuple):
    instance: SuiteInstance
    implied: bool
    pivots: int

    def to_json_dict(self) -> dict:
        inst = self.instance
        return {"id": inst.id, "description": inst.description, "implied": self.implied}


@dataclass(frozen=True)
class SuiteReport:
    structure: AccessStructure
    ineq: str
    outcomes: tuple[SuiteOutcome, ...]
    millis: int
    fallbacks: int  # targets solved by LP; not written to JSON

    @property
    def all_implied(self) -> bool:
        return all(o.implied for o in self.outcomes)

    def failures(self) -> list[SuiteOutcome]:
        return [o for o in self.outcomes if not o.implied]

    def to_json_dict(self) -> dict:
        return {
            "structure": structure_to_dict(self.structure),
            "ineq": self.ineq,
            "total": len(self.outcomes),
            "implied": sum(o.implied for o in self.outcomes),
            "all_implied": self.all_implied,
            "instances": [o.to_json_dict() for o in self.outcomes],
            "stats": {"millis": self.millis},
        }


def lemma_suite(
    structure: AccessStructure,
    *,
    auto_purify: bool = False,
    ineq: str = "full",
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
) -> SuiteReport:
    """Check that every scheme relation is implied by the system.

    Requires a quantum structure, self-dual unless ``auto_purify`` is set
    (the relations are stated in pure mode).  Expected outcome: every
    instance implied.

    Each relation carries one hand proof per direction
    (:func:`relations.scheme_relation_instances`).  F is the ground set,
    P the players and R the reference, and identity(Y), S(Y) - S(F\\Y)
    >= 0, is the complement chain of Y ×1 plus ``purity`` ×-1
    (``purity`` alone, ×+1 for Y = F and ×-1 for Y = ∅):

    * ``withref:A``: the scheme row of A ×-1 and ``normalize`` ×+1, both
      negated in reverse;
    * ``joint3:A``: ``recover:A`` ×1, ``normalize`` ×-1 and
      identity(A ∪ R); in reverse ``recover:A`` ×-1, ``normalize`` ×+1
      and identity(P\\A);
    * ``joint1:A``: ``joint3:A`` plus the proof of S(P) >= 1
      (identity(P), ``normalize`` ×+1), and in reverse the reversed
      ``joint3:A`` plus that of -S(P) >= -1 (identity(R), ``normalize``
      ×-1); ``joint2:A`` the same with the two ``joint3:A`` directions
      swapped;
    * ``gap:A;B``: ``recover:A`` and ``recover:B`` ×1, the scheme rows of
      A ∪ B and of a nonempty A ∩ B ×-1, and the chain-rule ssa rows of
      I(A\\B; B\\A | (A ∩ B) ∪ R), each ×1.

    A direction is proved when its proof replays
    (:func:`verify_certificate`), with no solve.  A target whose proof is
    missing or fails is solved by `check_implied` in the suite's session
    and counts in the report's ``fallbacks``.
    """
    return _run_suite(structure, ineq, scheme_relation_instances, max_elements, auto_purify)


def _run_suite(
    structure: AccessStructure, ineq: str,
    instances_of: Callable[[AccessStructure, GroundSet], Iterable[SuiteInstance]],
    max_elements: int, auto_purify: bool = False,
) -> SuiteReport:
    """Check ``instances_of(structure, ground)`` on the pure ``ineq`` rows.

    The structure is the one `prepare_structure` returns, in pure mode.
    A target whose proofs replay (:func:`verify_certificate`) is implied
    with 0 pivots; every other target is a fallback, checked by
    `check_implied` in the suite's one session.
    """
    structure, _ = prepare_structure(structure, auto_purify=auto_purify, max_elements=max_elements)
    started = time.perf_counter()
    system = cached_system(structure, True, ineq)
    session = Session()
    outcomes = []
    fallbacks = 0
    for inst in instances_of(structure, system.ground):
        if _replays(system, inst):
            outcomes.append(SuiteOutcome(inst, True, 0))
            continue
        fallbacks += 1
        res = check_implied(system, inst.terms, inst.rel, inst.rhs, session=session)
        outcomes.append(SuiteOutcome(inst, res.implied, res.pivots))
    millis = int((time.perf_counter() - started) * 1000)
    return SuiteReport(structure, ineq, tuple(outcomes), millis, fallbacks)


def _replays(system: ConstraintSystem, inst: SuiteInstance) -> bool:
    """Does ``inst`` carry one proof per direction, each replaying on ``system``?

    A proof that names a row the system does not have fails.
    """
    directions = _directions(inst.terms, inst.rel, inst.rhs)
    if len(inst.proofs) != len(directions):
        return False
    try:
        return all(
            verify_certificate(system, Certificate(rhs, proof, form), objective=form)
            for (form, rhs), proof in zip(directions, inst.proofs)
        )
    except KeyError:
        return False


@dataclass(frozen=True)
class ChainReport:
    n: int
    k: int
    reference_bound: Fraction
    steps: tuple[SuiteOutcome, ...]
    bound: BoundReport
    millis: int

    @property
    def all_implied(self) -> bool:
        return all(s.implied for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "theorem3_bound": rat_str(self.reference_bound),
            "all_implied": self.all_implied,
            "steps": [s.to_json_dict() for s in self.steps],
            "lp_value": rat_str(self.bound.lp_value),
            "rate_upper_bound": rat_str(self.bound.rate_upper_bound),
            "stats": {"millis": self.millis},
        }


def staircase_chain_instances(n: int) -> tuple[AccessStructure, int, list[SuiteInstance]]:
    """Purified staircase structure plus the telescoping proof steps."""
    structure, params = csirmaz(n)
    purified = promote(structure, unauthorized_transversals(structure))
    if purified is structure:
        raise StructureError("staircase structure is unexpectedly self-dual")
    a, chain = params.a_sets[0], params.b_sets  # A = {1..k}; B_0 = {} up to B
    instances = [
        SuiteInstance(
            f"step:{i}",
            f"S(A,B_{i})+S(B_{i + 1}) >= S(A,B_{i + 1})+S(B_{i})+2",
            sparse_form((a | bi, 1), (bj, 1), (a | bj, -1), (bi, -1)),
            ">=",
            2,
        )
        for i, (bi, bj) in enumerate(zip(chain, chain[1:]))
    ]
    b, gap = chain[-1], 2 * (len(chain) - 1)
    instances.append(SuiteInstance(
        "telescoped", f"S(A)+S(B) >= S(A,B)+{gap}",
        sparse_form((a, 1), (b, 1), (a | b, -1)), ">=", gap,
    ))
    final_rhs = 2 ** (params.k + 1) - 1
    # the purifier is player n + 1
    instances.append(SuiteInstance(
        "final", f"2*S(A)+S(purifier) >= {final_rhs}",
        sparse_form((a, 2), (1 << n, 1)), ">=", final_rhs,
    ))
    return purified, params.k, instances


def theorem3_chain(
    n: int,
    *,
    ineq: str = "full",
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
) -> ChainReport:
    """Replay the telescoping share-size argument for the staircase family.

    Checks each per-step inequality, the telescoped sum and the final
    bound 2*S(A)+S(purifier) >= (2^(k+1)-1) on the purified structure,
    each as an implied inequality of the constraint system; also solves
    the minmax bound and reports it next to the closed-form reference.
    """
    purified, k, instances = staircase_chain_instances(n)
    suite = _run_suite(purified, ineq, lambda *_: instances, max_elements)
    bound = share_bound(purified, ineq=ineq, max_elements=max_elements)
    return ChainReport(
        n=n,
        k=k,
        reference_bound=theorem3_reference_bound(k),
        steps=suite.outcomes,
        bound=bound,
        millis=suite.millis + bound.millis,
    )
