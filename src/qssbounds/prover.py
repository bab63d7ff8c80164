"""Bound computation, implied-inequality checking and certificate replay.

`share_bound` turns an access structure into the entropy constraint
system, attaches an objective over selected share entropies and solves it
exactly; the result ships with a certificate that `verify_certificate`
replays by pure constraint arithmetic, never consulting the solver.

`check_implied` decides whether a linear inequality over subset
entropies is a consequence of a system by minimizing its slack; the
lemma and chain suites drive it over the scheme relations that every
perfect realization must satisfy.

Every LP here is solved on the :class:`cone.Quotient` of the elemental
rows.  The elemental rows generate the same cone as the full rows and
are a subset of them, id for id, so a certificate on them is also a
certificate for the full system, and a point satisfying them satisfies
every full row.  In pure mode the quotient has one variable per
complementary pair; its multipliers name original rows, and `_expand`
turns them into a certificate on those rows with chains of elemental
wm rows, so no new row is needed.  Quotient points lift back to points
of the system.  In mixed mode the quotient is the system itself.  The
``ineq`` choice only names the row set that certificates are replayed
on and witnesses are checked against, and both checks run before any
result is returned.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cone import (
    ConstraintSystem,
    GroundSet,
    LinearConstraint,
    Quotient,
    build_system,
    complement_chain,
    sparse_form,
)
from .simplex import (
    Certificate,
    LPProblem,
    rat_str,
    extract_certificate,
    solve,
    weighted_sum,
)
from .structures import (
    AccessStructure,
    CapacityError,
    StructureError,
    csirmaz,
    is_quantum,
    is_self_dual,
    purify,
    structure_to_dict,
    theorem3_reference_bound,
)

ZERO = 0
ONE = 1
TWO = 2

#: Ground-set sizes above this need force=True; exact pivoting on larger
#: instances can take far longer than the defaults should.
DEFAULT_ELEMENT_LIMIT = 9


class ProverError(RuntimeError):
    """A solve that must succeed came back without an optimum."""


@dataclass(frozen=True)
class Objective:
    """Share-entropy objective: minmax, minsum or a single share."""

    kind: str
    players: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("minmax", "minsum", "single"):
            raise StructureError(f"unknown objective kind {self.kind!r}")
        if not self.players:
            raise StructureError("objective needs at least one player")
        if self.kind == "single" and len(self.players) != 1:
            raise StructureError("single-share objective takes exactly one player")

    @classmethod
    def parse(cls, spec: str, default_players: Sequence[int]) -> "Objective":
        if spec.startswith("single:"):
            return cls("single", (int(spec.split(":", 1)[1]),))
        return cls(spec, tuple(default_players))

    def describe(self) -> str:
        players = ",".join(str(p) for p in self.players)
        return f"{self.kind} over players {players}"

    def to_json_dict(self) -> dict:
        if self.kind == "single":
            return {"kind": "single", "player": self.players[0]}
        return {"kind": self.kind, "players": list(self.players)}


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


_RATIONAL = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")


def _rational_field(value, what: str) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ValueError(f"{what} must be a \"p/q\" string with q > 0, not {value!r}")
    return Fraction(value)


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
        if not 1 <= p <= ground.players:
            raise StructureError(f"objective player {p} outside 1..{ground.players}")
    if objective.kind == "minmax":
        t_var = ground.var_count
        extra = tuple(
            LinearConstraint(f"objlink:{i}", ((1 << (i - 1), -ONE), (t_var, ONE)), ">=", ZERO)
            for i in objective.players
        )
        return extra, ((t_var, ONE),), ground.var_count + 1
    form = sparse_form(*((1 << (i - 1), ONE) for i in objective.players))
    return (), form, ground.var_count


def prepare_structure(
    structure: AccessStructure,
    *,
    pure: bool = True,
    auto_purify: bool = False,
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
    force: bool = False,
) -> tuple[AccessStructure, bool]:
    """The structure a solve runs on, and whether it had to be purified.

    Rejects structures that are not quantum, pure mode on a structure
    that is not self-dual unless ``auto_purify`` is set, and ground sets
    (players plus reference) above ``max_elements`` unless ``force`` is.
    """
    if not is_quantum(structure):
        raise StructureError("proving requires a quantum access structure")
    solved = structure
    if pure and not is_self_dual(structure):
        if not auto_purify:
            raise StructureError(
                "pure mode needs a self-dual structure; purify it first "
                "(auto_purify=True, --auto-purify)"
            )
        solved = purify(structure)
    if solved.n + 1 > max_elements and not force:
        raise CapacityError(
            f"{solved.n + 1} ground elements exceed the limit {max_elements}; "
            "pass force=True (--force) for long runs"
        )
    return solved, solved is not structure


def share_bound(
    structure: AccessStructure,
    *,
    auto_purify: bool = False,
    mode: str = "pure",
    ineq: str = "full",
    objective: str | Objective = "minmax",
    players: Iterable[int] | None = None,
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
    force: bool = False,
) -> BoundReport:
    """Exact lower bound on max share entropy, in units of the secret.

    Builds the constraint system for the structure (purifying first when
    ``auto_purify`` is set and the structure is not self-dual), attaches
    the requested objective and solves it on the quotient of the
    elemental rows.  The report carries the exact optimum, its
    reciprocal as an upper bound on the information rate, and a
    certificate on the original rows that has been replayed on the
    ``ineq`` rows before returning.  ``rows`` and ``cols`` give the size
    of the quotient LP.
    """
    if mode not in ("pure", "mixed"):
        raise StructureError(f"unknown mode {mode!r}")
    started = time.perf_counter()
    solved, purified = prepare_structure(
        structure,
        pure=mode == "pure",
        auto_purify=auto_purify,
        max_elements=max_elements,
        force=force,
    )
    replay = cached_system(solved, mode == "pure", ineq)
    elemental = cached_system(solved, mode == "pure", "elemental")
    if isinstance(objective, str):
        selected = tuple(players) if players is not None else tuple(range(1, solved.n + 1))
        obj = Objective.parse(objective, selected)
    else:
        obj = objective

    extra, form, num_vars = objective_rows(elemental, obj)
    quotient = elemental.quotient
    problem = LPProblem(
        num_vars,
        quotient.map_terms(form),
        quotient.rows + tuple(quotient.map_row(row) for row in extra),
    )
    solution = solve(problem)
    if solution.status != "optimal":
        raise ProverError(
            f"bound solve ended {solution.status}; the scheme constraints "
            "should always admit a bounded optimum"
        )
    found = extract_certificate(problem, solution, description=obj.describe())
    entries = _expand(elemental, extra, found.entries, form)
    cert = Certificate(found.claimed_bound, entries, form, found.description)
    if not verify_certificate(replay, cert, objective=obj):
        raise ProverError("emitted certificate failed independent replay")

    k = _csirmaz_k_of(structure)
    return BoundReport(
        structure=solved,
        purified=purified,
        k=k,
        theorem3_bound=None if k is None else theorem3_reference_bound(k),
        mode=mode,
        ineq=ineq,
        objective=obj,
        lp_value=solution.value,
        rate_upper_bound=1 / solution.value,
        certificate=cert,
        rows=len(problem.rows),
        # the quotient's variables plus the objective's own (t for minmax)
        cols=quotient.var_count + num_vars - elemental.ground.var_count,
        pivots=solution.pivots,
        millis=int((time.perf_counter() - started) * 1000),
    )


def _expand(
    system: ConstraintSystem,
    extra: tuple[LinearConstraint, ...],
    entries: Iterable[tuple[str, Fraction]],
    objective: Iterable[tuple[int, Fraction]],
) -> tuple[tuple[str, Fraction], ...]:
    """Certificate entries on the original rows from quotient multipliers.

    The multipliers name rows of ``system`` and ``extra``.  Weighted by
    them, those rows minus the objective leave c * (S(X) - S(F\\X)) on
    complementary pairs, where F is the ground set, plus a term on S(F),
    since the quotient sees neither.  Each pair is cancelled by |c| times
    the :func:`cone.complement_chain` of X when c < 0, or of F\\X when
    c > 0, which adds |c| * S(F) and nothing to the right-hand side;
    ``purity`` absorbs the S(F) total and ``emptyset`` a term on S(∅).
    Entries come out in row order.  In mixed mode nothing is left over,
    so the entries are the quotient's own.
    """
    ground = system.ground
    full, r = ground.full_mask, ground.reference_mask
    by_id = {row.id: row for row in extra}
    mult = dict(entries)
    # left is scale times the weighted rows minus the objective
    left, _, scale = weighted_sum(
        (u, system.by_id.get(rid) or by_id[rid]) for rid, u in mult.items()
    )
    for v, c in objective:
        left[v] = left.get(v, 0) - c * scale
    absorb = {"purity": left.get(full, 0), "emptyset": left.get(0, 0)}
    for v, c in left.items():
        if c and v & r and v != full:
            weight = Fraction(abs(c), scale)
            for row in complement_chain(ground, v if c < 0 else full & ~v):
                mult[row.id] = mult.get(row.id, 0) + weight
            absorb["purity"] += abs(c)
    for rid, c in absorb.items():
        if c:
            mult[rid] = mult.get(rid, 0) - Fraction(c, scale)
    return tuple(
        (row.id, mult[row.id]) for rows in (system.constraints, extra) for row in rows
        if mult.get(row.id)
    )


def _csirmaz_k_of(structure: AccessStructure) -> int | None:
    """k when the input is a staircase instance or its purification."""
    if structure.n >= 4:
        ref, params = csirmaz(structure.n)
        if ref == structure:
            return params.k
    if structure.n >= 5:
        ref, params = csirmaz(structure.n - 1)
        if purify(ref) == structure:
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
        row = extra_by_id.get(rid) or system.by_id.get(rid)
        if row is None:
            raise KeyError(f"certificate references unknown constraint {rid!r}")
        if row.rel != "=" and mult < 0:
            return False
        weighted.append((mult, row))
    combo, total_rhs, scale = weighted_sum(weighted)
    if combo != {v: c * scale for v, c in form if c}:
        return False
    return total_rhs >= cert.claimed_bound * scale


@dataclass(frozen=True)
class CheckResult:
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
) -> CheckResult:
    """Is ``terms . S rel rhs`` a consequence of the system?

    Implied iff the minimum of the left-hand side over the elemental
    rows of the system's structure reaches the right-hand side (both
    directions for an equality); returns the dual certificates, replayed
    on the system's rows, or a feasible entropy vector refuting the
    target, checked against every one of them.
    """
    if rel not in (">=", "="):
        raise StructureError(f"unsupported target relation {rel!r}")
    base = dict(terms)
    base = {v: c for v, c in base.items() if c}
    directions = [(base, Fraction(rhs))]
    if rel == "=":
        directions.append(({v: -c for v, c in base.items()}, -Fraction(rhs)))

    certificates = []
    pivots = 0
    for form, bound in directions:
        cert, witness, used = _prove_direction(system, form, bound)
        pivots += used
        if cert is None:
            return CheckResult(False, (), witness, pivots)
        certificates.append(cert)
    return CheckResult(True, tuple(certificates), None, pivots)


def _prove_direction(
    system: ConstraintSystem,
    form: dict[int, Fraction],
    bound: Fraction,
):
    """Try to certify form . S >= bound; return (cert, witness, pivots)."""
    objective = tuple(sorted(form.items()))
    elemental = cached_system(system.structure, system.pure, "elemental")
    quotient = elemental.quotient
    mapped = quotient.map_terms(objective)
    problem = LPProblem(elemental.ground.var_count, mapped, quotient.rows, quotient.presolved)
    solution = solve(problem)
    if solution.status == "optimal" and solution.value >= bound:
        entries = extract_certificate(problem, solution).entries
        cert = Certificate(bound, _expand(elemental, (), entries, objective), objective)
        if not verify_certificate(system, cert, objective=objective):
            raise ProverError("optimal certificate failed replay")
        return cert, None, solution.pivots
    if solution.status == "optimal":
        witness = quotient.lift(solution.primal)
    elif solution.status == "unbounded":
        witness = _witness_below(quotient, mapped, bound)
    else:
        raise ProverError("implication system is infeasible; cannot check targets")
    _validate_witness(system, witness)
    return None, witness, solution.pivots


def _witness_below(quotient: Quotient, objective, bound):
    """Feasible point with objective value strictly below the bound."""
    cutoff = LinearConstraint(
        "cutoff", tuple((v, -c) for v, c in objective), ">=", -(bound - 1)
    )
    problem = LPProblem(quotient.ground.var_count, (), quotient.rows + (cutoff,))
    solution = solve(problem)
    if solution.status != "optimal":
        raise ProverError("failed to materialize a refutation witness")
    return quotient.lift(solution.primal)


def _validate_witness(system: ConstraintSystem, point: dict[int, Fraction]) -> None:
    for c in system.constraints:
        if not c.satisfied_by(point):
            raise ProverError(f"refutation witness violates {c.id}")


@dataclass(frozen=True)
class SuiteInstance:
    """One linear target with a stable id and a printable description."""

    id: str
    description: str
    terms: tuple[tuple[int, int], ...]
    rel: str
    rhs: int


@dataclass(frozen=True)
class SuiteOutcome:
    instance: SuiteInstance
    implied: bool
    pivots: int


@dataclass(frozen=True)
class SuiteReport:
    structure: AccessStructure
    ineq: str
    outcomes: tuple[SuiteOutcome, ...]
    millis: int

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
            "instances": [
                {
                    "id": o.instance.id,
                    "description": o.instance.description,
                    "implied": o.implied,
                }
                for o in self.outcomes
            ],
            "stats": {"millis": self.millis},
        }


def scheme_relation_instances(structure: AccessStructure, ground: GroundSet) -> list[SuiteInstance]:
    """Every derivable scheme relation of the model for this structure.

    For each authorized A the three joint-entropy relations with its
    complement; for every subset the joint-entropy-with-reference case
    split; for every authorized pair with unauthorized intersection the
    submodularity-with-gap inequality.
    """
    instances: list[SuiteInstance] = []
    pmask = ground.player_mask
    r = ground.reference_mask
    authorized = [
        m for m in range(1, pmask + 1) if structure.mask_authorized(m)
    ]
    for a in authorized:
        abar = pmask & ~a
        lbl = ground.label(a)
        # S(A) = I(A:comp)/2 + 1, S(comp) = I(A:comp)/2, S(A) - S(comp) = 1
        mutual = sparse_form((a, ONE), (abar, ONE), (pmask, -ONE))
        instances.append(
            SuiteInstance(
                f"joint1:{lbl}",
                f"2*S({lbl}) - I({lbl}:complement) = 2",
                sparse_form((a, TWO), *((m, -c) for m, c in mutual)),
                "=",
                TWO,
            )
        )
        instances.append(
            SuiteInstance(
                f"joint2:{lbl}",
                f"2*S(complement of {lbl}) - I({lbl}:complement) = 0",
                sparse_form((abar, TWO), *((m, -c) for m, c in mutual)),
                "=",
                ZERO,
            )
        )
        instances.append(
            SuiteInstance(
                f"joint3:{lbl}",
                f"S({lbl}) - S(complement) = 1",
                sparse_form((a, ONE), (abar, -ONE)),
                "=",
                ONE,
            )
        )
    for a in range(1, pmask + 1):
        lbl = ground.label(a)
        auth = structure.mask_authorized(a)
        sign = -ONE if auth else ONE
        word = "-" if auth else "+"
        instances.append(
            SuiteInstance(
                f"withref:{lbl}",
                f"S({lbl},R) = S({lbl}) {word} 1",
                sparse_form((a | r, ONE), (a, -ONE)),
                "=",
                sign,
            )
        )
    for i, a in enumerate(authorized):
        for b in authorized[i + 1:]:
            meet = a & b
            if structure.mask_authorized(meet):
                continue
            la, lb = ground.label(a), ground.label(b)
            instances.append(
                SuiteInstance(
                    f"gap:{la};{lb}",
                    f"S({la})+S({lb}) >= S(union)+S(intersection)+2",
                    sparse_form((a, ONE), (b, ONE), (a | b, -ONE), (meet, -ONE)),
                    ">=",
                    TWO,
                )
            )
    return instances


def lemma_suite(
    structure: AccessStructure,
    *,
    ineq: str = "full",
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
    force: bool = False,
) -> SuiteReport:
    """Check that every scheme relation is implied by the system.

    Requires a quantum, self-dual structure (the relations are stated in
    pure mode).  Expected outcome: every instance implied.
    """
    prepare_structure(structure, max_elements=max_elements, force=force)
    started = time.perf_counter()
    system = cached_system(structure, True, ineq)
    outcomes = []
    for inst in scheme_relation_instances(structure, system.ground):
        res = check_implied(system, dict(inst.terms), inst.rel, inst.rhs)
        outcomes.append(SuiteOutcome(inst, res.implied, res.pivots))
    return SuiteReport(
        structure=structure,
        ineq=ineq,
        outcomes=tuple(outcomes),
        millis=int((time.perf_counter() - started) * 1000),
    )


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
            "steps": [
                {
                    "id": s.instance.id,
                    "description": s.instance.description,
                    "implied": s.implied,
                }
                for s in self.steps
            ],
            "lp_value": rat_str(self.bound.lp_value),
            "rate_upper_bound": rat_str(self.bound.rate_upper_bound),
            "stats": {"millis": self.millis},
        }


def staircase_chain_instances(n: int) -> tuple[AccessStructure, int, list[SuiteInstance]]:
    """Purified staircase structure plus the telescoping proof steps."""
    structure, params = csirmaz(n)
    purified = purify(structure)
    if purified is structure:
        raise StructureError("staircase structure is unexpectedly self-dual")
    k = params.k
    a0 = params.a_sets[0].bits
    pmask = (1 << n) - 1
    purifier_bit = 1 << (purified.n - 1)
    count = 2 ** k - 1
    instances = []
    for i in range(count - 1):
        bi = params.b_sets[i].bits
        bj = params.b_sets[i + 1].bits
        instances.append(
            SuiteInstance(
                f"step:{i}",
                f"S(A,B_{i})+S(B_{i + 1}) >= S(A,B_{i + 1})+S(B_{i})+2",
                sparse_form((a0 | bi, ONE), (bj, ONE), (a0 | bj, -ONE), (bi, -ONE)),
                ">=",
                TWO,
            )
        )
    b_last = params.b_sets[-1].bits
    instances.append(
        SuiteInstance(
            "telescoped",
            f"S(A)+S(B) >= S(A,B)+{(count - 1) * 2}",
            sparse_form((a0, ONE), (b_last, ONE), (pmask, -ONE)),
            ">=",
            (count - 1) * 2,
        )
    )
    final_rhs = 2 ** (k + 1) - 1
    instances.append(
        SuiteInstance(
            "final",
            f"2*S(A)+S(purifier) >= {final_rhs}",
            sparse_form((a0, TWO), (purifier_bit, ONE)),
            ">=",
            final_rhs,
        )
    )
    return purified, k, instances


def theorem3_chain(
    n: int,
    *,
    ineq: str = "full",
    max_elements: int = DEFAULT_ELEMENT_LIMIT,
    force: bool = False,
) -> ChainReport:
    """Replay the telescoping share-size argument for the staircase family.

    Checks each per-step inequality, the telescoped sum and the final
    bound 2*S(A)+S(purifier) >= (2^(k+1)-1) on the purified structure,
    each as an implied inequality of the constraint system; also solves
    the minmax bound and reports it next to the closed-form reference.
    """
    purified, k, instances = staircase_chain_instances(n)
    prepare_structure(purified, max_elements=max_elements, force=force)
    started = time.perf_counter()
    system = cached_system(purified, True, ineq)
    steps = []
    for inst in instances:
        res = check_implied(system, dict(inst.terms), inst.rel, inst.rhs)
        steps.append(SuiteOutcome(inst, res.implied, res.pivots))
    bound = share_bound(
        purified, mode="pure", ineq=ineq, max_elements=max_elements, force=force
    )
    return ChainReport(
        n=n,
        k=k,
        reference_bound=theorem3_reference_bound(k),
        steps=tuple(steps),
        bound=bound,
        millis=int((time.perf_counter() - started) * 1000),
    )
