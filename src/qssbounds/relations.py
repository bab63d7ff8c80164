"""The scheme relations of the model, each with a hand proof.

`scheme_relation_instances` lists the relations that every perfect
realization of a structure satisfies (Imai, Müller-Quade, Nascimento,
Tuyls & Winter, 2005) as :class:`SuiteInstance` targets.  Each carries
one proof per direction: ``(row id, int multiplier)`` pairs whose
weighted rows add up to that direction's form and reach its right-hand
side, every id printed by `cone`'s own builders.  The lemma suite
replays a proof and solves an LP only for a target whose proof fails.
"""

from __future__ import annotations

from typing import NamedTuple

from .cone import (
    GroundSet,
    _normalize_constraint,
    _scheme_constraint,
    _ssa_constraint,
    complement_chain,
    purity_constraint,
    sparse_form,
)
from .structures import AccessStructure


class SuiteInstance(NamedTuple):
    """One linear target with a stable id, a printable description and
    its proofs: one tuple of ``(row id, multiplier)`` per direction
    (``terms >= rhs``, then for ``=`` also ``-terms >= -rhs``), or none."""

    id: str
    description: str
    terms: tuple[tuple[int, int], ...]
    rel: str
    rhs: int
    proofs: tuple[tuple[tuple[str, int], ...], ...] = ()


def _merged(*parts) -> tuple[tuple[str, int], ...]:
    """The entries of ``parts``, with the multipliers of one id added up and zeros dropped."""
    acc: dict[str, int] = {}
    for part in parts:
        for rid, u in part:
            acc[rid] = acc.get(rid, 0) + u
    return tuple((rid, u) for rid, u in acc.items() if u)


def scheme_relation_instances(structure: AccessStructure, ground: GroundSet) -> list[SuiteInstance]:
    """Every derivable scheme relation of the model for this structure, with its proofs.

    For each authorized A the three joint-entropy relations with its
    complement; for every subset the joint-entropy-with-reference case
    split; for every authorized pair with unauthorized intersection the
    submodularity-with-gap inequality.

    F is the ground set, P the players and R the reference; the scheme
    row of X is ``recover:X`` or ``secrecy:X``.  identity(Y), S(Y) -
    S(F\\Y) >= 0, is the :func:`cone.complement_chain` of Y ×1 plus
    ``purity`` ×-1 for a proper nonempty Y, ``purity`` ×+1 for Y = F and
    ``purity`` ×-1 for Y = ∅.

    * ``withref:A``: the scheme row of A ×-1 and ``normalize`` ×+1; the
      reverse direction negates both.
    * ``joint3:A``, S(A) - S(P\\A) >= 1: ``recover:A`` ×1, ``normalize``
      ×-1 and identity(A ∪ R); the reverse is ``recover:A`` ×-1,
      ``normalize`` ×+1 and identity(P\\A).
    * S(P) >= 1 is identity(P) plus ``normalize`` ×+1, and -S(P) >= -1 is
      identity(R) plus ``normalize`` ×-1.  ``joint1`` is ``joint3`` plus
      that proof in the same direction, and ``joint2`` the reversed
      ``joint3`` plus it.
    * ``gap:A;B``: ``recover:A`` and ``recover:B`` ×1, the scheme row of
      A ∪ B ×-1, that of A ∩ B ×-1 when A ∩ B is nonempty, and the
      chain-rule expansion of I(A\\B; B\\A | (A ∩ B) ∪ R) into
      ``ssa:a;b|K`` rows ×1, where K is (A ∩ B) ∪ R with the elements of
      A\\B below a and those of B\\A below b.

    Entries on one id are merged, and zeros dropped.
    """
    pmask, r, full = ground.player_mask, ground.reference_mask, ground.full_mask
    labels = ground.labels
    norm, purity = _normalize_constraint(r).id, purity_constraint(ground).id
    scheme = {x: _scheme_constraint(structure, labels, r, x).id for x in range(1, pmask + 1)}

    def identity(y: int) -> list[tuple[str, int]]:
        if y in (0, full):
            return [(purity, 1 if y else -1)]
        return [(row.id, 1) for row in complement_chain(ground, y)] + [(purity, -1)]

    def bits(mask: int) -> list[int]:
        return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]

    players_up, players_down = identity(pmask) + [(norm, 1)], identity(r) + [(norm, -1)]
    authorized = [m for m in range(1, pmask + 1) if structure.mask_authorized(m)]
    instances: list[SuiteInstance] = []
    for a in authorized:
        abar, lbl = pmask & ~a, labels[a]
        up = [(scheme[a], 1), (norm, -1)] + identity(a | r)
        down = [(scheme[a], -1), (norm, 1)] + identity(abar)
        # S(A) = I(A:comp)/2 + 1, S(comp) = I(A:comp)/2, S(A) - S(comp) = 1
        minus_mutual = [(m, -c) for m, c in sparse_form((a, 1), (abar, 1), (pmask, -1))]
        instances += [
            SuiteInstance(
                f"joint1:{lbl}", f"2*S({lbl}) - I({lbl}:complement) = 2",
                sparse_form((a, 2), *minus_mutual), "=", 2,
                (_merged(up, players_up), _merged(down, players_down)),
            ),
            SuiteInstance(
                f"joint2:{lbl}", f"2*S(complement of {lbl}) - I({lbl}:complement) = 0",
                sparse_form((abar, 2), *minus_mutual), "=", 0,
                (_merged(down, players_up), _merged(up, players_down)),
            ),
            SuiteInstance(
                f"joint3:{lbl}", f"S({lbl}) - S(complement) = 1",
                sparse_form((a, 1), (abar, -1)), "=", 1, (_merged(up), _merged(down)),
            ),
        ]
    for a in range(1, pmask + 1):
        lbl, auth = labels[a], structure.mask_authorized(a)
        instances.append(SuiteInstance(
            f"withref:{lbl}", f"S({lbl},R) = S({lbl}) {'-' if auth else '+'} 1",
            sparse_form((a | r, 1), (a, -1)), "=", -1 if auth else 1,
            (((scheme[a], -1), (norm, 1)), ((scheme[a], 1), (norm, -1))),
        ))
    for i, a in enumerate(authorized):
        for b in authorized[i + 1:]:
            meet = a & b
            if structure.mask_authorized(meet):
                continue
            la, lb = labels[a], labels[b]
            proof = [(scheme[a], 1), (scheme[b], 1), (scheme[a | b], -1)]
            if meet:
                proof.append((scheme[meet], -1))
            k_x = meet | r
            for x in bits(a & ~b):
                k = k_x
                for y in bits(b & ~a):
                    proof.append((_ssa_constraint(labels, min(x, y) | k, max(x, y) | k).id, 1))
                    k |= y
                k_x |= x
            instances.append(SuiteInstance(
                f"gap:{la};{lb}", f"S({la})+S({lb}) >= S(union)+S(intersection)+2",
                sparse_form((a, 1), (b, 1), (a | b, -1), (meet, -1)), ">=", 2, (_merged(proof),),
            ))
    return instances
