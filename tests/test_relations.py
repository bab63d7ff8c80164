"""The hand proofs of the scheme relations against the suite's LP route.

Every relation carries one proof per direction; `lemma_suite` replays
them and solves an LP only for a target whose proof does not replay.
`helpers.lp_lemma_suite` is the LP route alone, the reference here.
The LP route solves on the elemental quotient whatever the family, so
the reference is solved once per structure and compared with the proof
route on both families.
"""

import random

import pytest

from qssbounds import prover
from qssbounds.prover import cached_system, lemma_suite, theorem3_chain, verify_certificate
from qssbounds.relations import SuiteInstance, scheme_relation_instances
from qssbounds.structures import csirmaz, from_minimal_sets, is_quantum, purify

from helpers import all_antichain_structures, lp_lemma_suite, random_quantum_structure

THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
GAMMA4_BAR = purify(from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]]))


def assert_proofs_match_the_lp(structures):
    for structure in structures:
        reference = lp_lemma_suite(structure, "elemental").outcomes
        reference = [(o.instance.id, o.implied) for o in reference]
        for ineq in ("full", "elemental"):
            report = lemma_suite(structure, ineq=ineq)
            assert report.fallbacks == 0, (structure, ineq)
            assert [(o.instance.id, o.implied) for o in report.outcomes] == reference
            assert all(o.pivots == 0 for o in report.outcomes)


def test_every_purified_structure_on_up_to_four_players():
    found = [purify(s) for n in range(1, 5) for s in all_antichain_structures(n) if is_quantum(s)]
    structures = list(dict.fromkeys(found))
    assert len(structures) == 87
    assert_proofs_match_the_lp(structures)


def test_seeded_five_player_structures():
    rng = random.Random(5)
    structures = [purify(random_quantum_structure(rng, 5)) for _ in range(4)]
    assert {s.n for s in structures} == {5, 6}
    assert_proofs_match_the_lp(structures)


@pytest.mark.parametrize("n", [4, 5], ids=["csirmaz4bar", "csirmaz5bar"])
def test_staircases(n):
    assert_proofs_match_the_lp([purify(csirmaz(n)[0])])


@pytest.mark.parametrize("ineq", ["full", "elemental"])
def test_csirmaz6bar_needs_no_lp(ineq):
    # its LP route takes seconds; the proof route about 0.1 s
    report = lemma_suite(purify(csirmaz(6)[0]), ineq=ineq)
    assert len(report.outcomes) == 1204 and report.all_implied
    assert report.fallbacks == 0


def test_threshold23_proofs():
    # threshold(2,3): players 1-3 and R; {1} is unauthorized, pairs are
    # authorized, and the gap of {1,2} and {1,3} expands I(2;3|1,R)
    ground = cached_system(THRESHOLD23, True, "full").ground
    proofs = {i.id: i.proofs for i in scheme_relation_instances(THRESHOLD23, ground)}
    assert proofs["withref:1"] == (
        (("secrecy:1", -1), ("normalize", 1)), (("secrecy:1", 1), ("normalize", -1))
    )
    assert proofs["gap:1,2;1,3"] == ((
        ("recover:1,2", 1), ("recover:1,3", 1), ("recover:1,2,3", -1), ("secrecy:1", -1),
        ("ssa:2;3|1,R", 1),
    ),)
    # S(P) - S(∅) = 1: identity(F) and identity(∅) are purity alone
    assert proofs["joint3:1,2,3"] == (
        (("recover:1,2,3", 1), ("normalize", -1), ("purity", 1)),
        (("recover:1,2,3", -1), ("normalize", 1), ("purity", -1)),
    )


def mutated_suite(monkeypatch, target_id, mutate):
    """`lemma_suite(GAMMA4_BAR)` with the instance ``target_id`` replaced by
    ``mutate(instance)``; returns the report and the mutated instance."""
    mutated = []

    def instances(structure, ground):
        out = scheme_relation_instances(structure, ground)
        for i, inst in enumerate(out):
            if inst.id == target_id:
                out[i] = mutate(inst)
                mutated.append(out[i])
        return out

    monkeypatch.setattr(prover, "scheme_relation_instances", instances)
    report = lemma_suite(GAMMA4_BAR, ineq="elemental")
    assert len(mutated) == 1
    return report, mutated[0]


def bumped(inst: SuiteInstance, direction: int, entry: int) -> SuiteInstance:
    """``inst`` with one multiplier of one proof raised by 1."""
    proofs = [list(p) for p in inst.proofs]
    rid, u = proofs[direction][entry]
    proofs[direction][entry] = (rid, u + 1)
    return inst._replace(proofs=tuple(map(tuple, proofs)))


@pytest.mark.parametrize(
    "target_id,direction",
    [("joint1:1,2", 1), ("joint2:1,3", 0), ("joint3:1,2,3,4", 1), ("withref:1", 0),
     ("gap:1,2;1,3", 0)],
)
def test_a_changed_multiplier_falls_back_to_the_lp(monkeypatch, target_id, direction):
    rng = random.Random(target_id)
    report, inst = mutated_suite(
        monkeypatch, target_id,
        lambda inst: bumped(inst, direction, rng.randrange(len(inst.proofs[direction]))),
    )
    system = cached_system(GAMMA4_BAR, True, "elemental")
    form, rhs = prover._directions(inst.terms, inst.rel, inst.rhs)[direction]
    cert = prover.Certificate(rhs, inst.proofs[direction], 1, form)
    assert not verify_certificate(system, cert, objective=form)
    assert report.fallbacks == 1 and report.all_implied
    (outcome,) = [o for o in report.outcomes if o.instance.id == target_id]
    assert outcome.implied and outcome.pivots > 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda inst: inst._replace(proofs=()),
        lambda inst: inst._replace(proofs=inst.proofs[:1]),
        lambda inst: inst._replace(proofs=((("unknown:1", 1),), inst.proofs[1])),
    ],
    ids=["no-proof", "one-direction", "unknown-id"],
)
def test_a_missing_or_unknown_proof_falls_back_to_the_lp(monkeypatch, mutate):
    report, _ = mutated_suite(monkeypatch, "withref:2", mutate)
    assert report.fallbacks == 1 and report.all_implied


def test_chain_steps_have_no_proof():
    report = theorem3_chain(4, ineq="elemental")
    assert report.all_implied
    assert all(not s.instance.proofs for s in report.steps)
