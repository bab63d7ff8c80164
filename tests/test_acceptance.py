"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All value comparisons are exact rational equality or exact >=; there are
no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from qssbounds.prover import (
    Certificate,
    cached_system,
    check_implied,
    lemma_suite,
    share_bound,
    theorem3_chain,
    verify_certificate,
)
from qssbounds.structures import (
    CapacityError,
    PlayerSet,
    csirmaz,
    csirmaz_k,
    from_minimal_sets,
    is_quantum,
    is_self_dual,
    purify,
    theorem3_reference_bound,
)

from helpers import qutrit_threshold_vector, random_quantum_structure

THRESHOLD23 = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
GAMMA4 = from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]])
GAMMA4_BAR = purify(GAMMA4)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bound_gamma4_bar():
    return share_bound(GAMMA4_BAR, mode="pure", ineq="full", players=[1, 2, 3, 4])


@pytest.fixture(scope="module")
def bound_threshold():
    return share_bound(THRESHOLD23, mode="pure", ineq="full")


@pytest.fixture(scope="module")
def mode_pair_reports(bound_threshold, bound_gamma4_bar):
    """Full/elemental report pairs for the three mode-equivalence cases."""
    csirmaz5_bar = purify(csirmaz(5)[0])
    return [
        (bound_threshold, share_bound(THRESHOLD23, ineq="elemental")),
        (bound_gamma4_bar,
         share_bound(GAMMA4_BAR, ineq="elemental", players=[1, 2, 3, 4])),
        (share_bound(csirmaz5_bar, ineq="full"),
         share_bound(csirmaz5_bar, ineq="elemental")),
    ]


@pytest.fixture(scope="module")
def chain4():
    return theorem3_chain(4)


def test_criterion_1_generator_fidelity():
    structure, params = csirmaz(4)
    ok = structure.minimal_player_lists() == [[1, 2], [1, 3], [2, 3, 4]]
    for n in range(4, 13):
        s, p = csirmaz(n)
        ok = ok and is_quantum(s)
        ok = ok and len(s.minimal_sets) == 2 ** p.k - 1
        # the antichain invariant is enforced at construction; re-check
        mins = s.minimal_sets
        ok = ok and all(
            a.bits & ~b.bits and b.bits & ~a.bits
            for i, a in enumerate(mins)
            for b in mins[i + 1:]
        )
    report(1, ok, "staircase generator matches the expected minimal sets, "
                  "is quantum and an antichain for n=4..12 with 2^k-1 sets")


def test_criterion_2_purification_fidelity():
    expected = {(1, 2), (1, 3), (2, 3, 4), (2, 3, 5), (1, 4, 5)}
    got = {m.players() for m in GAMMA4_BAR.minimal_sets}
    ok = got == expected and is_self_dual(GAMMA4_BAR) and is_quantum(GAMMA4_BAR)

    # brute-force oracle for the two-player example: promote one side of
    # every complementary unauthorized pair, then minimize by enumeration
    base = from_minimal_sets(2, [[1, 2]])
    members = []
    for mask in range(1, 8):
        inner = PlayerSet(mask & 3, 2)
        inner_auth = base.is_authorized(inner)
        comp_auth = base.is_authorized(PlayerSet(~mask & 3, 2))
        if inner_auth or (mask & 4 and not inner_auth and not comp_auth):
            members.append(mask)
    minimal = [
        m for m in members
        if not any(o != m and o & ~m == 0 for o in members)
    ]
    oracle = from_minimal_sets(3, [PlayerSet(m, 3).players() for m in minimal])
    ok = ok and purify(base) == oracle and oracle == THRESHOLD23
    report(2, ok, "purified 4-player structure equals the expected five sets "
                  "and purify({{1,2}}) equals the (2,3) threshold oracle")


def test_criterion_3_bound_n4(bound_gamma4_bar):
    started = time.perf_counter()
    rep = bound_gamma4_bar
    system = cached_system(GAMMA4_BAR, True, "full")
    accepted = verify_certificate(system, rep.certificate, objective=rep.objective)
    elapsed = time.perf_counter() - started
    ok = rep.lp_value >= Fraction(3, 2) and accepted and rep.millis < 60_000
    report(3, ok, f"minmax bound over shares 1-4 is {rep.lp_value} >= 3/2 "
                  f"with accepted certificate ({rep.millis} ms)")
    assert elapsed < 60


def test_criterion_4_theorem3_chain_k2(chain4):
    rep = chain4
    ok = (
        rep.k == 2
        and rep.all_implied
        and [s.instance.id for s in rep.steps] == ["step:0", "step:1", "telescoped", "final"]
        and rep.reference_bound == Fraction(7, 5)
        and rep.bound.lp_value >= Fraction(7, 5)
        and rep.millis < 60_000
    )
    report(4, ok, f"all chain steps implied; lp {rep.bound.lp_value} >= "
                  f"reference 7/5 ({rep.millis} ms)")


def test_criterion_5_threshold_oracle(bound_threshold):
    rep = bound_threshold
    system = cached_system(THRESHOLD23, True, "full")
    point = qutrit_threshold_vector(system.ground)
    feasible = all(c.satisfied_by(point) for c in system.constraints)
    ok = rep.lp_value == 1 and feasible and rep.millis < 5_000
    report(5, ok, f"(2,3) threshold bound is exactly {rep.lp_value} and the "
                  f"qutrit entropy vector satisfies all {len(system.constraints)} "
                  f"constraints exactly ({rep.millis} ms)")


def test_criterion_6_lemma_suite():
    started = time.perf_counter()
    rep_bar = lemma_suite(GAMMA4_BAR)
    rep_thr = lemma_suite(THRESHOLD23)
    elapsed = time.perf_counter() - started
    ok = rep_bar.all_implied and rep_thr.all_implied and elapsed < 120
    report(6, ok, f"{len(rep_bar.outcomes)} + {len(rep_thr.outcomes)} scheme "
                  f"relations implied, 100% ({elapsed:.1f} s)")


def test_criterion_7_mode_equivalence(mode_pair_reports):
    ok = all(f.lp_value == e.lp_value for f, e in mode_pair_reports)
    report(7, ok, "full and elemental modes agree exactly: "
                  + ", ".join(str(f.lp_value) for f, _ in mode_pair_reports))


def test_criterion_8_soundness_round_trip(mode_pair_reports, chain4):
    # every bound computed for criteria 3-7 plus the chain-step certificates
    rng = random.Random(20260808)
    cases = [(chain4.bound.structure, chain4.bound.certificate,
              chain4.bound.objective, chain4.bound.ineq)]
    for full_rep, elem_rep in mode_pair_reports:
        for rep in (full_rep, elem_rep):
            cases.append((rep.structure, rep.certificate, rep.objective, rep.ineq))
    for step in chain4.steps:
        system = cached_system(chain4.bound.structure, True, "full")
        res = check_implied(system, dict(step.instance.terms), step.instance.rel,
                            step.instance.rhs)
        for cert in res.certificates:
            cases.append((chain4.bound.structure, cert, cert.objective, "full"))

    ok = True
    rejected = 0
    for structure, cert, objective, ineq in cases:
        system = cached_system(structure, True, ineq)
        ok = ok and verify_certificate(system, cert, objective=objective)
        for _ in range(20):
            idx = rng.randrange(len(cert.entries))
            delta = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
            entries = list(cert.entries)
            rid, mult = entries[idx]
            entries[idx] = (rid, mult + delta)
            tampered = Certificate(cert.claimed_bound, tuple(entries), cert.objective)
            bad = verify_certificate(system, tampered, objective=objective)
            ok = ok and not bad
            rejected += not bad
    report(8, ok, f"{len(cases)} certificates verified and {rejected} "
                  f"single-entry perturbations all rejected")


def test_criterion_9_floor_property():
    rng = random.Random(1984)
    ok = True
    values = []
    for _ in range(50):
        structure = random_quantum_structure(rng, rng.randint(2, 4))
        rep = share_bound(structure, auto_purify=True, mode="pure", ineq="full")
        values.append(rep.lp_value)
        ok = ok and rep.lp_value >= 1
    report(9, ok, f"50 random quantum structures (n <= 4): min lp_value "
                  f"{min(values)}, all >= 1")


def test_criterion_10_asymptotics_via_closed_form():
    ok = (
        theorem3_reference_bound(2) == Fraction(7, 5)
        and theorem3_reference_bound(3) == Fraction(15, 7)
        and theorem3_reference_bound(4) == Fraction(31, 9)
        and csirmaz_k(9) == 3
    )
    # k >= 3 instances (11 ground elements once purified) stay above the
    # default element limit and out of the default suite
    big, params = csirmaz(9)
    ok = ok and params.k == 3 and purify(big).n + 1 == 11
    try:
        theorem3_chain(9)
        ok = False
    except CapacityError:
        pass
    report(10, ok, "closed-form reference bounds 7/5, 15/7, 31/9 verified; "
                   "11-element instances require a raised --limit-elements")
