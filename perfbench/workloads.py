"""Seeded inputs and job lists for the bound, lemmas and replay workloads.

A job is one call a user of qssbounds would make: `share_bound` for the
`bound` command, `lemma_suite` for the `lemmas` command and an
in-process `qssbounds.cli.main(["verify-cert", ...])` for replay.  Jobs
look up the package function at call time, so wrappers installed by the
tracer see every call.  Why each workload has the jobs it has is written
down in README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("bound", "lemmas", "replay")

THRESHOLD23 = [[1, 2], [1, 3], [2, 3]]

# Seeded structures in `bound`: three on full rows, drawn from the
# 3-player structures that purify to 4 players (5 ground elements), and
# three on elemental rows, drawn from 4-player structures that purify to
# 5 players (6 elements).  Larger seeded instances were measured and left
# out: a 4-player structure on full rows took 0.6 to 1.2 s and a 5-player
# one on elemental rows 0.18 to 3.4 s, so a few of them would move
# `time_s` by 10-15% from one seed to the next.  g4bar on full rows and
# csirmaz5bar on elemental rows keep those sizes timed, on fixed inputs.
SEEDED_PER_ROW_SET = 3
REPLAY_SEEDED = 2


@dataclass
class Job:
    """One timed call and what the correctness gate needs to judge it."""

    id: str
    ineq: str  # "full" or "elemental": which row set the job is built on
    run: Callable[[], Any]
    signature: Callable[[Any], Any]  # deterministic summary of a result
    info: dict = field(default_factory=dict)


def _masks_to_lists(n: int, masks) -> list[list[int]]:
    return [[p for p in range(1, n + 1) if m >> (p - 1) & 1] for m in masks]


def random_structure(st, rng: random.Random, n: int, exclude) -> Any:
    """Seeded quantum structure on n players that is not self-dual.

    Every player sits in some minimal set, so each draw purifies to
    n + 1 players; structures with dummy players solve in a third to a
    half of the time and would make the per-seed cost uneven.
    """
    everyone = (1 << n) - 1
    while True:
        masks = set()
        for _ in range(rng.randint(1, 3)):
            picked = rng.sample(range(n), rng.randint(2, n))
            masks.add(sum(1 << p for p in picked))
        minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
        used = 0
        for m in minimal:
            used |= m
        if used != everyone:
            continue
        s = st.from_minimal_sets(n, _masks_to_lists(n, sorted(minimal)))
        if s in exclude or not st.is_quantum(s) or st.is_self_dual(s):
            continue
        return s


def small_pool(st) -> dict[tuple, list]:
    """Every 3-player quantum structure that is not self-dual.

    Grouped by the sizes of the minimal sets of its purification, so a
    seed can draw the same number of structures from each shape.
    """
    groups: dict[tuple, list] = {}
    candidates = [m for m in range(1, 8) if bin(m).count("1") >= 2]
    for family in range(1, 1 << len(candidates)):
        masks = [candidates[i] for i in range(len(candidates)) if family >> i & 1]
        if any(a != b and a & b == a for a in masks for b in masks):
            continue
        s = st.from_minimal_sets(3, _masks_to_lists(3, masks))
        if not st.is_quantum(s) or st.is_self_dual(s):
            continue
        shape = tuple(sorted(len(m) for m in st.purify(s).minimal_sets))
        groups.setdefault(shape, []).append(s)
    return dict(sorted(groups.items()))


def expected_target_count(structure) -> int:
    """Scheme relations `lemma_suite` must check, counted independently.

    Three joint-entropy relations per authorized set, one reference
    relation per nonempty subset, and one gap inequality per pair of
    authorized sets whose intersection is unauthorized.
    """
    n = structure.n
    minimal = [m.bits for m in structure.minimal_sets]

    def authorized(x: int) -> bool:
        return any(m & x == m for m in minimal)

    auth = [a for a in range(1, 1 << n) if authorized(a)]
    gaps = sum(
        1 for i, a in enumerate(auth) for b in auth[i + 1:] if not authorized(a & b)
    )
    return 3 * len(auth) + (1 << n) - 1 + gaps


def _bound_signature(report) -> tuple:
    return (str(report.lp_value), report.pivots, report.rows, len(report.certificate.entries))


def _lemma_signature(report) -> tuple:
    return tuple((o.instance.id, o.implied, o.pivots) for o in report.outcomes)


def bound_jobs(q, seed: int) -> list[Job]:
    st = q.structures
    t23 = st.from_minimal_sets(3, THRESHOLD23)
    g4, _ = st.csirmaz(4)
    c5, _ = st.csirmaz(5)
    fixed = [
        ("threshold23", t23, "full", Fraction(1)),
        ("g4bar", g4, "full", Fraction(5, 3)),
        ("g4bar", g4, "elemental", Fraction(5, 3)),
        ("csirmaz5bar", c5, "elemental", Fraction(7, 4)),
    ]
    rng = random.Random(seed)
    seen = {t23, g4, c5}
    small = [s for pool in small_pool(st).values() for s in pool]
    seeded = [(f"seeded{i}", s, "full", None)
              for i, s in enumerate(rng.sample(small, SEEDED_PER_ROW_SET))]
    for i in range(SEEDED_PER_ROW_SET):
        s = random_structure(st, rng, 4, seen)
        seen.add(s)
        seeded.append((f"seeded{len(seeded)}", s, "elemental", None))

    jobs = []
    for name, s, ineq, pinned in fixed + seeded:
        def run(s=s, ineq=ineq):
            return q.prover.share_bound(s, auto_purify=True, ineq=ineq)

        jobs.append(
            Job(
                id=f"{name}.{ineq}",
                ineq=ineq,
                run=run,
                signature=_bound_signature,
                info={"structure": s, "pinned": pinned, "seeded": pinned is None,
                      "name": name},
            )
        )
    return jobs


def lemma_jobs(q, seed: int) -> list[Job]:
    st = q.structures
    t23 = st.from_minimal_sets(3, THRESHOLD23)
    rng = random.Random(seed)
    picks = [("threshold23", t23, "full"), ("threshold23", t23, "elemental")]
    # One structure of each purified shape, the first on full rows and the
    # second on elemental rows.  Relabelling a structure changes its
    # suite's pivots by about 1%, so the seed barely moves the cost.
    for (shape, pool), ineq in zip(small_pool(st).items(), ("full", "elemental")):
        label = "x".join(map(str, shape))
        picks.append((f"seeded{label}", st.purify(rng.choice(pool)), ineq))

    jobs = []
    for name, s, ineq in picks:
        def run(s=s, ineq=ineq):
            return q.prover.lemma_suite(s, ineq=ineq)

        jobs.append(
            Job(
                id=f"{name}.{ineq}",
                ineq=ineq,
                run=run,
                signature=_lemma_signature,
                info={"structure": s, "targets": expected_target_count(s),
                      "seeded": name != "threshold23"},
            )
        )
    return jobs


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _tamper(cert: dict, kind: str) -> dict:
    """Copy of a certificate dict that replay must reject.

    ``mult`` raises the multiplier of the first objective-link row by 1,
    so the weighted rows no longer add up to the objective; ``id``
    renames the first entry to a row id no system contains.
    """
    entries = [dict(e) for e in cert["entries"]]
    if kind == "mult":
        e = next(e for e in entries if e["id"].startswith("objlink:"))
        mult = Fraction(e["mult"]) + 1
        e["mult"] = f"{mult.numerator}/{mult.denominator}"
    else:
        entries[0]["id"] = "unknown:" + entries[0]["id"]
    return {"claimed_bound": cert["claimed_bound"], "entries": entries}


def replay_jobs(q, seed: int, workdir: str) -> list[Job]:
    """Certificates made here, in set-up, from elemental bound solves."""
    st = q.structures
    t23 = st.from_minimal_sets(3, THRESHOLD23)
    g4, _ = st.csirmaz(4)
    c5, _ = st.csirmaz(5)
    rng = random.Random(seed)
    instances = [
        ("threshold23", t23, Fraction(1)),
        ("g4bar", g4, Fraction(5, 3)),
        ("csirmaz5bar", c5, Fraction(7, 4)),
    ]
    seen = {t23, g4, c5}
    for i in range(REPLAY_SEEDED):
        s = random_structure(st, rng, 4, seen)
        seen.add(s)
        instances.append((f"seeded{i}", s, None))

    jobs = []
    for i, (name, s, pinned) in enumerate(instances):
        spath = os.path.join(workdir, f"{name}.structure.json")
        _write_json(spath, st.structure_to_dict(s))
        report = q.prover.share_bound(s, auto_purify=True, ineq="elemental")
        cert = q.prover.certificate_to_json_dict(report.certificate)
        for j, ineq in enumerate(("full", "elemental")):
            kind = ("mult", "id")[(i + j) % 2]
            for tampered in (False, True):
                tag = f"{name}.{ineq}." + (f"tampered-{kind}" if tampered else "genuine")
                cpath = os.path.join(workdir, tag + ".cert.json")
                _write_json(cpath, _tamper(cert, kind) if tampered else cert)
                opath = os.path.join(workdir, tag + ".out.json")
                argv = ["verify-cert", "--system-from", spath, "--cert", cpath,
                        "--auto-purify", "--ineq", ineq, "--out", opath]

                def run(argv=argv):
                    try:
                        return q.cli.main(argv)
                    except SystemExit as exc:  # argparse rejects a bad argv this way
                        return exc.code

                jobs.append(
                    Job(
                        id=tag,
                        ineq=ineq,
                        run=run,
                        signature=lambda code: code,
                        info={"structure": s, "pinned": pinned, "seeded": pinned is None,
                              "expected_exit": 1 if tampered else 0, "out": opath,
                              "claimed_bound": Fraction(cert["claimed_bound"])},
                    )
                )
    return jobs


def make_jobs(q, workload: str, seed: int, workdir: str) -> list[Job]:
    if workload == "bound":
        return bound_jobs(q, seed)
    if workload == "lemmas":
        return lemma_jobs(q, seed)
    return replay_jobs(q, seed, workdir)
