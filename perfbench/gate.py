"""Correctness gate, run after the timed passes.

Each check returns the ids of the jobs it failed, with a reason.  The
checks rebuild their row sets with `cone.build_system` directly, so they
share no cache with the timed jobs.  The float cross-check uses HiGHS
through scipy when scipy can be imported, and is skipped, with a note,
when it cannot.
"""

from __future__ import annotations

import json
from fractions import Fraction

HIGHS_TOL = 1e-9


def load_highs():
    """scipy's linprog and sparse matrix type, or None when not importable."""
    try:
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:
        return None
    return linprog, csr_matrix


def highs_minimum(highs, system, form: dict[int, Fraction], links=()) -> float | None:
    """Float minimum of form . x over the system rows and extra ">=" rows.

    ``links`` are (terms, rhs) rows; a variable index past the system's
    own variables is an extra free variable (the minmax level t).
    """
    linprog, csr_matrix = highs
    rows = [(c.terms, c.rel, c.rhs) for c in system.constraints]
    rows.extend((terms, ">=", rhs) for terms, rhs in links)
    num_vars = max(
        [system.ground.var_count - 1] + [v for terms, _, _ in rows for v, _ in terms]
    ) + 1
    ub, eq = ([], [], [], []), ([], [], [], [])
    for terms, rel, rhs in rows:
        r, c, v, b = ub if rel == ">=" else eq
        sign = -1.0 if rel == ">=" else 1.0
        i = len(b)
        for var, coef in terms:
            r.append(i)
            c.append(var)
            v.append(sign * float(coef))
        b.append(sign * float(rhs))

    def matrix(part):
        r, c, v, b = part
        if not b:
            return None, None
        return csr_matrix((v, (r, c)), shape=(len(b), num_vars)), b

    a_ub, b_ub = matrix(ub)
    a_eq, b_eq = matrix(eq)
    cost = [0.0] * num_vars
    for var, coef in form.items():
        cost[var] += float(coef)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    return float(res.fun) if res.status == 0 else None


def highs_share_bound(highs, system, players: int) -> float | None:
    """Minimum over the system of the largest share entropy S(i)."""
    t = system.ground.var_count
    links = [(((t, Fraction(1)), (1 << (i - 1), Fraction(-1))), Fraction(0))
             for i in range(1, players + 1)]
    return highs_minimum(highs, system, {t: Fraction(1)}, links)


def _built(q, cache: dict, structure, ineq: str):
    key = (structure, ineq)
    if key not in cache:
        cache[key] = q.cone.build_system(structure, pure=True, ineq=ineq)
    return cache[key]


def check_bound(q, jobs, results, highs) -> list[tuple[str, str]]:
    """Pinned values, lp_value >= 1, replay on full rows, row-set agreement."""
    bad = []
    built: dict = {}
    exact: dict = {}
    for job in jobs:
        report = results.get(job.id)
        if report is None:
            continue
        info = job.info
        value = report.lp_value
        exact.setdefault(info["name"], {})[job.ineq] = value
        if info["pinned"] is not None and value != info["pinned"]:
            bad.append((job.id, f"lp_value {value} != pinned {info['pinned']}"))
        if value < 1:
            bad.append((job.id, f"lp_value {value} < 1"))
        full = _built(q, built, report.structure, "full")
        if not q.prover.verify_certificate(full, report.certificate, objective=report.objective):
            bad.append((job.id, "certificate does not replay on freshly built full rows"))
        if highs is None:
            continue
        for ineq in ("full", "elemental"):
            system = _built(q, built, report.structure, ineq)
            ref = highs_share_bound(highs, system, report.structure.n)
            if ref is None or abs(ref - float(value)) > HIGHS_TOL:
                bad.append((job.id, f"HiGHS on {ineq} rows gives {ref}, exact {value}"))
    for name, values in exact.items():
        if len(set(values.values())) > 1:
            bad.append((f"{name}.full", f"full and elemental values differ: {values}"))
    return bad


def check_lemmas(q, jobs, results, highs) -> list[tuple[str, str]]:
    """All implied, expected target count, and HiGHS agrees each is implied."""
    bad = []
    built: dict = {}
    for job in jobs:
        report = results.get(job.id)
        if report is None:
            continue
        if len(report.outcomes) != job.info["targets"]:
            bad.append((job.id, f"{len(report.outcomes)} targets, expected {job.info['targets']}"))
        if not report.all_implied:
            bad.append((job.id, "not all scheme relations implied"))
        if highs is None or not job.info["seeded"]:
            continue
        system = _built(q, built, report.structure, "elemental")
        for o in report.outcomes:
            form = dict(o.instance.terms)
            checks = [(form, o.instance.rhs)]
            if o.instance.rel == "=":
                checks.append(({v: -c for v, c in form.items()}, -o.instance.rhs))
            for f, rhs in checks:
                low = highs_minimum(highs, system, f)
                if low is None or low < float(rhs) - HIGHS_TOL:
                    bad.append((job.id, f"HiGHS finds {o.instance.id} not implied ({low})"))
    return bad


def check_replay(q, jobs, results, highs) -> list[tuple[str, str]]:
    """Exact exit codes, matching `verified` output, pinned and HiGHS values."""
    bad = []
    built: dict = {}
    for job in jobs:
        if job.id not in results:
            continue
        code = results[job.id]
        info = job.info
        if code != info["expected_exit"]:
            bad.append((job.id, f"exit {code}, expected {info['expected_exit']}"))
            continue
        with open(info["out"], encoding="utf-8") as fh:
            verified = json.load(fh)["verified"]
        if verified != (code == 0):
            bad.append((job.id, f"verified={verified} with exit {code}"))
        claimed = info["claimed_bound"]
        if info["pinned"] is not None and claimed != info["pinned"]:
            bad.append((job.id, f"certificate claims {claimed}, pinned {info['pinned']}"))
        if highs is not None and info["seeded"] and code == 0:
            solved = q.structures.purify(info["structure"])
            ref = highs_share_bound(highs, _built(q, built, solved, job.ineq), solved.n)
            if ref is None or abs(ref - float(claimed)) > HIGHS_TOL:
                bad.append((job.id, f"HiGHS gives {ref}, certificate claims {claimed}"))
    return bad


CHECKS = {"bound": check_bound, "lemmas": check_lemmas, "replay": check_replay}
