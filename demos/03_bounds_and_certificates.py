#!/usr/bin/env python3
"""Proving share-size bounds and replaying their certificates.

Deterministic, stdout only.  Run as: python3 demos/03_bounds_and_certificates.py
"""

from fractions import Fraction

from qssbounds import (
    Certificate,
    from_minimal_sets,
    lemma_suite,
    share_bound,
    theorem3_chain,
    verify_certificate,
)
from qssbounds.prover import cached_system

print("== exact bound for the 4-player structure ==")
gamma4 = from_minimal_sets(4, [[1, 2], [1, 3], [2, 3, 4]])
report = share_bound(gamma4, auto_purify=True, players=[1, 2, 3, 4])
print(f"largest of shares 1..4 is at least {report.lp_value} * S(secret)")
print(f"so the information rate is at most {report.rate_upper_bound}")
print(f"closed-form reference at k={report.k}: {report.theorem3_bound}")
print(f"lp: {report.rows} rows, {report.cols} cols, {report.pivots} pivots, "
      f"{report.millis} ms")

print()
print("== the certificate is a nonnegative combination of rows ==")
cert = report.certificate
print(f"claimed bound {cert.claimed_bound} from {len(cert.entries)} rows, e.g.")
for rid, u in cert.entries[:5]:  # multipliers are ints over one denominator
    print(f"    {Fraction(u, cert.den)} * [{rid}]")
system = cached_system(report.structure, True, "full")
print("replay accepts:", verify_certificate(system, cert, objective=report.objective))

(rid, u), *rest = cert.entries
tampered = Certificate(cert.claimed_bound, ((rid, u + cert.den), *rest), cert.den, cert.objective)
print("replay after tampering with one multiplier:",
      verify_certificate(system, tampered, objective=report.objective))

print()
print("== scheme relations are theorems of the system ==")
threshold = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])
suite = lemma_suite(threshold)
print(f"(2,3) threshold: {sum(o.implied for o in suite.outcomes)}/"
      f"{len(suite.outcomes)} relations implied")

print()
print("== telescoping chain for the staircase structure, n=4 ==")
chain = theorem3_chain(4)
for step in chain.steps:
    print(f"    [{'ok' if step.implied else 'FAIL'}] {step.instance.description}")
print(f"reference {chain.reference_bound} <= lp value {chain.bound.lp_value} "
      f"(rate <= {chain.bound.rate_upper_bound})")
