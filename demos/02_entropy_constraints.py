#!/usr/bin/env python3
"""What the constraint generator emits, and why an honest scheme obeys it.

Deterministic, stdout only.  Run as: python3 demos/02_entropy_constraints.py
"""

from collections import Counter
from fractions import Fraction

from qssbounds import build_system, from_minimal_sets

threshold = from_minimal_sets(3, [[1, 2], [1, 3], [2, 3]])

print("== constraint systems for the (2,3) threshold structure ==")
for ineq in ("full", "elemental"):
    system = build_system(threshold, pure=True, ineq=ineq)
    families = Counter(c.family for c in system.constraints)
    print(f"{ineq:9s}: {len(system.constraints):4d} rows  {dict(sorted(families.items()))}")

system = build_system(threshold, pure=True, ineq="elemental")
print()
print("== a few rows, straight from the dump ==")
for line in system.dump().splitlines()[:4]:
    print("   ", line)
for cid in ("ssa:1;2|∅", "recover:1,2", "secrecy:1", "normalize", "purity"):
    c = system.row(cid)
    terms = " ".join(f"{coef}*S({system.ground.label(v)})" for v, coef in c.terms)
    print(f"    {c.id} : {terms} {c.rel} {c.rhs}")

print()
print("== the qutrit scheme's entropy vector satisfies every row ==")
r = system.ground.reference_mask
point = {0: Fraction(0), r: Fraction(1)}
for mask in range(1, 8):
    size = mask.bit_count()
    point[mask] = Fraction(1 if size in (1, 3) else 2)
    point[mask | r] = Fraction({1: 2, 2: 1, 3: 0}[size])

violations = [c.id for c in system.constraints if not c.satisfied_by(point)]
print(f"    rows checked: {len(system.constraints)}, violations: {violations or 'none'}")
print("    (singletons 1, pairs 2, S(123)=1, S(iR)=2, S(ijR)=1, S(123R)=0)")
