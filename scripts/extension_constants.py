#!/usr/bin/env python3
"""Survey extension constants over the family w^m = b(z).

For each curve the pipeline builds the determinantal representation, then
reports the constant C = sqrt(m) sup ||Q^{-1}|| ||Q|| and the constant of
the same realization with z and w exchanged.
Monomial Blaschke products come out at exactly sqrt(m); the table shows how
far general numerator/denominator pairs drift from that floor.

    PYTHONPATH=src python scripts/extension_constants.py
"""

import math

from dvkit.extend import extension_bound
from dvkit.dvrep import represent
from dvkit.poly2 import blaschke_dv


def survey():
    cases = []
    for m in (2, 3):
        cases.append((f"w^{m} = z^{m}", blaschke_dv(m, [0.0] * m)))
        cases.append((f"w^{m} = z^2 (monomial)", blaschke_dv(m, [0.0, 0.0])))
        cases.append((f"w^{m} = B(z), zeros 0.5, 0", blaschke_dv(m, [0.5, 0.0])))
        cases.append(
            (f"w^{m} = B(z), zeros 0.4, -0.3i", blaschke_dv(m, [0.4, -0.3j]))
        )
    print(f"{'curve':34s} {'m':>2s} {'C':>12s} {'C_swapped':>12s} {'sqrt(m)':>9s}")
    for name, p in cases:
        cert, sample, rep, report = represent(p)
        c = extension_bound(rep, cert)
        try:
            c_sw = extension_bound(rep.swapped(), cert.swapped())
            swapped = f"{c_sw:12.6f}"
        except ValueError:
            swapped = "        --  "
        m = len(cert.vec_q)
        print(f"{name:34s} {m:2d} {c:12.6f} {swapped} {math.sqrt(m):9.6f}")


if __name__ == "__main__":
    survey()
