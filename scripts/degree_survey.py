#!/usr/bin/env python3
"""Classify generated Haar distinguished varieties of growing degree.

For each d and seed s the variety is det [[A - wI, zB], [C, zD - I]] for a
Haar unitary U = [[A, B], [C, D]] of size 2d drawn from
``default_rng(1000 d + s)``, A of size d: a distinguished variety of degree
(d, d) by construction (Agler-McCarthy 2005).  One line per variety reads

    d s label proven samples=a,b

with the label and proof flag of ``classify_zero_set`` and the number of
circle samples each of its circle proofs took, in call order.  No timings
are printed, so the output of two checkouts can be compared with ``diff``:

    PYTHONPATH=src python scripts/degree_survey.py > new.txt
"""

from __future__ import annotations

import numpy as np

import dvkit.classify
from dvkit.dvrep import UnitaryRealization, det_representation

DEGREES = (8, 10, 11, 12, 13, 14, 15, 16, 18, 20)
SEEDS = (1, 2)


def haar_unitary(rng, size):
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed.

    ``tests/conftest.py`` loads this copy, so the tests and the survey
    share one generator."""
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_variety(d, seed):
    u = haar_unitary(np.random.default_rng(1000 * d + seed), 2 * d)
    return det_representation(UnitaryRealization(d, d, u))


def survey(degrees=DEGREES, seeds=SEEDS):
    """(d, s, label, proven, samples) per variety, samples the count of
    each circle proof of its classification."""
    prove = dvkit.classify._definite_on_circle
    rows = []
    for d in degrees:
        for s in seeds:
            samples = []

            def counted(*args, **kwargs):
                out = prove(*args, **kwargs)
                samples.append(len(out[0]))
                return out

            dvkit.classify._definite_on_circle = counted
            try:
                zc = dvkit.classify.classify_zero_set(haar_variety(d, s))
            finally:
                dvkit.classify._definite_on_circle = prove
            rows.append((d, s, zc.label.value, zc.proven, tuple(samples)))
    return rows


def main():
    for d, s, label, proven, samples in survey():
        print(f"{d} {s} {label} {proven} samples={','.join(map(str, samples))}")


if __name__ == "__main__":
    main()
