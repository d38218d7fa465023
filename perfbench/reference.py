"""Fixed reference program for the benchmark's speed normalisation.

Usage: python3 perfbench/reference.py

It does the kinds of work a racktwist job does, without racktwist: it starts
an interpreter, imports numpy and scipy's sparse modules, and sums Python
``Fraction``s in a dict.  ``run.py`` times it right before and right after
every job, on the same vCPU, and scales the job's times by it.  Every
recorded result depends on this exact program, so changing it invalidates
all earlier results.
"""

from fractions import Fraction

import numpy  # noqa: F401
import scipy.sparse  # noqa: F401
import scipy.sparse.csgraph  # noqa: F401


def main() -> None:
    acc: dict[int, Fraction] = {}
    for i in range(20000):
        acc[i % 997] = acc.get(i % 997, Fraction(0)) + Fraction(i, 7)


if __name__ == "__main__":
    main()
