#!/usr/bin/env python3
"""Weyl-constant scan for a staircase-coupled interval problem.

Tabulates n/sqrt(lambda_n) * pi/(b-a) over an index range.  At a finite
refinement level each positive coupling shifts the counting function by
between 0 and 1 (min-max interlacing against the Dirichlet Laplacian), so
low windows sit visibly above 1; the constant is recovered once n dominates
the atom count.

    python scripts/weyl_law.py --level 5 --indices 50..100 --step 5
    python scripts/weyl_law.py --level 5 --indices 1500..2000 --step 100
"""
import argparse
import math

from deltaprime import CantorSpec, ProblemSpec, SingularMeasure
from deltaprime.cli import _parse_levels, _positive_int
from deltaprime.io import emit, render_csv
from deltaprime.spectrum import _eigenvalue_list


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=5)
    ap.add_argument("--indices", type=_parse_levels, default="50..100",
                    help="A..B")
    ap.add_argument("--step", type=_positive_int, default=5)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)
    lo, hi = args.indices[0], args.indices[-1]
    if lo == 0:
        ap.error("argument --indices: eigenvalue indices start at 1")

    measure = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0),
                                                       args.mass),))
    problem = ProblemSpec((0.0, 1.0), measure=measure, level=args.level)
    indices = range(lo, hi + 1, args.step)  # searched with shared shots
    rows = [(n, lam, n / math.sqrt(lam) * math.pi)
            for n, lam in zip(indices, _eigenvalue_list(problem, indices))]
    meta = {"level": args.level, "mass": args.mass}
    emit(render_csv(("n", "lambda_n", "weyl_ratio"), rows, meta), args.out)


if __name__ == "__main__":
    main()
