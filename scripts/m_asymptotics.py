#!/usr/bin/env python3
"""High-energy m-function sweeps on the truncated half line.

Three standard configurations: free (order-1 scale r**-1/2), an atom away
from the origin (same leading term), and an atom hugging the origin (an
order-0 window where the m-function plateaus at the atom weight).  Each row
reports m(-r) and its ratio to the predicted scale.

    python scripts/m_asymptotics.py --case near-atom --out near.csv
"""
import argparse

from deltaprime import (ProblemSpec, SingularMeasure, m_asymptotics_check)
from deltaprime.io import emit, render_csv

CASES = {
    "free": (SingularMeasure(), 1.0, (1e4, 1e5, 1e6)),
    "far-atom": (SingularMeasure.from_atoms([(1.0, 1.0)]), 1.0,
                 (1e4, 1e5, 1e6)),
    "near-atom": (SingularMeasure.from_atoms([(1e-6, 1.0)]), 0.0,
                  (1e3, 1e4, 1e5)),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--case", choices=sorted(CASES), default="free")
    ap.add_argument("--truncation", type=float, default=50.0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)
    measure, alpha, r_grid = CASES[args.case]
    problem = ProblemSpec((0.0, args.truncation), bc_left="neumann",
                          measure=measure)
    fit = m_asymptotics_check(problem, alpha, r_grid)
    rows = [(r, ratio) for (r, ratio) in fit.samples]
    meta = {"case": args.case, "alpha": alpha, "max_rel_dev": fit.max_rel_dev}
    emit(render_csv(("r", "ratio"), rows, meta), args.out)


if __name__ == "__main__":
    main()
