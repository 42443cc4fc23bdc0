#!/usr/bin/env python3
"""Level-refinement study for a staircase coupling measure.

Realizes the middle-ratio generator at a range of levels, measures the
Hilbert-Schmidt distance of each resolvent to the finest one, and tracks
the low eigenvalues.  Writes a CSV table.

    python scripts/convergence_study.py --levels 2..8 --z -1 --out study.csv
"""
import argparse

from deltaprime import CantorSpec, ProblemSpec, SingularMeasure, convergence_study
from deltaprime.cli import _parse_levels
from deltaprime.io import emit, render_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=_parse_levels, default="2..8",
                    help="A..B")
    ap.add_argument("--z", type=float, default=-1.0)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--ratio", type=float, default=1.0 / 3.0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)
    lo, hi = args.levels[0], args.levels[-1]

    measure = SingularMeasure(cantor_parts=(CantorSpec(
        (0.0, 1.0), args.mass, args.ratio, level_cap=max(hi, 12)),))
    problem = ProblemSpec((0.0, 1.0), measure=measure, level=lo)
    rows = convergence_study(problem, args.levels, args.z)
    table = [(r.level, r.hs_to_finest) + r.lambdas for r in rows]
    header = ("level", "hs_distance") + tuple(
        f"lambda_{i + 1}" for i in range(len(rows[0].lambdas)))
    meta = {"z": args.z, "mass": args.mass, "ratio": args.ratio}
    emit(render_csv(header, table, meta), args.out)


if __name__ == "__main__":
    main()
