"""Scaling probes: single-call costs of each layer at levels 5, 8, 10, 12.

Informational only; nothing here is gated.  The problem is the Dirichlet
middle-thirds staircase of mass 1 on [0, 1], whose level-L realization has
2**L atoms.  Each probe is repeated until it has run for PROBE_BUDGET_S or
PROBE_REPS times and the median is reported.
"""
from __future__ import annotations

import json
import statistics
import time

LEVELS = (5, 8, 10, 12)
PROBE_REPS = 5
PROBE_BUDGET_S = 1.0
# dense HS quadrature at level 12 would hold ~32k x 1k complex blocks
# (several GB of temporaries); it is skipped rather than run
HS_MAX_LEVEL = 10
ORACLE_MAX_DOFS = 300000


def _median_time(fn):
    times = []
    start = time.perf_counter()
    while len(times) < PROBE_REPS and (
            not times or time.perf_counter() - start < PROBE_BUDGET_S):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def _problem(dp, level):
    cantor = dp.measures.CantorSpec((0.0, 1.0), 1.0, 1.0 / 3.0, 12)
    return dp.propagate.ProblemSpec(
        (0.0, 1.0), measure=dp.measures.SingularMeasure(cantor_parts=(cantor,)),
        level=level)


def _oracle_mesh(dp, problem):
    nodes = dp.propagate.realize_problem(problem).nodes
    return min(min(b - a for a, b in zip(nodes, nodes[1:])) / 2.0, 1.0 / 256)


def probe_rows(dp):
    sp, rs = dp.spectrum, dp.resolvent
    rows = []
    for level in LEVELS:
        p = _problem(dp, level)
        cells = len(dp.propagate.realize_problem(p).nodes) - 1
        lam = sp.eigenvalues(p, n_max=1, with_norming=False).eigenvalues[0]
        h = _oracle_mesh(dp, p)
        probes = {
            "shoot": lambda: sp.shoot(p, 50.0),
            "eigenvalue": lambda: sp.eigenvalues(p, n_max=1,
                                                 with_norming=False),
            "norming": lambda: sp.solution_l2_norm(p, lam),
            "green_kernel": lambda: rs.GreenKernel(p, -1.0),
            "hs_distance": lambda: rs.hs_distance(
                _problem(dp, level - 1), p, -1.0, max_doublings=0),
            "oracle_build_inertia": lambda: sp.GalerkinOracle(p, h).inertia(
                lam),
        }
        skipped = {}
        if level > HS_MAX_LEVEL:
            skipped["hs_distance"] = "dense quadrature memory above 1 GB"
        if 1.0 / h > ORACLE_MAX_DOFS:
            skipped["oracle_build_inertia"] = f"mesh {h:.1e} needs >300k dofs"
        for name, fn in probes.items():
            row = {"probe": name, "level": level, "cells": cells}
            if name in skipped:
                row["skipped"] = skipped[name]
            else:
                row["median_s"], row["reps"] = _median_time(fn)
            rows.append(row)
    return rows


def main(dp):
    rows = probe_rows(dp)
    for row in rows:
        print(json.dumps(row))
    table = {}
    for row in rows:
        table.setdefault(row["probe"], {})[str(row["level"])] = row.get(
            "median_s", row.get("skipped"))
    print(json.dumps({"probes": table}))
