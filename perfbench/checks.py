"""Correctness checks on op outputs, run after the timed phase.

Every op's output is normalized into a small JSON-able record.  Records are
checked structurally on every seed; on the default seed they are also
compared with the reference records in ``refs/``, which were produced by
the unmodified library.  A failing op in the reference is kept as the
reference (its error type), never dropped.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import sys

import numpy as np

DEFAULT_SEED = 0
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# relative tolerances against the reference; counts must match exactly.
# All are below 1e-6, so a 1e-6 relative perturbation is always caught.
RTOL = {"eigenvalues": 1e-10, "norming": 1e-8, "hs": 1e-7, "lambdas": 1e-10,
        "m": 1e-9, "rows": 1e-8}

# failure reasons reported by the benchmark
REASONS = ("NearSingularError", "MeshRefinementError", "other_error",
           "mismatch")


def reason_of(error_name):
    return error_name if error_name in REASONS else "other_error"


# -- normalization ----------------------------------------------------------
def normalize(op, payload):
    """Record of an op's output.  payload: parsed CLI JSON or library value."""
    kind = op["kind"]
    if kind == "count":
        # the oracle route returns a numpy integer
        integral = isinstance(payload, numbers.Integral) and not isinstance(
            payload, bool)
        return {"count": int(payload) if integral else payload}
    res = payload["result"]
    if kind == "spectrum":
        return {"indices": res["indices"], "eigenvalues": res["eigenvalues"],
                "norming": res["norming_constants"]}
    if kind == "kappa":
        return {"count": res["kappa_minus"]}
    if kind == "resolvent_study":
        rows = res["rows"]
        return {"hs": [r[1] for r in rows],
                "lambdas": [[None if math.isnan(v) else v for v in r[2:]]
                            for r in rows]}
    if kind == "mfunction_z":
        return {"z": res["z"], "m": res["m"]}
    if kind in ("mfunction_window", "asymptotics"):
        return {"rows": res["rows"]}
    raise ValueError(f"unknown op kind {kind!r}")


def result_count(op, record, eigen_count=None):
    """Results an op delivered: eigenvalues, counts, HS distances, m-values.

    For asymptotics the op's output is rho(t) samples, but each one sums the
    norming constants of every eigenvalue up to the window top; the results
    are those eigenpairs (eigen_count, counted after the run).
    """
    kind = op["kind"]
    if kind == "spectrum":
        return len(record["eigenvalues"])
    if kind in ("count", "kappa", "mfunction_z"):
        return 1
    if kind == "resolvent_study":
        return (len(record["hs"]) - 1
                + sum(v is not None for row in record["lambdas"] for v in row))
    if kind == "mfunction_window":
        return len(record["rows"])
    if kind == "asymptotics":
        return eigen_count
    raise ValueError(f"unknown op kind {kind!r}")


# -- structural checks (any seed) -------------------------------------------
def _finite(xs):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in xs)


def _increasing(xs):
    return all(b > a for a, b in zip(xs, xs[1:]))


def structural(op, record):
    """List of violated invariants (empty when the record is sane)."""
    kind = op["kind"]
    bad = []
    if kind == "spectrum":
        ev, nc, idx = record["eigenvalues"], record["norming"], record["indices"]
        if not _finite(ev) or not _increasing(ev):
            bad.append("eigenvalues not finite and strictly increasing")
        # inf is the documented norming constant of a state whose norm
        # exceeds double range (deep bound states on wide truncations)
        if nc is None or not all(c > 0.0 for c in nc):
            bad.append("norming constants not positive")
        if idx and list(idx) != list(range(idx[0], idx[0] + len(idx))):
            bad.append("indices not consecutive")
        # the oracle-indexed route (signed measures) may return fewer
        want = int(op["args"][op["args"].index("--count") + 1])
        if len(ev) > want or (not _signed(op) and len(ev) != want):
            bad.append(f"{len(ev)} eigenvalues for --count {want}")
    elif kind in ("count", "kappa"):
        c = record["count"]
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            bad.append(f"count {c!r} is not a nonnegative integer")
    elif kind == "resolvent_study":
        hs = record["hs"]
        if not _finite(hs) or any(v < 0.0 for v in hs) or hs[-1] != 0.0:
            bad.append("HS distances not finite, nonnegative, 0 at finest")
        for row in record["lambdas"]:
            vals = [v for v in row if v is not None]
            if not _finite(vals) or not _increasing(vals):
                bad.append("eigenvalue row not strictly increasing")
    elif kind == "mfunction_z":
        (_, zi), (mr, mi) = record["z"], record["m"]
        if not _finite((mr, mi)) or not mi * zi > 0.0:
            bad.append("Im m * Im z <= 0 (not Herglotz)")
    elif kind == "mfunction_window":
        for r, re_m, im_m, ratio in record["rows"]:
            if not _finite((re_m, ratio)) or re_m <= 0.0 or im_m != 0.0:
                bad.append(f"m(-{r}) not real positive")
    elif kind == "asymptotics":
        rho = [row[1] for row in record["rows"]]
        if not _finite(rho) or any(v < 0.0 for v in rho) or any(
                b < a for a, b in zip(rho, rho[1:])):
            bad.append("rho samples not nonnegative and nondecreasing")
    return bad


def _signed(op):
    m = op["config"].get("measure", {})
    return (any(a["beta"] < 0.0 for a in m.get("atoms", []))
            or any(c["mass"] < 0.0 for c in m.get("cantor", [])))


# -- oracle check (any seed, sampled) ---------------------------------------
ORACLE_MAX_DOFS = 40000
ORACLE_CHECK_INDICES = 3
ORACLE_C = 100.0
ORACLE_ROUNDOFF = 4.0


def oracle_mesh(real, interval):
    """Mesh for an independent fine Galerkin oracle, or None if too large."""
    a, b = interval
    gaps = [hi - lo for lo, hi in zip(real.nodes, real.nodes[1:])]
    h = min(min(gaps), (b - a) / 4000.0)
    if (b - a) / h + 2 * len(real.nodes) > ORACLE_MAX_DOFS:
        return None
    return h


def oracle_agreement(dp, op, record):
    """Low-index eigenvalues against a fine-mesh GalerkinOracle.

    The lumped P1 pencil's eigenvalue error is O(h^2) on a mesh of size h,
    with a constant growing like (|lambda| + max|q|)^2.  On top of that the
    tridiagonal eigensolver has an absolute rounding error of about
    eps * ||T||, where T is the mass-scaled pencil; its entries grow like
    h^-2 (and like 1/beta at atoms), so on the finest meshes this floor is
    the larger term (up to ~1e-5 on level-8 Cantor problems, where halving
    h moves the oracle away from the exact value).  The check allows
    ORACLE_C h^2 (|lambda| + max|q| + 1)^2 + ORACLE_ROUNDOFF eps ||T||; the
    largest discretization ratio seen on these workloads is about 12, and
    the allowance stays far below the gap to the neighbouring eigenvalue,
    so an index slip is caught.  Returns None when the oracle would need
    more than ORACLE_MAX_DOFS unknowns.
    """
    with open(op["_config_path"], encoding="utf-8") as fh:
        problem = dp.io.parse_problem(json.load(fh))
    h = oracle_mesh(dp.propagate.realize_problem(problem), problem.interval)
    if h is None:
        return None
    ev = record["eigenvalues"]
    idx = record["indices"]
    k = min(ORACLE_CHECK_INDICES, len(ev))
    oracle = dp.spectrum.GalerkinOracle(problem, h)
    orc = oracle.eigenvalues(idx[0] - 1 + k)
    floor = ORACLE_ROUNDOFF * sys.float_info.epsilon * _pencil_norm(oracle)
    qmax = max(abs(v) for v in problem.potential.values)
    bad = []
    for j in range(k):
        lam, ref = ev[j], float(orc[idx[0] - 1 + j])
        allowed = ORACLE_C * h * h * (abs(lam) + qmax + 1.0) ** 2 + floor
        if abs(lam - ref) > allowed:
            bad.append(f"lambda_{idx[j]} = {lam!r}, oracle {ref!r} "
                       f"(h={h:.2e}, allowed {allowed:.2e})")
    return bad


def _pencil_norm(oracle):
    """Bound on ||T|| for the oracle's mass-scaled tridiagonal pencil T."""
    d = oracle.diag / oracle.mass
    e = oracle.off / np.sqrt(oracle.mass[:-1] * oracle.mass[1:])
    return float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0))


# -- reference comparison (default seed) ------------------------------------
def ref_path(workload):
    return os.path.join(REF_DIR, f"{workload}.json")


def load_refs(workload):
    try:
        with open(ref_path(workload), encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    return {entry["id"]: entry for entry in doc["ops"]}


def _close(a, b, rtol):
    if a is None or b is None:
        return a is b
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)
                and all(_close(x, y, rtol) for x, y in zip(a, b)))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def compare(record, ref_record):
    """Fields of record that differ from the reference record."""
    bad = []
    for key, want in ref_record.items():
        got = record.get(key)
        if key in ("count", "indices"):
            ok = got == want
        elif key == "z":
            ok = _close(got, want, 0.0)
        else:
            ok = _close(got, want, RTOL[key])
        if not ok:
            bad.append(key)
    return bad
