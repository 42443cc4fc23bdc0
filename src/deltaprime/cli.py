"""Command-line front end: parse configs, dispatch, emit CSV/JSON.

Exit status: 0 on success, 2 on domain errors (near-singular z, unsupported
hypothesis, refinement limits), 1 on I/O and schema errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, asymptotics, classify, resolvent, spectrum
from .errors import DomainError, SchemaError
from . import io as dpio


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc


def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_window(text):
    lo, hi = text.split(",")
    return float(lo), float(hi)


def _positive_window(text):
    lo, hi = _parse_window(text)
    if not (lo > 0.0 and hi > 0.0):
        raise ValueError("need LO > 0 and HI > 0")
    return lo, hi


def _parse_levels(text):
    lo, hi = (int(v) for v in text.split(".."))
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= A <= B")
    return list(range(lo, hi + 1))


def _parse_z(text):
    parts = [float(v) for v in text.split(",")]
    return parts[0] if len(parts) == 1 else complex(*parts)


def _geometric(lo, hi, n):
    """n points from lo to hi in geometric progression (lo alone if n == 1)."""
    return [lo * (hi / lo) ** (i / (n - 1)) if n > 1 else lo
            for i in range(n)]


def _z_pair(z):
    return [z.real, z.imag] if isinstance(z, complex) else [z, 0.0]


def _meta(args, cfg):
    return {"schema": dpio.SCHEMA_VERSION, "version": __version__,
            "problem": dpio.problem_hash(cfg),
            "seed": args.seed if args.seed is not None else "none"}


def cmd_spectrum(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    data = spectrum.eigenvalues(problem, n_max=args.count,
                                window=args.window)
    rows = [(n, lam, c) for n, lam, c in
            zip(data.indices, data.eigenvalues, data.norming_constants)]
    if args.format == "csv":
        text = dpio.render_csv(("n", "lambda", "norming_constant"), rows,
                               _meta(args, cfg))
    else:
        doc = dpio.result_envelope(
            "spectrum", dpio.problem_hash(cfg), args.seed,
            {"indices": list(data.indices),
             "eigenvalues": list(data.eigenvalues),
             "norming_constants": list(data.norming_constants),
             "method": data.method})
        text = dpio.render_json(doc)
    _emit(text, args.out)


def cmd_kappa(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    count = spectrum.negative_count(problem)
    method = ("exact-measure-count" if problem.potential.is_zero
              else "numerical-inertia")
    doc = dpio.result_envelope(
        "kappa", dpio.problem_hash(cfg), args.seed,
        {"kappa_minus": "inf" if count == math.inf else int(count),
         "method": method})
    _emit(dpio.render_json(doc), args.out)


def cmd_classify(args):
    cfg = _load_config(args.config)
    left, right = dpio.parse_classify_config(cfg)
    vl = classify.classify_endpoint(left)
    vr = classify.classify_endpoint(right)
    n, _ = classify.deficiency_indices(vl, vr)
    doc = dpio.result_envelope(
        "classify", dpio.problem_hash(cfg), args.seed,
        {"left": {"kind": vl.kind, "reason": vl.reason},
         "right": {"kind": vr.kind, "reason": vr.reason},
         "deficiency_indices": [n, n],
         "self_adjoint": n == 0})
    _emit(dpio.render_json(doc), args.out)


def cmd_criteria(args):
    cfg = _load_config(args.config)
    gaps, potential, eps, prefix, factor = dpio.parse_criteria_config(cfg)
    report = classify.evaluate_criteria(gaps, potential, eps, prefix, factor)
    verdict = dpio.result_envelope(
        "criteria", dpio.problem_hash(cfg), args.seed,
        {"verdict": report.verdict,
         "reasons": list(report.reasons),
         "brinck_sup": report.brinck_sup,
         "trend_factor": factor})
    if args.format == "csv":
        rows = [(k + 1, b - a, m, s) for k, ((a, b), m, s) in
                enumerate(zip(gaps.gaps, report.gap_means,
                              report.necessary_seq))]
        text = dpio.render_csv(("k", "d_k", "gap_mean", "necessary_seq"),
                               rows, _meta(args, cfg))
        _emit(text, args.out)
        if args.out not in (None, "-"):
            sys.stdout.write(dpio.render_json(verdict))
    else:
        verdict["result"]["gap_means"] = list(report.gap_means)
        verdict["result"]["necessary_seq"] = list(report.necessary_seq)
        verdict["result"]["molchanov_samples"] = [
            list(s) for s in report.molchanov_samples]
        _emit(dpio.render_json(verdict), args.out)


def cmd_resolvent_study(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    z = args.z
    rows = resolvent.convergence_study(problem, args.levels, z)
    table = [(r.level, r.hs_to_finest) + r.lambdas for r in rows]
    header = ("level", "hs_distance") + tuple(
        f"lambda_{i}" for i in range(1, len(rows[0].lambdas) + 1))
    if args.format == "csv":
        text = dpio.render_csv(header, table, _meta(args, cfg))
    else:
        doc = dpio.result_envelope(
            "resolvent-study", dpio.problem_hash(cfg), args.seed,
            {"z": _z_pair(z), "rows": [list(r) for r in table]})
        text = dpio.render_json(doc)
    _emit(text, args.out)


def cmd_mfunction(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    if args.z is not None:
        z = args.z
        m = asymptotics.m_function(problem, z)
        m = complex(m)
        doc = dpio.result_envelope(
            "mfunction", dpio.problem_hash(cfg), args.seed,
            {"z": _z_pair(z), "m": [m.real, m.imag]})
        _emit(dpio.render_json(doc), args.out)
        return
    r_lo, r_hi = args.window
    c = asymptotics.power_constant(args.alpha)
    a, b = problem.interval
    rows = []
    for r in _geometric(r_lo, r_hi, args.count or 9):
        m = complex(asymptotics.m_function(problem, -r))
        f = asymptotics.scale_function(problem.measure, r, problem.level,
                                       origin=a, span=b - a)
        rows.append((r, m.real, m.imag, abs(m) / (c * f)))
    if args.format == "csv":
        text = dpio.render_csv(("r", "re_m", "im_m", "ratio"), rows,
                               _meta(args, cfg))
    else:
        doc = dpio.result_envelope(
            "mfunction", dpio.problem_hash(cfg), args.seed,
            {"alpha": args.alpha, "rows": [list(r) for r in rows]})
        text = dpio.render_json(doc)
    _emit(text, args.out)


def cmd_asymptotics(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    t_lo, t_hi = args.window
    ts = _geometric(t_lo, t_hi, args.count or 5)
    samples = spectrum.spectral_function_samples(problem, ts)
    a, b = problem.interval

    def scale(r):
        return asymptotics.scale_function(problem.measure, r, problem.level,
                                          origin=a, span=b - a)

    fit = asymptotics.rho_asymptotics_check(samples, args.alpha, scale)
    rows = [(t, rho, ratio) for (t, rho), (_, ratio) in
            zip(samples, fit.samples)]
    if args.format == "csv":
        text = dpio.render_csv(("t", "rho", "ratio"), rows, _meta(args, cfg))
    else:
        doc = dpio.result_envelope(
            "asymptotics", dpio.problem_hash(cfg), args.seed,
            {"alpha": args.alpha, "model": fit.model,
             "max_rel_dev": fit.max_rel_dev,
             "rows": [list(r) for r in rows]})
        text = dpio.render_json(doc)
    _emit(text, args.out)


def build_parser():
    p = argparse.ArgumentParser(
        prog="deltaprime",
        description="Spectral analysis of one-dimensional Schrodinger "
                    "operators with jump couplings given by singular "
                    "signed measures.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_config=True):
        if needs_config:
            sp.add_argument("--config", required=True,
                            help="path to the JSON problem config")
        sp.add_argument("--out", default=None,
                        help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("spectrum", help="indexed eigenvalues with normings")
    common(sp)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--window", type=_parse_window, help="LO,HI")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("kappa", help="negative-spectrum count")
    common(sp)
    sp.set_defaults(func=cmd_kappa)

    sp = sub.add_parser("classify", help="endpoint classification")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("criteria", help="discreteness criteria trends")
    common(sp)
    sp.set_defaults(func=cmd_criteria)

    sp = sub.add_parser("resolvent-study",
                        help="level refinement vs the finest realization")
    common(sp)
    sp.add_argument("--levels", type=_parse_levels, required=True, help="A..B")
    sp.add_argument("--z", type=_parse_z, default="-1")
    sp.set_defaults(func=cmd_resolvent_study)

    sp = sub.add_parser("mfunction", help="Neumann m-function evaluation")
    common(sp)
    sp.add_argument("--z", type=_parse_z, help="RE[,IM] single evaluation")
    sp.add_argument("--window", type=_positive_window, default=(1e2, 1e6),
                    help="RLO,RHI for -r sweeps")
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.set_defaults(func=cmd_mfunction)

    sp = sub.add_parser("asymptotics", help="spectral-function asymptotics")
    common(sp)
    sp.add_argument("--window", type=_positive_window, default=(1e3, 1e5),
                    help="TLO,THI")
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.set_defaults(func=cmd_asymptotics)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
