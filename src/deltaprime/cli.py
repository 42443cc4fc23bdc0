"""Command-line front end: parse configs, dispatch, emit CSV/JSON.

Exit status: 0 on success, 2 on domain errors (near-singular z, unsupported
hypothesis, refinement limits), 1 on I/O and schema errors.
"""
from __future__ import annotations

import argparse
import functools
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


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("need a finite number")
    return v


def _parse_window(text):
    lo, hi = text.split(",")
    return _finite(lo), _finite(hi)


def _positive_window(text):
    lo, hi = _parse_window(text)
    if not (lo > 0.0 and hi > 0.0):
        raise ValueError("need LO > 0 and HI > 0")
    return lo, hi


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise ValueError("need N >= 1")
    return n


def _unit_interval(text):
    v = float(text)
    if not 0.0 <= v <= 1.0:
        raise ValueError("need 0 <= ALPHA <= 1")
    return v


def _parse_levels(text):
    lo, hi = (int(v) for v in text.split(".."))
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= A <= B")
    return list(range(lo, hi + 1))


def _parse_z(text):
    parts = [_finite(v) for v in text.split(",")]
    return parts[0] if len(parts) == 1 else complex(*parts)


def _geometric(lo, hi, n):
    """n points from lo to hi in geometric progression (lo alone if n == 1)."""
    return [lo * (hi / lo) ** (i / (n - 1)) if n > 1 else lo
            for i in range(n)]


def _z_pair(z):
    return [z.real, z.imag] if isinstance(z, complex) else [z, 0.0]


def _write(args, cfg, command, result, header=None, rows=()):
    """Write one result: its table as CSV if asked for and given, else JSON.

    The JSON document is the result envelope; the CSV table carries the
    same provenance in its '#' line.  criteria writing its table to a file
    still prints its verdict (the result) to stdout.
    """
    cfg_hash = dpio.problem_hash(cfg)
    out = args.out
    if args.format == "csv" and header is not None:
        meta = {"schema": dpio.SCHEMA_VERSION, "version": __version__,
                "problem": cfg_hash,
                "seed": args.seed if args.seed is not None else "none"}
        dpio.emit(dpio.render_csv(header, rows, meta), out)
        if command != "criteria" or out in (None, "-"):
            return
        out = None
    dpio.emit(dpio.render_json(dpio.result_envelope(
        command, cfg_hash, args.seed, result)), out)


def cmd_spectrum(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    count = 10 if args.count is None and args.window is None else args.count
    data = spectrum.eigenvalues(problem, n_max=count, window=args.window)
    _write(args, cfg, "spectrum",
           {"indices": data.indices, "eigenvalues": data.eigenvalues,
            "norming_constants": data.norming_constants,
            "method": data.method},
           ("n", "lambda", "norming_constant"),
           zip(data.indices, data.eigenvalues, data.norming_constants))


def cmd_kappa(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    count = spectrum.negative_count(problem)
    _write(args, cfg, "kappa",
           {"kappa_minus": "inf" if count == math.inf else int(count),
            "method": ("exact-measure-count" if problem.potential.is_zero
                       else "numerical-inertia")})


def cmd_classify(args):
    cfg = _load_config(args.config)
    left, right = dpio.parse_classify_config(cfg)
    vl = classify.classify_endpoint(left)
    vr = classify.classify_endpoint(right)
    n, _ = classify.deficiency_indices(vl, vr)
    _write(args, cfg, "classify",
           {"left": {"kind": vl.kind, "reason": vl.reason},
            "right": {"kind": vr.kind, "reason": vr.reason},
            "deficiency_indices": [n, n],
            "self_adjoint": n == 0})


def cmd_criteria(args):
    cfg = _load_config(args.config)
    gaps, potential, eps, prefix, factor = dpio.parse_criteria_config(cfg)
    report = classify.evaluate_criteria(gaps, potential, eps, prefix, factor)
    result = {"verdict": report.verdict, "reasons": report.reasons,
              "brinck_sup": report.brinck_sup, "trend_factor": factor}
    if args.format == "json":
        result.update(gap_means=report.gap_means,
                      necessary_seq=report.necessary_seq,
                      molchanov_samples=report.molchanov_samples)
    rows = [(k + 1, b - a, m, s) for k, ((a, b), m, s) in
            enumerate(zip(gaps.gaps, report.gap_means,
                          report.necessary_seq))]
    _write(args, cfg, "criteria", result,
           ("k", "d_k", "gap_mean", "necessary_seq"), rows)


def cmd_resolvent_study(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    rows = resolvent.convergence_study(problem, args.levels, args.z)
    table = [(r.level, r.hs_to_finest) + r.lambdas for r in rows]
    header = ("level", "hs_distance") + tuple(
        f"lambda_{i}" for i in range(1, len(rows[0].lambdas) + 1))
    _write(args, cfg, "resolvent-study",
           {"z": _z_pair(args.z), "rows": table}, header, table)


def cmd_mfunction(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    if args.z is not None:
        m = complex(asymptotics.m_function(problem, args.z))
        _write(args, cfg, "mfunction",
               {"z": _z_pair(args.z), "m": [m.real, m.imag]})
        return
    c = asymptotics.power_constant(args.alpha)
    rows = []
    for r in _geometric(*args.window, args.count):
        m = complex(asymptotics.m_function(problem, -r))
        f = asymptotics.scale_function(problem, r)
        rows.append((r, m.real, m.imag, abs(m) / (c * f)))
    _write(args, cfg, "mfunction", {"alpha": args.alpha, "rows": rows},
           ("r", "re_m", "im_m", "ratio"), rows)


def cmd_asymptotics(args):
    cfg = _load_config(args.config)
    problem = dpio.parse_problem(cfg)
    samples = spectrum.spectral_function_samples(
        problem, _geometric(*args.window, args.count))
    fit = asymptotics.rho_asymptotics_check(
        samples, args.alpha, functools.partial(asymptotics.scale_function,
                                               problem))
    rows = [(t, rho, ratio) for (t, rho), (_, ratio) in
            zip(samples, fit.samples)]
    _write(args, cfg, "asymptotics",
           {"alpha": args.alpha, "model": fit.model,
            "max_rel_dev": fit.max_rel_dev, "rows": rows},
           ("t", "rho", "ratio"), rows)


def build_parser():
    p = argparse.ArgumentParser(
        prog="deltaprime",
        description="Spectral analysis of one-dimensional Schrodinger "
                    "operators with jump couplings given by singular "
                    "signed measures.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", required=True,
                        help="path to the JSON problem config")
        sp.add_argument("--out", default=None,
                        help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--seed", type=int, default=None)
        sp.set_defaults(func=func)
        return sp

    sp = command("spectrum", cmd_spectrum, "indexed eigenvalues with normings")
    sp.add_argument("--count", type=_positive_int,
                    help="highest index (default 10 without --window)")
    sp.add_argument("--window", type=_parse_window, help="LO,HI")

    command("kappa", cmd_kappa, "negative-spectrum count")
    command("classify", cmd_classify, "endpoint classification")
    command("criteria", cmd_criteria, "discreteness criteria trends")

    sp = command("resolvent-study", cmd_resolvent_study,
                 "level refinement vs the finest realization")
    sp.add_argument("--levels", type=_parse_levels, required=True, help="A..B")
    sp.add_argument("--z", type=_parse_z, default="-1")

    sp = command("mfunction", cmd_mfunction, "Neumann m-function evaluation")
    sp.add_argument("--z", type=_parse_z, help="RE[,IM] single evaluation")
    sp.add_argument("--window", type=_positive_window, default=(1e2, 1e6),
                    help="RLO,RHI for -r sweeps")
    sp.add_argument("--count", type=_positive_int, default=9)
    sp.add_argument("--alpha", type=_unit_interval, default=1.0)

    sp = command("asymptotics", cmd_asymptotics,
                 "spectral-function asymptotics")
    sp.add_argument("--window", type=_positive_window, default=(1e3, 1e5),
                    help="TLO,THI")
    sp.add_argument("--count", type=_positive_int, default=5)
    sp.add_argument("--alpha", type=_unit_interval, default=1.0)
    return p


# main parses with one tree per process: parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
