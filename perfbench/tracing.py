"""Span tracing of deltaprime's layers from outside the program.

The layers call each other through module attributes (``spectrum.propagate``,
``spectrum.shoot``, ``resolvent.GreenKernel``, ...).  ``Tracer.install``
replaces those attributes with timing wrappers for the traced run only and
``uninstall`` puts the originals back.  Spans (name, start, end, parent, op
id) are kept in memory and written out at the end; self times and per-layer
metrics are derived from them afterwards.

A wrapped attribute that does not exist is recorded as missing, and every
metric that needs it is reported as absent rather than as zero.
"""
from __future__ import annotations

import bisect
import functools
import gzip
import json
import time

# span name -> the module attributes that carry it
FUNCTIONS = {
    "cli.main": ("cli.main",),
    "io.parse": ("io.parse_problem",),
    "io.render": ("io.render_json", "io.render_csv"),
    "measures.realize": ("measures.realize", "propagate.realize",
                         "asymptotics.realize"),
    "propagate.sweep": ("propagate.propagate", "spectrum.propagate",
                        "asymptotics.propagate", "propagate.cell_entry_states",
                        "spectrum.cell_entry_states",
                        "resolvent.cell_entry_states"),
    "spectrum.shoot": ("spectrum.shoot",),
    "spectrum.eigenvalues": ("spectrum.eigenvalues",),
    "spectrum.norming": ("spectrum.solution_l2_norm",),
    "spectrum.count": ("spectrum.counting_function", "spectrum.negative_count"),
    "spectrum.samples": ("spectrum.spectral_function_samples",),
    "resolvent.hs": ("resolvent.hs_distance",),
    "resolvent.study": ("resolvent.convergence_study",),
    "asymptotics.m": ("asymptotics.m_function",),
    "asymptotics.scale": ("asymptotics.scale_function",),
    "asymptotics.rho_check": ("asymptotics.rho_asymptotics_check",),
}
# class attribute -> {method: span name}; "__init__" is the build
CLASSES = {
    "spectrum.GalerkinOracle": {"__init__": "spectrum.oracle_build",
                                "inertia": "spectrum.inertia",
                                "eigenvalues": "spectrum.oracle_eig"},
    "resolvent.GreenKernel": {"__init__": "resolvent.kernel_build"},
}

NAME, START, END, PARENT, OP, ERROR, INFO = range(7)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op = None
        self.missing = []
        self.present = set()
        self._saved = []

    # -- wrapping -----------------------------------------------------------
    def wrap(self, name, fn, info=None):
        """fn with a span around each call; info(args, kwargs, result)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _lookup(self, path):
        mod_name, attr = path.split(".")
        module = getattr(self.modules, mod_name, None)
        if module is None or not hasattr(module, attr):
            return None, attr
        return module, attr

    def install(self):
        wrapped = {}  # id(original) -> wrapper, so aliases share one wrapper
        for name, paths in FUNCTIONS.items():
            for path in paths:
                module, attr = self._lookup(path)
                if module is None:
                    self.missing.append(path)
                    continue
                orig = getattr(module, attr)
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self.wrap(name, orig, _INFO.get(name))
                self._saved.append((module, attr, orig))
                setattr(module, attr, wrapped[id(orig)])
                self.present.add(name)
        for path, methods in CLASSES.items():
            module, attr = self._lookup(path)
            if module is None:
                self.missing.append(path)
                continue
            orig = getattr(module, attr)
            body = {}
            for meth, name in methods.items():
                if not hasattr(orig, meth):
                    self.missing.append(f"{path}.{meth}")
                    continue
                body[meth] = self.wrap(name, getattr(orig, meth),
                                       _INFO.get(name))
                self.present.add(name)
            self._saved.append((module, attr, orig))
            setattr(module, attr, type(orig.__name__, (orig,), body))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def write(self, path):
        """Spans as gzip JSON lines: [name, start, end, parent, op, error]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:INFO]) + "\n")


def _sweep_info(args, kwargs, out):
    # propagate(problem, z, init, from_left, x_from, x_to) and
    # cell_entry_states(problem, z, init, from_left): keep what is needed to
    # count crossed cells after the run, outside the timed spans.
    problem = args[0] if args else kwargs.get("problem")
    x_from = args[4] if len(args) > 4 else kwargs.get("x_from")
    x_to = args[5] if len(args) > 5 else kwargs.get("x_to")
    return (problem, x_from, x_to)


_INFO = {
    "propagate.sweep": _sweep_info,
    "spectrum.eigenvalues": lambda a, k, out: len(out.eigenvalues),
    "spectrum.oracle_build": lambda a, k, out: a[0].n,
    "io.render": lambda a, k, out: len(out.encode()),
}


def _cells(realize_problem, memo, info):
    problem, x_from, x_to = info
    key = id(problem)
    if key not in memo:
        memo[key] = (problem, realize_problem(problem).nodes)
    nodes = memo[key][1]
    if x_from is None and x_to is None:
        return len(nodes) - 1
    lo, hi = sorted((nodes[0] if x_from is None else x_from,
                     nodes[-1] if x_to is None else x_to))
    # cells (nodes[i], nodes[i+1]) overlapping [lo, hi]
    first = max(bisect.bisect_right(nodes, lo) - 1, 0)
    last = min(bisect.bisect_left(nodes, hi), len(nodes) - 1)
    return max(last - first, 0)


# per-layer metric -> (unit, better, span names it needs)
METRICS = {
    "propagate.sweeps": ("count", "lower", ("propagate.sweep",)),
    "propagate.cells": ("count", "lower", ("propagate.sweep",)),
    "propagate.s": ("s", "lower", ("propagate.sweep",)),
    "propagate.ns_per_cell": ("ns", "lower", ("propagate.sweep",)),
    "propagate.us_per_sweep": ("us", "lower", ("propagate.sweep",)),
    "propagate.cells_per_sweep": ("cells", "lower", ("propagate.sweep",)),
    "spectrum.eig_calls": ("count", "lower", ("spectrum.eigenvalues",)),
    "spectrum.eigs_out": ("count", "higher", ("spectrum.eigenvalues",)),
    "spectrum.shoots": ("count", "lower", ("spectrum.shoot",)),
    "spectrum.sweeps_per_eig": ("sweeps", "lower",
                                ("spectrum.eigenvalues", "propagate.sweep",
                                 "spectrum.norming")),
    "spectrum.self_s": ("s", "lower", ("spectrum.eigenvalues",)),
    "spectrum.norming_calls": ("count", "lower", ("spectrum.norming",)),
    "spectrum.norming_s": ("s", "lower", ("spectrum.norming",)),
    "spectrum.count_calls": ("count", "lower", ("spectrum.count",)),
    "spectrum.count_s": ("s", "lower", ("spectrum.count",)),
    "spectrum.errors": ("count", "lower", ("spectrum.eigenvalues",
                                           "spectrum.count")),
    "spectrum.oracle_builds": ("count", "lower", ("spectrum.oracle_build",)),
    "spectrum.oracle_dofs": ("count", "lower", ("spectrum.oracle_build",)),
    "spectrum.oracle_build_s": ("s", "lower", ("spectrum.oracle_build",)),
    "spectrum.inertia_calls": ("count", "lower", ("spectrum.inertia",)),
    "spectrum.inertia_s": ("s", "lower", ("spectrum.inertia",)),
    "spectrum.oracle_eig_s": ("s", "lower", ("spectrum.oracle_eig",)),
    "resolvent.kernel_builds": ("count", "lower", ("resolvent.kernel_build",)),
    "resolvent.kernel_build_s": ("s", "lower", ("resolvent.kernel_build",)),
    "resolvent.hs_calls": ("count", "lower", ("resolvent.hs",)),
    "resolvent.hs_quad_s": ("s", "lower", ("resolvent.hs",)),
    "resolvent.study_s": ("s", "lower", ("resolvent.study",)),
    "resolvent.errors": ("count", "lower", ("resolvent.study",
                                            "resolvent.hs")),
    "asymptotics.m_evals": ("count", "lower", ("asymptotics.m",)),
    "asymptotics.m_s": ("s", "lower", ("asymptotics.m",)),
    "asymptotics.scale_calls": ("count", "lower", ("asymptotics.scale",)),
    "asymptotics.scale_s": ("s", "lower", ("asymptotics.scale",)),
    "asymptotics.rho_check_s": ("s", "lower", ("asymptotics.rho_check",)),
    "measures.realize_calls": ("count", "lower", ("measures.realize",)),
    "measures.realize_s": ("s", "lower", ("measures.realize",)),
    "io.parse_s": ("s", "lower", ("io.parse",)),
    "io.render_s": ("s", "lower", ("io.render",)),
    "io.bytes_out": ("bytes", "lower", ("io.render",)),
    "cli.calls": ("count", "higher", ("cli.main",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "trace.overhead_s": ("s", "lower", ()),
}


def layer_metrics(tracer, realize_problem, overhead_s):
    """Per-layer metrics from the recorded spans: name -> value or None."""
    spans = tracer.spans
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    in_eig = [False] * n
    in_norm = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
        name = s[NAME]
        in_eig[i] = name == "spectrum.eigenvalues" or (p >= 0 and in_eig[p])
        in_norm[i] = name == "spectrum.norming" or (p >= 0 and in_norm[p])

    count, total, self_t, extra = {}, {}, {}, {}
    memo = {}
    sweeps_eig = cells = 0
    layer_self = {}
    errors = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        own = dur[i] - child[i]
        self_t[name] = self_t.get(name, 0.0) + own
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if s[INFO] is not None:
            if name == "propagate.sweep":
                cells += _cells(realize_problem, memo, s[INFO])
            else:
                extra[name] = extra.get(name, 0) + s[INFO]
        if name == "propagate.sweep" and in_eig[i] and not in_norm[i]:
            sweeps_eig += 1
        p = s[PARENT]
        if s[ERROR] and (p < 0 or spans[p][NAME].split(".")[0] != layer):
            errors[layer] = errors.get(layer, 0) + 1

    c = lambda k: count.get(k, 0)  # noqa: E731
    t = lambda k: total.get(k, 0.0)  # noqa: E731
    sweeps = c("propagate.sweep")
    eigs = extra.get("spectrum.eigenvalues", 0)
    values = {
        "propagate.sweeps": sweeps,
        "propagate.cells": cells,
        "propagate.s": t("propagate.sweep"),
        "propagate.ns_per_cell": t("propagate.sweep") / cells * 1e9
        if cells else None,
        "propagate.us_per_sweep": t("propagate.sweep") / sweeps * 1e6
        if sweeps else None,
        "propagate.cells_per_sweep": cells / sweeps if sweeps else None,
        "spectrum.eig_calls": c("spectrum.eigenvalues"),
        "spectrum.eigs_out": eigs,
        "spectrum.shoots": c("spectrum.shoot"),
        "spectrum.sweeps_per_eig": sweeps_eig / eigs if eigs else None,
        "spectrum.self_s": layer_self.get("spectrum", 0.0),
        "spectrum.norming_calls": c("spectrum.norming"),
        "spectrum.norming_s": t("spectrum.norming"),
        "spectrum.count_calls": c("spectrum.count"),
        "spectrum.count_s": t("spectrum.count"),
        "spectrum.errors": errors.get("spectrum", 0),
        "spectrum.oracle_builds": c("spectrum.oracle_build"),
        "spectrum.oracle_dofs": extra.get("spectrum.oracle_build", 0),
        "spectrum.oracle_build_s": t("spectrum.oracle_build"),
        "spectrum.inertia_calls": c("spectrum.inertia"),
        "spectrum.inertia_s": t("spectrum.inertia"),
        "spectrum.oracle_eig_s": t("spectrum.oracle_eig"),
        "resolvent.kernel_builds": c("resolvent.kernel_build"),
        "resolvent.kernel_build_s": t("resolvent.kernel_build"),
        "resolvent.hs_calls": c("resolvent.hs"),
        "resolvent.hs_quad_s": self_t.get("resolvent.hs", 0.0),
        "resolvent.study_s": t("resolvent.study"),
        "resolvent.errors": errors.get("resolvent", 0),
        "asymptotics.m_evals": c("asymptotics.m"),
        "asymptotics.m_s": t("asymptotics.m"),
        "asymptotics.scale_calls": c("asymptotics.scale"),
        "asymptotics.scale_s": t("asymptotics.scale"),
        "asymptotics.rho_check_s": t("asymptotics.rho_check"),
        "measures.realize_calls": c("measures.realize"),
        "measures.realize_s": t("measures.realize"),
        "io.parse_s": t("io.parse"),
        "io.render_s": t("io.render"),
        "io.bytes_out": extra.get("io.render", 0),
        "cli.calls": c("cli.main"),
        "cli.self_s": self_t.get("cli.main", 0.0),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, (unit, _, needs) in METRICS.items():
        absent = [k for k in needs if k not in tracer.present]
        out[name] = {"value": None if absent else values[name], "unit": unit}
        if absent:
            out[name]["absent"] = "not wrapped: " + ", ".join(absent)
    return out
