#!/usr/bin/env python3
"""deltaprime benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probes            # scaling probes, no gates
    python3 perfbench/run.py --write-refs NAME   # regenerate refs/NAME.json

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout and nowhere else; without it the benchmark exits with status 2
and prints no result.  Everything runs in this one single-threaded process
(BLAS/OpenMP pools are pinned to one thread); only the set-up probes start
short-lived copies of this script.  Scratch files go to ``.bench_tmp/`` and
result records and spans to ``.bench_out/`` under the checkout root.

The last line of standard output is the result JSON.  See README.md in this
directory for every metric, workload and check.
"""
import os

# must precede the first numpy import, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is measured in this process and in fresh probe processes, half of
# them before and half after the timed phase, so one slow stretch of the
# host does not hit every sample
SETUP_PROBES = 8
SETUP_OPS = 64             # configs generated during set-up (whole cycles)
TRACE_CYCLES = {"cantor_deep": 1, "wide_band": 1, "resolvent_study": 1,
                "signed_mix": 4, "signed_hard": 4}
# The reference covers this many cycles, about three timed runs of the
# unmodified library.  Op i of a run uses config i modulo the referenced
# ops, so however many ops a faster library completes, each one is checked
# against a reference on the default seed.  Every op starts with a cleared
# realization cache, so a repeated config gets no work for free.
REF_CYCLES = {"cantor_deep": 12, "wide_band": 24, "resolvent_study": 6,
              "signed_mix": 40, "signed_hard": 20}
ORACLE_CHECKS = 3          # fine-mesh oracle checks per run (costly)
SANDBOX_NOTE = ("measured in a sandbox with 2 shared CPUs and untuned "
                "settings; single process, single thread")
WAIT_NOTE = ("no layer waits: one process, one thread, no queues, so no "
             "waiting time is reported")


# -- set-up -----------------------------------------------------------------
def import_library():
    """deltaprime's modules from this checkout's src/, or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("deltaprime")
        # modules by name: the package attribute "propagate" is the function
        dp = types.SimpleNamespace(**{
            mod: importlib.import_module(f"deltaprime.{mod}")
            for mod in ("cli", "io", "measures", "propagate", "spectrum",
                        "resolvent", "asymptotics")})
    except ImportError as exc:
        print(f"benchmark: cannot import deltaprime from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        print(f"benchmark: deltaprime resolved outside {src}", file=sys.stderr)
        sys.exit(2)
    return dp


class Scratch:
    """Per-run scratch directory for configs and CLI outputs."""

    def __init__(self, workload, seed, tag):
        self.path = os.path.join(ROOT, ".bench_tmp",
                                 f"{workload}-s{seed}-{tag}-{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)

    def materialize(self, op):
        """Write the op's config; set its config and output paths."""
        seq = op.setdefault("seq", op["id"])
        name = f"op{seq:06d}" if seq >= 0 else "warmup"
        op["_config_path"] = os.path.join(self.path, name + ".json")
        op["_out_path"] = os.path.join(self.path, name + ".out.json")
        with open(op["_config_path"], "wb") as fh:
            fh.write(workloads.config_bytes(op))
        return op

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


class OpSource:
    """Ops of one workload and seed, materialized a whole cycle at a time.

    An op's "id" is its config's index, which wraps after the referenced
    ops (REF_CYCLES); its "seq" is its position in the run.
    """

    def __init__(self, workload, seed, scratch):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.cycle = workloads.CYCLE[workload]
        self.period = REF_CYCLES[workload] * self.cycle
        self.ops = []

    def ensure(self, n):
        while len(self.ops) < n:
            for _ in range(self.cycle):
                seq = len(self.ops)
                op = workloads.make_op(self.workload, self.seed,
                                       seq % self.period)
                op["seq"] = seq
                self.ops.append(self.scratch.materialize(op))


def setup(workload, seed, tag):
    """Import, generate the first configs, run one warm-up op.  Timed."""
    dp = import_library()
    scratch = Scratch(workload, seed, tag)
    source = OpSource(workload, seed, scratch)
    source.ensure(SETUP_OPS)
    warm = scratch.materialize(workloads.warmup_op(workload))
    error = run_op(dp, warm)
    if error is not None:
        print(f"benchmark: warm-up op failed: {error}", file=sys.stderr)
        sys.exit(2)
    return dp, source, time.perf_counter() - T_PROCESS


def setup_probe_times(workload, seed, n):
    """Set-up times of n fresh processes running the same set-up."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            sys.exit(2)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- ops --------------------------------------------------------------------
def run_op(dp, op):
    """Run one op.  Returns None on success or the failure's name.

    A library op's value is stored on the op; a CLI op writes its JSON to
    the op's output path.  A nonzero CLI exit is named "exit<code>" here and
    classified by exception type after the timed phase (classify_exit).
    """
    if op["lib"] is not None:
        op.pop("_value", None)
        try:
            with open(op["_config_path"], encoding="utf-8") as fh:
                problem = dp.io.parse_problem(json.load(fh))
            fn = getattr(dp.spectrum, op["lib"]["fn"])
            op["_value"] = fn(problem, op["lib"]["t"])
        except Exception as exc:  # op boundary: record the failure, go on
            return type(exc).__name__
        return None
    argv = cli_argv(op)
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = dp.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # op boundary: record the failure, go on
            return type(exc).__name__
    return None if rc == 0 else f"exit{rc}"


def cli_argv(op):
    return op["args"] + ["--config", op["_config_path"],
                         "--out", op["_out_path"], "--format", "json"]


def classify_exit(dp, op):
    """Exception type behind a failed CLI op, by re-running its handler."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = dp.cli.build_parser().parse_args(cli_argv(op))
    except SystemExit:
        return "other_error"
    try:
        args.func(args)
    except Exception as exc:  # the type is what we are after
        return type(exc).__name__
    return "other_error"


def run_ops(dp, ops, calibration=None):
    """Run ops back to back; per op (latency_s, error or None).

    Each op starts with an empty realization cache, as a separate CLI
    process would; that also keeps memory from growing with the run's length.
    With a hostspeed.Calibration, a calibration slice runs before every op,
    outside its timing.
    """
    out = []
    clock = time.perf_counter
    for op in ops:
        clear_realize_cache(dp)
        if calibration is not None:
            calibration.sample()
        t0 = clock()
        error = run_op(dp, op)
        out.append((clock() - t0, error))
    return out


def run_timed(dp, source, seconds, calibration):
    """Whole cycles until the ops' busy time reaches `seconds`."""
    timings = []
    busy = 0.0
    while busy < seconds:
        start = len(timings)
        source.ensure(start + source.cycle)
        cycle = run_ops(dp, source.ops[start:start + source.cycle],
                        calibration)
        timings.extend(cycle)
        busy += sum(t for t, _ in cycle)
    return source.ops[:len(timings)], timings, busy


# -- checks -----------------------------------------------------------------
def check_ops(dp, workload, seed, ops, timings):
    """Verdict per op: (ok, reason or None, results, detail)."""
    refs = checks.load_refs(workload) if seed == checks.DEFAULT_SEED else {}
    oracle_left = ORACLE_CHECKS
    verdicts = []
    stats = {"reference_compared": 0, "reference_missing": 0,
             "regressed_vs_reference": 0, "oracle_checked": 0,
             "oracle_skipped_large": 0}
    for op, (_, error) in zip(ops, timings):
        ref = refs.get(op["id"])
        if seed == checks.DEFAULT_SEED and ref is None:
            stats["reference_missing"] += 1
        if error is not None:
            if error.startswith("exit"):
                error = classify_exit(dp, op)
            if ref is not None and "record" in ref:
                stats["regressed_vs_reference"] += 1
            verdicts.append((False, checks.reason_of(error), 0, error))
            continue
        record = load_record(op)
        bad = checks.structural(op, record)
        if ref is not None and "record" in ref:
            stats["reference_compared"] += 1
            bad += [f"{k} differs from reference"
                    for k in checks.compare(record, ref["record"])]
        if (not bad and op["kind"] == "spectrum" and record["eigenvalues"]
                and oracle_left > 0):
            orc = checks.oracle_agreement(dp, op, record)
            if orc is None:
                stats["oracle_skipped_large"] += 1
            else:
                oracle_left -= 1
                stats["oracle_checked"] += 1
                bad += orc
        if bad:
            verdicts.append((False, "mismatch", 0, "; ".join(bad)))
            continue
        verdicts.append((True, None, results_of(dp, op, record), None))
    return verdicts, stats


def load_record(op):
    if op["lib"] is not None:
        return checks.normalize(op, op["_value"])
    with open(op["_out_path"], encoding="utf-8") as fh:
        return checks.normalize(op, json.load(fh))


def results_of(dp, op, record):
    eigen_count = None
    if op["kind"] == "asymptotics":
        t_hi = float(op["args"][op["args"].index("--window") + 1]
                     .split(",")[1])
        with open(op["_config_path"], encoding="utf-8") as fh:
            problem = dp.io.parse_problem(json.load(fh))
        eigen_count = dp.spectrum.counting_function(problem, t_hi)
    return checks.result_count(op, record, eigen_count)


def failure_summary(ops, verdicts):
    reasons = {r: 0 for r in checks.REASONS}
    examples = {}
    for op, (ok, reason, _, detail) in zip(ops, verdicts):
        if not ok:
            reasons[reason] += 1
            if len(examples.setdefault(reason, [])) < 3:
                examples[reason].append(f"op {op['id']}: {detail}")
    return reasons, examples


# -- environment ------------------------------------------------------------
def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "note": SANDBOX_NOTE}


def write_out(name, doc):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


# -- modes ------------------------------------------------------------------
def tail_latency(latencies):
    """Highest order statistic with >= 10 samples beyond it.

    With 20 samples or fewer no order statistic above the median has 10
    samples beyond it, and the maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n > 20:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return xs[-1], f"max of {n} (fewer than 20 samples)"


def lower_half_median(xs):
    """Median of the smaller half of xs (rounded up).

    Other tenants of the shared sandbox slow whole stretches of a run, by up
    to 2x, and a slowdown only ever adds time; the smaller half of repeated
    identical set-ups is the part the host left alone.
    """
    return statistics.median(sorted(xs)[:(len(xs) + 1) // 2])


def timing_metrics(timings, verdicts):
    """results_per_s, op_p50_s, op_tail_s over all ops of a run."""
    ok_lat = [t for (t, _), v in zip(timings, verdicts) if v[0]]
    if not ok_lat:
        print("benchmark: no op succeeded", file=sys.stderr)
        sys.exit(1)
    tail, tail_label = tail_latency(ok_lat)
    return ({"results_per_s": sum(v[2] for v in verdicts)
             / sum(t for t, _ in timings),
             "op_p50_s": statistics.median(ok_lat), "op_tail_s": tail},
            tail_label)


def end_to_end(args):
    dp, source, own_setup = setup(args.workload, args.seed, "run")
    setups = [own_setup] + setup_probe_times(args.workload, args.seed,
                                             SETUP_PROBES // 2)
    try:
        calibration = hostspeed.Calibration()
        ops, timings, busy = run_timed(dp, source, args.seconds, calibration)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts, stats = check_ops(dp, args.workload, args.seed, ops, timings)
    finally:
        source.scratch.close()
    setups += setup_probe_times(args.workload, args.seed,
                                SETUP_PROBES - SETUP_PROBES // 2)
    attempted = len(ops)
    failed = sum(not v[0] for v in verdicts)
    results = sum(v[2] for v in verdicts)
    cycles = [range(start, start + source.cycle)
              for start in range(0, attempted, source.cycle)]
    # Timings over every op of the run, host-adjusted (hostspeed.py); the
    # raw ones are reported beside them.
    raw, tail_label = timing_metrics(timings, verdicts)
    raw["setup_s"] = lower_half_median(setups)
    scale = calibration.scale()
    reasons, details = failure_summary(ops, verdicts)
    metrics = {
        "results_per_s": {"value": raw["results_per_s"] * scale,
                          "unit": "1/s"},
        "op_p50_s": {"value": raw["op_p50_s"] / scale, "unit": "s"},
        "op_tail_s": {"value": raw["op_tail_s"] / scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": raw["setup_s"] / scale, "unit": "s"},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "seconds": args.seconds, "timed_busy_s": busy,
        "cycles": len(cycles),
        "cycle_busy_s": [sum(timings[i][0] for i in c) for c in cycles],
        "unadjusted": raw,
        "host_factor": calibration.factor(),
        "host_adjustment": {"divisor": scale, "exponent": hostspeed.EXPONENT,
                            "kernel_ref_s": hostspeed.REF_S},
        "results": results, "results_per_busy_s": results / busy,
        "failed_frac": failed / attempted, "failed_by_reason": reasons,
        "failure_examples": details, "op_tail": tail_label,
        "op_kinds": collections.Counter(op["kind"] for op in ops),
        "setup_samples_s": setups,
        "checks": stats, "environment": environment(), "waiting": WAIT_NOTE,
    }
    return report, metrics, attempted, failed


def clear_realize_cache(dp):
    """Empty the realization LRU cache so a pass starts from cold."""
    clear = getattr(dp.propagate.realize_problem, "cache_clear", None)
    if clear is not None:
        clear()


def trace_pass(dp, ops):
    """Run ops under a fresh tracer: (tracer, per-op timings, wall s)."""
    tracer = tracing.Tracer(dp)
    tracer.install()
    timings = []
    clock = time.perf_counter
    t0 = clock()
    try:
        for op in ops:
            clear_realize_cache(dp)
            tracer.op = op["id"]
            s0 = clock()
            error = run_op(dp, op)
            timings.append((clock() - s0, error))
    finally:
        wall = clock() - t0
        tracer.uninstall()
    return tracer, timings, wall


def traced(args):
    dp, source, _ = setup(args.workload, args.seed, "trace")
    try:
        n = TRACE_CYCLES[args.workload] * source.cycle
        source.ensure(n)
        ops = source.ops[:n]
        t0 = time.perf_counter()
        run_ops(dp, ops)
        untraced_s = time.perf_counter() - t0
        tracer, timings, traced_s = trace_pass(dp, ops)
        verdicts, stats = check_ops(dp, args.workload, args.seed, ops, timings)
    finally:
        source.scratch.close()
    metrics = tracing.layer_metrics(tracer, dp.propagate.realize_problem,
                                    traced_s - untraced_s)
    spans_path = os.path.join(ROOT, ".bench_out",
                              f"spans-{args.workload}-s{args.seed}.jsonl.gz")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    attempted = len(ops)
    failed = sum(not v[0] for v in verdicts)
    reasons, details = failure_summary(ops, verdicts)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "ops": attempted, "untraced_s": untraced_s, "traced_s": traced_s,
        "spans": len(tracer.spans), "spans_file": os.path.relpath(
            spans_path, ROOT), "missing_attributes": tracer.missing,
        "failed_by_reason": reasons, "failure_examples": details,
        "checks": stats, "environment": environment(), "waiting": WAIT_NOTE,
    }
    return report, metrics, attempted, failed


def write_refs(workload):
    """Reference records for the default seed (run on a trusted commit)."""
    dp, source, _ = setup(workload, checks.DEFAULT_SEED, "refs")
    try:
        n = REF_CYCLES[workload] * source.cycle
        source.ensure(n)
        entries = []
        for op, (_, error) in zip(source.ops[:n], run_ops(dp, source.ops[:n])):
            entry = {"id": op["id"], "kind": op["kind"]}
            if error is None:
                entry["record"] = load_record(op)
            else:
                entry["error"] = (classify_exit(dp, op)
                                  if error.startswith("exit") else error)
            entries.append(entry)
    finally:
        source.scratch.close()
    with open(checks.ref_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": checks.DEFAULT_SEED,
                   "ops": entries}, fh, separators=(",", ":"))
        fh.write("\n")
    errors = sum("error" in e for e in entries)
    print(f"{workload}: {len(entries)} reference ops, {errors} failing")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probes", action="store_true",
                   help="print the scaling-probe table and exit")
    p.add_argument("--write-refs", metavar="WORKLOAD",
                   choices=workloads.WORKLOADS)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probes:
        import probes
        probes.main(import_library())
        return 0
    if args.write_refs:
        write_refs(args.write_refs)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        _, source, elapsed = setup(args.workload, args.seed, "probe")
        source.scratch.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    mode = traced if args.trace else end_to_end
    report, metrics, attempted, failed = mode(args)
    report["metrics"] = metrics
    write_out(f"result-{args.workload}-s{args.seed}-t{args.trace}.json",
              report)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": _correct(args.workload, report),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _correct(workload, report):
    """False on any failed op, or on a default-seed op without a reference.

    Only a workload in workloads.EXPECTS_FAILURES may fail ops with a typed
    domain error (NearSingularError, MeshRefinementError), the library's own
    verdict on a hard input; there such an op counts under failed and
    failed_by_reason, and makes the run incorrect only if the reference
    shows the same op succeeding.
    """
    reasons = report["failed_by_reason"]
    stats = report["checks"]
    if stats["reference_missing"]:
        return False
    if workload not in workloads.EXPECTS_FAILURES:
        return not any(reasons.values())
    return (reasons["mismatch"] == 0 and reasons["other_error"] == 0
            and stats["regressed_vs_reference"] == 0)


if __name__ == "__main__":
    sys.exit(main())
