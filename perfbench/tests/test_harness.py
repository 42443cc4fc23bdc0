"""Tests of the benchmark harness itself (not of deltaprime).

    python3 -m pytest perfbench/tests -q

They need the library under src/ of the same checkout.
"""
import copy
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "cells", "sweeps", "bytes")


def _config_digest(workload, seed, n):
    h = hashlib.sha256()
    for i in range(n):
        op = workloads.make_op(workload, seed, i)
        h.update(workloads.config_bytes(op))
        h.update(json.dumps([op["args"], op["lib"]]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_byte_identical_across_processes(workload):
    n = 2 * workloads.CYCLE[workload]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_harness import _config_digest; "
            "print(_config_digest(sys.argv[2], 11, int(sys.argv[3])))")
    out = subprocess.run(
        [sys.executable, "-c", code, HERE, workload, str(n)],
        capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == _config_digest(workload, 11, n)
    assert _config_digest(workload, 12, n) != _config_digest(workload, 11, n)


@pytest.fixture(scope="module")
def dp():
    return run.import_library()


@pytest.fixture()
def scratch():
    s = run.Scratch("test", 0, "pytest")
    yield s
    s.close()


# a cheap slice of each workload that still reaches every layer it uses
TRACE_SLICES = {"cantor_deep": range(0, 3), "wide_band": range(0, 4),
                "resolvent_study": range(0, 1), "signed_mix": range(0, 54),
                "signed_hard": range(0, 54)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(dp, scratch, workload):
    ops = [scratch.materialize(workloads.make_op(workload, 3, i))
           for i in TRACE_SLICES[workload]]
    runs = []
    for _ in range(2):
        tracer, _, _ = run.trace_pass(dp, ops)
        assert not tracer.missing
        metrics = tracing.layer_metrics(tracer, dp.propagate.realize_problem,
                                        0.0)
        runs.append({k: v["value"] for k, v in metrics.items()
                     if v["unit"] in COUNT_UNITS})
    assert runs[0] == runs[1]
    assert runs[0]["cli.calls"] + runs[0]["spectrum.count_calls"] > 0


def test_tracer_restores_attributes(dp):
    before = {p: getattr(getattr(dp, p.split(".")[0]), p.split(".")[1])
              for paths in tracing.FUNCTIONS.values() for p in paths}
    tracer = tracing.Tracer(dp)
    tracer.install()
    assert dp.spectrum.shoot is not before["spectrum.shoot"]
    tracer.uninstall()
    for p, obj in before.items():
        assert getattr(getattr(dp, p.split(".")[0]), p.split(".")[1]) is obj


def test_missing_attribute_is_reported_absent(dp, monkeypatch):
    monkeypatch.delattr(dp.spectrum, "shoot")
    tracer = tracing.Tracer(dp)
    tracer.install()
    tracer.uninstall()
    assert "spectrum.shoot" in tracer.missing
    metrics = tracing.layer_metrics(tracer, dp.propagate.realize_problem, 0.0)
    assert metrics["spectrum.shoots"]["value"] is None
    assert "absent" in metrics["spectrum.shoots"]
    assert metrics["propagate.sweeps"]["value"] == 0


def _perturbed(value, rel=1e-6):
    if isinstance(value, list):
        for i, v in enumerate(value):
            if isinstance(v, list) or (isinstance(v, float) and v
                                       and math.isfinite(v)):
                out = list(value)
                out[i] = _perturbed(v, rel)
                return out
        return None
    return value * (1.0 + rel)


def _reference_records():
    for workload in workloads.WORKLOADS:
        refs = checks.load_refs(workload)
        seen = set()
        for entry in refs.values():
            if "record" in entry and entry["kind"] not in seen:
                seen.add(entry["kind"])
                yield workload, entry


@pytest.mark.parametrize("workload,entry", list(_reference_records()),
                         ids=lambda x: x if isinstance(x, str) else x["kind"])
def test_checker_rejects_relative_perturbation(workload, entry):
    record = entry["record"]
    assert checks.compare(record, record) == []
    for key, value in record.items():
        bad = copy.deepcopy(record)
        if key in ("count", "indices"):
            bad[key] = value + 1 if key == "count" else [i + 1 for i in value]
        elif key == "z":
            continue  # the op's input, echoed back
        else:
            bad[key] = _perturbed(value)
            if bad[key] is None:
                continue
        assert checks.compare(bad, record) == [key], (workload, key)


def test_every_workload_has_references():
    for workload in workloads.WORKLOADS:
        assert checks.load_refs(workload), workload


def test_structural_checks_catch_broken_outputs():
    spec = {"kind": "spectrum", "args": ["spectrum", "--count", "2"],
            "config": {"measure": {"atoms": [{"x": 0.5, "beta": 1.0}]}}}
    good = {"indices": [1, 2], "eigenvalues": [1.0, 2.0], "norming": [0.5, 0.4]}
    assert checks.structural(spec, good) == []
    assert checks.structural(spec, dict(good, eigenvalues=[2.0, 1.0]))
    assert checks.structural(spec, dict(good, norming=[0.5, -0.4]))
    assert checks.structural(spec, dict(good, eigenvalues=[1.0]))
    mz = {"kind": "mfunction_z"}
    assert checks.structural(mz, {"z": [1.0, 2.0], "m": [0.1, 0.3]}) == []
    assert checks.structural(mz, {"z": [1.0, 2.0], "m": [0.1, -0.3]})


def test_tail_latency_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    value, label = run.tail_latency(xs)
    assert value == 89.0 and sum(x > value for x in xs) == 10
    assert "p90.0" in label
    assert run.tail_latency(xs[:5])[0] == 4.0


def test_ops_wrap_onto_referenced_configs(scratch):
    source = run.OpSource("resolvent_study", checks.DEFAULT_SEED, scratch)
    source.ensure(source.period + source.cycle)
    refs = checks.load_refs("resolvent_study")
    assert [op["seq"] for op in source.ops] == list(range(len(source.ops)))
    for op in source.ops[source.period:]:
        twin = source.ops[op["seq"] - source.period]
        assert op["id"] == twin["id"] and op["id"] in refs
        assert workloads.config_bytes(op) == workloads.config_bytes(twin)
        assert op["_config_path"] != twin["_config_path"]


def _report(missing=0, regressed=0, **failed):
    reasons = {r: 0 for r in checks.REASONS}
    reasons.update(failed)
    return {"failed_by_reason": reasons,
            "checks": {"reference_missing": missing,
                       "regressed_vs_reference": regressed}}


def test_any_failure_is_incorrect_on_gated_workloads():
    assert run._correct("signed_mix", _report())
    for workload in ("cantor_deep", "wide_band", "resolvent_study",
                     "signed_mix"):
        assert not run._correct(workload, _report(NearSingularError=1))
        assert not run._correct(workload, _report(MeshRefinementError=1))
        assert not run._correct(workload, _report(missing=1))
    # expected typed failures on signed_hard, unless the reference succeeded
    assert run._correct("signed_hard", _report(NearSingularError=2))
    assert not run._correct("signed_hard",
                            _report(regressed=1, NearSingularError=2))
    assert not run._correct("signed_hard", _report(other_error=1))
    assert not run._correct("signed_hard", _report(mismatch=1))


def test_lower_half_median():
    assert run.lower_half_median([5.0, 1.0, 2.0, 9.0, 3.0]) == 2.0
    assert run.lower_half_median([4.0, 1.0, 2.0, 3.0]) == 1.5


def test_host_adjustment_uses_the_median_slice():
    cal = hostspeed.Calibration()
    ref = hostspeed.REF_S
    cal.slice_times = [4 * ref, 4 * ref, 9 * ref, 4 * ref, ref]
    assert cal.factor() == 4.0
    assert cal.scale() == 4.0 ** hostspeed.EXPONENT
    cal.sample()
    assert 0.2 < cal.slice_times[-1] / ref < 20.0


def test_oracle_check_rejects_wrong_eigenvalues(dp, scratch):
    # level 8: the oracle's rounding floor is larger than its O(h^2) error
    op = scratch.materialize(workloads.make_op("cantor_deep", 506, 12))
    assert op["kind"] == "spectrum" and run.run_op(dp, op) is None
    record = run.load_record(op)
    assert checks.oracle_agreement(dp, op, record) == []
    ev = record["eigenvalues"]
    shifted = dict(record, eigenvalues=ev[1:], indices=record["indices"][:-1])
    assert checks.oracle_agreement(dp, op, shifted)
    nudged = dict(record, eigenvalues=[ev[0] * (1 + 1e-3)] + ev[1:])
    assert checks.oracle_agreement(dp, op, nudged)
