import contextlib
import io
import json
import logging
import math
import os
import pathlib
import subprocess
import sys

import pytest

from deltaprime import cli
from deltaprime.cli import main
from deltaprime.errors import SchemaError
from deltaprime.io import result_envelope, validate_result

FREE01 = {"schema": 1, "interval": [0.0, 1.0]}
SIGNED = {"schema": 1, "interval": [0.0, 1.0],
          "measure": {"atoms": [{"x": 0.3, "beta": 0.4},
                                {"x": 0.5, "beta": -0.2},
                                {"x": 0.7, "beta": -0.1}]}}
CANTOR = {"schema": 1, "interval": [0.0, 1.0],
          "measure": {"cantor": [{"support": [0.0, 1.0], "mass": 1.0,
                                  "ratio": 0.3333333333333333,
                                  "level_cap": 12}]}}
HALFLINE = {"schema": 1, "interval": [0.0, 50.0],
            "bc": ["neumann", "dirichlet"]}
CLASSIFY = {"schema": 1, "classify": {
    "left": {"position": 0.0},
    "right": {"position": "+inf"}}}
CRITERIA = {"schema": 1, "criteria": {
    "gaps": [[0.5 + 0.3 * k, 0.65 + 0.3 * k] for k in range(40)],
    "potential": {"values": [1.0]},
    "epsilons": [0.5]}}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestSpectrumCommand:
    def test_free_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.json", FREE01)
        rc, out = run_json(capsys, ["spectrum", "--config", cfg,
                                    "--count", "20", "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# ")
        assert "problem=" in lines[0] and "version=" in lines[0]
        assert lines[1] == "n,lambda,norming_constant"
        for row in lines[2:]:
            n, lam, c = row.split(",")
            assert abs(float(lam) / (math.pi * int(n)) ** 2 - 1) < 1e-10
            assert float(c) > 0

    def test_json_round_trip(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.json", FREE01)
        rc, out = run_json(capsys, ["spectrum", "--config", cfg,
                                    "--count", "3"])
        assert rc == 0
        doc = json.loads(out)
        validate_result(doc)
        assert doc["result"]["indices"] == [1, 2, 3]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write(tmp_path, "signed.json", SIGNED)
        _, out1 = run_json(capsys, ["spectrum", "--config", cfg,
                                    "--count", "4", "--seed", "7",
                                    "--format", "csv"])
        _, out2 = run_json(capsys, ["spectrum", "--config", cfg,
                                    "--count", "4", "--seed", "7",
                                    "--format", "csv"])
        assert out1.encode() == out2.encode()

    def test_window_without_count_is_not_capped(self, tmp_path, capsys):
        # lambda_11 ... lambda_22 = (n pi)^2 lie in [1000, 5000]; the
        # default of 10 applies only without --window
        cfg = write(tmp_path, "free.json", FREE01)
        rc, out = run_json(capsys, ["spectrum", "--config", cfg,
                                    "--window", "1000,5000"])
        assert rc == 0
        assert json.loads(out)["result"]["indices"] == list(range(11, 23))
        rc, out = run_json(capsys, ["spectrum", "--config", cfg])
        assert json.loads(out)["result"]["indices"] == list(range(1, 11))

    def test_window_with_count(self, tmp_path, capsys):
        # lambda_2 ... lambda_10 lie in [30, 1000]; --count 3 stops at 3
        cfg = write(tmp_path, "free.json", FREE01)
        rc, out = run_json(capsys, ["spectrum", "--config", cfg,
                                    "--window", "30,1000", "--count", "3",
                                    "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[1] == "n,lambda,norming_constant"
        assert [row.split(",")[0] for row in lines[2:]] == ["2", "3"]


class TestKappaCommand:
    def test_signed_measure(self, tmp_path, capsys):
        cfg = write(tmp_path, "signed.json", SIGNED)
        rc, out = run_json(capsys, ["kappa", "--config", cfg])
        assert rc == 0
        doc = json.loads(out)
        validate_result(doc)
        assert doc["result"]["kappa_minus"] == 2
        assert doc["result"]["method"] == "exact-measure-count"

    def test_nonzero_q_counts_eigenvalue_just_below_zero(self, tmp_path,
                                                         capsys):
        # q = -(5 pi)^2 - 1e-3: lambda_5 = -1e-3 is negative; no atoms, so
        # the count is the sweep's, and the label says so
        doc = dict(FREE01,
                   potential={"values": [-25.0 * math.pi ** 2 - 1e-3]})
        cfg = write(tmp_path, "q.json", doc)
        rc, out = run_json(capsys, ["kappa", "--config", cfg])
        assert rc == 0
        assert json.loads(out)["result"] == {"kappa_minus": 5,
                                             "method": "sweep-count"}

    def test_negative_cantor_inf(self, tmp_path, capsys):
        doc = {"schema": 1, "interval": [0.0, 1.0],
               "measure": {"cantor": [{"support": [0.0, 1.0],
                                       "mass": -1.0}]}}
        cfg = write(tmp_path, "neg.json", doc)
        rc, out = run_json(capsys, ["kappa", "--config", cfg])
        assert rc == 0
        assert json.loads(out)["result"]["kappa_minus"] == "inf"


class TestClassifyCommand:
    def test_halfline(self, tmp_path, capsys):
        cfg = write(tmp_path, "cls.json", CLASSIFY)
        rc, out = run_json(capsys, ["classify", "--config", cfg])
        assert rc == 0
        doc = json.loads(out)
        validate_result(doc)
        assert doc["result"]["deficiency_indices"] == [1, 1]
        assert doc["result"]["left"]["kind"] == "limit_circle"
        assert doc["result"]["right"]["kind"] == "limit_point"

    def test_unsupported_q_exits_2(self, tmp_path, capsys):
        bad = {"schema": 1, "classify": {
            "left": {"position": 0.0, "q_class": "wild"},
            "right": {"position": 1.0}}}
        cfg = write(tmp_path, "bad.json", bad)
        assert main(["classify", "--config", cfg]) == 2


class TestCriteriaCommand:
    def test_not_discrete_verdict(self, tmp_path, capsys):
        cfg = write(tmp_path, "crit.json", CRITERIA)
        rc, out = run_json(capsys, ["criteria", "--config", cfg])
        assert rc == 0
        doc = json.loads(out)
        validate_result(doc)
        assert doc["result"]["verdict"] == "not_discrete"

    def test_csv_sequences_plus_json_verdict(self, tmp_path, capsys):
        cfg = write(tmp_path, "crit.json", CRITERIA)
        out_path = tmp_path / "seq.csv"
        rc, out = run_json(capsys, ["criteria", "--config", cfg,
                                    "--format", "csv", "--out",
                                    str(out_path)])
        assert rc == 0
        text = out_path.read_text()
        assert text.split("\n")[1] == "k,d_k,gap_mean,necessary_seq"
        doc = json.loads(out)   # verdict still lands on stdout
        assert doc["result"]["verdict"] == "not_discrete"


class TestResolventStudyCommand:
    def test_decreasing_hs_column(self, tmp_path, capsys):
        cfg = write(tmp_path, "cantor.json", CANTOR)
        rc, out = run_json(capsys, ["resolvent-study", "--config", cfg,
                                    "--levels", "2..5", "--z", "-1",
                                    "--format", "csv"])
        assert rc == 0
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        hs = [float(r[1]) for r in rows]
        assert hs[0] > hs[1] > hs[2] > hs[3] == 0.0


class TestMFunctionCommand:
    def test_single_evaluation(self, tmp_path, capsys):
        cfg = write(tmp_path, "half.json", HALFLINE)
        rc, out = run_json(capsys, ["mfunction", "--config", cfg,
                                    "--z", "-100"])
        assert rc == 0
        doc = json.loads(out)
        validate_result(doc)
        assert abs(doc["result"]["m"][0] - 0.1) < 1e-8

    def test_sweep_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "half.json", HALFLINE)
        rc, out = run_json(capsys, ["mfunction", "--config", cfg,
                                    "--window", "1e4,1e6", "--count", "3",
                                    "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[1] == "r,re_m,im_m,ratio"
        for row in lines[2:]:
            ratio = float(row.split(",")[3])
            assert abs(ratio - 1.0) < 0.05


    def test_valid_alpha(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.json", FREE01)
        rc, out = run_json(capsys, ["mfunction", "--config", cfg,
                                    "--alpha", "0.5", "--count", "2"])
        assert rc == 0
        result = json.loads(out)["result"]
        assert result["alpha"] == 0.5 and len(result["rows"]) == 2


class TestAsymptoticsCommand:
    def test_rho_ratio_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "half.json", HALFLINE)
        rc, out = run_json(capsys, ["asymptotics", "--config", cfg,
                                    "--window", "2e3,1e4", "--count", "3",
                                    "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[1] == "t,rho,ratio"
        for row in lines[2:]:
            assert abs(float(row.split(",")[2]) - 1.0) < 0.05


class TestSchemaErrors:
    def test_unknown_key_reports_pointer(self, tmp_path, capsys):
        bad = dict(FREE01)
        bad["potentail"] = {"values": [0.0]}
        cfg = write(tmp_path, "bad.json", bad)
        rc = main(["spectrum", "--config", cfg, "--count", "3"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "/potentail" in err

    def test_bad_atom_entry_pointer(self, tmp_path, capsys):
        bad = {"schema": 1, "interval": [0.0, 1.0],
               "measure": {"atoms": [{"x": 0.5, "weight": 1.0}]}}
        cfg = write(tmp_path, "bad.json", bad)
        rc = main(["spectrum", "--config", cfg, "--count", "3"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "/measure/atoms/0" in err

    def test_invalid_json_is_io_class(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path), "--count", "3"]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--count", "3"]) == 1

    def test_domain_error_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.json", FREE01)
        # z at an eigenvalue of the Neumann problem on (0,1) with Dirichlet
        # right end: pi^2/4 makes psi^[1](a) vanish
        rc = main(["mfunction", "--config", cfg, "--z",
                   str(math.pi ** 2 / 4.0)])
        assert rc == 2


UNJOINED_PAIR = {
    "schema": 1, "interval": [0.0, 1.0], "bc": ["dirichlet", "neumann"],
    "level": 7,
    "potential": {"breakpoints": [0.287261, 0.291359, 0.540605],
                  "values": [-1.68228365687657, -3.565351399682468,
                             2.724221208932712, -2.32089979250212]},
    "measure": {"atoms": [{"x": 0.031286, "beta": 0.5746934301685904},
                          {"x": 0.458903, "beta": 0.10186727791410277}],
                "cantor": [{"support": [0.08028870000460778,
                                        0.9342584315474214],
                            "mass": -0.684041469691299,
                            "ratio": 0.4023540322485164}]}}


def criteria(**changes):
    return dict(CRITERIA, criteria=dict(CRITERIA["criteria"], **changes))


def classify_left(**left):
    return dict(CLASSIFY, classify=dict(CLASSIFY["classify"], left=left))


class TestTypedErrors:
    """Schema-valid input outside what the library takes: a typed error."""

    @pytest.mark.parametrize("cfg_doc, argv, code, where", [
        (dict(FREE01, measure={"atoms": [{"x": 1.0, "beta": 0.2}]}),
         ["spectrum"], 1, "/measure/atoms/0/x"),
        (dict(FREE01, measure={"atoms": [{"x": 0.5, "beta": 0.2},
                                         {"x": -0.1, "beta": -0.2}]}),
         ["kappa"], 1, "/measure/atoms/1/x"),
        (dict(FREE01, measure={"cantor": [{"support": [0.5, 1.5],
                                           "mass": 1.0}]}),
         ["spectrum"], 1, "/measure/cantor/0/support"),
        (criteria(prefix=0), ["criteria"], 1, "/criteria/prefix"),
        (criteria(prefix=-3), ["criteria"], 1, "/criteria/prefix"),
        (criteria(epsilons=[0.5, 0.0]), ["criteria"], 1,
         "/criteria/epsilons/1"),
        (criteria(epsilons=[-1.0]), ["criteria"], 1, "/criteria/epsilons/0"),
        (criteria(epsilons=[5.0], prefix=10), ["criteria"], 1,
         "/criteria/epsilons/0"),
        (dict(FREE01, bc=["neumann", "neumann"]), ["mfunction", "--z=-1"], 2,
         "Dirichlet truncation"),
        (FREE01, ["asymptotics"], 2, "Neumann left"),
        (HALFLINE, ["mfunction", "--count", "0"], 2, "--count"),
        (HALFLINE, ["mfunction", "--count", "-2"], 2, "--count"),
        (HALFLINE, ["asymptotics", "--count", "0"], 2, "--count"),
        (HALFLINE, ["asymptotics", "--count", "-1"], 2, "--count"),
        (dict(FREE01, measure={"cantor": [{"support": [0.0, 1.0],
                                           "mass": 1.0, "ratio": 0.7}]}),
         ["spectrum"], 1, "/measure/cantor/0: cantor ratio"),
        (dict(FREE01, measure={"cantor": [{"support": [0.0, 1.0],
                                           "mass": 1.0, "level_cap": 0}]}),
         ["spectrum"], 1, "/measure/cantor/0: level_cap"),
        (dict(FREE01, measure={"cantor": [{"support": [1.0, 0.0],
                                           "mass": 1.0}]}),
         ["kappa"], 1, "/measure/cantor/0: cantor support"),
        # json.load takes NaN and Infinity; the schema does not
        (dict(FREE01, potential={"values": [math.nan]}), ["kappa"], 1,
         "/potential/values/0"),
        (dict(FREE01, measure={"atoms": [{"x": 0.5, "beta": math.nan}]}),
         ["spectrum"], 1, "/measure/atoms/0/beta"),
        (dict(FREE01, potential={"breakpoints": [math.nan],
                                 "values": [1.0, 2.0]}),
         ["spectrum"], 1, "/potential/breakpoints/0"),
        (dict(FREE01, measure={"cantor": [{"support": [0.0, 1.0],
                                           "mass": math.inf}]}),
         ["spectrum"], 1, "/measure/cantor/0/mass"),
        (dict(FREE01, interval=[0.0, 10 ** 400]), ["spectrum"], 1,
         "/interval/1"),
        # 2^40 atoms: refused before the realization is built
        (dict(FREE01, level=40, measure={"cantor": [{
            "support": [0.0, 1.0], "mass": 1.0, "level_cap": 40}]}),
         ["spectrum"], 2, "deepest realizable level 20"),
        # a tunnelling pair of a negative Cantor mass whose solutions join
        # into a negative norm at lambda_2
        (UNJOINED_PAIR, ["spectrum", "--count", "4"], 2,
         "not a positive norm"),
        # the library's own ValueError, as a schema error at the pointer
        (dict(FREE01, measure={"atoms": [{"x": 0.5, "beta": 0.0}]}),
         ["spectrum"], 1,
         "schema error: /measure: explicit atom weights must be nonzero"),
        (dict(FREE01, potential={"breakpoints": [0.6, 0.4],
                                 "values": [1.0, 2.0, 3.0]}),
         ["spectrum"], 1, "schema error: /potential: breakpoints must be "
         "strictly increasing"),
        (dict(FREE01, interval=[1.0, 0.0]), ["spectrum"], 1,
         "schema error: /: interval must be finite with a < b"),
        (criteria(gaps=[[0.5, 0.7], [0.6, 0.9]]), ["criteria"], 1,
         "schema error: /criteria/gaps: gaps must be pairwise disjoint"),
        # one row per shape check of the schema
        (dict(FREE01, measure=[]), ["spectrum"], 1,
         "/measure: expected object, got list"),
        (dict(FREE01, schema=2), ["spectrum"], 1,
         "/schema: unsupported schema 2"),
        (dict(FREE01, interval=["a", 1.0]), ["spectrum"], 1,
         "/interval/0: expected a number"),
        (dict(FREE01, level=1.5), ["spectrum"], 1,
         "/level: expected an integer"),
        (dict(FREE01, interval=[0, 1, 2]), ["spectrum"], 1,
         "/interval: expected a 2-element array"),
        (dict(FREE01, bc=["dirichlet"]), ["spectrum"], 1,
         '/bc: expected ["dirichlet"|"neumann", ...] pair'),
        (classify_left(position="left"), ["classify"], 1,
         "/classify/left/position: expected number"),
        (classify_left(position=0.0, p_square_integrable=1), ["classify"], 1,
         "/classify/left/p_square_integrable: expected boolean or null"),
        (classify_left(position=0.0, measure_tv_finite="yes"), ["classify"],
         1, "/classify/left/measure_tv_finite: expected boolean"),
    ])
    def test_exit_code_and_one_error_line(self, tmp_path, capsys, cfg_doc,
                                          argv, code, where):
        cfg = write(tmp_path, "cfg.json", cfg_doc)
        try:
            rc = main(argv + ["--config", cfg])
        except SystemExit as exc:       # argparse usage error
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == code
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert "error" in lines[-1] and where in lines[-1]
        # one line, or argparse's usage lines before it
        assert len(lines) == 1 or lines[0].startswith("usage:")
        assert "Traceback" not in captured.err

    def test_result_that_is_not_an_object(self):
        doc = result_envelope("spectrum", "0" * 16, None, {})
        doc["result"] = []
        with pytest.raises(SchemaError) as exc:
            validate_result(doc)
        assert exc.value.pointer == "/result"


class TestArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--window", "abc"],
        ["spectrum", "--window", "1,2,3"],
        ["spectrum", "--tol", "0"],
        ["spectrum", "--tol=-1e-9"],
        ["resolvent-study", "--levels", "3"],
        ["resolvent-study", "--levels", "3..2"],
        ["resolvent-study", "--levels", "2..4", "--z", "foo"],
        ["mfunction", "--z", "foo"],
        ["mfunction", "--z", "1,2,3"],
        ["asymptotics", "--window", "1e3"],
        ["kappa", "--tol", "1e-9"],
        ["mfunction", "--tol", "1e-9"],
        ["mfunction", "--window", "0,1e4", "--count", "3"],
        ["mfunction", "--window=-1e2,1e4", "--count", "3"],
        ["asymptotics", "--window=-1,1e3", "--count", "3"],
        ["asymptotics", "--window", "1e3,0"],
        ["spectrum", "--count", "0"],
        ["spectrum", "--count", "-2", "--format", "csv"],
        ["spectrum", "--window=-inf,10"],
        ["mfunction", "--z=nan"],
        ["mfunction", "--z=inf"],
        ["resolvent-study", "--levels", "2..4", "--z=-1,nan"],
        ["asymptotics", "--window", "1e3,inf"],
        ["mfunction", "--alpha", "2"],
        ["mfunction", "--alpha", "nan"],
        ["asymptotics", "--alpha", "1.5"],
        ["asymptotics", "--alpha=-0.5"],
        ["spectrum", "--window", "50,10"],
        ["mfunction", "--window", "1e4,1e2", "--count", "3"],
        ["asymptotics", "--window", "1e5,1e3"],
    ])
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, argv):
        cfg = write(tmp_path, "free.json", FREE01)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, reason", [
        (["spectrum", "--window", "50,10"], "--window: need LO <= HI"),
        (["spectrum", "--window=-inf,10"], "--window: need a finite number"),
        (["spectrum", "--count", "0"], "--count: need N >= 1"),
        (["resolvent-study", "--levels", "3..2"],
         "--levels: need 0 <= A <= B"),
        (["mfunction", "--z=nan"], "--z: need a finite number"),
        (["mfunction", "--alpha", "2"], "--alpha: need 0 <= ALPHA <= 1"),
        (["asymptotics", "--window=-1,1e3"],
         "--window: need LO > 0 and HI > 0"),
        # the validators' own ValueError and TypeError, not their names
        (["spectrum", "--window", "abc"], "--window: need a finite number"),
        (["spectrum", "--window", "1,2,3"], "--window: need LO,HI"),
        (["spectrum", "--count", "x"], "--count: need an integer"),
        (["resolvent-study", "--levels", "3"], "--levels: need A..B"),
        (["mfunction", "--z", "foo"], "--z: need a finite number"),
        (["mfunction", "--z", "1,2,3"], "--z: need RE[,IM]"),
        (["mfunction", "--alpha", "abc"], "--alpha: need 0 <= ALPHA <= 1"),
    ])
    def test_rejected_value_prints_its_reason(self, tmp_path, capsys, argv,
                                              reason):
        cfg = write(tmp_path, "free.json", FREE01)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: argument {reason}")
        # not argparse's "invalid <validator> value", which names a private
        # function of the CLI
        assert "invalid" not in err

    def test_tol_flag_is_unrecognized(self, tmp_path, capsys):
        # one eigenvalue route for every problem, to float adjacency: no
        # tolerance to set
        cfg = write(tmp_path, "signed.json", SIGNED)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", cfg, "--count", "2",
                  "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_one_parser_per_process_gives_the_bytes_of_fresh_ones(tmp_path):
    """main keeps one argparse tree per process; a sequence of calls (other
    subcommands, a usage error between them) prints what calls on a newly
    built tree print."""
    free = write(tmp_path, "free.json", FREE01)
    signed = write(tmp_path, "signed.json", SIGNED)
    calls = [["spectrum", "--config", free, "--count", "3"],
             ["kappa", "--config", signed, "--format", "csv"],
             ["spectrum", "--config", free, "--window", "abc"],
             ["mfunction", "--config", write(tmp_path, "half.json", HALFLINE),
              "--z=-2,1"],
             ["spectrum", "--config", signed, "--count", "2",
              "--format", "csv"]]

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:       # argparse usage error
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    reused = [run(argv, False) for argv in calls]
    assert [rc for rc, _, _ in reused] == [0, 0, 2, 0, 0]
    assert reused == [run(argv, True) for argv in calls]


# ---------------------------------------------------------------------------
# golden bytes: fixed configs whose full CLI output must not change.
# Regenerate (only alongside a declared output change) with
#   PYTHONPATH=src python tests/test_cli.py

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CANTOR5 = dict(CANTOR, level=5)
SIGNED_Q = {"schema": 1, "interval": [0.0, 2.0],
            "potential": {"breakpoints": [0.8], "values": [1.5, -2.0]},
            "measure": {"atoms": [{"x": 0.4, "beta": 0.3},
                                  {"x": 0.8, "beta": -0.15},
                                  {"x": 1.3, "beta": 0.2}]}}
ATOM_HALFLINE = {"schema": 1, "interval": [0.0, 30.0],
                 "bc": ["neumann", "dirichlet"],
                 "measure": {"atoms": [{"x": 0.0, "beta": 0.05},
                                       {"x": 0.7, "beta": 0.02}]}}
GOLDEN = {
    "spectrum_cantor5.csv": (CANTOR5, ["spectrum", "--count", "6",
                                       "--format", "csv"]),
    "spectrum_cantor5.json": (CANTOR5, ["spectrum", "--count", "6"]),
    "spectrum_signed.csv": (SIGNED_Q, ["spectrum", "--count", "4",
                                       "--format", "csv"]),
    "spectrum_signed.json": (SIGNED_Q, ["spectrum", "--count", "4"]),
    "kappa_signed.json": (SIGNED_Q, ["kappa"]),
    "mfunction_z.json": (ATOM_HALFLINE, ["mfunction", "--z=-40,3"]),
    "mfunction_window.csv": (ATOM_HALFLINE, ["mfunction", "--window",
                                             "1e2,1e5", "--count", "4",
                                             "--format", "csv"]),
    "asymptotics.csv": (ATOM_HALFLINE, ["asymptotics", "--window",
                                        "1e3,4e3", "--count", "3",
                                        "--format", "csv"]),
    "resolvent_study.json": (CANTOR, ["resolvent-study", "--levels",
                                      "2..4"]),
    "resolvent_study.csv": (CANTOR, ["resolvent-study", "--levels", "2..4",
                                     "--z=-2,1", "--format", "csv"]),
    "spectrum_window.json": (SIGNED_Q, ["spectrum", "--window=-5,60"]),
    "kappa_format_csv.json": (SIGNED_Q, ["kappa", "--format", "csv"]),
    "classify.json": (CLASSIFY, ["classify"]),
    "criteria.json": (CRITERIA, ["criteria"]),
    "criteria_stdout.csv": (CRITERIA, ["criteria", "--format", "csv",
                                       "--out", "-"]),
    # the sequences go to the file, the verdict JSON to stdout
    "criteria_out.csv": (CRITERIA, ["criteria", "--format", "csv"]),
    "mfunction_z_format_csv.json": (ATOM_HALFLINE, ["mfunction", "--z=-40,3",
                                                    "--format", "csv"]),
    "mfunction_window.json": (ATOM_HALFLINE, ["mfunction", "--window",
                                              "1e2,1e5", "--count", "4"]),
    "asymptotics.json": (ATOM_HALFLINE, ["asymptotics", "--window",
                                         "1e3,4e3", "--count", "3"]),
}


def _golden_output(tmp_dir, name):
    """The --out file's bytes and stdout's bytes of one golden invocation.

    The invocation writes to a file unless its argv says --out -; then
    its stdout is the golden and nothing else may be printed.
    """
    cfg_doc, argv = GOLDEN[name]
    cfg = tmp_dir / (name + ".cfg.json")
    cfg.write_text(json.dumps(cfg_doc))
    out = tmp_dir / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([argv[0], "--config", str(cfg), "--out", str(out),
                     "--seed", "3", *argv[1:]]) == 0
    printed = stdout.getvalue().encode()
    return (out.read_bytes(), printed) if out.exists() else (printed, b"")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(tmp_path, name):
    body, printed = _golden_output(tmp_path, name)
    assert body == (GOLDEN_DIR / name).read_bytes()
    side = GOLDEN_DIR / (name + ".stdout")
    assert printed == (side.read_bytes() if side.exists() else b"")


def test_debug_records_leave_the_output_alone(tmp_path, caplog):
    # the asymptotics goldens search about 600 indices in lockstep, which
    # logs one record; at DEBUG the bytes are still the golden's
    with caplog.at_level(logging.DEBUG, logger="deltaprime"):
        body, printed = _golden_output(tmp_path, "asymptotics.json")
    assert (body, printed) == ((GOLDEN_DIR / "asymptotics.json").read_bytes(),
                               b"")
    assert sum("in lockstep" in r.getMessage() for r in caplog.records) == 1


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the library and the CLI run on numpy
    import deltaprime
    src = str(pathlib.Path(deltaprime.__file__).parent.parent)
    code = ("import sys, deltaprime, deltaprime.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "[]"


if __name__ == "__main__":
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GOLDEN):
            body, printed = _golden_output(pathlib.Path(tmp), name)
            (GOLDEN_DIR / name).write_bytes(body)
            if printed:
                (GOLDEN_DIR / (name + ".stdout")).write_bytes(printed)
