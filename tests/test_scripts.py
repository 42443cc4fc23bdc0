"""The command-line scripts in scripts/ run end to end on small inputs."""
import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"

CASES = {
    "convergence_study": (["--levels", "2..3"],
                          "level,hs_distance,lambda_1,lambda_2,lambda_3,"
                          "lambda_4,lambda_5", 2),
    "m_asymptotics": (["--case", "free"], "r,ratio", 3),
    "weyl_law": (["--level", "3", "--indices", "5..10", "--step", "5"],
                 "n,lambda_n,weyl_ratio", 2),
}


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_table(tmp_path, capsys, name):
    argv, header, n_rows = CASES[name]
    out = tmp_path / f"{name}.csv"
    load(name).main(argv + ["--out", str(out)])
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0].startswith("# ")
    assert lines[1] == header
    assert len(lines) == 2 + n_rows + 1 and lines[-1] == ""
    # the default --out - prints the same bytes
    load(name).main(argv)
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("name, argv, reason", [
    ("convergence_study", ["--levels", "3"], "--levels: need A..B"),
    ("convergence_study", ["--levels", "3..2"], "--levels: need 0 <= A <= B"),
    ("weyl_law", ["--indices", "5"], "--indices: need A..B"),
    ("weyl_law", ["--level", "3", "--indices", "0..5", "--step", "5"],
     "--indices: eigenvalue indices start at 1"),
    ("weyl_law", ["--indices", "10..5"], "--indices: need 0 <= A <= B"),
    ("weyl_law", ["--step", "0"], "--step: need N >= 1"),
])
def test_bad_range_is_usage_error(capsys, name, argv, reason):
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument {reason}")
