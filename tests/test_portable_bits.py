"""The library calls no numpy transcendental on real data.

numpy picks the kernels of its transcendental ufuncs (exp, log, cosh, ...)
per CPU, so their last bits differ between machines, and so would the
output bytes; math's functions (through propagate._mapped) and numpy's
IEEE-exact operations (+, -, *, /, sqrt) do not.  The one exception is
numpy's complex cos and sin in the complex-z branch of
resolvent._SolutionCache.values: numpy's complex multiply and abs round
differently where the CPU has FMA, so no kernel makes complex bits
CPU-independent.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "deltaprime"
TRANSCENDENTAL = {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
                  "cosh", "sinh", "tanh", "power", "hypot", "tan", "cos",
                  "sin"}
ALLOWED = {("resolvent.py", name, "_SolutionCache.values", True)
           for name in ("cos", "sin")}


def _transcendental(name):
    return name in TRANSCENDENTAL or name.startswith("arc")


def _is_complex_test(test):
    """isinstance(..., complex)"""
    return (isinstance(test, ast.Call)
            and getattr(test.func, "id", None) == "isinstance"
            and len(test.args) == 2
            and getattr(test.args[1], "id", None) == "complex")


def _uses(node, scope=(), in_complex=False):
    """(name, scope, in_complex, line) of each numpy transcendental named
    under node: np.<name> or numpy.<name>, or imported from numpy; scope
    is the dotted path of enclosing classes and functions, in_complex
    whether it sits in the body of an `if isinstance(..., complex)`."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope = scope + (node.name,)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and _transcendental(node.attr)):
        yield node.attr, ".".join(scope), in_complex, node.lineno
    if isinstance(node, ast.ImportFrom) and node.module == "numpy":
        for alias in node.names:
            if _transcendental(alias.name):
                yield alias.name, ".".join(scope), in_complex, node.lineno
    if isinstance(node, ast.If) and _is_complex_test(node.test):
        for child in node.body:
            yield from _uses(child, scope, True)
        for child in node.orelse:
            yield from _uses(child, scope, in_complex)
        return
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, scope, in_complex)


def test_no_numpy_transcendental_outside_complex_cos_sin():
    found = [(path.name, *use) for path in sorted(SRC.glob("*.py"))
             for use in _uses(ast.parse(path.read_text()))]
    assert [f for f in found if f[:4] not in ALLOWED] == []


def test_the_scan_sees_each_form():
    snippet = """
import numpy as np
from numpy import arctan2
class K:
    def values(self, z, w):
        if isinstance(z, complex):
            a = np.cos(w) + np.exp(w)
        else:
            a = np.sin(w) + numpy.arccosh(w)
        return np.sqrt(np.abs(a))
"""
    assert [u[:3] for u in _uses(ast.parse(snippet))] == [
        ("arctan2", "", False), ("cos", "K.values", True),
        ("exp", "K.values", True), ("sin", "K.values", False),
        ("arccosh", "K.values", False)]
