"""Config parsing (strict JSON schema), hashing, deterministic writers.

Config documents carry a versioned "schema" field and reject unknown keys;
schema violations report the JSON pointer of the offending element.  All
emitted results embed the problem hash and the library version, and are
byte-identical for a fixed config and seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys

from . import __version__
from .classify import EndpointDescriptor, GapStructure
from .errors import SchemaError
from .measures import CantorSpec, SingularMeasure, misplaced
from .propagate import PiecewisePotential, ProblemSpec

SCHEMA_VERSION = 1


def _check_keys(obj, pointer, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(pointer, f"expected object, got {type(obj).__name__}")
    for k in required:
        if k not in obj:
            raise SchemaError(pointer, f"missing required key {k!r}")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise SchemaError(f"{pointer}/{k}", "unknown key (strict schema)")


def _check_document(doc, pointer, required, optional=()):
    """_check_keys on a versioned document, then its schema version."""
    _check_keys(doc, pointer or "/", ("schema",) + required, optional)
    if doc["schema"] != SCHEMA_VERSION:
        raise SchemaError(f"{pointer}/schema",
                          f"unsupported schema {doc['schema']!r}")


def _number(v, pointer):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(pointer, "expected a number")
    # json.load takes NaN, Infinity and integers beyond the float range
    if not abs(v) <= sys.float_info.max:
        raise SchemaError(pointer, "expected a finite number")
    return float(v)


def _integer(v, pointer):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(pointer, "expected an integer")
    return v


def _build(pointer, cls, *args, **kwargs):
    """cls(*args, **kwargs), a ValueError of it a SchemaError at pointer."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from exc


def _pair(v, pointer):
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(pointer, "expected a 2-element array")
    return _number(v[0], f"{pointer}/0"), _number(v[1], f"{pointer}/1")


def parse_measure(doc, pointer="/measure") -> SingularMeasure:
    _check_keys(doc, pointer, required=(), optional=("atoms", "cantor"))
    atoms = []
    for i, entry in enumerate(doc.get("atoms", [])):
        p = f"{pointer}/atoms/{i}"
        _check_keys(entry, p, required=("x", "beta"))
        atoms.append((_number(entry["x"], f"{p}/x"),
                      _number(entry["beta"], f"{p}/beta")))
    cantor = []
    for i, entry in enumerate(doc.get("cantor", [])):
        p = f"{pointer}/cantor/{i}"
        _check_keys(entry, p, required=("support", "mass"),
                    optional=("ratio", "level_cap"))
        cantor.append(_build(
            p, CantorSpec, support=_pair(entry["support"], f"{p}/support"),
            mass=_number(entry["mass"], f"{p}/mass"),
            ratio=_number(entry.get("ratio", 1.0 / 3.0), f"{p}/ratio"),
            level_cap=_integer(entry.get("level_cap", 12),
                               f"{p}/level_cap")))
    return _build(pointer, SingularMeasure, atoms=tuple(sorted(atoms)),
                  cantor_parts=tuple(cantor))


def parse_potential(doc, pointer="/potential") -> PiecewisePotential:
    _check_keys(doc, pointer, required=("values",), optional=("breakpoints",))
    bps = tuple(_number(v, f"{pointer}/breakpoints/{i}")
                for i, v in enumerate(doc.get("breakpoints", [])))
    vals = tuple(_number(v, f"{pointer}/values/{i}")
                 for i, v in enumerate(doc["values"]))
    return _build(pointer, PiecewisePotential, bps, vals)


def parse_problem(doc, pointer="") -> ProblemSpec:
    _check_document(doc, pointer, ("interval",),
                    ("bc", "level", "potential", "measure"))
    a, b = _pair(doc["interval"], f"{pointer}/interval")
    bc = doc.get("bc", ["dirichlet", "dirichlet"])
    if (not isinstance(bc, list) or len(bc) != 2
            or any(v not in ("dirichlet", "neumann") for v in bc)):
        raise SchemaError(f"{pointer}/bc",
                          'expected ["dirichlet"|"neumann", ...] pair')
    level = _integer(doc.get("level", 6), f"{pointer}/level")
    potential = parse_potential(doc["potential"], f"{pointer}/potential") \
        if "potential" in doc else PiecewisePotential()
    measure = parse_measure(doc["measure"], f"{pointer}/measure") \
        if "measure" in doc else SingularMeasure()
    problem = _build(pointer or "/", ProblemSpec, (a, b), bc[0], bc[1],
                     potential, measure, level)
    # every realized atom must own a jump slot in [a, b)
    parts = doc.get("measure", {})
    for where, reason in misplaced(
            [entry["x"] for entry in parts.get("atoms", [])],
            [entry["support"] for entry in parts.get("cantor", [])], a, b):
        raise SchemaError(f"{pointer}/measure/{where}", reason)
    return problem


_INF_NAMES = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf}


def parse_endpoint(doc, side, pointer) -> EndpointDescriptor:
    _check_keys(doc, pointer, required=("position",),
                optional=("measure_tv_finite", "p_square_integrable",
                          "q_class"))
    pos = doc["position"]
    if isinstance(pos, str):
        if pos not in _INF_NAMES:
            raise SchemaError(f"{pointer}/position",
                              'expected number or "+inf"/"-inf"')
        pos = _INF_NAMES[pos]
    else:
        pos = _number(pos, f"{pointer}/position")
    psq = doc.get("p_square_integrable")
    if psq is not None and not isinstance(psq, bool):
        raise SchemaError(f"{pointer}/p_square_integrable",
                          "expected boolean or null")
    tv = doc.get("measure_tv_finite", True)
    if not isinstance(tv, bool):
        raise SchemaError(f"{pointer}/measure_tv_finite", "expected boolean")
    return EndpointDescriptor(side, pos, tv, psq,
                              doc.get("q_class", "bounded"))


def parse_classify_config(doc) -> tuple[EndpointDescriptor, EndpointDescriptor]:
    _check_document(doc, "", ("classify",))
    body = doc["classify"]
    _check_keys(body, "/classify", required=("left", "right"))
    return (parse_endpoint(body["left"], "left", "/classify/left"),
            parse_endpoint(body["right"], "right", "/classify/right"))


def parse_criteria_config(doc):
    _check_document(doc, "", ("criteria",))
    body = doc["criteria"]
    _check_keys(body, "/criteria", required=("gaps", "potential"),
                optional=("epsilons", "prefix", "trend_factor"))
    gaps = [_pair(g, f"/criteria/gaps/{i}")
            for i, g in enumerate(body["gaps"])]
    structure = _build("/criteria/gaps", GapStructure, tuple(gaps))
    potential = parse_potential(body["potential"], "/criteria/potential")
    prefix = body.get("prefix")
    if prefix is not None:
        prefix = _integer(prefix, "/criteria/prefix")
        if prefix < 1:
            raise SchemaError("/criteria/prefix", "expected an integer >= 1")
    # each Molchanov window [x, x + epsilon] must fit in the gaps' span
    lo = min(a for (a, _) in gaps[:prefix])
    hi = max(b for (_, b) in gaps[:prefix])
    eps = tuple(_number(v, f"/criteria/epsilons/{i}")
                for i, v in enumerate(body.get("epsilons", [1.0])))
    for i, e in enumerate(eps):
        if not (e > 0.0 and hi - e > lo):
            raise SchemaError(f"/criteria/epsilons/{i}", "expected 0 < "
                              f"epsilon < {hi - lo}, the data window")
    factor = _number(body.get("trend_factor", 4.0), "/criteria/trend_factor")
    return structure, potential, eps, prefix, factor


def problem_hash(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def result_envelope(command: str, cfg_hash: str, seed: int | None,
                    result: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "problem": cfg_hash,
        "seed": seed,
        "tolerances": {},
        "result": result,
    }


def validate_result(doc) -> None:
    """Re-validate an emitted JSON result against the published envelope."""
    _check_document(doc, "", ("version", "command", "problem", "seed",
                              "tolerances", "result"))
    if not isinstance(doc["result"], dict):
        raise SchemaError("/result", "expected object")


def render_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_csv(header, rows, meta: dict) -> str:
    """Deterministic CSV: '#' metadata line, mandatory header, repr floats."""
    items = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    lines = [f"# {items}", ",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, float) else str(v)
            for v in row))
    return "\n".join(lines) + "\n"


def emit(text: str, out_path: str | None) -> None:
    """Write text to stdout (out_path None or "-") or to the file out_path."""
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
