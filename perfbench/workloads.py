"""Seeded workload generators.

Every op is a pure function of (workload, seed, op index): the same triple
always yields byte-identical config JSON and arguments.  Op *kinds* and
*sizes* follow a fixed cycle of CYCLE[workload] ops, and the seed draws only
the continuous parameters (masses, ratios, positions, potentials, z).  A
timed run executes whole cycles, so every run on every seed has the same
mix of op kinds.

Each op reads its own config, so no two ops share a realization and the
``realize_problem`` LRU cache gives no op work that a separate CLI process
would not get for free.
"""
from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cantor_deep", "wide_band", "resolvent_study", "signed_mix",
             "signed_hard")


def _r(x):
    return round(x, 6)


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def _potential(rng, lo, hi, a, b, max_breaks):
    nb = rng.randint(0, max_breaks)
    cuts = sorted({_r(rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a)))
                   for _ in range(nb)})
    values = [_r(rng.uniform(lo, hi)) for _ in range(len(cuts) + 1)]
    return {"breakpoints": cuts, "values": values}


def _atoms(rng, n, a, b, beta_lo, beta_hi, signs=(1.0,)):
    """n random atoms in [a, b]."""
    atoms = {}
    for _ in range(n):
        x = _r(rng.uniform(a, b))
        atoms[x] = _r(rng.choice(signs) * rng.uniform(beta_lo, beta_hi))
    return [{"x": x, "beta": atoms[x]} for x in sorted(atoms)]


def _cantor(rng, mass_lo, mass_hi, sign=1.0):
    return {"support": [0.0, 1.0],
            "mass": _r(sign * rng.uniform(mass_lo, mass_hi)),
            "ratio": _r(rng.uniform(0.2, 0.4)), "level_cap": 12}


def _config(interval, bc, level, potential=None, atoms=(), cantor=()):
    doc = {"schema": 1, "interval": list(interval), "bc": list(bc),
           "level": level}
    if potential is not None:
        doc["potential"] = potential
    measure = {}
    if atoms:
        measure["atoms"] = list(atoms)
    if cantor:
        measure["cantor"] = list(cantor)
    if measure:
        doc["measure"] = measure
    return doc


def _op(index, kind, config, args=(), lib=None):
    """One op: a CLI subcommand (args) or a library call (lib)."""
    return {"id": index, "kind": kind, "config": config, "args": list(args),
            "lib": lib}


# -- cantor_deep ------------------------------------------------------------
# (level, count) of the spectrum ops.  count * cells is held near 2.6e3 so
# every spectrum op costs about the same; the latency percentiles then sit
# inside one cluster instead of on the edge between two.
_CANTOR_SPECTRUM = ((8, 10), (9, 5), (10, 3), (12, 1), (8, 12), (9, 6))


def _cantor_deep(seed, index):
    rng = _rng("cantor_deep", seed, index)
    slot = index // 3
    if index % 3 == 0:
        level, count = _CANTOR_SPECTRUM[slot % len(_CANTOR_SPECTRUM)]
    else:
        level, count = 10, None
    cfg = _config((0.0, 1.0), ("dirichlet", "dirichlet"), level,
                  _potential(rng, 0.0, 4.0, 0.0, 1.0, 3),
                  _atoms(rng, rng.randint(0, 3), 0.02, 0.98, 0.05, 1.0),
                  [_cantor(rng, 0.25, 2.0)])
    if count is not None:
        return _op(index, "spectrum", cfg, ["spectrum", "--count", str(count)])
    t = _r(math.exp(rng.uniform(math.log(50.0), math.log(5000.0))))
    return _op(index, "count", cfg, lib={"fn": "counting_function", "t": t})


# -- wide_band --------------------------------------------------------------
def _wide_band(seed, index):
    rng = _rng("wide_band", seed, index)
    ell = _r(rng.uniform(20.0, 60.0))
    # the atom count sets the cells per sweep (1 to 5), so it follows the
    # cycle instead of the seed
    cfg = _config((0.0, ell), ("neumann", "dirichlet"), 1,
                  atoms=_atoms(rng, (index // 3) % 5, 0.5, ell - 0.5,
                               0.05, 2.0))
    phase = index % 3
    if phase == 0:
        # about n_target eigenpairs below t_hi (Weyl: n ~ ell sqrt(t) / pi)
        n_target = rng.uniform(400.0, 600.0)
        t_hi = _r((math.pi * n_target / ell) ** 2)
        return _op(index, "asymptotics", cfg,
                   ["asymptotics", "--window", f"{_r(t_hi / 100.0)},{t_hi}",
                    "--count", "5"])
    if phase == 2:
        z = f"{_r(rng.uniform(-100.0, 100.0))},{_r(rng.uniform(0.05, 100.0))}"
        return _op(index, "mfunction_z", cfg, ["mfunction", f"--z={z}"])
    r_lo = _r(math.exp(rng.uniform(math.log(10.0), math.log(1e3))))
    return _op(index, "mfunction_window", cfg,
               ["mfunction", "--window", f"{r_lo},{_r(r_lo * 1e4)}",
                "--count", "9"])


# -- resolvent_study --------------------------------------------------------
# (finest level, complex z?) per op.  Level 8 with real z is left out to keep
# one cycle short; level 8 with complex z is the costliest combination.
_RESOLVENT = ((7, False), (8, True), (7, True))


def _resolvent_study(seed, index):
    rng = _rng("resolvent_study", seed, index)
    finest, cplx = _RESOLVENT[index % len(_RESOLVENT)]
    cfg = _config((0.0, 1.0), ("dirichlet", "dirichlet"), finest,
                  atoms=_atoms(rng, rng.randint(0, 2), 0.05, 0.95, 0.05, 0.5),
                  cantor=[_cantor(rng, 0.25, 2.0)])
    if cplx:
        z = f"{_r(rng.uniform(-20.0, 20.0))},{_r(rng.uniform(0.5, 20.0))}"
    else:
        z = f"{_r(-rng.uniform(0.5, 20.0))}"
    return _op(index, "resolvent_study", cfg,
               ["resolvent-study", "--levels", f"2..{finest}", f"--z={z}"])


# -- signed_mix and signed_hard --------------------------------------------
# One generator, two parameter tables.  signed_mix keeps to the inputs on
# which the oracle-indexed route works today: spectrum ops only on [0, 1]
# and with a nonnegative Cantor part, atoms on [0, 1] of weight at least 0.3
# in size (weaker negative ones bind states deeper, about -4/beta^2, than
# the oracle's default mesh resolves), and Cantor ratios that keep every
# atom gap above the oracle's mesh floor of (b - a) * 2**-16.  signed_hard
# is the same cycle without those limits; today it fails a real share of
# its ops (NearSingularError on wide truncations and negative Cantor parts,
# MeshRefinementError on fine Cantor levels, a ValueError from a
# nonpositive norming constant).  Once the oracle-indexed route handles the
# full range, signed_mix can take signed_hard's table and signed_hard goes.
_SIGNED_KINDS = ("count", "kappa", "count", "spectrum", "count", "kappa")
_SIGNED_SHAPES = ("atoms01", "wide", "cantor")
_SIGNED_LEVELS = (6, 8, 10)
_SIGNED_LIMITS = {
    "signed_mix": {
        "atoms01_beta_min": 0.3,
        # smallest Cantor ratio per level that clears the mesh floor
        "ratio_floor": {6: 0.2, 8: 0.24, 10: 0.33},
        "spectrum_shapes": ("atoms01", "cantor"),
        "spectrum_negative_cantor": False,
    },
    "signed_hard": {
        "atoms01_beta_min": 0.05,
        "ratio_floor": {6: 0.2, 8: 0.2, 10: 0.2},
        "spectrum_shapes": _SIGNED_SHAPES,
        "spectrum_negative_cantor": True,
    },
}
# workloads whose ops may fail with a typed domain error without making the
# run incorrect; on every other workload any failed op does
EXPECTS_FAILURES = ("signed_hard",)


def _spread_atoms(rng, a, b, beta_lo, beta_hi, q_range, q_nonzero):
    """Mixed-sign atoms, one per equal slot of [a, b], and a potential.

    Atoms sit in the left part of their slot and potential steps in the
    right part, so no two nodes come close: the smallest gap, and with it
    the oracle's mesh and cost, stays within a small factor from op to op.
    The first atom is negative.
    """
    n = rng.randint(3, 6)
    width = (b - a) / n
    atoms = [{"x": _r(a + (k + rng.uniform(0.1, 0.4)) * width),
              "beta": _r((-1.0 if k == 0 else rng.choice((-1.0, 1.0)))
                         * rng.uniform(beta_lo, beta_hi))}
             for k in range(n)]
    steps = sorted(rng.sample(range(n), rng.randint(1 if q_nonzero else 0, 2)))
    potential = {"breakpoints": [_r(a + (k + rng.uniform(0.6, 0.9)) * width)
                                 for k in steps],
                 "values": [_r(rng.uniform(*q_range))
                            for _ in range(len(steps) + 1)]}
    if q_nonzero and not any(potential["values"]):
        potential["values"][0] = 1.0
    return atoms, potential


def _signed_problem(rng, limits, shape, level, q_nonzero, stratum, spectrum):
    if shape == "atoms01":
        atoms, q = _spread_atoms(rng, 0.05, 0.95, limits["atoms01_beta_min"],
                                 1.0, (-3.0, 3.0), q_nonzero)
        return _config((0.0, 1.0), ("dirichlet", "dirichlet"), level, q, atoms)
    if shape == "wide":
        w = _r(rng.uniform(5.0, 40.0))
        atoms, q = _spread_atoms(rng, -w / 2, w / 2, 0.2, 1.0, (-1.0, 1.0),
                                 q_nonzero)
        return _config((-w, w), ("dirichlet", "dirichlet"), level, q, atoms)
    # The ratio sets the smallest atom gap and so the oracle's mesh and
    # cost (about ratio**-(level-1)).  It comes from one of six strata,
    # rotating with the op, so every cycle holds the same mix of sizes.
    stratum = stratum % 6
    lo = limits["ratio_floor"][level]
    negative = stratum % 2 and (limits["spectrum_negative_cantor"]
                                or not spectrum)
    cantor = _cantor(rng, 0.25, 1.0, -1.0 if negative else 1.0)
    cantor["ratio"] = _r(lo + (stratum + rng.uniform(0.4, 0.6))
                         * (0.4 - lo) / 6)
    # the negative atom and the potential's step sit apart in the middle
    # Cantor gap (ratio, 1 - ratio), never next to a Cantor atom
    q = [_r(rng.uniform(-3.0, 3.0)), _r(rng.uniform(-3.0, 3.0))]
    if q_nonzero and q == [0.0, 0.0]:
        q[0] = 1.0
    return _config((0.0, 1.0), ("dirichlet", "dirichlet"), level,
                   {"breakpoints": [_r(rng.uniform(0.52, 0.56))], "values": q},
                   _atoms(rng, 1, 0.44, 0.48, 0.1, 0.5, (-1.0,)), [cantor])


def _signed(workload, seed, index):
    limits = _SIGNED_LIMITS[workload]
    rng = _rng(workload, seed, index)
    kind = _SIGNED_KINDS[index % len(_SIGNED_KINDS)]
    shape = _SIGNED_SHAPES[(index // 6) % 3]
    if kind == "spectrum" and shape not in limits["spectrum_shapes"]:
        shape = "atoms01"
    # spectrum ops shoot through every cell ~50 times per eigenvalue on top
    # of the oracle; at level 10 one op costs seconds and swamps the counts,
    # so they stay at level 6
    level = 6 if kind == "spectrum" else _SIGNED_LEVELS[(index // 18) % 3]
    cfg = _signed_problem(rng, limits, shape, level, kind == "kappa",
                          index + index // CYCLE[workload],
                          kind == "spectrum")
    if kind == "kappa":
        return _op(index, "kappa", cfg, ["kappa"])
    if kind == "spectrum":
        return _op(index, "spectrum", cfg,
                   ["spectrum", "--count", str(rng.randint(1, 4))])
    t = _r(rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(0.0, math.log(300.0))))
    return _op(index, "count", cfg, lib={"fn": "counting_function", "t": t})


CYCLE = {"cantor_deep": 3 * len(_CANTOR_SPECTRUM), "wide_band": 15,
         "resolvent_study": len(_RESOLVENT), "signed_mix": 54,
         "signed_hard": 54}

_GENERATORS = {"cantor_deep": _cantor_deep, "wide_band": _wide_band,
               "resolvent_study": _resolvent_study,
               "signed_mix": lambda s, i: _signed("signed_mix", s, i),
               "signed_hard": lambda s, i: _signed("signed_hard", s, i)}


def make_op(workload: str, seed: int, index: int) -> dict:
    """The index-th op of a workload; identical for identical arguments."""
    return _GENERATORS[workload](seed, index)


# A small op of each workload's kinds, run once during set-up so that lazy
# imports and first-call costs are paid before the timed phase.
_WARMUP = {
    "cantor_deep": lambda: _op(-1, "spectrum", _config(
        (0.0, 1.0), ("dirichlet", "dirichlet"), 4,
        cantor=[{"support": [0.0, 1.0], "mass": 1.0, "ratio": 0.3,
                 "level_cap": 12}]), ["spectrum", "--count", "2"]),
    "wide_band": lambda: _op(-1, "mfunction_window", _config(
        (0.0, 20.0), ("neumann", "dirichlet"), 1,
        atoms=[{"x": 3.0, "beta": 0.5}]),
        ["mfunction", "--window", "10,1e4", "--count", "3"]),
    "resolvent_study": lambda: _op(-1, "resolvent_study", _config(
        (0.0, 1.0), ("dirichlet", "dirichlet"), 3,
        cantor=[{"support": [0.0, 1.0], "mass": 1.0, "ratio": 0.3,
                 "level_cap": 12}]),
        ["resolvent-study", "--levels", "2..3", "--z=-1,1"]),
    "signed_mix": lambda: _op(-1, "spectrum", _config(
        (0.0, 1.0), ("dirichlet", "dirichlet"), 1,
        atoms=[{"x": 0.3, "beta": 0.4}, {"x": 0.5, "beta": -0.2}]),
        ["spectrum", "--count", "2"]),
}
_WARMUP["signed_hard"] = _WARMUP["signed_mix"]


def warmup_op(workload: str) -> dict:
    return _WARMUP[workload]()


def config_bytes(op: dict) -> bytes:
    """Canonical serialization of an op's config (what the program reads)."""
    return (json.dumps(op["config"], sort_keys=True, indent=1) + "\n").encode()
