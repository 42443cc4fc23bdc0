"""Identities of the exact count that need no oracle, as properties.

Each holds exactly for the operator, so the computed counts must agree at
every z that is not within rounding of an eigenvalue:
- rank-one interlacing: one more atom lifts the ban on one jump in the form
  domain, so it raises N(z) by 0 or 1, whatever its sign;
- power-of-two scaling: x -> 2^k x, beta -> 2^k beta, q -> 4^-k q sends
  every eigenvalue lambda to 4^-k lambda;
- mirror symmetry: x -> a + b - x, with the ends swapped;
- plan = walk: a Cantor run across the block plan has the zero count of
  the cell walk;
- batched = scalar: the z-batched counting sweep gives every shot's count,
  residual and log scale bit for bit;
- parity: every full run's count is even exactly where u(b) > 0, also
  within ulps of an eigenvalue.
Monotonicity in z is not among them: the one-sided count still reverses
near eigenvalues split by tunnelling.  The examples are derandomized, so
every run checks the same problems.
"""
import dataclasses
import importlib
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from deltaprime import (CantorSpec, PiecewisePotential, ProblemSpec,
                        SingularMeasure, eigenvalues, shoot)
from deltaprime.spectrum import solution_l2_norm

PROPAGATE = importlib.import_module("deltaprime.propagate")
SPECTRUM = importlib.import_module("deltaprime.spectrum")

FIXED = settings(derandomize=True, database=None, deadline=None)
BC = st.sampled_from(["dirichlet", "neumann"])
# atoms and q breakpoints sit on a 50-point grid strictly inside (a, b)
GRID = st.integers(1, 49)
SIGN = st.sampled_from([1.0, -1.0])
WEIGHT = st.builds(math.copysign, st.floats(0.1, 2.0), SIGN)
ZS = st.lists(st.floats(-150.0, 400.0), min_size=1, max_size=6)


@st.composite
def atomic_problems(draw):
    """Random ends and boundary conditions, signed atoms and 0-2 q steps."""
    a = draw(st.floats(-2.0, 2.0))
    length = draw(st.floats(0.5, 3.0))
    xs = [a + length * i / 50.0 for i in draw(st.sets(GRID, max_size=4))]
    cuts = [a + length * i / 50.0
            for i in sorted(draw(st.sets(GRID, max_size=2)))]
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    return ProblemSpec(
        (a, a + length), draw(BC), draw(BC),
        potential=PiecewisePotential(tuple(cuts), tuple(values)),
        measure=SingularMeasure.from_atoms(
            (x, draw(WEIGHT)) for x in sorted(xs)))


def count(problem, z):
    return shoot(problem, z).count


def with_measure(p, atoms):
    return ProblemSpec(p.interval, p.bc_left, p.bc_right, p.potential,
                       SingularMeasure.from_atoms(atoms))


@settings(FIXED, max_examples=120)
@given(atomic_problems(), st.integers(1, 49), WEIGHT, ZS)
def test_one_more_atom_raises_the_count_by_at_most_one(p, i, beta, zs):
    a, b = p.interval
    x = a + (b - a) * i / 50.0
    old = [(y, w) for (y, w) in p.measure.atoms if y != x]
    p_old, p_new = with_measure(p, old), with_measure(p, old + [(x, beta)])
    for z in zs:
        assert count(p_new, z) - count(p_old, z) in (0, 1), z


@settings(FIXED, max_examples=100)
@given(atomic_problems(), st.integers(-2, 2), ZS)
def test_power_of_two_scaling_keeps_the_count(p, k, zs):
    pot = p.potential
    scaled = ProblemSpec(
        tuple(math.ldexp(x, k) for x in p.interval), p.bc_left, p.bc_right,
        potential=PiecewisePotential(
            tuple(math.ldexp(x, k) for x in pot.breakpoints),
            tuple(math.ldexp(q, -2 * k) for q in pot.values)),
        measure=SingularMeasure.from_atoms(
            (math.ldexp(x, k), math.ldexp(w, k))
            for (x, w) in p.measure.atoms))
    for z in zs:
        assert count(scaled, math.ldexp(z, -2 * k)) == count(p, z), z


@settings(FIXED, max_examples=120)
@given(atomic_problems(), ZS)
def test_mirror_image_keeps_the_count(p, zs):
    a, b = p.interval
    pot = p.potential
    mirror = ProblemSpec(
        p.interval, p.bc_right, p.bc_left,
        potential=PiecewisePotential(
            tuple(a + b - x for x in reversed(pot.breakpoints)),
            tuple(reversed(pot.values))),
        measure=SingularMeasure.from_atoms(
            (a + b - x, w) for (x, w) in p.measure.atoms))
    for z in zs:
        assert count(mirror, z) == count(p, z), z


def near_eigenvalues(p, n=3, ulps=20):
    """Every float within ulps of each of the first n eigenvalues above
    min q - 1 of p with a Dirichlet right end, where u(b) changes sign:
    there the angle's count and u(b) round apart."""
    dirichlet = dataclasses.replace(p, bc_right="dirichlet")
    floor = min(p.potential.values) - 1.0
    zs = []
    for lam in eigenvalues(dirichlet, window=(floor, 1e5),
                           n_max=count(dirichlet, floor) + n,
                           with_norming=False).eigenvalues:
        z = lam
        for _ in range(ulps):
            z = math.nextafter(z, -math.inf)
        for _ in range(2 * ulps + 1):
            zs.append(z)
            z = math.nextafter(z, math.inf)
    return zs


def batched_shots(p, zs):
    """(count, residual, log_scale) of each z, from one batched sweep and
    from one shoot per z; floats by their bits (hex, signed zeros too)."""
    counts, residuals, scales = SPECTRUM._shoot_lanes(p, np.array(zs))
    batched = [(int(c), float(r).hex(), float(ls).hex())
               for c, r, ls in zip(counts, residuals, scales)]
    return batched, [(s.count, s.residual.hex(), s.log_scale.hex())
                     for s in (shoot(p, z) for z in zs)]


@settings(FIXED, max_examples=80)
@given(atomic_problems(), ZS, st.lists(st.floats(1.0, 300.0), max_size=3))
def test_batched_shots_are_the_scalar_shots(p, zs, depths):
    # the drawn z alone (often all above max q: one trig branch for every
    # lane); then z = q on each step, where w is exactly 0 (the series
    # branch), z far below min q, which rescales and is scaled past the
    # hyperbolic split, and the first z twice
    batched, scalar = batched_shots(p, zs)
    assert batched == scalar
    zs = zs + list(p.potential.values) + [
        min(p.potential.values) - 10.0 ** d for d in depths] + zs[:1]
    batched, scalar = batched_shots(p, zs)
    assert batched == scalar
    # within ulps of eigenvalues, where each lane's count follows its end
    # state as the scalar run's does
    batched, scalar = batched_shots(p, near_eigenvalues(p))
    assert batched == scalar


def test_batched_sweep_redoes_a_collapsed_stretch(monkeypatch):
    # at z = -4 the cosh/sinh form cancels the state past the atom to
    # exactly zero (as in test_propagate); each of the two lanes of z = -4
    # redoes its stretch in split form, as each of the two scalar walks does
    calls = []
    split = PROPAGATE._split_stretch

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(PROPAGATE, "_split_stretch", counted)
    for bc in ("dirichlet", "neumann"):
        calls.clear()
        p = ProblemSpec((-20.0, 20.0), bc, bc,
                        measure=SingularMeasure.from_atoms([(0.0, -1.0)]))
        batched, scalar = batched_shots(p, [-4.0, -1.0, -4.0, -1e6])
        assert batched == scalar
        assert len(calls) == 4


def test_batched_count_of_a_stretch_ending_on_a_zero():
    # a stretch entered at (S, -C), its own C and S at z, takes u to
    # exactly 0.0 at its end: a zero at b is not counted, one at an interior
    # node is; the second lane ends elsewhere.  Both runs are full runs
    # from (S, -C) of the problem with these cells
    for z, L in ((7.0, 2.5), (50.0, 0.3), (-3.0, 1.5)):
        C, S, _ = PROPAGATE._cs(z, L)
        for p in (ProblemSpec((0.0, L)), ProblemSpec((0.0, L + 1.0))):
            cells = PROPAGATE.realize_problem(p).cells
            u, u1, ls, zeros = PROPAGATE._count_sweep(
                cells, np.array([z, z + 1.0]), (S, -C, 0.0))
            for k, zk in enumerate((z, z + 1.0)):
                run = PROPAGATE.propagate(p, zk, PROPAGATE.StateVector(
                    S, -C))
                assert (u[k], u1[k], ls[k]) == run.state
                assert zeros[k] == run.zero_count, (z, L, k)


@st.composite
def cantor_problems(draw):
    """A Cantor part at levels 3-9 with q steps, explicit atoms and maybe a
    second Cantor part; every node foreign to a part splits its blocks."""
    cantor = st.builds(
        CantorSpec,
        st.tuples(st.floats(0.0, 0.3), st.floats(0.6, 1.0)),
        st.builds(math.copysign, st.floats(0.3, 1.5), SIGN),
        st.floats(0.15, 0.45))
    parts = draw(st.lists(cantor, min_size=1, max_size=2))
    cuts = sorted(draw(st.sets(st.floats(0.05, 0.95), max_size=3)))
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    atoms = draw(st.dictionaries(st.floats(0.01, 0.99), WEIGHT, max_size=2))
    return ProblemSpec(
        (0.0, 1.0), draw(BC), draw(BC),
        potential=PiecewisePotential(tuple(cuts), tuple(values)),
        measure=SingularMeasure(atoms=tuple(sorted(atoms.items())),
                                cantor_parts=tuple(parts)),
        level=draw(st.integers(3, 9)))


# Cantor levels up to 7 keep each run within a few hundred cells
@settings(FIXED, max_examples=60)
@given(st.one_of(atomic_problems(),
                 cantor_problems().filter(lambda p: p.level <= 7)))
def test_count_parity_follows_the_sign_of_u_at_b(p):
    # both launch states have half-turn index 0, so every full run ends on
    # u(b) > 0 after an even count and on u(b) < 0 after an odd one, also
    # where the angle's count and u(b) round apart; a Cantor problem runs
    # without a block plan and across its plan, whatever the cost rule says
    assert PROPAGATE._floor_turn(0.0, 1.0) == PROPAGATE._floor_turn(
        1.0, 0.0) == 0
    zs = near_eigenvalues(p)
    real = PROPAGATE.realize_problem(p)
    plans = [None, PROPAGATE._BlockPlan(p)] if p.measure.cantor_parts \
        else [None]
    try:
        for real.plan in plans:
            for z in zs:
                run = PROPAGATE.propagate(p, z)
                if run.state.u != 0.0:
                    assert (run.zero_count % 2 == 0) == (run.state.u > 0.0), \
                        (z, real.plan)
    finally:
        PROPAGATE.realize_problem.cache_clear()


@settings(FIXED, max_examples=40)
@given(cantor_problems(),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_plan_counts_as_the_cell_walk(p, ts):
    real = PROPAGATE.RealizedProblem(p)
    real.plan = PROPAGATE._BlockPlan(p)
    # log-spaced from min q - 1e4 up to 1e6, the range of the pinned grid
    z0 = min(p.potential.values) - 1e4
    for t in ts:
        z = z0 - 1.0 + (1e6 - z0 + 1.0) ** t
        walk = PROPAGATE._sweep(real.cells, z, p.launch(), True, count=True)
        got = PROPAGATE._plan_sweep(real, z, p.launch())
        assert got.zero_count == walk.zero_count, z


@st.composite
def deep_cantor_problems(draw):
    """One Cantor part at levels 6-10 of either sign, with q steps,
    explicit atoms and either right end."""
    part = CantorSpec(
        (draw(st.floats(0.0, 0.3)), draw(st.floats(0.6, 1.0))),
        math.copysign(draw(st.floats(0.3, 1.5)), draw(SIGN)),
        draw(st.floats(0.15, 0.45)))
    cuts = sorted(draw(st.sets(st.floats(0.05, 0.95), max_size=3)))
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    atoms = draw(st.dictionaries(st.floats(0.01, 0.99), WEIGHT, max_size=2))
    return ProblemSpec(
        (0.0, 1.0), "dirichlet", draw(BC),
        potential=PiecewisePotential(tuple(cuts), tuple(values)),
        measure=SingularMeasure(atoms=tuple(sorted(atoms.items())),
                                cantor_parts=(part,)),
        level=draw(st.integers(6, 10)))


# The n-th eigenvalue above min q - 1.  Below it, a negative Cantor mass
# binds its tunnelling clusters: pairs split far below float resolution,
# whose computed eigenvalues are no eigenvalues at working precision (the
# left and right solutions meet at an angle of 1e-11 to 1e-9), so their
# norming constants depend on the matching node and have no value to agree
# on.
@settings(FIXED, max_examples=30)
@given(deep_cantor_problems(), st.integers(1, 3))
def test_plan_norming_as_the_cell_walk(p, n):
    real = PROPAGATE.realize_problem(p)
    if real.plan is None:
        real.plan = PROPAGATE._BlockPlan(p)
    try:
        floor = min(p.potential.values) - 1.0
        lam = eigenvalues(p, window=(floor, 1e5), n_max=count(p, floor) + n,
                          with_norming=False).eigenvalues[-1]
        planned = solution_l2_norm(p, lam)
        real.plan = None
        walked = solution_l2_norm(p, lam)
    finally:
        PROPAGATE.realize_problem.cache_clear()
    assert abs(planned / walked - 1.0) < 1e-11, (lam, planned, walked)
