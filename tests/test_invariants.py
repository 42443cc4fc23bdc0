"""Identities of the exact count that need no oracle, as properties.

Each holds exactly for the operator, so the computed counts must agree at
every z that is not within rounding of an eigenvalue:
- rank-one interlacing: one more atom lifts the ban on one jump in the form
  domain, so it raises N(z) by 0 or 1, whatever its sign;
- power-of-two scaling: x -> 2^k x, beta -> 2^k beta, q -> 4^-k q sends
  every eigenvalue lambda to 4^-k lambda;
- mirror symmetry: x -> a + b - x, with the ends swapped;
- plan = walk: a Cantor run across the block plan has the zero count of
  the cell walk.
Monotonicity in z is not among them: the one-sided count still reverses
near eigenvalues split by tunnelling.  The examples are derandomized, so
every run checks the same problems.
"""
import importlib
import math

from hypothesis import given, settings, strategies as st

from deltaprime import (CantorSpec, PiecewisePotential, ProblemSpec,
                        SingularMeasure, eigenvalues, shoot)
from deltaprime.spectrum import solution_l2_norm

PROPAGATE = importlib.import_module("deltaprime.propagate")

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


@settings(FIXED, max_examples=40)
@given(cantor_problems(),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_plan_counts_as_the_cell_walk(p, ts):
    real = PROPAGATE.RealizedProblem(p)
    plan = PROPAGATE._BlockPlan(p, real)
    # log-spaced from min q - 1e4 up to 1e6, the range of the pinned grid
    z0 = min(p.potential.values) - 1e4
    for t in ts:
        z = z0 - 1.0 + (1e6 - z0 + 1.0) ** t
        walk = PROPAGATE._sweep(real, z, p.launch(), real.a, real.b, True,
                                count=True)
        got = PROPAGATE._plan_sweep(real, plan, z, p.launch())
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
        real.plan = PROPAGATE._BlockPlan(p, real)
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
