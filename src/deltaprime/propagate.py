"""Exact state propagation for (tau - z)u = 0 across cells and atoms.

The quasi-derivative state (u, u^[1]) evolves by closed-form 2x2 transfer
matrices: trig/hyperbolic flow on constant-potential stretches and the shear
u(x+) = u(x-) + beta*u^[1](x) at each measure atom (u^[1] is continuous
across atoms).  All matrices are unimodular.  Propagation renormalizes the
state beyond hyperbolic growth 1e100 and keeps the scale in log form, so
deep-z shooting never overflows; signs, zero counts and Weyl ratios are
scale-invariant.  Zero counts are oriented (a negative atom that flips the
sign of u counts -1), so they track the lifted Pruefer angle, which rises
with z whatever the signs of the atoms.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

from .errors import PropagationOverflowError
from .measures import SingularMeasure, realize

__all__ = [
    "PiecewisePotential",
    "ProblemSpec",
    "StateVector",
    "TransferMatrix",
    "atom_jump",
    "stretch_propagator",
    "propagate",
    "PropagationResult",
    "wronskian",
    "transfer_matrix",
    "cell_l2_integral",
]

RESCALE_LIMIT = 1e100
SERIES_THRESHOLD = 1e-8   # |w| L^2 below which the entire-series branch is used
EXP_SPLIT = 300.0         # hyperbolic phase beyond which factors are scaled


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant potential: values[i] on the i-th cell.

    breakpoints are the interior cut positions; values has one more entry.
    The first/last values extend to the ambient interval ends.
    """

    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need len(values) == len(breakpoints) + 1")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def value(self, x: float) -> float:
        return self.values[bisect.bisect_right(self.breakpoints, x)]

    def integral(self, x0: float, x1: float) -> float:
        """Exact integral of q over [x0, x1]."""
        if x1 < x0:
            return -self.integral(x1, x0)
        cuts = [x0] + [b for b in self.breakpoints if x0 < b < x1] + [x1]
        return math.fsum(
            self.value(0.5 * (lo + hi)) * (hi - lo)
            for lo, hi in zip(cuts, cuts[1:]))

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


@dataclass(frozen=True)
class ProblemSpec:
    """A realized spectral problem on a finite interval.

    Half-line and whole-line operators enter as wide truncations with the
    boundary condition imposed at the artificial endpoint; the truncation
    width is chosen per experiment.
    """

    interval: tuple[float, float]
    bc_left: str = "dirichlet"
    bc_right: str = "dirichlet"
    potential: PiecewisePotential = PiecewisePotential()
    measure: SingularMeasure = SingularMeasure()
    level: int = 6

    def __post_init__(self):
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("interval must be finite with a < b")
        for bc in (self.bc_left, self.bc_right):
            if bc not in ("dirichlet", "neumann"):
                raise ValueError(f"unknown boundary condition {bc!r}")
        if self.level < 0:
            raise ValueError("level must be nonnegative")

    @property
    def a(self) -> float:
        return self.interval[0]

    @property
    def b(self) -> float:
        return self.interval[1]

    def launch(self, from_left: bool = True) -> "StateVector":
        """Boundary state at the launch end: (0, 1) Dirichlet, (1, 0) Neumann."""
        bc = self.bc_left if from_left else self.bc_right
        return StateVector(0.0, 1.0) if bc == "dirichlet" \
            else StateVector(1.0, 0.0)

    def is_nonnegative_measure(self) -> bool:
        return all(w >= 0.0 for (_, w) in realize_problem(self).atoms)


class RealizedProblem:
    """Per-cell sweep data for one ProblemSpec at its refinement level.

    Cell i spans (nodes[i], nodes[i+1]) with length lengths[i] and potential
    qvals[i]; betas[i] is the weight of the atom at nodes[i], 0.0 if none.
    Realized atoms lie in [a, b), so each owns exactly one jump slot.
    negative_jumps counts the atoms that lower the zero count by one as
    z -> -inf.
    """

    def __init__(self, problem: ProblemSpec):
        a, b = problem.interval
        atoms = realize(problem.measure, problem.level)
        for (x, _) in atoms:
            if not (a <= x < b):
                raise ValueError(
                    f"realized atom at {x} outside [{a}, {b}) "
                    "(left-endpoint realizations may touch a)")
        cuts = {a, b}
        cuts.update(x for (x, _) in atoms)
        cuts.update(p for p in problem.potential.breakpoints if a < p < b)
        self.nodes = sorted(cuts)
        self.lengths = [hi - lo for lo, hi in zip(self.nodes, self.nodes[1:])]
        self.qvals = [problem.potential.value(0.5 * (lo + hi))
                      for lo, hi in zip(self.nodes, self.nodes[1:])]
        weight = dict(atoms)
        self.betas = [weight.get(x, 0.0) for x in self.nodes[:-1]]
        self.atoms = atoms
        self.a, self.b = a, b
        # as z -> -inf each negative atom flips u once, except one at a
        # under a Neumann left end, where u^[1] = 0
        self.negative_jumps = sum(
            w < 0.0 and not (x == a and problem.bc_left == "neumann")
            for (x, w) in atoms)


@functools.lru_cache(maxsize=128)
def realize_problem(problem: ProblemSpec) -> RealizedProblem:
    return RealizedProblem(problem)


@dataclass(frozen=True)
class StateVector:
    """Quasi-derivative state (u, u^[1]) with a log-scale factor.

    True values are u*exp(log_scale), u1*exp(log_scale).
    """

    u: complex | float
    u1: complex | float
    log_scale: float = 0.0

    def true_values(self):
        if self.log_scale > 700.0:
            raise PropagationOverflowError(
                "state magnitude exceeds double range; keep the log form")
        s = math.exp(self.log_scale)
        return self.u * s, self.u1 * s


@dataclass(frozen=True)
class TransferMatrix:
    """Unimodular 2x2 flow factor acting on column states (u, u^[1])."""

    a11: complex | float
    a12: complex | float
    a21: complex | float
    a22: complex | float
    log_scale: float = 0.0

    def det(self):
        """True determinant, including the extracted scale."""
        d = self.a11 * self.a22 - self.a12 * self.a21
        return d * math.exp(2.0 * self.log_scale)

    def apply(self, state: StateVector) -> StateVector:
        return StateVector(
            self.a11 * state.u + self.a12 * state.u1,
            self.a21 * state.u + self.a22 * state.u1,
            state.log_scale + self.log_scale)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
            self.log_scale + other.log_scale)


def _cs(w, L):
    """Scaled stretch kernels: cos(oL) = C*e^ls, sin(oL)/o = S*e^ls, o=sqrt(w).

    Entire in w; the series branch avoids cancellation near w = 0 and the
    scaled branch avoids overflow for large hyperbolic phases.
    """
    if abs(w) * L * L < SERIES_THRESHOLD:
        wl2 = w * L * L
        C = 1.0 - wl2 / 2.0 * (1.0 - wl2 / 12.0)
        S = L * (1.0 - wl2 / 6.0 * (1.0 - wl2 / 20.0))
        return C, S, 0.0
    if isinstance(w, complex):
        om = cmath.sqrt(w)
        m = om * L
        mu = abs(m.imag)
        if mu <= EXP_SPLIT:
            return cmath.cos(m), cmath.sin(m) / om, 0.0
        ea = cmath.exp(1j * m - mu)
        eb = cmath.exp(-1j * m - mu)
        return (ea + eb) / 2.0, (ea - eb) / (2j * om), mu
    if w > 0.0:
        om = math.sqrt(w)
        return math.cos(om * L), math.sin(om * L) / om, 0.0
    k = math.sqrt(-w)
    t = k * L
    if abs(t) <= EXP_SPLIT:
        return math.cosh(t), math.sinh(t) / k, 0.0
    e2 = math.exp(-2.0 * abs(t))
    sgn = 1.0 if t > 0 else -1.0
    return (1.0 + e2) / 2.0, sgn * (1.0 - e2) / (2.0 * k), abs(t)


def atom_jump(beta: float) -> TransferMatrix:
    """Jump factor at an atom of weight beta: u += beta*u^[1]."""
    return TransferMatrix(1.0, beta, 0.0, 1.0)


def stretch_propagator(length: float, q_val: float, z) -> TransferMatrix:
    """Closed-form flow over a constant-q stretch, entire in z."""
    if length <= 0.0:
        raise ValueError("stretch length must be positive")
    w = z - q_val
    C, S, ls = _cs(w, length)
    return TransferMatrix(C, S, -w * S, C, ls)


def _rescale(u, u1, log_scale):
    m = max(abs(u), abs(u1))
    if m > RESCALE_LIMIT or (0.0 < m < 1.0 / RESCALE_LIMIT):
        return u / m, u1 / m, log_scale + math.log(m)
    if m == 0.0:
        raise PropagationOverflowError("state collapsed to zero")
    return u, u1, log_scale


def _count_stretch_zeros(u, u1, w, L, u_end, closed):
    """Exact number of zeros of u on a stretch (real data).

    Zeros inside the stretch count; one exactly at its far end (u_end ==
    0.0) counts only if closed, i.e. the stretch ends at an interior node,
    where the next jump or stretch starts from u == 0 and does not count
    it.  A zero at the start never counts: the stretch before owns it, or
    it is the launch value.
    """
    if w > 0.0:
        om = math.sqrt(w)
        phi0 = math.atan2(om * u, u1)
        phi1 = phi0 + om * L
        hi = math.ceil(phi1 / math.pi) - 1
        if u_end == 0.0:
            # the end zero is the multiple of pi that phi1 rounds to
            hi = round(phi1 / math.pi) - (not closed)
        lo = math.floor(phi0 / math.pi) + 1
        return hi - lo + 1 if hi >= lo else 0
    # hyperbolic/linear: at most one zero, inside iff strict sign change
    return 1 if u * u_end < 0.0 or (closed and u_end == 0.0) else 0


@dataclass(frozen=True)
class PropagationResult:
    """Final state and the oriented zero count of a left-to-right run.

    zero_count is the integer part of the lifted Pruefer angle over pi:
    sign changes of u inside stretches count +1, those made by an atom
    count with the atom's sign (a negative atom also counts -1 when it
    leaves u == 0).
    """

    state: StateVector
    zero_count: int | None


def propagate(problem: ProblemSpec, z, init: StateVector | None = None,
              from_left: bool = True, x_from: float | None = None,
              x_to: float | None = None) -> PropagationResult:
    """Propagate a state across (part of) the interval.

    Atoms in [min(x), max(x)) are crossed; states carry left-limit values
    of u.  zero_count (exact oriented interior sign changes of u, atoms
    included; see PropagationResult) is returned for real z on
    left-to-right runs and None otherwise.
    Both run endpoints must lie in [a, b], in the run's direction.
    """
    real = realize_problem(problem)
    ends = (real.a, real.b) if from_left else (real.b, real.a)
    x0 = ends[0] if x_from is None else x_from
    x1 = ends[1] if x_to is None else x_to
    lo, hi = (x0, x1) if from_left else (x1, x0)
    if not real.a <= lo <= hi <= real.b:
        order = "x_from <= x_to" if from_left else "x_to <= x_from"
        raise ValueError(f"run {x0} -> {x1} needs a <= {order} <= b "
                         f"on [{real.a}, {real.b}]")
    if init is None:
        init = problem.launch(from_left)
    return _sweep(real, z, init, lo, hi, from_left,
                  count=from_left and not isinstance(z, complex))


def _apply_stretch(u, u1, ls, w, L):
    C, S, dls = _cs(w, L)
    nu, nu1 = C * u + S * u1, -w * S * u + C * u1
    if nu == 0.0 and nu1 == 0.0 and not isinstance(w, complex) and w < 0.0:
        return _split_stretch(u, u1, ls, w, L)
    return nu, nu1, ls + dls


def _split_stretch(u, u1, ls, w, L):
    """Hyperbolic stretch as ((u + u1/k)/2) e^{kL} + ((u - u1/k)/2) e^{-kL}.

    Used where the cosh/sinh form cancels a decaying state to exactly zero:
    the two exponentials are rebased on the larger one in log form.
    """
    k = math.sqrt(-w)
    t = k * L
    terms = ((0.5 * (u + u1 / k), t), (0.5 * (u - u1 / k), -t))
    m = max(math.log(abs(c)) + e for c, e in terms if c)
    grow, decay = (math.copysign(math.exp(math.log(abs(c)) + e - m), c)
                   if c else 0.0 for c, e in terms)
    return grow + decay, k * (grow - decay), ls + m


def _sweep(real, z, state, lo, hi, from_left, count=False, entries=None):
    """Cross the atoms in [lo, hi) and the stretches between, in one direction.

    The cells of the run are walked in the run's order.  Left to right each
    cell applies its jump +beta, rescales, then runs its stretch; right to
    left each cell runs its stretch backwards, then undoes its jump with
    -beta, so both directions end on left-limit values.  count adds up the
    oriented sign changes of u (real data, left to right only); a stretch
    that cancels a decaying state to zero is redone in split exponential
    form (_split_stretch); entries[i], when given, receives the state just
    before cell i's stretch.  Only the first and last cells of a run can be
    partial.
    """
    u, u1, ls = state.u, state.u1, state.log_scale
    zeros = 0 if count else None
    if lo == hi:
        return PropagationResult(StateVector(u, u1, ls), zeros)
    nodes, lengths, qvals, betas = real.nodes, real.lengths, real.qvals, \
        real.betas
    first = bisect.bisect_right(nodes, lo) - 1
    last = bisect.bisect_left(nodes, hi) - 1
    cells = range(first, last + 1) if from_left \
        else range(last, first - 1, -1)
    for i in cells:
        # an atom at the low end is crossed only if it sits on the node
        beta = betas[i] if i != first or lo == nodes[i] else 0.0
        if beta and from_left:
            up = u + beta * u1
            # a jump moves the Pruefer angle in the direction of beta
            if count and (u * up < 0.0 or (u == 0.0 and beta < 0.0)):
                zeros += 1 if beta > 0.0 else -1
            u, u1, ls = _rescale(up, u1, ls)
        if entries is not None:
            entries[i] = StateVector(u, u1, ls)
        L = lengths[i]
        if i == first or i == last:
            L = min(nodes[i + 1], hi) - max(nodes[i], lo)
        w = z - qvals[i]
        nu, nu1, ls = _apply_stretch(u, u1, ls, w, L if from_left else -L)
        if count:
            zeros += _count_stretch_zeros(u, u1, w, L, nu, i != last)
        u, u1, ls = _rescale(nu, nu1, ls)
        if beta and not from_left:
            u, u1, ls = _rescale(u - beta * u1, u1, ls)
    return PropagationResult(StateVector(u, u1, ls), zeros)


def cell_entry_states(problem: ProblemSpec, z, from_left: bool = True):
    """One full propagation from the problem's launch state at one end.

    Captures the state entering every cell.  Left-to-right: entry i is the
    state at nodes[i] *after* the atom there (the smooth value inside cell
    i).  Right-to-left: entry i is the left-limit state at nodes[i+1] as
    seen walking down from b.  Returns (entries, final_state); the cells are
    those of realize_problem(problem).
    """
    real = realize_problem(problem)
    entries: list[StateVector | None] = [None] * len(real.qvals)
    final = _sweep(real, z, problem.launch(from_left), real.a, real.b,
                   from_left, entries=entries).state
    return entries, final


def wronskian(s1: StateVector, s2: StateVector):
    """Modified Wronskian u1*u2^[1] - u1^[1]*u2 at a common location."""
    raw = s1.u * s2.u1 - s1.u1 * s2.u
    total = s1.log_scale + s2.log_scale
    if total > 700.0:
        raise PropagationOverflowError("wronskian scale exceeds double range")
    return raw * math.exp(total)


def transfer_matrix(problem: ProblemSpec, z, x0: float | None = None,
                    x1: float | None = None) -> TransferMatrix:
    """Ordered product of all factors over [x0, x1] (left to right)."""
    real = realize_problem(problem)
    x0 = real.a if x0 is None else x0
    x1 = real.b if x1 is None else x1
    s1 = propagate(problem, z, StateVector(1.0, 0.0), x_from=x0,
                   x_to=x1).state
    s2 = propagate(problem, z, StateVector(0.0, 1.0), x_from=x0,
                   x_to=x1).state
    # rebase both columns to the larger log scale; the smaller one shrinks
    ls = max(s1.log_scale, s2.log_scale)
    f1, f2 = math.exp(s1.log_scale - ls), math.exp(s2.log_scale - ls)
    return TransferMatrix(s1.u * f1, s2.u * f2, s1.u1 * f1, s2.u1 * f2, ls)


def cell_l2_integral(u, u1, w, L):
    """Exact integral of u(s)^2 over a stretch of length L (real data).

    u(s) = u*cos(om s) + u1*sin(om s)/om with om = sqrt(w); closed-form
    antiderivatives, series near w = 0.  Returns inf beyond double range.
    """
    C2, S2, ls2 = _cs(w, 2.0 * L)
    if ls2 != 0.0:
        return math.inf
    _, S1, _ = _cs(w, L)
    icc = L / 2.0 + S2 / 4.0
    ics = S1 * S1 / 2.0
    if abs(w) * L * L < 1e-6:
        iss = L ** 3 / 3.0 - w * L ** 5 / 15.0 + 2.0 * w * w * L ** 7 / 315.0
    else:
        iss = (L - S2 / 2.0) / (2.0 * w)
    return u * u * icc + 2.0 * u * u1 * ics + u1 * u1 * iss
