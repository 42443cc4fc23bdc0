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

_sweep is the one walk over the realized cells at one z; _count_sweep runs a
plan-less full left-to-right run at many real z at once, bit for bit (the
eigenvalue search of many indices).  A realization with a Cantor part also
carries a z-independent block plan (_BlockPlan): each subtree of a Cantor
construction tree whose span holds no foreign node (a q breakpoint or the end
b inside it, an explicit atom or an atom of another Cantor part on it) is one
block of its family (one per part and q value), B_0 =
stretch(r^L*len)*jump(m/2^L) and B_h = B_{h-1}*stretch(gap_h)*B_{h-1}; a
subtree that holds a foreign node splits into its children, down to single
cells.  A full left-to-right run at real z crosses the plan's top-level
segments, or [a, b] as one walk segment (_plan_sweep): each block as one
factor with its log scale and the lifted angle of a reference vector, the
cells between blocks as runs of _sweep, whose counts, snapped to the parity
of their end states, add to the run's half-turn index.  The two runs of a
norming constant, from a and from b, cross the plan too: each block also
carries its Gram form G, with int u^2 = v^T G v over the block for its entry
state v, composed as G_{g*f} = G_f + M_f^T G_g M_f; the factors and the Gram
towers of the last 16 (plan, z) are kept.  Both run kinds cross a block that
fails its rounding test as its halves and gap, or walk it whole at up to 2^3
cells.  Every other run walks the cells (a partial run keeps _sweep's count).
A plan is kept only where 8*blocks + 3*segments < plan.cells, the cells its
blocks stand for: one cost rule on the plan's own counts, decided before any
span is realized.  A walk crosses one whole span: a plan's walk run the cells
of its own (RealizedProblem.span), a partial run those of its [lo, hi], built
for it alone, so no realization crossed on its plan builds the 2^L cell lists
of [a, b].  The consumers of all of [a, b] (full right-to-left and complex-z
runs, cell_entry_states, the Green kernel, the Galerkin oracle) build them on
first access.  States are tuples (StateVector and PropagationResult are
NamedTuples).
"""
from __future__ import annotations

import bisect
import cmath
import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PropagationOverflowError
from .measures import SingularMeasure, check_placement, realize

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
PLAN_SLACK = 64.0         # ulps per cell a block's image may be off by
# a plan run walks a block of up to 2^3 cells that fails its test as one
# run: cheaper than its halves, gaps and leaves (deep negative masses)
_WALK_HEIGHT = 3
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022      # least normal: 2^-k of a smaller entry can overflow
_SPLIT = 134217729.0      # 2^27 + 1, Dekker's splitter
_LN2 = math.log(2.0)

_log = logging.getLogger("deltaprime")


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
        if not all(map(math.isfinite, (*self.breakpoints, *self.values))):
            raise ValueError("potential breakpoints and values must be finite")

    def value(self, x: float) -> float:
        return self.values[bisect.bisect_right(self.breakpoints, x)]

    def pieces(self, x0: float, x1: float) -> list:
        """The pieces (lo, hi, q) of [x0, x1], q read at each left end."""
        cuts = [x0] + [b for b in self.breakpoints if x0 < b < x1] + [x1]
        return [(lo, hi, self.value(lo)) for lo, hi in zip(cuts, cuts[1:])]

    def integral(self, x0: float, x1: float) -> float:
        """Exact integral of q over [x0, x1]."""
        if x1 < x0:
            return -self.integral(x1, x0)
        return math.fsum(q * (hi - lo) for lo, hi, q in self.pieces(x0, x1))

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
        return realize_problem(self).nonnegative


class _Cells(NamedTuple):
    """The cells of a span [lo, hi]: cell i spans (nodes[i], nodes[i+1]),
    nodes[0] = lo and nodes[-1] = hi, with length lengths[i] and potential
    qvals[i]; betas[i] is the weight of the atom at nodes[i], 0.0 if none."""

    nodes: list
    lengths: list
    qvals: list
    betas: list


def _cells(problem: ProblemSpec, lo: float, hi: float) -> _Cells:
    """The cells of [lo, hi] cut by the realized atoms in [lo, hi) and the
    q breakpoints inside: the cells of [a, b] clipped to [lo, hi], float
    for float.  A cell's q is read at its left end x (value is
    right-continuous: the q of [x, y), also for a cell an ulp long)."""
    atoms = realize(problem.measure, problem.level, lo, hi)
    cuts = {lo, hi}
    cuts.update(x for (x, _) in atoms)
    cuts.update(p for p in problem.potential.breakpoints if lo < p < hi)
    nodes = sorted(cuts)
    lengths = [y - x for x, y in zip(nodes, nodes[1:])]
    qvals = [problem.potential.value(x) for x in nodes[:-1]]
    weight = dict(atoms)
    return _Cells(nodes, lengths, qvals,
                  [weight.get(x, 0.0) for x in nodes[:-1]])


class RealizedProblem:
    """Sweep data for one ProblemSpec at its refinement level.

    cells, the _Cells of [a, b] (its lists also read as the attributes
    nodes, lengths, qvals and betas, and as atoms, the realized (position,
    weight) pairs), is built on first access: a problem crossed on its
    block plan (plan, or None) never builds it, only the cells of the spans
    its walk runs cross (span; a partial run's are not kept).  A plan whose
    blocks cost no less than the cells they stand for is dropped before
    any span is realized.
    Realized atoms lie in [a, b) (check_placement): each owns one jump slot.
    negative_jumps counts the atoms that lower the zero count by one as
    z -> -inf; nonnegative says that no atom is negative.
    """

    def __init__(self, problem: ProblemSpec):
        self.a, self.b = a, b = problem.interval
        self._problem, self._spans = problem, {}
        check_placement(problem.measure, a, b)
        plan = _BlockPlan(problem) if problem.measure.cantor_parts else None
        if plan is not None:
            _log.debug("block plan: %d blocks, %d top-level segments, "
                       "depth %d, %d foreign nodes, %d cells", plan.blocks,
                       len(plan.segments), plan.depth, plan.foreign,
                       plan.cells)
            # a cell step takes about 1.6 us (CPython, 2 shared CPUs), a
            # block about 13 us, a segment up to 4 us beyond its run's cells:
            # a level-5 staircase (6 blocks, 32 cells) keeps the walk, level
            # 6 takes the plan.  Walk runs cost alike on both routes (but for
            # one split cell), and blocks crossed as halves (near eigenvalues
            # of negative masses: up to 229 leaves per level-12 shot) stay out
            if 8 * plan.blocks + 3 * len(plan.segments) >= plan.cells:
                plan = None
        self.plan = plan
        segments = ((a, b),) if plan is None else plan.segments
        # the blocks' negative atoms and those of the walk runs, realized here
        negative = (0 if plan is None else plan.negative) + sum(
            w < 0.0 for seg in segments if len(seg) == 2
            for w in self.span(*seg).betas)
        first = segments[0]
        weight_a = self.span(*first).betas[0] if len(first) == 2 \
            else plan.families[first[2]][0]
        # as z -> -inf each negative atom flips u once, except one at a
        # under a Neumann left end, where u^[1] = 0
        self.negative_jumps = negative - (
            weight_a < 0.0 and problem.bc_left == "neumann")
        self.nonnegative = negative == 0

    @functools.cached_property
    def cells(self) -> _Cells:
        """The cells of [a, b], built on first access."""
        return _cells(self._problem, self.a, self.b)

    nodes = property(lambda self: self.cells.nodes)
    lengths = property(lambda self: self.cells.lengths)
    qvals = property(lambda self: self.cells.qvals)
    betas = property(lambda self: self.cells.betas)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(x, w) for x, w in zip(self.nodes, self.betas) if w]

    def span(self, lo: float, hi: float) -> _Cells:
        """The cells of [lo, hi] (_cells), kept per span; cells for [a, b]."""
        if (lo, hi) == (self.a, self.b):
            return self.cells
        cells = self._spans.get((lo, hi))
        if cells is None:
            cells = self._spans[lo, hi] = _cells(self._problem, lo, hi)
        return cells


@functools.lru_cache(maxsize=128)
def realize_problem(problem: ProblemSpec) -> RealizedProblem:
    return RealizedProblem(problem)


class StateVector(NamedTuple):
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
    if w * L * L >= SERIES_THRESHOLD:
        om = math.sqrt(w)
        phi0 = math.atan2(om * u, u1)
        phi1 = phi0 + om * L
        hi = math.ceil(phi1 / math.pi) - 1
        if u_end == 0.0:
            # the end zero is the multiple of pi that phi1 rounds to
            hi = round(phi1 / math.pi) - (not closed)
        lo = math.floor(phi0 / math.pi) + 1
        return hi - lo + 1 if hi >= lo else 0
    # hyperbolic, or short enough for the series branch of _cs (om*L <
    # 1e-4), where the angle near pi can miss the zero: at most one zero,
    # inside iff strict sign change
    return 1 if u * u_end < 0.0 or (closed and u_end == 0.0) else 0


class PropagationResult(NamedTuple):
    """Final state and the oriented zero count of a left-to-right run.

    zero_count is the integer part of the lifted Pruefer angle over pi:
    sign changes of u inside stretches count +1, those made by an atom
    count with the atom's sign (a negative atom also counts -1 when it
    leaves u == 0, a positive one +1 when it lands on u == 0).
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
    Both run endpoints must lie in [a, b], in the run's direction.  A full
    left-to-right run at real z is _plan_sweep's (across the plan, where
    there is one; shoot's count, even exactly where u(b) > 0); every other
    run walks the cells (a partial run's own cells only).
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
    full = (lo, hi) == (real.a, real.b)
    count = from_left and not isinstance(z, complex)
    if full and count:
        return _plan_sweep(real, z, init)
    cells = real.cells if full else _cells(problem, lo, hi)
    return _sweep(cells, z, init, from_left, count)


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


def _sweep(cells, z, state, from_left, count=False, record=None):
    """Cross all of cells (a _Cells) in one direction: each atom and the
    stretch after it.

    state is any (u, u1, log_scale) triple.  Left to right each cell
    applies its jump +beta, rescales, then runs its stretch; right to left
    each cell runs its stretch backwards, then undoes its jump with -beta,
    so both directions end on left-limit values.  count adds up the
    oriented sign changes of u (real data, left to right only); a stretch
    that cancels a decaying state to zero is redone in split exponential
    form (_split_stretch).  record, when given, receives a record (x, at,
    w, L, entry) per cell in crossing order: its start x = nodes[i],
    w = z - q, its length, the (u, u1, log_scale) triple just before its
    stretch, and at the state at x past an atom there (entry left to right,
    the backward stretch's image before the jump is undone right to left).
    """
    u, u1, ls = state
    zeros = 0 if count else None
    nodes, lengths, qvals, betas = cells
    last = len(lengths) - 1
    for i in range(last + 1) if from_left else range(last, -1, -1):
        beta = betas[i]
        if beta and from_left:
            up = u + beta * u1
            # a jump moves the Pruefer angle in the direction of beta: it
            # crosses a multiple of pi where u changes sign, leaves u == 0
            # downwards or reaches it upwards
            if count and (u * up < 0.0 or (u == 0.0 and beta < 0.0)
                          or (up == 0.0 and beta > 0.0)):
                zeros += 1 if beta > 0.0 else -1
            u, u1, ls = _rescale(up, u1, ls)
        L = lengths[i]
        w = z - qvals[i]
        nu, nu1, nls = _apply_stretch(u, u1, ls, w, L if from_left else -L)
        if record is not None:
            entry = (u, u1, ls)
            record.append((nodes[i], entry if from_left else (nu, nu1, nls),
                           w, L, entry))
        if count:
            zeros += _count_stretch_zeros(u, u1, w, L, nu, i != last)
        u, u1, ls = _rescale(nu, nu1, nls)
        if beta and not from_left:
            u, u1, ls = _rescale(u - beta * u1, u1, ls)
    return PropagationResult(StateVector(u, u1, ls), zeros)


def _mapped(f, *arrays):
    """f of math applied element by element: numpy's exp, log, cosh, sinh
    and arctan2 can differ from math's in the last bit."""
    return np.fromiter(map(f, *(x.tolist() for x in arrays)), float,
                       len(arrays[0]))


def _cs_lanes(w, L):
    """_cs(w_i, L_i) on every lane of the real array w, bit for bit: the
    arrays (C, S, ls) and trig, the lanes of its trig branch (a slice where
    that is every lane, else a mask).  L is a float or an array like w, of
    either sign.  numpy does only IEEE-exact operations, math the rest
    (_mapped), each branch on its own lanes (w L^2 rounds like |w| L^2)."""
    L = np.broadcast_to(L, w.shape)
    wl2 = w * L * L
    trig = slice(None) if wl2.min() >= SERIES_THRESHOLD \
        else wl2 >= SERIES_THRESHOLD
    C, S, ls = np.empty_like(w), np.empty_like(w), np.zeros_like(w)
    om = np.sqrt(w[trig])
    phase = om * L[trig]
    C[trig] = _mapped(math.cos, phase)
    S[trig] = _mapped(math.sin, phase) / om
    if isinstance(trig, slice):
        return C, S, ls, trig
    near = np.abs(wl2) < SERIES_THRESHOLD
    y = wl2[near]
    C[near] = 1.0 - y / 2.0 * (1.0 - y / 12.0)
    S[near] = L[near] * (1.0 - y / 6.0 * (1.0 - y / 20.0))
    hyp = np.flatnonzero(wl2 <= -SERIES_THRESHOLD)
    k = np.sqrt(-w[hyp])
    t = k * L[hyp]
    low = np.abs(t) <= EXP_SPLIT
    C[hyp[low]] = _mapped(math.cosh, t[low])
    S[hyp[low]] = _mapped(math.sinh, t[low]) / k[low]
    high, t, k = hyp[~low], t[~low], k[~low]
    e2 = _mapped(math.exp, -2.0 * np.abs(t))
    C[high] = (1.0 + e2) / 2.0
    S[high] = np.copysign(1.0 - e2, t) / (2.0 * k)
    ls[high] = np.abs(t)
    return C, S, ls, trig


def _rescale_lanes(u, u1, ls):
    """_rescale on every lane of the arrays (u, u1, ls)."""
    m = np.maximum(np.abs(u), np.abs(u1))
    if m.max() <= RESCALE_LIMIT and m.min() >= 1.0 / RESCALE_LIMIT:
        return u, u1, ls
    if not m.all():
        raise PropagationOverflowError("state collapsed to zero")
    far = np.flatnonzero((m > RESCALE_LIMIT) | (m < 1.0 / RESCALE_LIMIT))
    u, u1, ls = u.copy(), u1.copy(), ls.copy()
    u[far] /= m[far]
    u1[far] /= m[far]
    ls[far] += _mapped(math.log, m[far])
    return u, u1, ls


def _count_sweep(cells, zs, state):
    """propagate(problem, z, state) at every real z of the array zs at
    once, for a problem without a block plan (cells its _Cells of [a, b]).

    Returns the arrays (u, u1, ls) of the final states and the zero counts,
    each bit for bit the scalar run's: numpy does only IEEE-exact
    operations, math the rest (_mapped), and each branch of _cs_lanes,
    _rescale and _count_stretch_zeros runs on its own lanes (all of them,
    as a slice, where one branch takes every lane), so no lane computes
    what its scalar walk does not.  A stretch that cancels a decaying state
    to zero is redone by _split_stretch on its lane.  Products whose sign
    alone is read may overflow to inf, as Python's floats do.
    """
    u, u1, ls = (np.full(len(zs), float(v)) for v in state)
    zeros = np.zeros(len(zs), dtype=np.int64)
    last = len(cells.lengths) - 1
    for i, (L, q, beta) in enumerate(zip(cells.lengths, cells.qvals,
                                         cells.betas)):
        if beta:
            up = u + beta * u1
            with np.errstate(over="ignore"):
                flip = (u * up < 0.0) | ((up if beta > 0.0 else u) == 0.0)
            zeros += flip if beta > 0.0 else -flip.astype(np.int64)
            u, u1, ls = _rescale_lanes(up, u1, ls)
        w = zs - q
        C, S, dls, trig = _cs_lanes(w, L)
        rest = None if isinstance(trig, slice) else ~trig
        nu, nu1 = C * u + S * u1, -w * S * u + C * u1
        nls = ls + dls
        if rest is not None:
            for j in np.flatnonzero(rest & (nu == 0.0) & (nu1 == 0.0)
                                    & (w < 0.0)):
                nu[j], nu1[j], nls[j] = _split_stretch(
                    float(u[j]), float(u1[j]), float(ls[j]), float(w[j]), L)
        # _count_stretch_zeros: from the angle on the trig lanes (the
        # integers hi - lo + 1 there, exact in floats), by the sign change
        # of u elsewhere
        closed = i != last
        om = np.sqrt(w[trig])
        phi0 = _mapped(math.atan2, om * u[trig], u1[trig])
        phi1 = phi0 + om * L
        hi = np.ceil(phi1 / math.pi) - 1.0
        end = nu[trig] == 0.0
        if end.any():
            hi[end] = np.rint(phi1[end] / math.pi) - (not closed)
        n = np.maximum(hi - (np.floor(phi0 / math.pi) + 1.0) + 1.0, 0.0)
        if rest is None:
            zeros += n.astype(np.int64)
        else:
            with np.errstate(over="ignore"):
                flip = (u * nu < 0.0) | (closed & (nu == 0.0))
            zeros[trig] += n.astype(np.int64)
            zeros[rest] += flip[rest]
        u, u1, ls = _rescale_lanes(nu, nu1, nls)
    # _plan_sweep's walk-run rule: the count follows the end state
    d = (_floor_turn(*state[:2]) + zeros
         - np.where(u < 0.0, -1, (u == 0.0) & (u1 < 0.0))) % 2
    return u, u1, ls, zeros + np.where(u * u1 >= 0.0, d, -d) - (u == 0.0)


class _BlockPlan:
    """The z-independent block plan of a realization with Cantor parts.

    Each Cantor part's construction tree is cut into maximal subtrees whose
    span [lo, hi) holds no foreign node: no q breakpoint, end a or b inside
    (lo, hi), and no explicit atom or atom of another part in [lo, hi).  A
    subtree of height h is the block B_h of its family (one per part and q
    value): B_0 = stretch(leaf)*jump(beta), B_h =
    B_{h-1}*stretch(gaps[h-1])*B_{h-1}.  families[k] = (beta, leaf, gaps,
    q, part), part the CantorSpec whose split cuts its blocks; segments run
    from a to b, (lo, hi, k, h) for the block B_h of family k on [lo, hi)
    and (x, y) for a run of the cell walk, which walks the cells of
    RealizedProblem.span(x, y); cells and negative count the cells and
    negative atoms of the blocks.  The descent reads the other parts' atoms
    inside each part's support only: O(level) per foreign node.
    """

    def __init__(self, problem: ProblemSpec):
        (a, b), level = problem.interval, problem.level
        parts = problem.measure.cantor_parts
        cuts = sorted({a, b}.union(p for p in problem.potential.breakpoints
                                   if a < p < b))
        explicit = [x for x, _ in problem.measure.atoms]
        # the explicit atoms and the other parts' atoms inside each part's
        # support: only these can split its blocks
        foreign = [sorted(explicit + [
            x for j, other in enumerate(parts) if j != k
            for x, _ in other.atoms(level, *part.support)])
            for k, part in enumerate(parts)]
        self.foreign = len(set(cuts).union(*foreign))
        heights: dict[tuple[int, float], int] = {}   # (part, q) -> top
        placed = []
        self.cells = self.negative = 0
        for k, part in enumerate(parts):
            part.check_level(level)
            others = foreign[k]
            beta, distinct = part.mass / 2 ** level, part.distinct(level)
            stack = [(*part.support, 0)]
            while stack:
                lo, hi, depth = stack.pop()
                i = bisect.bisect_left(others, lo)
                j = bisect.bisect_right(cuts, lo)
                if not ((i < len(others) and others[i] < hi)
                        or (j < len(cuts) and cuts[j] < hi)):
                    key = (k, problem.potential.value(lo))
                    heights[key] = max(heights.get(key, 0), level - depth)
                    placed.append((lo, hi, key, level - depth))
                    # its part's 2^h atoms, or its distinct ones
                    n = 2 ** (level - depth) if distinct else len(
                        {x for x, _ in part.atoms(level, lo, hi)})
                    self.cells += n if beta else lo in cuts
                    self.negative += n if beta < 0.0 else 0
                elif depth < level:     # the first child is popped first
                    stack.extend((*child, depth + 1) for child
                                 in reversed(part.split([(lo, hi)])))
        self.families = []
        for (k, q), top in heights.items():
            part = parts[k]
            # construction lengths by depth; B_h spans lengths[level - h]
            lengths = [part.support[1] - part.support[0]]
            for _ in range(level):
                lengths.append(lengths[-1] * part.ratio)
            gaps = [lengths[level - h] - 2.0 * lengths[level - h + 1]
                    for h in range(1, top + 1)]
            self.families.append((part.mass / 2 ** level, lengths[level],
                                  gaps, q, part))
        index = {key: n for n, key in enumerate(heights)}
        self.segments = []
        x = a
        for lo, hi, key, h in sorted(placed):
            if x < lo:
                self.segments.append((x, lo))
            self.segments.append((lo, hi, index[key], h))
            x = hi
        if x < b:
            self.segments.append((x, b))
        self.blocks = sum(len(f[2]) + 1 for f in self.families)
        self.depth = level


# A lifted factor is a tuple (a11, a12, a21, a22, l11, l12, l21, l22, ls,
# turn, err, s): a double-double matrix (a + l) times exp(ls), scaled by a
# power of two to largest entry in [1/2, 1) in the energy metric |(u,
# u^[1])| = max(|s*u|, |u^[1]|), so that its determinant is exp(-2*ls) in
# exact arithmetic; turn is the lifted Pruefer angle atan2(u, u^[1]) of the
# image of v0 = (0, 1); err bounds the rounding of the double-double
# entries in units of that largest entry.  _compose forms each entry c + d
# of g*f from the exact products of the leading parts (Dekker's split into
# 26-bit halves, once per entry of g and f) and Knuth's two-sum of the two
# products; the products' errors and the cross terms with the low parts
# are rounded once each in one left-to-right sum, and c + d is renormed by
# a fast two-sum.  The low parts' own products are dropped; each
# composition adds one double-double rounding, _EPS**2 relative, to the
# err of its factors (a stretch or a jump starts at _EPS**2).
_LS, _TURN, _ERR, _S = range(8, 12)


def _factor(a11, a12, a21, a22, ls, turn, s):
    """The lifted factor of the double matrix a times exp(ls)."""
    m = max(abs(a11), abs(a12 * s), abs(a21 / s), abs(a22))
    if not _TINY <= m < math.inf:
        # cancelled or overflowed beyond use: crossed by its parts only
        return (a11, a12, a21, a22, 0.0, 0.0, 0.0, 0.0, ls, turn, math.inf, s)
    k = math.frexp(m)[1]
    c = math.ldexp(1.0, -k)
    return (a11 * c, a12 * c, a21 * c, a22 * c, 0.0, 0.0, 0.0, 0.0,
            ls + k * _LN2, turn, _EPS * _EPS, s)


def _stretch_factor(w, L, s):
    C, S, ls = _cs(w, L)
    # the angle of (S, C) lies in the quadrant of the modified angle
    # atan2(om*u, u^[1]) of the image, which rises by om*L
    phi = math.atan2(S, C)
    rise = math.sqrt(w) * L if w > 0.0 else 0.0
    turn = phi + 2.0 * math.pi * round((rise - phi) / (2.0 * math.pi))
    return _factor(C, S, -w * S, C, ls, turn, s)


def _jump_factor(beta, s):
    return _factor(1.0, beta, 0.0, 1.0, 0.0, math.atan2(beta, 1.0), s)


def _compose(g, f):
    """The lifted factor g*f (f first), normed in f's metric.

    Blocks of one family reuse their halves, so a rounding error of B_h
    recurs in all 2^(L-h) copies; double-double entries keep that below
    the rounding of one cell step.  The four dot products, _lift of v0's
    image and _factor's normalisation are written out in one step, in
    their order of operations: the towers of _plan_factors, most of a
    plan shoot, are made of these steps.
    """
    g11, g12, g21, g22, m11, m12, m21, m22, gls, gturn, gerr, _ = g
    f11, f12, f21, f22, n11, n12, n21, n22, fls, fturn, ferr, s = f
    t = _SPLIT * g11
    gh11 = t - (t - g11)
    gl11 = g11 - gh11
    t = _SPLIT * g12
    gh12 = t - (t - g12)
    gl12 = g12 - gh12
    t = _SPLIT * g21
    gh21 = t - (t - g21)
    gl21 = g21 - gh21
    t = _SPLIT * g22
    gh22 = t - (t - g22)
    gl22 = g22 - gh22
    t = _SPLIT * f11
    fh11 = t - (t - f11)
    fl11 = f11 - fh11
    t = _SPLIT * f12
    fh12 = t - (t - f12)
    fl12 = f12 - fh12
    t = _SPLIT * f21
    fh21 = t - (t - f21)
    fl21 = f21 - fh21
    t = _SPLIT * f22
    fh22 = t - (t - f22)
    fl22 = f22 - fh22
    # c11 = g11*f11 + g12*f21
    p = g11 * f11
    q = g12 * f21
    hi = p + q
    v = hi - p
    lo = ((p - (hi - v)) + (q - v)) \
        + (((gh11 * fh11 - p) + gh11 * fl11 + gl11 * fh11) + gl11 * fl11) \
        + (((gh12 * fh21 - q) + gh12 * fl21 + gl12 * fh21) + gl12 * fl21) \
        + (g11 * n11 + m11 * f11) + (g12 * n21 + m12 * f21)
    c11 = hi + lo
    d11 = lo - (c11 - hi)
    # c12 = g11*f12 + g12*f22
    p = g11 * f12
    q = g12 * f22
    hi = p + q
    v = hi - p
    lo = ((p - (hi - v)) + (q - v)) \
        + (((gh11 * fh12 - p) + gh11 * fl12 + gl11 * fh12) + gl11 * fl12) \
        + (((gh12 * fh22 - q) + gh12 * fl22 + gl12 * fh22) + gl12 * fl22) \
        + (g11 * n12 + m11 * f12) + (g12 * n22 + m12 * f22)
    c12 = hi + lo
    d12 = lo - (c12 - hi)
    # c21 = g21*f11 + g22*f21
    p = g21 * f11
    q = g22 * f21
    hi = p + q
    v = hi - p
    lo = ((p - (hi - v)) + (q - v)) \
        + (((gh21 * fh11 - p) + gh21 * fl11 + gl21 * fh11) + gl21 * fl11) \
        + (((gh22 * fh21 - q) + gh22 * fl21 + gl22 * fh21) + gl22 * fl21) \
        + (g21 * n11 + m21 * f11) + (g22 * n21 + m22 * f21)
    c21 = hi + lo
    d21 = lo - (c21 - hi)
    # c22 = g21*f12 + g22*f22
    p = g21 * f12
    q = g22 * f22
    hi = p + q
    v = hi - p
    lo = ((p - (hi - v)) + (q - v)) \
        + (((gh21 * fh12 - p) + gh21 * fl12 + gl21 * fh12) + gl21 * fl12) \
        + (((gh22 * fh22 - q) + gh22 * fl22 + gl22 * fh22) + gl22 * fl22) \
        + (g21 * n12 + m21 * f12) + (g22 * n22 + m22 * f22)
    c22 = hi + lo
    d22 = lo - (c22 - hi)
    turn = fturn + (gturn + math.atan2(math.exp(-2.0 * gls) * f12,
                                       g12 * c12 + g22 * c22)
                    - math.atan2(f12, f22))
    ls, err = fls + gls, ferr + gerr
    m = max(abs(c11), abs(c12 * s), abs(c21 / s), abs(c22))
    if not _TINY <= m < math.inf:
        # cancelled or overflowed beyond use: crossed by its parts only
        return (c11, c12, c21, c22, d11, d12, d21, d22, ls, turn, math.inf, s)
    k = math.frexp(m)[1]
    c = math.ldexp(1.0, -k)
    return (c11 * c, c12 * c, c21 * c, c22 * c, d11 * c, d12 * c, d21 * c,
            d22 * c, ls + k * _LN2, turn, err / m + _EPS * _EPS, s)


def _lift(f, u, u1, nu, nu1):
    """Lifted angle gained by (u, u^[1]) under f, whose image is (nu, nu1).

    The image of v0 has turned by f's turn; v and its image keep their
    orientation against v0 (det = exp(-2*ls) > 0), so the angle between the
    images is atan2(det * cross, dot), exact in sign where det underflows.
    """
    return (f[_TURN] + math.atan2(math.exp(-2.0 * f[_LS]) * u,
                                  f[1] * nu + f[3] * nu1)
            - math.atan2(u, u1))


def _floor_turn(u, u1):
    """floor(atan2(u, u^[1]) / pi) on (-pi, pi], u = -0.0 read as 0."""
    return -1 if u < 0.0 else int(u == 0.0 and u1 < 0.0)


# A Gram form is a tuple (g11, g12, g22, gls, err): the symmetric matrix g
# times exp(gls) with int u^2 = v^T G v over its span for the state v that
# enters it; err bounds the rounding of each entry, |dG_ij| <= err *
# sqrt(G_ii G_jj).  A jump spans nothing: its form is _NO_GRAM.
_NO_GRAM = (0.0, 0.0, 0.0, -math.inf, 0.0)


def _gram(gf, f, gg):
    """The Gram form of g*f (f first): G_f + M_f^T G_g M_f.

    M_f is f's leading double times exp(f's log scale).  Both terms are
    sums of squares, so the diagonal of the result does not cancel, and the
    rounding of M_f^T G_g M_f is bounded through |M_f|^T sqrt(diag G_g).
    """
    a11, a12, a21, a22 = f[:4]
    g11, g12, g22, gls, gerr = gg
    r11, r12 = g11 * a11 + g12 * a21, g11 * a12 + g12 * a22
    r21, r22 = g12 * a11 + g22 * a21, g12 * a12 + g22 * a22
    d1, d2 = math.sqrt(abs(g11)), math.sqrt(abs(g22))
    k1, k2 = abs(a11) * d1 + abs(a21) * d2, abs(a12) * d1 + abs(a22) * d2
    f11, f12, f22, fls, ferr = gf
    m = max(fls, 2.0 * f[_LS] + gls)
    cf, ct = math.exp(fls - m), math.exp(2.0 * f[_LS] + gls - m)
    n11 = f11 * cf + (a11 * r11 + a21 * r21) * ct
    n12 = f12 * cf + (a11 * r12 + a21 * r22) * ct
    n22 = f22 * cf + (a12 * r12 + a22 * r22) * ct
    if not (0.0 < n11 < math.inf and 0.0 < n22 < math.inf
            and max(n11, n22) >= _TINY):
        # cancelled or overflowed beyond use: crossed by its parts only
        return n11, n12, n22, m, math.inf
    e = (gerr + 4.0 * _EPS) * ct
    # the bounds of both diagonal entries (a NaN of inf * 0 stays NaN and
    # fails every test); they bound the off-diagonal one, G being PSD
    err = (ferr * f11 * cf + e * k1 * k1) / n11 \
        + (ferr * f22 * cf + e * k2 * k2) / n22 + _EPS
    k = math.frexp(max(n11, n22))[1]
    c = math.ldexp(1.0, -k)
    return n11 * c, n12 * c, n22 * c, m + k * _LN2, err


@functools.lru_cache(maxsize=16)
def _plan_factors(plan, z):
    """Each family's blocks B_0..B_top at real z, as (lifted factor, the
    factor it was composed from last) pairs: the jump of B_0, the half
    stretch(gap)*B_{h-1} of B_h.  Composed bottom-up in the energy metric s
    = sqrt(max(|z - q|, 1)).  The last 16 (plan, z) of the process are
    kept, as tuples (shared by every caller): a norming constant at an
    eigenvalue finds the blocks of the shoot there, and the memory stays
    bounded however many realizations are cached."""
    fams = []
    for beta, leaf, gaps, q, _ in plan.families:
        w = z - q
        s = math.sqrt(max(abs(w), 1.0))
        jump = _jump_factor(beta, s)
        block = _compose(_stretch_factor(w, leaf, s), jump)
        fam = [(block, jump)]
        for gap in gaps:
            half = _compose(_stretch_factor(w, gap, s), block)
            block = _compose(block, half)
            fam.append((block, half))
        fams.append(tuple(fam))
    return tuple(fams)


@functools.lru_cache(maxsize=16)
def _plan_grams(plan, z):
    """The Gram form of each block of _plan_factors(plan, z), kept like the
    factors: both runs of a norming constant share them."""
    grams = []
    for (beta, leaf, gaps, q, _), fam in zip(plan.families,
                                             _plan_factors(plan, z)):
        w = z - q
        g = _gram(_NO_GRAM, fam[0][1], (*_stretch_gram(w, leaf), 0.0))
        tower = [g]
        for gap, (block, _), (_, half) in zip(gaps, fam, fam[1:]):
            g = _gram(_gram(g, block, (*_stretch_gram(w, gap), 0.0)), half, g)
            tower.append(g)
        grams.append(tuple(tower))
    return tuple(grams)


def _gram_value(g, u, u1, h):
    """v^T G v for v = (u, u1), without G's scale; None where its rounding,
    relative to it, could pass PLAN_SLACK*2^h ulps."""
    g11, g12, g22, _, err = g
    val = (g11 * u + 2.0 * g12 * u1) * u + g22 * u1 * u1
    top = math.sqrt(abs(g11)) * abs(u) + math.sqrt(abs(g22)) * abs(u1)
    if (err + 3.0 * _EPS) * top * top <= PLAN_SLACK * _EPS * 2 ** h * val:
        return val
    return None


def _plan_sweep(real, z, state, from_left=True, pieces=None, segments=None):
    """A full run across real.plan's top-level segments (real z).

    A block B_h (_plan_factors) is crossed whole where its rounding,
    relative to the image of the state, stays within PLAN_SLACK*2^h ulps;
    otherwise (the state near its contracting direction, a product that
    cancels beyond double-double, an image of exactly zero) as its halves
    and gap, or, at up to 2^_WALK_HEIGHT cells, as one run of _sweep, whose
    split stretch keeps a collapsed decaying state.  _sweep also walks the
    gaps and the runs between blocks.

    Left to right the state carries m = floor(theta/pi), theta its lifted
    angle.  A walk run's count n, which leaves out a zero at the run's end,
    puts theta in (K pi, (K + 1) pi], K = m + n; n and u can round apart
    near a zero, so m becomes that of the lift nearest (K + 1/2) pi (u u1 >=
    0 past a zero).  A block adds its lift's whole turns and the change of
    _floor_turn.  The zero count is m(b) + [u(b) != 0] - m(a) - 1.

    pieces, when given, makes this a norming run in either direction,
    without a count, that returns the segments it crossed whole: a block
    is whole only where v^T G v of its Gram form (_plan_grams) at its
    entry state v passes the same test, and pieces receives, in crossing
    order, an entry (x, at, w, L, data) per block taken whole (L None,
    data (v^T G v, log scale of v, log scale of G)) and per walked cell
    (_sweep's), at the left-limit state at x.  Right to left a block is
    crossed by its adjugate (blocks are unimodular up to det and log
    scale), so its entry state is the state after it.  segments (in x
    order, in plan.segments' format) replace the plan's; without a plan
    the run is one walk segment (a, b).
    """
    plan = real.plan
    count = pieces is None
    if segments is None:
        segments = ((real.a, real.b),) if plan is None else plan.segments
    crossed = []

    def walk(x, y, st):
        crossed.append((x, y))
        cells = None if count else []
        run = _sweep(real.span(x, y), z, st[:3], from_left, count, cells)
        u, u1, ls = run.state
        if count:
            k = st[3] + run.zero_count
            d = (k - _floor_turn(u, u1)) % 2
            return u, u1, ls, k + d if u * u1 >= 0.0 else k - d
        if (x, y) != (real.a, real.b):
            # a run that meets other pieces reads its cell at x at x's
            # left limit, where it meets the piece before it (or the
            # launch), as a block's entry does
            k = 0 if from_left else -1
            cells[k] = (x, st[:3] if from_left else run.state, *cells[k][2:])
        pieces.extend(cells)
        return u, u1, ls, st[3]

    if plan is not None:
        blocks = _plan_factors(plan, z)
        grams = None if count else _plan_grams(plan, z)

        def cross(lo, hi, k, h, st):
            f, u, u1 = blocks[k][h][0], st[0], st[1]
            if from_left:
                nu, nu1 = f[0] * u + f[1] * u1, f[2] * u + f[3] * u1
            else:
                nu, nu1 = f[3] * u - f[1] * u1, f[0] * u1 - f[2] * u
            s = f[_S]
            if (f[_ERR] + _EPS) * max(abs(s * u), abs(u1)) <= PLAN_SLACK \
                    * _EPS * 2 ** h * max(abs(s * nu), abs(nu1)):
                if count:
                    return _step(f, nu, nu1, st)
                v = (u, u1, st[2]) if from_left else \
                    (nu, nu1, st[2] + f[_LS])
                g = grams[k][h]
                val = _gram_value(g, v[0], v[1], h)
                if val is not None:
                    after = (*_rescale(nu, nu1, st[2] + f[_LS]), st[3])
                    crossed.append((lo, hi, k, h))
                    pieces.append((lo, (st if from_left else after)[:3],
                                   z - plan.families[k][3], None,
                                   (val, v[2], g[3])))
                    return after
            if h <= _WALK_HEIGHT:
                return walk(lo, hi, st)
            halves = plan.families[k][4].split([(lo, hi)])
            first, last = halves if from_left else halves[::-1]
            st = walk(halves[0][1], halves[1][0], cross(*first, k, h - 1, st))
            return cross(*last, k, h - 1, st)

    m0 = _floor_turn(state[0], state[1])
    st = (*state, m0)
    for seg in segments if from_left else reversed(segments):
        st = cross(*seg, st) if len(seg) == 4 else walk(*seg, st)
    u, u1, ls, m = st
    if not count:
        return crossed
    return PropagationResult(StateVector(u, u1, ls), m + (u != 0.0) - m0 - 1)


def _step(f, nu, nu1, st):
    """A block's image (nu, nu1) of st's state, rescaled, with the
    half-turn index of _plan_sweep following the block's lift."""
    u, u1, ls, m = st
    theta = math.atan2(u + 0.0, u1) + _lift(f, u, u1, nu, nu1)
    nu, nu1, ls = _rescale(nu, nu1, ls + f[_LS])
    return nu, nu1, ls, m + _floor_turn(nu, nu1) - _floor_turn(u, u1) \
        + 2 * round((theta - math.atan2(nu + 0.0, nu1)) / (2.0 * math.pi))


def cell_entry_states(problem: ProblemSpec, z, from_left: bool = True):
    """One full propagation from the problem's launch state at one end.

    Captures the state entering every cell as a (u, u1, log_scale) triple.
    Left-to-right: entry i is the state at nodes[i] *after* the atom there
    (the smooth value inside cell i).  Right-to-left: entry i is the
    left-limit state at nodes[i+1] as seen walking down from b.  Returns
    (entries, final), final a StateVector; the cells are those of
    realize_problem(problem).
    """
    real = realize_problem(problem)
    cells = []
    final = _sweep(real.cells, z, problem.launch(from_left), from_left,
                   record=cells).state
    return [cell[4] for cell in (cells if from_left else cells[::-1])], final


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


# iss = L^3 sum_n (-y)^(n-1) 2^(2n-1)/((2n)! (2n+1)) with y = w L^2: the
# coefficients, highest order first.  On -10 <= y < 1, 18 terms reach double
# precision where the closed form (L - S2/2)/(2w) cancels (to 1e-10 at
# |y| = 1e-6) or, for w < 0, carries the rounding of sqrt(-w) through the
# hyperbolic phase; _cs does not scale there (ls2 = 0)
_ISS_SERIES = tuple(2 ** (2 * n - 1) / (math.factorial(2 * n) * (2 * n + 1))
                    for n in range(18, 0, -1))


def _stretch_gram(w, L):
    """The integrals (icc, ics, iss, log_scale) of cos^2, cos*sin/om and
    (sin/om)^2 over a stretch of length L, om = sqrt(w); see
    cell_l2_integral."""
    _, S2, ls2 = _cs(w, 2.0 * L)
    _, S1, ls1 = _cs(w, L)
    f = math.exp(-ls2)
    icc = L / 2.0 * f + S2 / 4.0
    ics = S1 * S1 / 2.0 * math.exp(2.0 * ls1 - ls2)
    y = w * L * L
    if -10.0 <= y < 1.0:
        iss = 0.0
        for c in _ISS_SERIES:
            iss = c - iss * y
        iss *= L ** 3
    else:
        iss = (L * f - S2 / 2.0) / (2.0 * w)
    return icc, ics, iss, ls2


def cell_l2_integral(u, u1, w, L):
    """Exact integral of u(s)^2 over a stretch of length L (real data).

    u(s) = u*cos(om s) + u1*sin(om s)/om with om = sqrt(w); closed-form
    antiderivatives, series near w = 0.  Returns (value, log_scale), the
    integral being value*e^log_scale: log_scale is the hyperbolic phase of
    the doubled stretch where _cs scales it, 0.0 elsewhere.
    """
    icc, ics, iss, ls2 = _stretch_gram(w, L)
    return u * u * icc + 2.0 * u * u1 * ics + u1 * u1 * iss, ls2
