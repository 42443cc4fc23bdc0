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

_sweep is the one walk over the realized cells.  A realization with a
Cantor part also carries a z-independent block plan (_BlockPlan): each
subtree of a Cantor construction tree whose span holds no foreign node (a
q breakpoint or the end b inside it, an explicit atom or an atom of
another Cantor part on it) is one block of its family (one per part and q
value), B_0 = stretch(r^L*len)*jump(m/2^L) and B_h =
B_{h-1}*stretch(gap_h)*B_{h-1}; a subtree that holds a foreign node splits
into its children, down to single cells.  A full left-to-right run at real
z crosses the plan's top-level segments (_plan_sweep): each block as one
factor with its log scale and the lifted angle of a reference vector, the
cells between blocks as partial runs of _sweep, whose counts become lifted
angles at the block boundaries, so the count stays the walk's.  The two
runs of a norming constant, from a and from b, cross the plan too: each
block also carries its Gram form G, with int u^2 = v^T G v over the block
for its entry state v, composed as G_{g*f} = G_f + M_f^T G_g M_f.  Every
other run walks the cells.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import logging
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
PLAN_SLACK = 64.0         # ulps per cell a block's image may be off by
# a norming run walks a block of up to 2^3 cells that fails its test as one
# run: cheaper than its halves, gaps and leaves (deep negative masses)
_NORM_WALK_HEIGHT = 3
_EPS = 2.0 ** -52
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
        self.plan = None
        if problem.measure.cantor_parts:
            plan = _BlockPlan(problem, self)
            # a cell step takes about 1.6 us (CPython, 2 shared CPUs),
            # composing a block about 13 us, crossing a segment up to 4 us
            # beyond the cells of its run: a level-5 staircase (6 blocks,
            # 32 cells) keeps the walk, level 6 takes the plan.  Blocks
            # crossed as halves (near eigenvalues of negative masses: up to
            # 229 leaves per shot at level 12) are left out of this rule
            if 8 * plan.blocks + 3 * len(plan.segments) + plan.walked \
                    < len(self.qvals):
                self.plan = plan


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
    Both run endpoints must lie in [a, b], in the run's direction.  A full
    left-to-right run at real z crosses the realization's block plan when
    it has one (same count, same state to rounding), the cells otherwise.
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
    if real.plan is not None and from_left and (lo, hi) == (real.a, real.b) \
            and not isinstance(z, complex):
        return _plan_sweep(real, real.plan, z, init)
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
    form (_split_stretch); entries[i], when given, receives the triple (u,
    u1, log_scale) just before cell i's stretch.  Only the first and last
    cells of a run can be partial.
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
            entries[i] = (u, u1, ls)
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


class _BlockPlan:
    """The z-independent block plan of a realization with Cantor parts.

    Each Cantor part's construction tree is cut into maximal subtrees whose
    span [lo, hi) holds no foreign node: no q breakpoint, end a or b inside
    (lo, hi), and no explicit atom or atom of another part in [lo, hi).  A
    subtree of height h is the block B_h of its family (one per part and q
    value): B_0 = stretch(leaf)*jump(beta), B_h =
    B_{h-1}*stretch(gaps[h-1])*B_{h-1}.  families[k] = (beta, leaf, gaps,
    q, ratio); segments run from a to b, (lo, hi, k, h) for the block B_h
    of family k on [lo, hi) and (x, y) for a run of the cell walk.
    """

    def __init__(self, problem: ProblemSpec, real: "RealizedProblem"):
        a, b, level = real.a, real.b, problem.level
        parts = problem.measure.cantor_parts
        cuts = sorted({a, b}.union(p for p in problem.potential.breakpoints
                                   if a < p < b))
        explicit = [x for x, _ in problem.measure.atoms]
        # the atoms of each part, foreign to the other parts
        own = [[x for x, _ in part.atoms(level)] for part in parts] \
            if len(parts) > 1 else [[]]
        self.foreign = len(set(cuts).union(explicit, *own))
        heights: dict[tuple[int, float], int] = {}   # (part, q) -> top
        placed = []
        for k, part in enumerate(parts):
            others = sorted(explicit + [x for j, xs in enumerate(own)
                                        if j != k for x in xs])
            stack = [(*part.support, 0)]
            while stack:
                lo, hi, depth = stack.pop()
                i = bisect.bisect_left(others, lo)
                j = bisect.bisect_right(cuts, lo)
                if not ((i < len(others) and others[i] < hi)
                        or (j < len(cuts) and cuts[j] < hi)):
                    key = (k, problem.potential.value(0.5 * (lo + hi)))
                    heights[key] = max(heights.get(key, 0), level - depth)
                    placed.append((lo, hi, key, level - depth))
                elif depth < level:
                    # the children of CantorSpec.atoms, to the last bit
                    keep = (hi - lo) * part.ratio
                    stack.append((hi - keep, hi, depth + 1))
                    stack.append((lo, lo + keep, depth + 1))
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
                                  gaps, q, part.ratio))
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
        # cells touched by the runs of the walk
        self.walked = sum(bisect.bisect_left(real.nodes, seg[1])
                          - bisect.bisect_right(real.nodes, seg[0]) + 1
                          for seg in self.segments if len(seg) == 2)
        self.blocks = sum(len(f[2]) + 1 for f in self.families)
        self.depth = level
        _log.debug("block plan: %d blocks, %d top-level segments, depth %d, "
                   "%d foreign nodes, %d cells", self.blocks,
                   len(self.segments), self.depth, self.foreign,
                   len(real.qvals))


# A lifted factor is a tuple (a11, a12, a21, a22, l11, l12, l21, l22, ls,
# det, turn, err, s): a double-double matrix (a + l) times exp(ls), scaled
# by a power of two to largest entry in [1/2, 1) in the energy metric
# |(u, u^[1])| = max(|s*u|, |u^[1]|); det = exp(-2*ls) is its determinant
# in exact arithmetic; turn is the lifted Pruefer angle atan2(u, u^[1]) of
# the image of v0 = (0, 1); err bounds the rounding of the double-double
# entries in units of that largest entry.
_LS, _DET, _TURN, _ERR, _S = range(8, 13)


def _factor(a11, a12, a21, a22, l11, l12, l21, l22, ls, det, turn, s,
            err=0.0):
    m = max(abs(a11), abs(a12 * s), abs(a21 / s), abs(a22))
    if not 0.0 < m < math.inf:
        # cancelled or overflowed beyond use: crossed by its parts only
        return (a11, a12, a21, a22, l11, l12, l21, l22, ls, det, turn,
                math.inf, s)
    k = math.frexp(m)[1]
    c = math.ldexp(1.0, -k)
    return (a11 * c, a12 * c, a21 * c, a22 * c, l11 * c, l12 * c, l21 * c,
            l22 * c, ls + k * _LN2, det * c * c, turn, err / m + _EPS * _EPS,
            s)


def _stretch_factor(w, L, s):
    C, S, ls = _cs(w, L)
    # the angle of (S, C) lies in the quadrant of the modified angle
    # atan2(om*u, u^[1]) of the image, which rises by om*L
    phi = math.atan2(S, C)
    rise = math.sqrt(w) * L if w > 0.0 else 0.0
    turn = phi + 2.0 * math.pi * round((rise - phi) / (2.0 * math.pi))
    return _factor(C, S, -w * S, C, 0.0, 0.0, 0.0, 0.0, ls,
                   math.exp(-2.0 * ls), turn, s)


def _jump_factor(beta, s):
    return _factor(1.0, beta, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
                   math.atan2(beta, 1.0), s)


def _dd_dot(ah, al, bh, bl, ch, cl, dh, dl):
    """a*b + c*d in double-double: Dekker's exact products, Knuth's sum."""
    p = ah * bh
    t = _SPLIT * ah
    ahh = t - (t - ah)
    t = _SPLIT * bh
    bhh = t - (t - bh)
    ep = ((ahh * bhh - p) + ahh * (bh - bhh) + (ah - ahh) * bhh) \
        + (ah - ahh) * (bh - bhh)
    q = ch * dh
    t = _SPLIT * ch
    chh = t - (t - ch)
    t = _SPLIT * dh
    dhh = t - (t - dh)
    eq = ((chh * dhh - q) + chh * (dh - dhh) + (ch - chh) * dhh) \
        + (ch - chh) * (dh - dhh)
    hi = p + q
    v = hi - p
    lo = ((p - (hi - v)) + (q - v)) + ep + eq \
        + (ah * bl + al * bh) + (ch * dl + cl * dh)
    s = hi + lo
    return s, lo - (s - hi)


def _compose(g, f):
    """The lifted factor g*f (f first), normed in f's metric.

    Blocks of one family reuse their halves, so a rounding error of B_h
    recurs in all 2^(L-h) copies; double-double entries keep that below
    the rounding of one cell step.
    """
    g11, g12, g21, g22, m11, m12, m21, m22 = g[:8]
    f11, f12, f21, f22, n11, n12, n21, n22 = f[:8]
    c11, d11 = _dd_dot(g11, m11, f11, n11, g12, m12, f21, n21)
    c12, d12 = _dd_dot(g11, m11, f12, n12, g12, m12, f22, n22)
    c21, d21 = _dd_dot(g21, m21, f11, n11, g22, m22, f21, n21)
    c22, d22 = _dd_dot(g21, m21, f12, n12, g22, m22, f22, n22)
    turn = f[_TURN] + _lift(g, f12, f22, c12, c22)
    return _factor(c11, c12, c21, c22, d11, d12, d21, d22, f[_LS] + g[_LS],
                   f[_DET] * g[_DET], turn, f[_S], f[_ERR] + g[_ERR])


def _lift(f, u, u1, nu, nu1):
    """Lifted angle gained by (u, u^[1]) under f, whose image is (nu, nu1).

    The image of v0 has turned by f's turn; v and its image keep their
    orientation against v0 (det > 0), so the angle between the images is
    atan2(det * cross, dot), exact in sign even where det underflows.
    """
    return (f[_TURN] + math.atan2(f[_DET] * u, f[1] * nu + f[3] * nu1)
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
    if not (0.0 < n11 < math.inf and 0.0 < n22 < math.inf):
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


def _plan_grams(plan, z):
    """The Gram form of each block of _plan_factors(plan, z)."""
    grams = []
    for (beta, leaf, gaps, q, _), fam in zip(plan.families,
                                             _plan_factors(plan, z)):
        w = z - q
        g = _gram(_NO_GRAM, fam[0][1], (*_stretch_gram(w, leaf), 0.0))
        tower = [g]
        for gap, (block, _), (_, half) in zip(gaps, fam, fam[1:]):
            g = _gram(_gram(g, block, (*_stretch_gram(w, gap), 0.0)), half, g)
            tower.append(g)
        grams.append(tower)
    return grams


def _gram_value(g, u, u1, h):
    """v^T G v for v = (u, u1), without G's scale; None where its rounding,
    relative to it, could pass PLAN_SLACK*2^h ulps."""
    g11, g12, g22, _, err = g
    val = (g11 * u + 2.0 * g12 * u1) * u + g22 * u1 * u1
    top = math.sqrt(abs(g11)) * abs(u) + math.sqrt(abs(g22)) * abs(u1)
    if (err + 3.0 * _EPS) * top * top <= PLAN_SLACK * _EPS * 2 ** h * val:
        return val
    return None


def _plan_sweep(real, plan, z, state, from_left=True, pieces=None,
                grams=None, segments=None):
    """A full run across the plan's top-level segments (real z).

    A block of 2^h cells (from _plan_factors) whose rounding, relative to
    the image of the state, could pass PLAN_SLACK*2^h ulps (the state near
    its contracting direction, a product that cancels beyond double-double,
    or an image of exactly zero) is crossed as its halves and the gap
    between them; the gaps, the leaves and the runs between blocks are
    crossed by _sweep, whose split stretch keeps a collapsed decaying
    state.  Left to right the state carries its whole turns j: its lifted
    angle is theta = atan2(u, u^[1]) + 2 pi j.  A block adds its lift to
    theta; a walk run's count n, which leaves out a zero at the run's end,
    puts theta in (K pi, (K + 1) pi] with K = floor(theta_start/pi) + n.
    The zero count is ceil(theta(b)/pi) - floor(theta(a)/pi) - 1.

    pieces, when given, makes this a norming run, in either direction and
    without a count: a block is taken whole only where v^T G v of its Gram
    form at its entry state v passes the same test, and pieces receives
    each piece crossed, in crossing order, as (segment, data, state after):
    data is (v^T G v, log scale of v, log scale of G) for a block and
    _sweep's entries for a walk run.  Right to left each block is crossed
    by its adjugate (blocks are unimodular up to det and log scale), so its
    entry state is the state after it.  grams (_plan_grams) may be shared
    between runs at one z; segments, in x order and in the format
    of plan.segments, replace them; a realization without a plan is one
    walk segment (a, b).  A norming run walks a failing block of up to
    2^_NORM_WALK_HEIGHT cells as one run, and returns None: its last piece
    holds the final state.
    """
    count = pieces is None
    if segments is None:
        segments = ((real.a, real.b),) if plan is None else plan.segments
    if plan is not None:
        blocks = _plan_factors(plan, z)
        if not count and grams is None:
            grams = _plan_grams(plan, z)

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
                    return _step(f, nu, nu1, st, True)
                v = (u, u1, st[2]) if from_left else \
                    (nu, nu1, st[2] + f[_LS])
                g = grams[k][h]
                val = _gram_value(g, v[0], v[1], h)
                if val is not None:
                    st = _step(f, nu, nu1, st, False)
                    pieces.append(((lo, hi, k, h), (val, v[2], g[3]),
                                   st[:3]))
                    return st
            if h == 0 or (not count and h <= _NORM_WALK_HEIGHT):
                return _walk(real, z, lo, hi, from_left, st, pieces)
            keep = (hi - lo) * plan.families[k][4]
            first, last = (lo, lo + keep), (hi - keep, hi)
            if not from_left:
                first, last = last, first
            st = _walk(real, z, lo + keep, hi - keep, from_left,
                       cross(*first, k, h - 1, st), pieces)
            return cross(*last, k, h - 1, st)

    st = (state.u, state.u1, state.log_scale, 0)
    for seg in segments if from_left else reversed(segments):
        st = cross(*seg, st) if len(seg) == 4 else \
            _walk(real, z, *seg, from_left, st, pieces)
    u, u1, ls, j = st
    if not count:
        return None
    zeros = 2 * j + (u > 0.0 or (u == 0.0 and u1 < 0.0)) \
        - _floor_turn(state.u, state.u1) - 1
    return PropagationResult(StateVector(u, u1, ls), zeros)


def _step(f, nu, nu1, st, count):
    """A block's image (nu, nu1) of st's state, rescaled; with count, the
    whole turns of _plan_sweep follow the block's lift."""
    u, u1, ls, j = st
    if count:
        theta = math.atan2(u + 0.0, u1) + _lift(f, u, u1, nu, nu1)
    nu, nu1, ls = _rescale(nu, nu1, ls + f[_LS])
    if count:
        phi = math.atan2(nu + 0.0, nu1)
        j += round((theta - phi) / (2.0 * math.pi))
    return nu, nu1, ls, j


def _walk(real, z, x, y, from_left, st, pieces):
    """The cells of [x, y) crossed by _sweep for _plan_sweep: a piece of a
    norming run if pieces is given, else a counted left-to-right run whose
    count sets the whole turns."""
    u, u1, ls, j = st
    if pieces is not None:
        entries = {}
        v = _sweep(real, z, StateVector(u, u1, ls), x, y, from_left,
                   entries=entries).state
        pieces.append(((x, y), entries, (v.u, v.u1, v.log_scale)))
        return v.u, v.u1, v.log_scale, j
    run = _sweep(real, z, StateVector(u, u1, ls), x, y, True, count=True)
    v = run.state
    k = 2 * j + _floor_turn(u, u1) + run.zero_count
    phi = math.atan2(v.u + 0.0, v.u1)
    return v.u, v.u1, v.log_scale, \
        round(((k + 0.5) * math.pi - phi) / (2.0 * math.pi))


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
    entries: list[tuple | None] = [None] * len(real.qvals)
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


def _stretch_gram(w, L):
    """The integrals (icc, ics, iss, log_scale) of cos^2, cos*sin/om and
    (sin/om)^2 over a stretch of length L, om = sqrt(w); see
    cell_l2_integral."""
    _, S2, ls2 = _cs(w, 2.0 * L)
    _, S1, ls1 = _cs(w, L)
    f = math.exp(-ls2)
    icc = L / 2.0 * f + S2 / 4.0
    ics = S1 * S1 / 2.0 * math.exp(2.0 * ls1 - ls2)
    if abs(w) * L * L < 1e-6:
        iss = L ** 3 / 3.0 - w * L ** 5 / 15.0 + 2.0 * w * w * L ** 7 / 315.0
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
