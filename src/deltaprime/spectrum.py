"""Eigenvalues, counting functions, quadratic forms and the FEM oracle.

Eigenvalues come from one route for every measure sign and boundary
condition: shooting with closed-form transfer matrices, indexed by the
exact eigenvalue count below z that the oriented zero count of the sweep
gives (oscillation theory for measure coefficients: the lifted Pruefer
angle rises with z whatever the signs of the atoms).  The count isolates
each eigenvalue, Illinois regula falsi on the boundary residual converges
to float adjacency, and every move of the bracket is decided by the count.
A call searches its indices one by one, from one sorted store of shots,
or, on a problem without a block plan asked for LOCKSTEP_MIN indices or
more, all in lockstep: one z-batched counting sweep (_count_sweep, shoot's
counts bit for bit) per round, every bracket moved by array arithmetic.

Independent of it is a conforming P1 Galerkin discretization with doubled
(discontinuous) basis nodes at every atom and jump penalty |jump|^2/beta,
solved as a symmetric tridiagonal pencil assembled from arrays.  Its one
solver is a Sturm count (inertia); its eigenvalues are bisections of that
count.  It serves as a test oracle, and its inertia gives the counts of
counting_function and negative_count for a signed measure with q not
identically zero; every other count is the exact one.
"""
from __future__ import annotations

import bisect as _bisect
import logging
import math
import sys
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (DomainViolationError, MeshRefinementError,
                     NearSingularError, UnsupportedHypothesisError)
from .measures import check_placement, kappa_minus
# cell_entry_states stays a module attribute for tracers that wrap it
from .propagate import (ProblemSpec, _count_sweep, _mapped,  # noqa
                        _plan_sweep, cell_entry_states, cell_l2_integral,
                        propagate, realize_problem)

__all__ = [
    "SpectralData",
    "FormValue",
    "JumpFunction",
    "shoot",
    "eigenvalues",
    "counting_function",
    "negative_count",
    "quadratic_form",
    "jump_function_l2",
    "GalerkinOracle",
    "spectral_function",
    "solution_l2_norm",
]

_log = logging.getLogger("deltaprime")


@dataclass(frozen=True)
class SpectralData:
    """Indexed eigenvalues with norming constants of the left-BC solution."""

    eigenvalues: tuple[float, ...]
    norming_constants: tuple[float, ...] | None
    method: str
    indices: tuple[int, ...]

    def __post_init__(self):
        ev = self.eigenvalues
        if any(b <= a for a, b in zip(ev, ev[1:])):
            raise ValueError("eigenvalues must be strictly increasing")
        if self.norming_constants is not None:
            if any(c <= 0.0 for c in self.norming_constants):
                raise ValueError("norming constants must be positive")


class _Sample(NamedTuple):
    z: float
    count: int          # eigenvalues strictly below z
    residual: float     # u(b) (Dirichlet right) or u^[1](b) (Neumann) ...
    log_scale: float    # ... times exp(log_scale)


def shoot(problem: ProblemSpec, z: float) -> _Sample:
    """The exact count of eigenvalues below a real z, and the residual there.

    One sweep of the left-BC solution.  The count is its oriented zero
    count (the integer part of the lifted Pruefer angle theta(b) over pi,
    which tends to -negative_jumps as z -> -inf) plus negative_jumps; a
    Neumann right end adds one where theta(b) mod pi lies past pi/2
    (u*u^[1] < 0) or at zero (u == 0).  The residual is u(b) for a
    Dirichlet right end and u^[1](b) for a Neumann one; it carries a
    log-scale factor, and its sign and zero set are scale-invariant.
    propagate gives the state itself, at complex z too.
    """
    if isinstance(z, complex):
        raise TypeError("shoot takes real z; propagate takes complex z")
    res = propagate(problem, z)
    u, u1, log_scale = res.state
    return _Sample(z, *_count_and_residual(problem, res.zero_count, u, u1),
                   log_scale)


def _count_and_residual(problem: ProblemSpec, zero_count, u, u1):
    """shoot's (count, residual) at a sweep's end (u, u1): floats or lanes."""
    count = zero_count + realize_problem(problem).negative_jumps
    if problem.bc_right == "dirichlet":
        return count, u
    return count + ((u * u1 < 0.0) | (u == 0.0)), u1


def _weyl_upper_guess(problem: ProblemSpec, n: int) -> float:
    a, b = problem.interval
    qmax = max(problem.potential.values)
    return ((n + 2) * math.pi / (b - a)) ** 2 + max(qmax, 0.0) + 1.0


class _Samples:
    """Shots of one problem, sorted by z.

    The count is monotone in z, so the samples sorted by z are sorted by
    count as well, and the tightest sampled bracket of any index is one
    bisect lookup away.  One store serves every index of a call, as in
    simultaneous Sturm bisection (LAPACK dstebz).
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.points: list[_Sample] = []

    def at(self, z: float) -> _Sample:
        """The sample at z; shoots only if z is new."""
        i = _bisect.bisect_left(self.points, (z,))
        if i < len(self.points) and self.points[i].z == z:
            return self.points[i]
        s = shoot(self.problem, z)
        self.points.insert(i, s)
        return s

    def bracket(self, n: int) -> int:
        """i with count(points[i - 1]) < n <= count(points[i])."""
        return _bisect.bisect_left(self.points, n, key=attrgetter("count"))

    def drop_below(self, n: int):
        """Forget the samples that no index n or higher brackets with."""
        del self.points[:max(self.bracket(n) - 1, 0)]


def _secant(lo: _Sample, hi: _Sample, g_lo: float,
            g_hi: float) -> float | None:
    """Regula falsi point of the residuals weighted by g (Illinois).

    Both residuals are taken relative to the larger log scale, so nothing
    overflows.  The point is clamped into the open bracket: one that rounds
    onto an end says the root is within an ulp of it, and the neighbouring
    float tests that.  A residual of exactly zero at one end says the same,
    so that end's neighbour inside the bracket is the point.  None when the
    residuals show no sign change (or are both zero).
    """
    inner_lo, inner_hi = math.nextafter(lo.z, hi.z), math.nextafter(hi.z, lo.z)
    if (lo.residual == 0.0) != (hi.residual == 0.0):
        return inner_lo if lo.residual == 0.0 else inner_hi
    m = max(lo.log_scale, hi.log_scale)
    f_lo = g_lo * lo.residual * math.exp(lo.log_scale - m)
    f_hi = g_hi * hi.residual * math.exp(hi.log_scale - m)
    if not f_lo * f_hi < 0.0:
        return None
    x = lo.z + (hi.z - lo.z) * (f_lo / (f_lo - f_hi))
    return min(max(x, inner_lo), inner_hi)


def _bracket(problem: ProblemSpec, n_lo: int, n_hi: int, samples: _Samples):
    """Shoot until samples hold a count below n_lo and one of n_hi or more.

    Upwards from a Weyl guess for n_hi, doubled while the count stays below
    n_hi; downwards from min q - 1 by doubling distances while the count
    there still reaches n_lo (negative atoms bind states below min q).
    """
    pts = samples.points
    if not pts or pts[-1].count < n_hi:
        hi = _weyl_upper_guess(problem, n_hi)
        for _ in range(200):
            if (not pts or hi > pts[-1].z) and samples.at(hi).count >= n_hi:
                break
            hi *= 2.0
        else:
            raise NearSingularError(
                f"could not bracket eigenvalue index {n_hi}")
    qmin = min(problem.potential.values)
    depth = 1.0
    while pts[0].count >= n_lo:
        if depth > 1e300:
            raise NearSingularError(
                f"could not bracket eigenvalue index {n_lo}")
        samples.at(qmin - depth)
        depth *= 2.0


def _eigenvalue_by_index(problem: ProblemSpec, n: int,
                         samples: _Samples | None = None) -> float:
    """n-th eigenvalue (1-based): the least float z with count(z) >= n.

    The exact count is bisected from the bracket of _bracket until it
    holds lambda_n alone (count(lo) == n - 1, count(hi) == n).  From then
    on each point is the Illinois regula falsi point of the residual, or
    the midpoint when the residuals show no sign change or three steps in a
    row failed to halve the bracket.  Only the count moves the bracket and
    the loop ends at float adjacency, so where the computed count is
    monotone in z the result does not depend on the path, and
    near-degenerate pairs a few ulp apart (never isolated) still come out
    ordered.  samples shares shots across indices of one problem.
    """
    if samples is None:
        samples = _Samples(problem)
    pts = samples.points
    start = len(pts)
    _bracket(problem, n, n, samples)
    i = samples.bracket(n)
    lo, hi = pts[i - 1], pts[i]
    g_lo = g_hi = 1.0       # Illinois weights of the two ends
    moved = 0               # which end moved last: -1 lo, +1 hi
    # interpolation steps in a row that did not halve the bracket; the
    # third is the Illinois step that halves the stale end's weight, so the
    # midpoint waits for a third miss
    misses = 0
    n_interp = n_bisect = 0
    while True:
        mid = 0.5 * (lo.z + hi.z)
        if mid == lo.z or mid == hi.z:
            break
        x = None
        if hi.count - lo.count == 1 and misses < 3:
            x = _secant(lo, hi, g_lo, g_hi)
        interpolated = x is not None
        if interpolated:
            n_interp += 1
        else:
            x = mid
            n_bisect += 1
        width = hi.z - lo.z
        s = samples.at(x)
        # Illinois: an end that stays put twice in a row loses half its weight
        if s.count >= n:
            if moved > 0:
                g_lo *= 0.5
            hi, g_hi, moved = s, 1.0, 1
        else:
            if moved < 0:
                g_hi *= 0.5
            lo, g_lo, moved = s, 1.0, -1
        halved = hi.z - lo.z <= 0.5 * width
        misses = misses + 1 if interpolated and not halved else 0
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("eigenvalue %d: bracket [%r, %r], counts %d..%d, "
                   "%d sweeps, %d interpolation and %d bisection steps",
                   n, lo.z, hi.z, lo.count, hi.count,
                   len(pts) - start, n_interp, n_bisect)
    return hi.z


# The least number of requested indices for which a problem without a
# block plan is searched in lockstep (_lockstep) instead of index by index.
# A round pays a fixed 35-50 us of numpy calls per cell whatever its width,
# and a search takes 20-50 rounds however few its indices, against 8-20 us
# per scalar shoot of 1-5 cells (CPython, 2 shared CPUs, untuned).  On the
# first ten seed-0 wide_band problems (1-5 cells, medians of 11 alternated
# runs) lockstep took 1.08x, 0.78x, 0.63x and 0.49x the time of the search
# index by index for the lowest 64, 96, 128 and 192 indices, and 1.31x,
# 0.92x, 0.75x and 0.62x for as many indices above z = 4000.
LOCKSTEP_MIN = 128


def _shoot_lanes(problem: ProblemSpec, zs: np.ndarray):
    """shoot at every real z of the array zs, for a problem without a
    block plan: the arrays (count, residual, log_scale), bit for bit
    shoot's (one _count_sweep)."""
    u, u1, ls, zeros = _count_sweep(realize_problem(problem).cells, zs,
                                    problem.launch())
    with np.errstate(over="ignore"):
        return (*_count_and_residual(problem, zeros, u, u1), ls)


def _secant_lanes(lo, hi, g_lo, g_hi):
    """_secant for the columns of lo and hi (rows z, count, residual,
    log_scale), weighted by the arrays g_lo and g_hi: NaN where _secant
    gives None."""
    inner_lo, inner_hi = np.nextafter(lo[0], hi[0]), np.nextafter(hi[0], lo[0])
    m = np.maximum(lo[3], hi[3])
    f_lo = g_lo * lo[2] * _mapped(math.exp, lo[3] - m)
    f_hi = g_hi * hi[2] * _mapped(math.exp, hi[3] - m)
    x = np.full(len(m), np.nan)
    ok = f_lo * f_hi < 0.0
    x[ok] = lo[0, ok] + (hi[0, ok] - lo[0, ok]) * (
        f_lo[ok] / (f_lo[ok] - f_hi[ok]))
    x = np.minimum(np.maximum(x, inner_lo), inner_hi)
    zero_lo = lo[2] == 0.0
    one = zero_lo != (hi[2] == 0.0)
    x[one] = np.where(zero_lo, inner_lo, inner_hi)[one]
    return x


def _lockstep(problem: ProblemSpec, indices, samples: _Samples) -> list:
    """lambda_n for every n of indices, searched at once, on a problem
    without a block plan.

    _eigenvalue_by_index's search for every index, in rounds: each round
    takes one point per unfinished index (the Illinois regula falsi point
    where its bracket holds lambda_n alone, the midpoint otherwise), shoots
    the distinct points in one _count_sweep (_shoot_lanes) and moves every
    bracket by its count.  Indices that share a bracket (all of them at
    first, between the ends _bracket finds) share its midpoint, as in
    multisection (LAPACK dstebz).  Each result is the least float whose
    computed count reaches n, as index by index; where that count is not
    monotone (within ulps of an eigenvalue) the two searches can stop on
    neighbouring floats.
    """
    _bracket(problem, indices[0], indices[-1], samples)
    shots = np.array(samples.points, dtype=float).T
    out = np.empty(len(indices))
    # the unfinished indices: their positions in out, n, and their
    # brackets as columns (rows z, count, residual, log_scale), the
    # tightest among the shots so far (_Samples.bracket)
    at, n = np.arange(len(indices)), np.array(indices, dtype=float)
    i = np.searchsorted(shots[1], n)
    lo, hi = shots[:, i - 1], shots[:, i]
    g = np.ones((2, len(n)))    # Illinois weights of the two ends
    moved = np.zeros(len(n), dtype=int)     # end moved last: -1 lo, +1 hi
    misses = np.zeros(len(n), dtype=int)    # as in _eigenvalue_by_index
    rounds = n_shot = n_interp = n_bisect = 0
    while True:
        x = 0.5 * (lo[0] + hi[0])
        going = (x != lo[0]) & (x != hi[0])
        if not going.all():
            out[at[~going]] = hi[0, ~going]
            at, n, lo, hi, g, moved, misses, x = (
                v[..., going] for v in (at, n, lo, hi, g, moved, misses, x))
            if not at.size:
                break
        rounds += 1
        one = np.flatnonzero((hi[1] - lo[1] == 1.0) & (misses < 3))
        xs = _secant_lanes(lo[:, one], hi[:, one], g[0, one], g[1, one])
        interp = np.zeros(len(x), dtype=bool)
        interp[one[~np.isnan(xs)]] = True
        x[interp] = xs[~np.isnan(xs)]
        # indices that share a bracket are neighbours, and so are their
        # points: each run of equal points is shot once
        new = np.ones(len(x), dtype=bool)
        new[1:] = x[1:] != x[:-1]
        zs = x[new]
        n_shot += zs.size
        s = np.vstack((zs, *_shoot_lanes(problem, zs)))[:, np.cumsum(new) - 1]
        width = hi[0] - lo[0]
        reach = s[1] >= n
        # Illinois: an end that stays put twice in a row loses half its weight
        g[0, reach & (moved > 0)] *= 0.5
        g[1, ~reach & (moved < 0)] *= 0.5
        g[1, reach] = g[0, ~reach] = 1.0
        hi, lo = np.where(reach, s, hi), np.where(reach, lo, s)
        moved = np.where(reach, 1, -1)
        misses = np.where(interp & (hi[0] - lo[0] > 0.5 * width),
                          misses + 1, 0)
        n_interp += int(interp.sum())
        n_bisect += int(len(x) - interp.sum())
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("eigenvalues %d..%d in lockstep: %d indices, %d rounds, "
                   "%d distinct z shot, %d interpolation and %d bisection "
                   "steps", indices[0], indices[-1], len(out), rounds, n_shot,
                   n_interp, n_bisect)
    return out.tolist()


def _eigenvalue_list(problem: ProblemSpec, indices,
                     samples: _Samples | None = None):
    """Yield lambda_n for each n of indices (increasing), sharing shots.

    A problem without a block plan asked for LOCKSTEP_MIN indices or more
    is searched in lockstep (_lockstep); every other call searches index by
    index (_eigenvalue_by_index), each lambda_n yielded as soon as it is
    found, so that a norming constant taken right away finds the block
    factors of the shots there (_plan_factors keeps the last 16).
    """
    if samples is None:
        samples = _Samples(problem)
    if len(indices) >= LOCKSTEP_MIN and realize_problem(problem).plan is None:
        yield from _lockstep(problem, indices, samples)
        return
    for n in indices:
        lam = _eigenvalue_by_index(problem, n, samples)
        samples.drop_below(n + 1)
        yield lam


def _log_mag(st):
    u, u1, ls = st
    return ls + math.log(max(abs(u), abs(u1), 1e-300))


def _safe_term(value, log_factor):
    if value == 0.0:
        return 0.0
    arg = log_factor + math.log(abs(value))
    if arg > 709.0:
        return math.inf
    return math.copysign(math.exp(arg), value)


def _l2_term(entry, flip, ratio, log_ratio):
    """int u^2 over a norming entry for u = ratio*e^log_ratio times the
    run's solution; flip = -1.0 reads a right-run cell, whose entry state
    points its u^[1] the other way."""
    _, _, w, L, data = entry
    if L is None:
        val, ls, ls2 = data
    else:
        u, u1, ls = data
        val, ls2 = cell_l2_integral(u, flip * u1, w, L)
    return _safe_term(val * ratio * ratio, 2.0 * (ls + log_ratio) + ls2)


def solution_l2_norm(problem: ProblemSpec, z: float) -> float:
    """||u||^2 over the interval for the left-BC solution at an eigenvalue z.

    Integrated two-sidedly: the left-launched solution covers the entries
    left of a matching point, the right-launched one covers the rest and is
    rescaled by the matched ratio there.  Integrating each side in its
    growing direction keeps hyperbolic tails from amplifying the bisection
    residual (one-sided integration of a decaying tail is catastrophically
    ill-conditioned on wide truncations).  Both solutions are norming runs
    of propagate._plan_sweep across the realization's block plan, or its
    cells where it has none: one entry per block taken whole, adding v^T G
    v of its Gram form, and per walked cell, adding its closed-form
    trig/hyperbolic integral.  The right run crosses the left run's
    segments, split further where its own tests ask, so both solutions are
    known where each left entry starts; the match is where log|left| +
    log|right| peaks among these.  Returns inf when the norm genuinely
    exceeds double range (deep bound states on wide intervals).
    """
    real = realize_problem(problem)
    left, right = [], []
    segments = _plan_sweep(real, z, problem.launch(), True, left)
    _plan_sweep(real, z, problem.launch(False), False, right, segments)
    right.reverse()
    at = {entry[0]: m for m, entry in enumerate(right)}

    # scored on the states the match reads: past the state each solution
    # picks up the growing component the float eigenvalue leaves, so their
    # product peaks at the state, where both are accurate.  Without
    # candidates the match is at a
    peak, n = -math.inf, 0
    for i in range(1, len(left)):
        x, st = left[i][:2]
        crit = _log_mag(st) + _log_mag(right[at[x]][1])
        if crit > peak:
            peak, n = crit, i
    x, (u_l, u1_l, ls_l), w = left[n][:3]
    m = at[x]
    u_r, u1_r, ls_r = right[m][1]
    s2 = max(abs(w), 1.0)
    den = u_r * u_r + u1_r * u1_r / s2
    if den == 0.0:
        raise NearSingularError("degenerate matching state in norming")
    ratio = (u_l * u_r + u1_l * u1_r / s2) / den
    if ratio == 0.0:
        raise NearSingularError("left and right solutions are orthogonal; "
                                "z is not an eigenvalue")
    log_ratio = ls_l - ls_r
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "norming constant at %r: %s route, match at %r, blocks whole "
            "%d and %d, cells walked %d and %d (left and right runs)", z,
            "walk" if real.plan is None else "plan", x,
            *(sum(e[3] is None for e in run) for run in (left, right)),
            *(sum(e[3] is not None for e in run) for run in (left, right)))

    # the left run up to the match, the right run from it on
    total = 0.0
    for entry in left[:n]:
        total += _l2_term(entry, 1.0, 1.0, 0.0)
    for entry in right[m:]:
        total += _l2_term(entry, -1.0, ratio, log_ratio)
    if not total > 0.0:     # no eigenfunction joins the two solutions
        raise NearSingularError(f"||u||^2 at z = {z!r} sums to {total!r}, "
                                "not a positive norm")
    return total


def eigenvalues(problem: ProblemSpec, n_max: int | None = None,
                window: tuple[float, float] | None = None,
                with_norming: bool = True) -> SpectralData:
    """All eigenvalues up to index n_max and/or inside a window.

    Each eigenvalue lambda_n is the least float z at which the exact count
    of eigenvalues below z reaches n (see shoot; any measure sign, either
    boundary condition), found by count-safeguarded regula falsi down to
    float adjacency: about a dozen sweeps each, shots shared across
    indices (_eigenvalue_list: index by index, or in lockstep for
    LOCKSTEP_MIN indices or more without a block plan; the two can stop
    on neighbouring floats only where the computed count reverses, within
    ulps of an eigenvalue).  An eigenvalue exactly at the top of the window
    (a zero residual there) is reported as that end.
    """
    if n_max is None and window is None:
        raise ValueError("need n_max and/or window")
    samples = _Samples(problem)
    n_lo, n_hi, top = 1, n_max, None
    if window is not None:
        w0, w1 = window
        if not (math.isfinite(w0) and math.isfinite(w1)):
            raise ValueError("window ends must be finite")
        if w0 > w1:
            raise ValueError("window needs LO <= HI")
        n_lo = samples.at(w0).count + 1
        top = samples.at(w1)
        n_hi = top.count + (top.residual == 0)
        if n_max is not None:
            n_hi = min(n_hi, n_max)
    indices = range(n_lo, n_hi + 1)
    searched = indices if top is None else range(
        n_lo, min(n_hi, top.count) + 1)
    found = _eigenvalue_list(problem, searched, samples)
    lams, norm = [], []
    for n in indices:
        # a root exactly at w1 is not below w1: the least float whose
        # count reaches it lies one ulp above, outside the window
        lam = next(found) if n in searched else float(w1)
        if lams and lam <= lams[-1]:
            # sub-ulp splittings: keep the reported list strictly ordered
            lam = math.nextafter(lams[-1], math.inf)
        lams.append(lam)
        if with_norming:
            # right after the search, whose last shots' blocks are kept
            norm.append(solution_l2_norm(problem, lam))
    return SpectralData(tuple(lams), tuple(norm) if with_norming else None,
                        "shooting", tuple(indices))


def _default_mesh(problem: ProblemSpec) -> float:
    real = realize_problem(problem)
    a, b = problem.interval
    h = min(min(real.lengths) / 2.0, (b - a) / 256.0)
    return max(h, (b - a) * 2.0 ** -16)


def _widen(s: float) -> float:
    """s moved up by one part in 1e14 (by 1e-14 near zero)."""
    return s + max(abs(s), 1.0) * 1e-14


def _count_route(problem: ProblemSpec) -> str:
    """The route of negative_count: "exact-measure-count" (the measure
    theorem) where q is identically zero, else that of _counter,
    "numerical-inertia" for a signed measure and "sweep-count" otherwise."""
    if problem.potential.is_zero:
        return "exact-measure-count"
    if problem.is_nonnegative_measure():
        return "sweep-count"
    return "numerical-inertia"


def _counter(problem: ProblemSpec):
    """s -> number of eigenvalues below s: the default-mesh oracle's inertia
    on the "numerical-inertia" route (_count_route), the exact count of
    one shoot at s on the others."""
    if _count_route(problem) == "numerical-inertia":
        return GalerkinOracle(problem, _default_mesh(problem)).inertia
    return lambda s: shoot(problem, s).count


def counting_function(problem: ProblemSpec, t: float) -> int:
    """Signed count of eigenvalues between zero and t.

    For t > 0 eigenvalues in (0, t], for t < 0 eigenvalues in [t, 0); an
    eigenvalue at zero is in neither.  The half-open convention places
    boundary hits on the side of t, resolved at float resolution (t and the
    lower end of (0, t] are widened by one part in 1e14, since an exact
    residual zero at a floating t happens only accidentally).  Exact (see
    _counter) unless the measure is signed and q is not identically zero.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    count_lt = _counter(problem)
    if t > 0.0:
        return count_lt(_widen(t)) - count_lt(_widen(0.0))
    if t < 0.0:
        return count_lt(0.0) - count_lt(-_widen(-t))
    return 0


def negative_count(problem: ProblemSpec) -> int | float:
    """Dimension of the negative spectral subspace.

    With q identically zero this equals the size of the measure's negative
    support (the level-independent theorem, inf for a negative Cantor part;
    nothing realized, only check_placement); otherwise it is the number of
    eigenvalues of the level-L operator below zero, from _counter.
    """
    if _count_route(problem) == "exact-measure-count":
        check_placement(problem.measure, *problem.interval)
        return kappa_minus(problem.measure)
    return _counter(problem)(0.0)


# ---------------------------------------------------------------------------
# quadratic form on piecewise-linear functions with jumps at atoms


@dataclass(frozen=True)
class JumpFunction:
    """Piecewise-linear compactly supported function, jumps allowed at atoms.

    Linear from right_values[i] at nodes[i] to left_values[i+1] at
    nodes[i+1]; identically zero outside [nodes[0], nodes[-1]].
    """

    nodes: tuple[float, ...]
    left_values: tuple[float, ...]
    right_values: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.nodes) == len(self.left_values)
                == len(self.right_values)):
            raise ValueError("nodes and value tuples must align")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if self.left_values[0] != 0.0 or self.right_values[-1] != 0.0:
            raise ValueError("function must vanish outside its support")

    @classmethod
    def continuous(cls, nodes, values) -> "JumpFunction":
        vals = tuple(float(v) for v in values)
        return cls(tuple(float(x) for x in nodes), vals, vals)

    @classmethod
    def hat(cls, center: float, halfwidth: float, height: float = 1.0):
        return cls.continuous(
            (center - halfwidth, center, center + halfwidth),
            (0.0, height, 0.0))

    def jumps(self):
        return [(x, r - l) for x, l, r in
                zip(self.nodes, self.left_values, self.right_values)
                if r != l]


@dataclass(frozen=True)
class FormValue:
    """Quadratic-form pieces: the atom part appears in both representations.

    kinetic is int |f^[1]|^2 dP = int |f'|^2 dx + sum beta_k |f^[1](x_k)|^2;
    jump_sum reports the equivalent sum |jump_k|^2 / beta_k.
    """

    kinetic: float
    potential: float
    jump_sum: float

    def total(self) -> float:
        return self.kinetic + self.potential


def quadratic_form(problem: ProblemSpec, f: JumpFunction) -> FormValue:
    """Exact evaluation of the energy form on a piecewise-linear function."""
    real = realize_problem(problem)
    a, b = problem.interval
    if f.nodes[0] < a or f.nodes[-1] > b:
        raise DomainViolationError("support must lie inside the interval")
    atom_pos = {x: w for (x, w) in real.atoms}
    jump_sum = 0.0
    for (x, J) in f.jumps():
        beta = atom_pos.get(x)
        if beta is None:
            match = [p for p in atom_pos if abs(p - x) <= 1e-12]
            if not match:
                raise DomainViolationError(
                    f"jump at {x} does not sit on a measure atom")
            beta = atom_pos[match[0]]
        jump_sum += J * J / beta
    lebesgue = 0.0
    potential = 0.0
    for i in range(len(f.nodes) - 1):
        x0, x1 = f.nodes[i], f.nodes[i + 1]
        v0, v1 = f.right_values[i], f.left_values[i + 1]
        L = x1 - x0
        slope = (v1 - v0) / L
        lebesgue += slope * slope * L
        for lo, hi, q in problem.potential.pieces(x0, x1):
            if q != 0.0:
                va = v0 + slope * (lo - x0)
                vb = v0 + slope * (hi - x0)
                potential += q * (va * va + va * vb + vb * vb) / 3.0 * (hi - lo)
    return FormValue(lebesgue + jump_sum, potential, jump_sum)


def jump_function_l2(f: JumpFunction) -> float:
    """Exact squared L2 norm of a JumpFunction."""
    total = 0.0
    for i in range(len(f.nodes) - 1):
        L = f.nodes[i + 1] - f.nodes[i]
        v0, v1 = f.right_values[i], f.left_values[i + 1]
        total += (v0 * v0 + v0 * v1 + v1 * v1) / 3.0 * L
    return total


# ---------------------------------------------------------------------------
# Galerkin oracle


class GalerkinOracle:
    """Conforming P1 discretization with discontinuous pairs at atoms.

    The stiffness form carries the exact jump penalty |jump|^2/beta (the
    pencil is indefinite for negative weights); the mass matrix is lumped,
    keeping the pencil tridiagonal in position ordering.  Inertia counts
    use a Sturm sequence on A - t*B and are exact at t = 0 for q == 0
    because the continuum negative subspace is spanned by piecewise-linear
    functions with jumps at the atoms.  The eigenvalues are bisections of
    the same count, so they and the inertia cannot disagree.
    """

    def __init__(self, problem: ProblemSpec, mesh_size: float):
        if mesh_size <= 0.0:
            raise MeshRefinementError("mesh_size must be positive")
        real = realize_problem(problem)
        a, b = problem.interval
        min_gap = min(real.lengths)
        if mesh_size > min_gap:
            raise MeshRefinementError(
                f"mesh {mesh_size} too coarse to separate atoms "
                f"(min gap {min_gap})")
        n_cells = int(math.ceil((b - a) / mesh_size))
        grid = np.linspace(a, b, n_cells + 1)
        # keep only grid points well separated from mandatory nodes; a grid
        # point landing within ~ulp of an atom would create a near-zero cell
        # with 1/L stiffness entries that poison the Sturm recurrence
        mandatory = np.asarray(real.nodes)
        step = (b - a) / n_cells
        pos = np.clip(np.searchsorted(mandatory, grid), 1, len(mandatory) - 1)
        dist = np.minimum(np.abs(grid - mandatory[pos - 1]),
                          np.abs(mandatory[pos] - grid))
        # an atom inside (a, b) carries two dofs, u(x-) and u(x+), joined by
        # a zero-length element
        atoms = np.asarray(real.atoms).reshape(-1, 2)
        inner = atoms[atoms[:, 0] > a]
        xs = np.sort(np.concatenate(
            [grid[dist > 0.3 * step], mandatory, inner[:, 0]]))
        lengths = np.diff(xs)
        pot = problem.potential
        q = np.asarray(pot.values)[np.searchsorted(
            pot.breakpoints, xs[:-1], side="right")]
        # P1 element entries 1/L + qL/3 (diagonal), -1/L + qL/6 (off);
        # on an atom pair qL = 0 and the jump penalty |jump|^2/beta takes
        # the place of the 1/L stiffness
        span = lengths.copy()
        span[lengths == 0.0] = inner[:, 1]
        stiff = 1.0 / span + q * lengths / 3.0
        off = -1.0 / span + q * lengths / 6.0
        half = lengths / 2.0
        diag = np.pad(stiff, (0, 1)) + np.pad(stiff, (1, 0))
        mass = np.pad(half, (0, 1)) + np.pad(half, (1, 0))

        lo, hi = 0, len(xs)
        if problem.bc_left == "dirichlet":
            if real.betas[0]:
                # atom at the endpoint: dof 0 is u(a+), free, with penalty
                # (u(a+) - 0)^2/beta against the clamped boundary value
                diag[0] += 1.0 / real.betas[0]
            else:
                lo = 1
        # Neumann left + atom at a: jump = beta*u^[1](a) = 0, atom is inert
        if problem.bc_right == "dirichlet":
            hi -= 1
        self.diag = diag[lo:hi]
        self.off = off[lo:hi - 1]
        self.mass = mass[lo:hi]
        self.dof_positions = xs[lo:hi]
        if np.any(self.mass <= 0.0):
            raise MeshRefinementError("degenerate lumped mass; refine mesh")
        self.n = len(self.diag)

    def eigenvalues(self, count: int) -> np.ndarray:
        """Lowest `count` eigenvalues of the generalized pencil.

        Sturm-sequence bisection of inertia (Barth, Martin & Wilkinson
        1967; LAPACK dstebz) inside the pencil's Gershgorin bounds
        [min (diag - r)/mass, max (diag + r)/mass], r_i = |off_{i-1}| +
        |off_i|.  lambda_k is the upper end of a bracket with
        inertia(lo) < k <= inertia(hi) that is no wider than
        eps * max(|lo_0|, |hi_0|) or has adjacent float ends; the width
        rule keeps an eigenvalue at 0 from bisecting towards the
        subnormals, where diag - t*mass no longer changes with t and the
        pivots break down.  Every count seen narrows the brackets of all
        later indices.
        """
        count = min(count, self.n)
        if count <= 0:
            return np.zeros(0)
        r = np.abs(np.pad(self.off, (1, 0))) + np.abs(np.pad(self.off, (0, 1)))
        lo = float(np.min((self.diag - r) / self.mass))
        hi = float(np.max((self.diag + r) / self.mass))
        width = sys.float_info.epsilon * max(abs(lo), abs(hi))
        seen = [(lo, 0), (hi, self.n)]     # (t, inertia(t)), sorted by t
        out = np.empty(count)
        for k in range(1, count + 1):
            i = _bisect.bisect_left(seen, k, key=itemgetter(1))
            lo, hi = seen[i - 1][0], seen[i][0]
            while hi - lo > width:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                c = self.inertia(mid)
                _bisect.insort(seen, (mid, c))
                if c >= k:
                    hi = mid
                else:
                    lo = mid
            out[k - 1] = hi
        return out

    def inertia(self, t: float) -> int:
        """Number of pencil eigenvalues strictly below t (Sturm count)."""
        # a leading zero square makes the first pivot d[0] - 0/1
        squares = memoryview(np.concatenate(([0.0], self.off * self.off)))
        for shift in (t, t * (1.0 + 1e-14) + 1e-300):
            neg = 0
            piv = 1.0
            for d, e2 in zip(memoryview(self.diag - shift * self.mass),
                             squares):
                piv = d - e2 / piv
                if piv == 0.0:
                    break
                neg += piv < 0.0
            else:
                return neg
        raise MeshRefinementError("Sturm pivot breakdown; perturb t")


# ---------------------------------------------------------------------------
# spectral function


def _require_neumann_left(problem: ProblemSpec):
    if problem.bc_left != "neumann":
        raise UnsupportedHypothesisError(
            "the spectral function needs a Neumann left condition")


def spectral_function(problem: ProblemSpec, t: float) -> float:
    """Neumann spectral function rho(t) from eigenvalues and norming constants.

    rho(t) = sum over 0 < lambda_n <= t of 1/||c(lambda_n)||^2 with c the
    Neumann-normalized left solution; negative t accumulates the analogous
    sum over [t, 0) with a minus sign.  The positive window opens where
    counting_function's (0, t] does, so an eigenvalue at zero is in neither.
    """
    _require_neumann_left(problem)
    if t == 0.0:
        return 0.0
    if t > 0.0:
        return spectral_function_samples(problem, [t])[0][1]
    data = eigenvalues(problem, window=(t, 0.0))
    cs = [c for l, c in zip(data.eigenvalues, data.norming_constants)
          if t <= l < 0.0]
    return -math.fsum(1.0 / c for c in cs)


def spectral_function_samples(problem: ProblemSpec,
                              ts) -> list[tuple[float, float]]:
    """rho(t) on a grid of positive t values with one eigenvalue sweep."""
    _require_neumann_left(problem)
    ts = sorted(ts)
    if not ts or ts[0] <= 0.0:
        raise ValueError("grid must be non-empty and positive; negative side "
                         "is per-call")
    data = eigenvalues(problem, window=(_widen(0.0), ts[-1]))
    lams = data.eigenvalues
    inv = [1.0 / c for c in data.norming_constants]
    out = []
    for t in ts:
        k = _bisect.bisect_right(lams, t)
        out.append((t, math.fsum(inv[:k])))
    return out
