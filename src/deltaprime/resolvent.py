"""Green kernels, Hilbert-Schmidt resolvent distances, convergence studies.

The resolvent kernel is assembled from the two boundary solutions,

    G(x, t; z) = phi(z, min) * psi(z, max) / W(psi, phi),

with phi and psi the solutions that satisfy the problem's own left and
right boundary conditions (launched from (0, 1) at a Dirichlet end and
(1, 0) at a Neumann end) and W(psi, phi) = psi phi^[1] - psi^[1] phi their
constant Wronskian, taken at a (psi(a) for a Dirichlet left end).  Kernel
evaluations gather cached cell entry states and evaluate the closed-form
stretch solution for a whole grid at once, by _cs's rule at real z
(_cs_lanes: bytes free of numpy's SIMD dispatch) and numpy's complex cos
and sin at complex z (numpy's complex * and abs round by FMA anyway).

On i <= j the kernel is rank one, G(x_i, x_j) = a_i b_j with a = phi and
b = psi / W(psi, phi), so the tensor-quadrature Hilbert-Schmidt distance of
two kernels is a short sum of suffix sums (a semiseparable sum): O(n) time
and memory on an n-point grid instead of the dense O(n^2) double sum.  Each
grid row uses whichever of two splittings of G_1 - G_2 cancels less.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NearSingularError
from .propagate import (ProblemSpec, _cs_lanes, _mapped, cell_entry_states,
                        realize_problem, wronskian)
from . import spectrum as _spectrum

__all__ = [
    "GreenKernel",
    "green",
    "hs_distance",
    "convergence_study",
    "StudyRow",
]

GL_POINTS = 8
SINGULAR_RTOL = 1e-13
HS_TOL = 1e-8
HS_DOUBLINGS = 5          # panel doublings before the last HS value stands
STUDY_EIGEN = 5           # eigenvalue columns of a convergence study row


class _SolutionCache:
    """phi or psi of one problem at one z, evaluable on sorted grids.

    Cell i holds its entry state (u, u1, exp(log_scale)), its potential q
    and its anchor, the node its offsets are measured from, as arrays; one
    evaluation gathers them for all points at once.
    """

    def __init__(self, problem, z, from_left):
        # the boundary data of the problem at the launch endpoint
        self.launch = problem.launch(from_left)
        entries, final = cell_entry_states(problem, z, from_left)
        real = realize_problem(problem)
        u, u1, ls = zip(*entries)
        if any(abs(v) > 650.0 for v in ls):
            raise NearSingularError(
                "solution scale too large for kernel assembly at this z")
        self.nodes = np.asarray(real.nodes)
        self.final = final
        self.z = z
        self.from_left = from_left
        dtype = complex if isinstance(z, complex) else float
        self.u = np.array(u, dtype=dtype)
        self.u1 = np.array(u1, dtype=dtype)
        self.scale = np.array([math.exp(v) for v in ls])
        self.q = np.asarray(real.qvals, dtype=float)
        self.anchor = self.nodes[:-1] if from_left else self.nodes[1:]

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Left-limit solution values on a sorted array of coordinates.

        u*cos(om d) + u1*sin(om d)/om with om = sqrt(z - q) and d the
        offset from the cell's anchor.
        """
        xs = np.asarray(xs, dtype=float)
        # bucket x in (nodes[i], nodes[i+1]] to cell i; x == a to cell 0
        idx = np.searchsorted(self.nodes, xs, side="left") - 1
        idx = np.clip(idx, 0, len(self.q) - 1)
        d = xs - self.anchor[idx]
        w = self.z - self.q[idx]
        u, u1 = self.u[idx], self.u1[idx]
        if isinstance(self.z, complex):
            # complex * and abs round by FMA anyway: cmath would buy no bits
            out = u + d * u1
            sel = w != 0.0
            om = np.sqrt(w[sel])
            m = om * d[sel]
            out[sel] = u[sel] * np.cos(m) + u1[sel] * np.sin(m) / om
        else:
            C, S, ls, _ = _cs_lanes(w, d)
            out = u * C + u1 * S
            out[ls > 0.0] *= _mapped(math.exp, ls[ls > 0.0])
        out *= self.scale[idx]
        # x exactly at the left endpoint: left limit is the launch value for
        # phi and the fully walked-down state for psi
        at_a = xs == self.nodes[0]
        if np.any(at_a):
            if self.from_left:
                out[at_a] = self.launch.u
            else:
                u, _ = self.final.true_values()
                out[at_a] = u
        return out


class GreenKernel:
    """Evaluable resolvent kernel of one problem at one off-spectrum z."""

    def __init__(self, problem: ProblemSpec, z):
        self.problem = problem
        self.z = z
        self.phi = _SolutionCache(problem, z, from_left=True)
        self.psi = _SolutionCache(problem, z, from_left=False)
        self.denominator = wronskian(self.psi.final, problem.launch())
        psi = self.psi
        scale = float(np.max(np.maximum(np.abs(psi.u), np.abs(psi.u1))
                             * psi.scale))
        if abs(self.denominator) <= SINGULAR_RTOL * max(scale, 1.0):
            raise NearSingularError(
                f"z={z!r} is numerically at an eigenvalue (W(psi, phi) ~ 0)")

    def __call__(self, x: float, t: float):
        a, b = self.problem.interval
        for v in (x, t):
            if not a <= v <= b:     # NaN too
                raise ValueError(f"point {v!r} is outside [{a}, {b}]")
        lo, hi = (x, t) if x <= t else (t, x)
        p = self.phi.values(np.array([lo]))[0]
        q = self.psi.values(np.array([hi]))[0]
        return p * q / self.denominator


def green(problem: ProblemSpec, z, x: float, t: float):
    """Resolvent kernel value G(x, t; z)."""
    return GreenKernel(problem, z)(x, t)


def _panel_grid(problems, panels_per_cell):
    """Gauss-Legendre tensor grid split at every atom of every problem."""
    edges = set()
    for p in problems:
        edges.update(realize_problem(p).nodes)
    edges = np.array(sorted(edges))
    gl_x, gl_w = np.polynomial.legendre.leggauss(GL_POINTS)
    sub = np.linspace(edges[:-1], edges[1:], panels_per_cell + 1, axis=-1)
    mid = 0.5 * (sub[:, :-1] + sub[:, 1:])
    half = 0.5 * (sub[:, 1:] - sub[:, :-1])
    xs = mid[..., None] + half[..., None] * gl_x
    ws = half[..., None] * gl_w
    return xs.ravel(), ws.ravel()


def hs_distance(problem_1: ProblemSpec, problem_2: ProblemSpec, z,
                max_doublings: int = HS_DOUBLINGS) -> float:
    """Hilbert-Schmidt norm of G_1 - G_2 over the square of the interval.

    Tensor Gauss-Legendre quadrature on panels refined at both problems'
    atoms, from one panel per cell doubling (max_doublings times at most)
    until the value moves less than HS_TOL.  Upper bound for the
    operator-norm resolvent difference.
    """
    if problem_1.interval != problem_2.interval:
        raise ValueError("problems must share the interval")
    if max_doublings < 0:
        raise ValueError("max_doublings must be nonnegative")
    return _hs_between(GreenKernel(problem_1, z), GreenKernel(problem_2, z),
                       max_doublings)


def _hs_between(g1, g2, max_doublings=HS_DOUBLINGS):
    """hs_distance of the problems of two built kernels at one z."""
    problems = (g1.problem, g2.problem)
    prev = None
    for doubling in range(max_doublings + 1):
        xs, ws = _panel_grid(problems, 2 ** doubling)
        val = _hs_value(g1, g2, xs, ws)
        if prev is not None and abs(val - prev) < HS_TOL:
            return val
        prev = val
    return prev


def _suffix(g):
    """S_i = sum of g_j over j > i."""
    return np.append(np.cumsum(g[:0:-1])[::-1], 0.0)


def _balanced(a, b):
    """a / c and b * c for the power of two c that evens out max|a|, max|b|.

    Every product a_i b_j is unchanged (the scaling is exact).  At deep z
    phi grows and psi / denominator decays across the interval, so |a|^2
    alone can overflow where every a_i b_j stays O(1); balanced, each
    squared factor stays inside double range up to the log-scale guard of
    _SolutionCache.
    """
    a_max, b_max = np.max(np.abs(a)), np.max(np.abs(b))
    if a_max > 0.0 and b_max > 0.0:
        c = 2.0 ** ((math.frexp(a_max)[1] - math.frexp(b_max)[1]) // 2)
        return a / c, b * c
    return a, b


def _split_sums(x1, y1, x2, y2, ws):
    """Pieces of sum_ij w_i w_j |D_ij|^2 for D_ij = x1_i y1_j - x2_i y2_j.

    Returns per row i the strict upper part 2 sum_{j>i} w_j |D_ij|^2 (three
    suffix sums of the expanded square), the diagonal D_ii, and for each
    the magnitude of the terms that cancel in it, which bounds its
    rounding error.
    """
    m1 = np.abs(x1) ** 2 * _suffix(ws * np.abs(y1) ** 2)
    m2 = np.abs(x2) ** 2 * _suffix(ws * np.abs(y2) ** 2)
    cross = np.real(x1 * np.conj(x2) * _suffix(ws * y1 * np.conj(y2)))
    p1, p2 = x1 * y1, x2 * y2
    return (2.0 * (m1 + m2 - 2.0 * cross), 2.0 * (m1 + m2),
            p1 - p2, np.abs(p1) + np.abs(p2))


def _hs_value(g1, g2, xs, ws):
    """sqrt(sum_ij w_i w_j |G_1 - G_2|^2(x_i, x_j)) in O(n) time and memory.

    On i <= j each kernel is a_i b_j (a = phi, b = psi / denominator), so
    each row of the upper triangle is a few suffix sums; symmetry gives
    the lower triangle.  The difference D_ij has two rank-two splittings:

    - the difference form da_i b1_j + a2_i db_j (da = a1 - a2,
      db = b1 - b2), exact when the kernels agree (da = db = 0);
    - the kernel form a1_i b1_j - a2_i b2_j, which stays accurate when
      the factors of the two kernels drift apart in scale (at deep z on
      Cantor levels, phi_2 / phi_1 grows by 1e14 across the interval, and
      da b1 and a2 db cancel to 14 digits).

    Each row, and each diagonal entry, takes the form whose terms are
    smaller.  If even so the terms exceed the sum by more than 1e7 (seven
    digits cancel), the value is not trusted and NearSingularError is
    raised.
    """
    a1, b1 = g1.phi.values(xs), g1.psi.values(xs) / g1.denominator
    a2, b2 = g2.phi.values(xs), g2.psi.values(xs) / g2.denominator
    n = len(xs)
    kern = _split_sums(*_balanced(a1, b1), *_balanced(a2, b2), ws)
    # one scale for both kernels, so da and db vanish where they agree
    a, b = _balanced(np.concatenate([a1, a2]), np.concatenate([b1, b2]))
    diff = _split_sums(a[:n] - a[n:], b[:n], -a[n:], b[:n] - b[n:], ws)
    row, diag = diff[1] <= kern[1], diff[3] <= kern[3]
    upper = np.where(row, diff[0], kern[0])
    d_ii = np.abs(np.where(diag, diff[2], kern[2]))
    acc = float(np.sum(ws * (upper + ws * d_ii ** 2)))
    terms = float(np.sum(ws * (np.where(row, diff[1], kern[1])
                               + 2.0 * ws * d_ii
                               * np.where(diag, diff[3], kern[3]))))
    if not (math.isfinite(acc) and terms <= 1e7 * acc):
        raise NearSingularError(
            "Hilbert-Schmidt sum cancels below rounding at this z")
    return math.sqrt(acc)


@dataclass(frozen=True)
class StudyRow:
    level: int
    hs_to_finest: float
    lambdas: tuple[float, ...]


def convergence_study(problem: ProblemSpec, levels, z=-1.0) -> list[StudyRow]:
    """Level-refinement study against the finest requested level.

    One row per level: HS distance to the finest realization and the first
    eigenvalues.  Eigenvalue columns are filled only for nonnegative
    measures (the regime with full-sequence convergence); signed measures
    get NaN columns and the HS column is reported as data, not asserted
    monotone.
    """
    levels = sorted(levels)
    if not levels:
        raise ValueError("need at least one level")
    finest = levels[-1]
    if levels[0] != finest:     # the finest kernel, built once
        g_ref = GreenKernel(replace(problem, level=finest), z)
    rows = []
    for lv in levels:
        p = replace(problem, level=lv)
        hs = _hs_between(GreenKernel(p, z), g_ref) if lv != finest else 0.0
        if p.is_nonnegative_measure():
            lams = _spectrum.eigenvalues(
                p, n_max=STUDY_EIGEN, with_norming=False).eigenvalues
        else:
            lams = tuple(math.nan for _ in range(STUDY_EIGEN))
        rows.append(StudyRow(lv, hs, lams))
    return rows
