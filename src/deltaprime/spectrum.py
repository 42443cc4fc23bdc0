"""Eigenvalues, counting functions, quadratic forms and the FEM oracle.

Two independent routes to the spectrum are kept strictly separate:

* shooting with closed-form transfer matrices, indexed by exact interior
  zero counts when the measure is nonnegative (oscillation indexing needs a
  positive dP; signed jumps can create or destroy sign changes), and by
  oracle-assisted bisection otherwise;
* a conforming P1 Galerkin discretization with doubled (discontinuous)
  basis nodes at every atom and jump penalty |jump|^2/beta, solved as a
  symmetric tridiagonal pencil.
"""
from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (DomainViolationError, MeshRefinementError,
                     NearSingularError, PropagationOverflowError)
from .measures import kappa_minus
from .propagate import (ProblemSpec, StateVector, _apply_stretch,
                        cell_entry_states, cell_l2_integral, propagate,
                        realize_problem)

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
    "galerkin_oracle",
    "spectral_function",
    "solution_l2_norm",
]

BISECTION_TOL = 1e-12
MAX_BISECTIONS = 200


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


@dataclass(frozen=True)
class ShootResult:
    residual: float | complex   # scaled boundary functional
    log_scale: float
    zero_count: int | None
    state: StateVector

    def sign(self) -> int:
        if self.residual == 0:
            return 0
        return 1 if self.residual.real > 0 else -1


def shoot(problem: ProblemSpec, z) -> ShootResult:
    """Boundary residual of the left-BC solution, entire in z.

    Dirichlet right condition reads off u(b), Neumann reads u^[1](b).  The
    returned residual carries a log-scale factor; its sign and zero set are
    scale-invariant.
    """
    res = propagate(problem, z)
    st = res.state
    val = st.u if problem.bc_right == "dirichlet" else st.u1
    return ShootResult(val, st.log_scale, res.zero_count, st)


def _count_below(problem: ProblemSpec, z: float) -> int:
    """Number of eigenvalues strictly below z (nonnegative measure, right-D)."""
    return shoot(problem, z).zero_count


def _weyl_upper_guess(problem: ProblemSpec, n: int) -> float:
    a, b = problem.interval
    qmax = max(problem.potential.values)
    return ((n + 2) * math.pi / (b - a)) ** 2 + max(qmax, 0.0) + 1.0


def _eigenvalue_by_index(problem: ProblemSpec, n: int) -> float:
    """n-th eigenvalue (1-based) via bisection on the exact zero count."""
    qmin = min(problem.potential.values)
    lo = qmin - 1.0
    hi = _weyl_upper_guess(problem, n)
    for _ in range(200):
        if _count_below(problem, hi) >= n:
            break
        hi *= 2.0
    else:
        raise NearSingularError(f"could not bracket eigenvalue index {n}")
    # bisect to float adjacency (still well under 200 steps): near-degenerate
    # pairs with gaps of a few dozen ulp must still come out ordered
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _count_below(problem, mid) >= n:
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_residual(problem: ProblemSpec, lo: float, hi: float,
                     rtol: float) -> float:
    slo = shoot(problem, lo).sign()
    shi = shoot(problem, hi).sign()
    if slo == 0:
        return lo
    if shi == 0:
        return hi
    if slo == shi:
        raise NearSingularError("bracket does not straddle a residual zero")
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        sm = shoot(problem, mid).sign()
        if sm == 0:
            return mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(rtol * abs(mid), BISECTION_TOL):
            break
    return 0.5 * (lo + hi)


def solution_l2_norm(problem: ProblemSpec, z: float,
                     init: StateVector | None = None) -> float:
    """||u||^2 over the interval for the left-BC solution at an eigenvalue z.

    Closed-form trig/hyperbolic antiderivatives cell by cell, integrated
    two-sidedly: the left-launched solution covers cells up to the point of
    largest state magnitude, the right-launched one covers the rest and is
    rescaled by the matched ratio there.  Integrating each side in its
    growing direction keeps hyperbolic tails from amplifying the bisection
    residual (one-sided integration of a decaying tail is catastrophically
    ill-conditioned on wide truncations).  Returns inf when the norm
    genuinely exceeds double range (deep bound states on wide intervals).
    """
    _, qvals, ent_l, _ = cell_entry_states(problem, z, init)
    _, _, ent_r, _ = cell_entry_states(problem, z, from_left=False)
    lengths = realize_problem(problem).lengths
    ncells = len(qvals)

    def log_mag(st):
        return st.log_scale + math.log(max(abs(st.u), abs(st.u1), 1e-300))

    k = max(range(ncells), key=lambda i: log_mag(ent_l[i]))
    # right-walk value just inside cell k at nodes[k]+ (same anchor as ent_l[k])
    w_k = z - qvals[k]
    u_r, u1_r, ls_r = _apply_stretch(ent_r[k].u, ent_r[k].u1,
                                     ent_r[k].log_scale, w_k, -lengths[k])
    u_l, u1_l = ent_l[k].u, ent_l[k].u1
    s2 = max(abs(w_k), 1.0)
    den = u_r * u_r + u1_r * u1_r / s2
    if den == 0.0:
        raise NearSingularError("degenerate matching state in norming")
    ratio = (u_l * u_r + u1_l * u1_r / s2) / den
    if ratio == 0.0:
        raise NearSingularError("left and right solutions are orthogonal; "
                                "z is not an eigenvalue")
    log_ratio = ent_l[k].log_scale - ls_r

    def safe_term(value, log_factor):
        if value == 0.0:
            return 0.0
        arg = log_factor + math.log(abs(value))
        if arg > 709.0:
            return math.inf
        return math.copysign(math.exp(arg), value)

    total = 0.0
    for i in range(k):
        st = ent_l[i]
        val = cell_l2_integral(st.u, st.u1, z - qvals[i], lengths[i])
        total += safe_term(val, 2.0 * st.log_scale)
    for i in range(k, ncells):
        st = ent_r[i]
        # right-anchored cell integral: reverse orientation flips u^[1]
        val = cell_l2_integral(st.u, -st.u1, z - qvals[i], lengths[i])
        total += safe_term(val * ratio * ratio,
                           2.0 * (st.log_scale + log_ratio))
    return total


def eigenvalues(problem: ProblemSpec, n_max: int | None = None,
                window: tuple[float, float] | None = None,
                rtol: float = 1e-12, oracle_mesh: float | None = None,
                with_norming: bool = True) -> SpectralData:
    """All eigenvalues up to index n_max and/or inside a window.

    Nonnegative measures with a Dirichlet right condition are indexed by the
    exact interior zero count (n-th eigenfunction has n-1 sign changes) and
    bisected to float adjacency in at most 200 steps, which always meets
    rtol; signed measures are routed through Galerkin-estimate brackets
    refined by residual bisection at the requested rtol.
    """
    if n_max is None and window is None:
        raise ValueError("need n_max and/or window")
    nonneg = problem.is_nonnegative_measure()
    if nonneg and problem.bc_right == "dirichlet":
        if window is not None:
            w0, w1 = window
            n_lo = _count_below(problem, w0) + 1
            n_hi = _count_below(problem, w1)
            if shoot(problem, w1).residual == 0:
                n_hi += 1
        else:
            n_lo, n_hi = 1, 0
        if n_max is not None:
            if window is None:
                n_lo, n_hi = 1, n_max
            else:
                n_hi = min(n_hi, n_max)
        lams = [_eigenvalue_by_index(problem, n)
                for n in range(n_lo, n_hi + 1)]
        idx = tuple(range(n_lo, n_hi + 1))
        method = "shooting"
    else:
        lams, idx = _scan_signed(problem, n_max, window, rtol, oracle_mesh)
        method = "shooting-oracle-indexed"
    for i in range(1, len(lams)):
        # sub-ulp splittings: keep the reported list strictly ordered
        if lams[i] <= lams[i - 1]:
            lams[i] = math.nextafter(lams[i - 1], math.inf)
    norm = tuple(solution_l2_norm(problem, l) for l in lams) \
        if with_norming else None
    return SpectralData(tuple(lams), norm, method, tuple(idx))


def _default_mesh(problem: ProblemSpec) -> float:
    real = realize_problem(problem)
    a, b = problem.interval
    h = min(min(real.lengths) / 2.0, (b - a) / 256.0)
    return max(h, (b - a) * 2.0 ** -16)


def _scan_signed(problem, n_max, window, rtol, oracle_mesh):
    """Oracle-assisted eigenvalue extraction for signed measures."""
    h = oracle_mesh if oracle_mesh is not None else _default_mesh(problem)
    oracle = GalerkinOracle(problem, h)
    if window is None:
        lo = _spectral_lower_bound(problem)
        hi = _weyl_upper_guess(problem, n_max)
        window = (lo, hi)
    w0, w1 = window
    base = oracle.inertia(w0)
    count = oracle.inertia(w1) - base
    if n_max is not None:
        count = min(count, max(n_max - base, 0))
    estimates = oracle.eigenvalues(base + count)[base:base + count]
    roots = []
    for j, est in enumerate(estimates):
        gap_lo = estimates[j - 1] if j > 0 else w0
        gap_hi = estimates[j + 1] if j + 1 < len(estimates) else w1
        delta = max(16.0 * h * h * (1.0 + abs(est)), 1e-9)
        cap = 0.45 * min(est - gap_lo, gap_hi - est) if count > 1 else \
            0.45 * min(est - w0, w1 - est)
        cap = max(cap, delta)
        while delta <= cap:
            lo_b, hi_b = est - delta, est + delta
            if shoot(problem, lo_b).sign() * shoot(problem, hi_b).sign() <= 0:
                roots.append(_bisect_residual(problem, lo_b, hi_b, rtol))
                break
            delta *= 4.0
        else:
            raise NearSingularError(
                f"no residual sign change near oracle estimate {est!r}")
    idx = tuple(range(base + 1, base + len(roots) + 1))
    return roots, idx


def _spectral_lower_bound(problem: ProblemSpec) -> float:
    """Certified-by-oracle lower bound for the whole spectrum."""
    real = realize_problem(problem)
    neg = [w for (_, w) in real.atoms if w < 0.0]
    qmin = min(problem.potential.values)
    lo = qmin - 1.0
    if neg:
        lo -= 16.0 / min(abs(w) for w in neg) ** 2 + 10.0
    return lo


def counting_function(problem: ProblemSpec, t: float,
                      oracle_mesh: float | None = None) -> int:
    """Signed count of eigenvalues between zero and t.

    For t > 0 eigenvalues in (0, t], for t < 0 eigenvalues in [t, 0); the
    half-open convention places boundary hits on the side of t, resolved at
    float resolution (t is widened by one part in 1e14, since an exact
    residual zero at a floating t happens only accidentally).  Exact for
    nonnegative measures (zero-count route); signed measures use oracle
    inertia, accurate away from discretization-sized neighborhoods of t.
    """
    if problem.is_nonnegative_measure() and problem.bc_right == "dirichlet":
        def count_lt(s):
            return _count_below(problem, s)
    else:
        h = oracle_mesh if oracle_mesh is not None else _default_mesh(problem)
        oracle = GalerkinOracle(problem, h)
        count_lt = oracle.inertia

    def widen(s):
        return s + max(abs(s), 1.0) * 1e-14

    if t > 0.0:
        return count_lt(widen(t)) - count_lt(widen(0.0))
    if t < 0.0:
        return count_lt(widen(0.0)) - count_lt(t - max(abs(t), 1.0) * 1e-14)
    return 0


def negative_count(problem: ProblemSpec,
                   oracle_mesh: float | None = None) -> int | float:
    """Dimension of the negative spectral subspace.

    With q identically zero this equals the size of the measure's negative
    support (exact, no computation); otherwise the count is determined
    numerically from the Galerkin pencil's inertia at zero.
    """
    if problem.potential.is_zero:
        return kappa_minus(problem.measure)
    h = oracle_mesh if oracle_mesh is not None else _default_mesh(problem)
    return GalerkinOracle(problem, h).inertia(0.0)


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
        cuts = [x0] + [p for p in problem.potential.breakpoints
                       if x0 < p < x1] + [x1]
        for lo, hi in zip(cuts, cuts[1:]):
            q = problem.potential.value(0.5 * (lo + hi))
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
    functions with jumps at the atoms.
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
        cuts = sorted(set(grid[dist > 0.3 * step].tolist())
                      | set(real.nodes))
        atom_at = dict(real.atoms)

        # dof list: (x, side) with side in {-1: left value, +1: right value,
        # 0: continuous}; atoms strictly inside get a pair
        dofs: list[tuple[float, int]] = []
        for x in cuts:
            if x in atom_at and a < x < b:
                dofs.append((x, -1))
                dofs.append((x, +1))
            else:
                dofs.append((x, 0))
        n = len(dofs)
        diag = np.zeros(n)
        off = np.zeros(n - 1)
        mass = np.zeros(n)
        for i in range(n - 1):
            x0, s0 = dofs[i]
            x1, s1 = dofs[i + 1]
            if x0 == x1:
                beta = atom_at[x0]
                diag[i] += 1.0 / beta
                diag[i + 1] += 1.0 / beta
                off[i] -= 1.0 / beta
            else:
                L = x1 - x0
                q = problem.potential.value(0.5 * (x0 + x1))
                diag[i] += 1.0 / L + q * L / 3.0
                diag[i + 1] += 1.0 / L + q * L / 3.0
                off[i] += -1.0 / L + q * L / 6.0
                mass[i] += L / 2.0
                mass[i + 1] += L / 2.0

        keep = np.ones(n, dtype=bool)
        if problem.bc_left == "dirichlet":
            if cuts[0] in atom_at:
                # atom at the endpoint: dof 0 is u(a+), free, with penalty
                # (u(a+) - 0)^2/beta against the clamped boundary value
                diag[0] += 1.0 / atom_at[cuts[0]]
            else:
                keep[0] = False
        # Neumann left + atom at a: jump = beta*u^[1](a) = 0, atom is inert
        if problem.bc_right == "dirichlet":
            keep[-1] = False
        idx = np.where(keep)[0]
        self.diag = diag[idx]
        self.mass = mass[idx]
        self.dof_positions = np.array([dofs[i][0] for i in idx])
        pairs = [(i, j) for i, j in zip(idx, idx[1:])]
        self.off = np.array([off[i] if j == i + 1 else 0.0
                             for (i, j) in pairs])
        if np.any(self.mass <= 0.0):
            raise MeshRefinementError("degenerate lumped mass; refine mesh")
        self.n = len(self.diag)
        self._scale = 1.0 / np.sqrt(self.mass)

    def eigenvalues(self, count: int) -> np.ndarray:
        """Lowest `count` eigenvalues of the generalized pencil."""
        count = min(count, self.n)
        if count <= 0:
            return np.zeros(0)
        d = self.diag * self._scale * self._scale
        e = self.off * self._scale[:-1] * self._scale[1:]
        return eigh_tridiagonal(d, e, select="i",
                                select_range=(0, count - 1),
                                eigvals_only=True)

    def inertia(self, t: float) -> int:
        """Number of pencil eigenvalues strictly below t (Sturm count)."""
        for shift in (t, t * (1.0 + 1e-14) + 1e-300):
            d = self.diag - shift * self.mass
            e = self.off
            neg = 0
            piv = d[0]
            ok = True
            if piv == 0.0:
                ok = False
            else:
                neg += piv < 0.0
                for i in range(1, self.n):
                    piv = d[i] - e[i - 1] * e[i - 1] / piv
                    if piv == 0.0:
                        ok = False
                        break
                    neg += piv < 0.0
            if ok:
                return neg
        raise MeshRefinementError("Sturm pivot breakdown; perturb t")


def galerkin_oracle(problem: ProblemSpec, mesh_size: float,
                    count: int = 10) -> SpectralData:
    """Oracle eigenvalues as SpectralData (no norming constants)."""
    oracle = GalerkinOracle(problem, mesh_size)
    ev = oracle.eigenvalues(count)
    ev = np.sort(ev)
    # guard against numerically equal pairs for the strict-increase invariant
    for i in range(1, len(ev)):
        if ev[i] <= ev[i - 1]:
            ev[i] = np.nextafter(ev[i - 1], np.inf)
    return SpectralData(tuple(float(v) for v in ev), None, "oracle",
                        tuple(range(1, len(ev) + 1)))


# ---------------------------------------------------------------------------
# spectral function


def spectral_function(problem: ProblemSpec, t: float,
                      rtol: float = 1e-12) -> float:
    """Neumann spectral function rho(t) from eigenvalues and norming constants.

    rho(t) = sum over 0 < lambda_n <= t of 1/||c(lambda_n)||^2 with c the
    Neumann-normalized left solution; negative t accumulates the analogous
    sum over [t, 0) with a minus sign.
    """
    if problem.bc_left != "neumann":
        raise ValueError("spectral_function requires a Neumann left condition")
    if t == 0.0:
        return 0.0
    if t > 0.0:
        data = eigenvalues(problem, window=(0.0, t), rtol=rtol)
        return math.fsum(1.0 / c for c in data.norming_constants)
    data = eigenvalues(problem, window=(t, 0.0), rtol=rtol)
    cs = [c for l, c in zip(data.eigenvalues, data.norming_constants)
          if t <= l < 0.0]
    return -math.fsum(1.0 / c for c in cs)


def spectral_function_samples(problem: ProblemSpec, ts,
                              rtol: float = 1e-12) -> list[tuple[float, float]]:
    """rho(t) on a grid of positive t values with one eigenvalue sweep."""
    ts = sorted(ts)
    if ts[0] <= 0.0:
        raise ValueError("grid must be positive; negative side is per-call")
    data = eigenvalues(problem, window=(0.0, ts[-1]), rtol=rtol)
    lams = data.eigenvalues
    inv = [1.0 / c for c in data.norming_constants]
    out = []
    for t in ts:
        k = _bisect.bisect_right(lams, t)
        out.append((t, math.fsum(inv[:k])))
    return out
