"""High-energy asymptotics: Weyl law fits, m-function, spectral function.

The Neumann m-function of the truncated half-line problem is read off the
right-Dirichlet solution, m(z) = -psi(z,a)/psi^[1](z,a), with the sign
fixed so the free half line gives 1/sqrt(-z).  Its magnitude at z = -r is
governed by the scale function f(r): with ell(r) the length for which
ell * ptilde(ell) = 1/r (the balance of the two first-order systems), f(r)
is the peak variation ptilde at that critical length.  This reproduces
1/sqrt(r) for the free measure and the atom weight in atom-dominated
windows, and it is the unique reading of the printed scale definition
consistent with both regimes (see the module tests).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InsufficientDataError, NearSingularError
# realize stays a module attribute: perfbench/tracing.py wraps it here
from .measures import SingularMeasure, _ptilde_segments, realize  # noqa: F401
from .propagate import ProblemSpec, propagate
from .spectrum import SpectralData

__all__ = [
    "AsymptoticFit",
    "weyl_fit",
    "m_function",
    "power_constant",
    "scale_function",
    "m_asymptotics_check",
    "rho_asymptotics_check",
]


@dataclass(frozen=True)
class AsymptoticFit:
    """Samples against a declared leading term on a declared window only."""

    samples: tuple[tuple[float, float], ...]
    model: str
    fitted_coefficient: float
    max_rel_dev: float
    dropped: int = 0


def weyl_fit(data: SpectralData, interval: tuple[float, float],
             min_count: int = 50) -> AsymptoticFit:
    """Fit n/sqrt(lambda_n) on the top half of the index range.

    The reference constant is (b-a)/pi; max_rel_dev is the worst relative
    deviation from it over the fitted window.
    """
    if len(data.eigenvalues) < min_count:
        raise InsufficientDataError(
            f"need at least {min_count} eigenvalues, have "
            f"{len(data.eigenvalues)}")
    a, b = interval
    target = (b - a) / math.pi
    half = len(data.eigenvalues) // 2
    samples = tuple(
        (float(n), n / math.sqrt(lam))
        for n, lam in zip(data.indices[half:], data.eigenvalues[half:]))
    fitted = math.fsum(s for (_, s) in samples) / len(samples)
    dev = max(abs(s / target - 1.0) for (_, s) in samples)
    return AsymptoticFit(samples, "n/sqrt(lambda_n) -> (b-a)/pi", fitted, dev)


def m_function(problem: ProblemSpec, z):
    """Neumann m-function of the problem truncated with Dirichlet at b.

    m(z) = -psi(z,a)/psi^[1](z,a) where psi is the right-Dirichlet solution;
    the log-scale of the propagated state cancels in the ratio, so deep
    real z never overflows.
    """
    if problem.bc_right != "dirichlet":
        raise ValueError("m-function needs the Dirichlet truncation at b")
    res = propagate(problem, z, from_left=False)
    u, u1 = res.state.u, res.state.u1
    if abs(u1) <= 1e-13 * max(abs(u), abs(u1)):
        raise NearSingularError(
            f"z={z!r} is numerically at a Neumann eigenvalue")
    return -u / u1


def power_constant(alpha: float) -> float:
    """Leading constant of the order-alpha m-function power law.

    alpha**(1/(1+alpha)) * (1+alpha)**((1-alpha)/(1+alpha))
        * Gamma(alpha/(1+alpha)) / Gamma(1/(1+alpha))
    for alpha in (0, 1]; the alpha = 0 branch is 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0:
        return 1.0
    return (alpha ** (1.0 / (1.0 + alpha))
            * (1.0 + alpha) ** ((1.0 - alpha) / (1.0 + alpha))
            * math.gamma(alpha / (1.0 + alpha))
            / math.gamma(1.0 / (1.0 + alpha)))


def scale_function(measure: SingularMeasure, r: float, level: int,
                   origin: float = 0.0, span: float = math.inf) -> float:
    """f(r): peak variation at the critical length ell with ell*ptilde = 1/r.

    Equivalently the nonincreasing generalized inverse of
    F(p) = 1/(p * ptilde^{-1}(p)); when 1/r falls inside the jump of
    xi -> xi*ptilde(xi) at an atom offset xi0, the interpolating branch
    1/(r*xi0) is returned.  Exact on the breakpoint structure.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    target = 1.0 / r
    segs = _ptilde_segments(measure, level, origin, span)
    if not segs:
        raise ValueError("empty peak-variation structure; check span")
    for (x0, x1, flat, rise0) in segs:
        G0 = x0 * max(flat, rise0)
        if target < G0 and x0 > 0.0:
            return target / x0  # inside the jump of xi*ptilde at offset x0
        # flat branch: G = xi*flat while rise0 + (xi-x0) <= flat
        cross = x0 + max(flat - rise0, 0.0)
        seg_hi = min(cross, x1)
        if flat > 0.0 and x0 < seg_hi and target <= seg_hi * flat:
            return flat
        # rising branch: G = xi*(rise0 + xi - x0), quadratic in xi
        hi_G = x1 * (rise0 + (x1 - x0))
        if target <= hi_G:
            c = rise0 - x0
            xi = (-c + math.sqrt(c * c + 4.0 * target)) / 2.0
            xi = min(max(xi, seg_hi), x1)
            return rise0 + (xi - x0)
    # target beyond the window: clamp to the far end (large-r regime only)
    x0, x1, flat, rise0 = segs[-1]
    return max(flat, rise0 + (x1 - x0))


def m_asymptotics_check(problem: ProblemSpec, alpha: float, r_grid,
                        mus=(-1.0,), level: int | None = None) -> AsymptoticFit:
    """Tabulate m(r*mu) against C_alpha (-mu)^(-alpha/(1+alpha)) f(r).

    Certified for alpha in {0, 1}; other orders are accepted but carry no
    finite-level guarantee.  Near-singular evaluations are dropped and
    counted.
    """
    c_alpha = power_constant(alpha)
    lv = problem.level if level is None else level
    a, b = problem.interval
    samples = []
    dropped = 0
    for r in r_grid:
        f = scale_function(problem.measure, r, lv, origin=a, span=b - a)
        for mu in mus:
            mu_c = complex(mu)
            z = r * mu_c
            if z.imag == 0.0:
                z = z.real
            try:
                m = m_function(problem, z)
            except NearSingularError:
                dropped += 1
                continue
            pref = c_alpha * (-mu_c) ** (-alpha / (1.0 + alpha)) * f
            samples.append((r, abs(m / pref)))
    if not samples:
        raise InsufficientDataError("all m evaluations were near-singular")
    fitted = math.fsum(v for (_, v) in samples) / len(samples)
    dev = max(abs(v - 1.0) for (_, v) in samples)
    return AsymptoticFit(tuple(samples),
                         "m(r mu) -> C_alpha (-mu)^(-a/(1+a)) f(r)",
                         fitted, dev, dropped)


def rho_asymptotics_check(rho_samples, alpha: float, scale,
                          min_count: int = 1) -> AsymptoticFit:
    """Ratio of rho(t) to its predicted leading term on the sampled window.

    rho_samples are (t, rho(t)) pairs; scale is the r -> f(r) callable.
    For alpha in (0, 1] the prediction is
    ((1+alpha)/pi) sin(pi/(1+alpha)) C_alpha t f(t) and the fit targets 1;
    for alpha = 0 the statement is rho = o(t f(t)) and the tabulated ratios
    are reported as a trend toward 0.
    """
    rho_samples = list(rho_samples)
    if len(rho_samples) < min_count:
        raise InsufficientDataError("not enough spectral-function samples")
    c_alpha = power_constant(alpha)
    out = []
    for (t, rho) in rho_samples:
        if alpha > 0.0:
            pred = ((1.0 + alpha) / math.pi
                    * math.sin(math.pi / (1.0 + alpha)) * c_alpha
                    * t * scale(t))
        else:
            pred = t * scale(t)
        out.append((t, rho / pred))
    fitted = math.fsum(v for (_, v) in out) / len(out)
    if alpha > 0.0:
        dev = max(abs(v - 1.0) for (_, v) in out)
        model = "rho(t) -> ((1+a)/pi) sin(pi/(1+a)) C_a t f(t)"
    else:
        dev = max(abs(v) for (_, v) in out)
        model = "rho(t) = o(t f(t))"
    return AsymptoticFit(tuple(out), model, fitted, dev)
