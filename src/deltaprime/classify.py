"""Endpoint classification, deficiency indices, discreteness criteria.

Endpoint classification is symbolic: with q in the bounded-plus-compact
class, limit circle at an endpoint is equivalent to both u = 1 and u = P
being square integrable near it, which is decided by endpoint finiteness
and declared growth data alone.  The criteria evaluators work on a declared
finite window of gap data and report trends; they certify nothing about the
k -> infinity limit and say "inconclusive" whenever the windowed evidence
is mixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UnsupportedHypothesisError
from .propagate import PiecewisePotential

__all__ = [
    "EndpointDescriptor",
    "EndpointVerdict",
    "GapStructure",
    "CriteriaReport",
    "classify_endpoint",
    "deficiency_indices",
    "evaluate_criteria",
]

Q_CLASSES = ("bounded", "bounded_plus_compact")
MOLCHANOV_GRID = 32


@dataclass(frozen=True)
class EndpointDescriptor:
    """Symbolic data about one endpoint of a problem family.

    position is a float or +-inf.  measure_tv_finite_near declares whether
    |dnu| is finite near the endpoint; when it is not, p_square_integrable
    must state explicitly whether P stays square integrable there (tall
    thin spikes can be L2 even with unbounded variation).
    """

    side: str                       # "left" | "right"
    position: float
    measure_tv_finite_near: bool = True
    p_square_integrable: bool | None = None
    q_class: str = "bounded"


@dataclass(frozen=True)
class EndpointVerdict:
    endpoint: str                   # "left" | "right"
    kind: str                       # "limit_point" | "limit_circle"
    reason: str


def classify_endpoint(descriptor: EndpointDescriptor) -> EndpointVerdict:
    """Weyl alternative for one endpoint from symbolic growth data.

    Limit circle iff both the constant solution and P are square integrable
    near the endpoint; infinite endpoints are always limit point (1 is not
    L2 there).  Requires q in the bounded (+ compactly supported) class,
    otherwise no verdict is attempted.
    """
    if descriptor.q_class not in Q_CLASSES:
        raise UnsupportedHypothesisError(
            f"classification requires q in {Q_CLASSES}, got "
            f"{descriptor.q_class!r}")
    if math.isinf(descriptor.position):
        return EndpointVerdict(descriptor.side, "limit_point",
                               "constant solution not square integrable")
    if descriptor.measure_tv_finite_near:
        return EndpointVerdict(descriptor.side, "limit_circle",
                               "finite endpoint with locally finite |dnu|")
    if descriptor.p_square_integrable is None:
        raise UnsupportedHypothesisError(
            "unbounded local variation: declare p_square_integrable")
    if descriptor.p_square_integrable:
        return EndpointVerdict(descriptor.side, "limit_circle",
                               "finite endpoint, P square integrable")
    return EndpointVerdict(descriptor.side, "limit_point",
                           "P not square integrable near the endpoint")


def deficiency_indices(left: EndpointVerdict,
                       right: EndpointVerdict) -> tuple[int, int]:
    """(n, n) with n the number of limit-circle endpoints; 0 means self-adjoint."""
    n = sum(1 for v in (left, right) if v.kind == "limit_circle")
    return (n, n)


@dataclass(frozen=True)
class GapStructure:
    """Component intervals of the complement of the measure's support."""

    gaps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.gaps:
            raise ValueError("gap list must be nonempty")
        for (a, b) in self.gaps:
            if not b > a:
                raise ValueError("gaps must have positive length")
        ordered = sorted(self.gaps)
        for (a0, b0), (a1, b1) in zip(ordered, ordered[1:]):
            if a1 < b0:
                raise ValueError("gaps must be pairwise disjoint")


@dataclass(frozen=True)
class CriteriaReport:
    brinck_sup: float
    molchanov_samples: tuple[tuple[float, float, float], ...]  # (eps, x, val)
    gap_means: tuple[float, ...]
    necessary_seq: tuple[float, ...]       # 1/d_k^2 + gap mean
    verdict: str                           # discrete | not_discrete | inconclusive
    reasons: tuple[str, ...] = field(default=())


def _quartile_trend_ratio(seq) -> float:
    """Mean of the last quartile over mean of the first quartile.

    inf when the head is ~0 and the tail is not; 1.0 for flat data.  A pure
    reporting heuristic for 'this windowed sequence is heading to infinity'.
    """
    n = len(seq)
    k = max(1, n // 4)
    head = sum(seq[:k]) / k
    tail = sum(seq[-k:]) / k
    if head <= 0.0:
        return math.inf if tail > 0.0 else 1.0
    return tail / head


def evaluate_criteria(gaps: GapStructure, q: PiecewisePotential,
                      epsilon_grid=(1.0,), k_prefix: int | None = None,
                      trend_factor: float = 4.0) -> CriteriaReport:
    """Windowed evaluation of the discreteness criteria.

    Computes, over the declared gap prefix: the negative-part form bound
    sup_k (1/d_k) int_{gap_k} q_-, Molchanov samples int_x^{x+eps} q on a
    grid for each eps, the gap means (1/d_k) int_{gap_k} q, and the
    necessary-condition sequence 1/d_k^2 + gap mean.

    Verdict rules (trend = last-quartile over first-quartile factor):
      discrete       both the Molchanov samples and the gap means trend up;
      not_discrete   neither trends up and the necessary-condition sequence
                     stays bounded (its divergence is necessary for a
                     discrete spectrum, so a bounded trend rules it out);
      inconclusive   anything else: finite data cannot certify a limit.
    """
    gap_list = list(gaps.gaps)
    if k_prefix is not None:
        gap_list = gap_list[:k_prefix]
    if not gap_list:
        raise ValueError("empty gap prefix")
    d = [b - a for (a, b) in gap_list]
    means = [q.integral(a, b) / (b - a) for (a, b) in gap_list]
    q_minus = PiecewisePotential(q.breakpoints,
                                 tuple(max(-v, 0.0) for v in q.values))
    brinck = max(q_minus.integral(a, b) / (b - a) for (a, b) in gap_list)
    lo = min(a for (a, _) in gap_list)
    hi = max(b for (_, b) in gap_list)
    samples = []
    for eps in epsilon_grid:
        if hi - eps <= lo:
            raise ValueError(f"epsilon {eps} exceeds the data window")
        step = (hi - eps - lo) / (MOLCHANOV_GRID - 1)
        for i in range(MOLCHANOV_GRID):
            x = lo + i * step
            samples.append((eps, x, q.integral(x, x + eps)))
    necessary = [1.0 / dk ** 2 + m for dk, m in zip(d, means)]

    molch_up = all(
        _quartile_trend_ratio([v for (e, _, v) in samples if e == eps])
        >= trend_factor for eps in epsilon_grid)
    means_up = _quartile_trend_ratio(means) >= trend_factor
    necessary_up = _quartile_trend_ratio(necessary) >= trend_factor

    reasons = []
    if molch_up and means_up:
        verdict = "discrete"
        reasons.append("Molchanov samples and gap means both trend upward "
                       "on the window (sufficiency direction)")
    elif not molch_up and not means_up and not necessary_up:
        verdict = "not_discrete"
        reasons.append("necessary-condition sequence 1/d_k^2 + gap mean "
                       "stays bounded on the window")
        if brinck < math.inf:
            reasons.append("q bounded on the window with flat Molchanov "
                           "samples")
    else:
        verdict = "inconclusive"
        if necessary_up and not means_up:
            reasons.append("necessary condition diverges while the "
                           "sufficient gap-mean condition stays flat")
        else:
            reasons.append("mixed windowed evidence")
    return CriteriaReport(brinck, tuple(samples), tuple(means),
                          tuple(necessary), verdict, tuple(reasons))
