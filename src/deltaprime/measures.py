"""Signed singular measures: atoms plus middle-ratio Cantor generators.

A measure is represented by finitely many explicit atoms together with
optional Cantor-type generators.  Everything downstream works with finite
atomic *realizations* at an explicit refinement level; the generator's
distribution function converges to the devil's staircase as the level grows.
All objects are immutable value types.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RefinementUnavailableError

__all__ = [
    "CantorSpec",
    "SingularMeasure",
    "HahnDecomposition",
    "realize",
    "distribution",
    "hahn",
    "kappa_minus",
    "peak_variation",
]


@dataclass(frozen=True)
class CantorSpec:
    """Middle-removal Cantor generator on [support[0], support[1]].

    ``ratio`` is the fraction of each construction interval kept on either
    side per step; 1/3 reproduces the classical middle-thirds set.  The
    level-L realization carries 2**L equal atoms of weight mass/2**L at the
    left endpoints of the level-L construction intervals.
    """

    support: tuple[float, float]
    mass: float
    ratio: float = 1.0 / 3.0
    level_cap: int = 12

    def __post_init__(self):
        c, d = self.support
        if not (c < d):
            raise ValueError("cantor support must be a nondegenerate interval")
        if not (0.0 < self.ratio < 0.5):
            raise ValueError("cantor ratio must lie in (0, 1/2)")
        if self.level_cap < 1:
            raise ValueError("level_cap must be a positive integer")

    def atoms(self, level: int) -> list[tuple[float, float]]:
        """Level-``level`` atomic realization as (position, weight) pairs."""
        if level > self.level_cap:
            raise RefinementUnavailableError(
                f"level {level} exceeds level_cap {self.level_cap}")
        if level < 0:
            raise ValueError("level must be nonnegative")
        intervals = [self.support]
        for _ in range(level):
            nxt = []
            for (lo, hi) in intervals:
                keep = (hi - lo) * self.ratio
                nxt.append((lo, lo + keep))
                nxt.append((hi - keep, hi))
            intervals = nxt
        w = self.mass / len(intervals)
        return [(lo, w) for (lo, _) in intervals]


@dataclass(frozen=True)
class SingularMeasure:
    """Finite signed atomic measure plus optional Cantor parts."""

    atoms: tuple[tuple[float, float], ...] = ()
    cantor_parts: tuple[CantorSpec, ...] = ()

    def __post_init__(self):
        xs = [x for (x, _) in self.atoms]
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise ValueError("atom positions must be strictly increasing")
        if any(w == 0.0 for (_, w) in self.atoms):
            raise ValueError("explicit atom weights must be nonzero")

    @classmethod
    def from_atoms(cls, pairs) -> "SingularMeasure":
        return cls(atoms=tuple(sorted((float(x), float(w)) for x, w in pairs)))

    @classmethod
    def empty(cls) -> "SingularMeasure":
        return cls()

    @property
    def total_mass(self) -> float:
        return math.fsum(w for (_, w) in self.atoms) + math.fsum(
            c.mass for c in self.cantor_parts)

    def is_nonnegative(self, level: int) -> bool:
        return all(w >= 0.0 for (_, w) in realize(self, level))


@dataclass(frozen=True)
class HahnDecomposition:
    positive_part: SingularMeasure
    negative_part: SingularMeasure


def realize(measure: SingularMeasure, level: int) -> list[tuple[float, float]]:
    """Finite atomic realization at the given refinement level.

    Explicit atoms and Cantor-level atoms landing on the same coordinate are
    merged by weight addition (exact cancellations are dropped).  The result
    is sorted by position and its total signed mass equals the measure's.
    """
    merged: dict[float, float] = {}
    for (x, w) in measure.atoms:
        merged[x] = merged.get(x, 0.0) + w
    for part in measure.cantor_parts:
        for (x, w) in part.atoms(level):
            merged[x] = merged.get(x, 0.0) + w
    return [(x, w) for x, w in sorted(merged.items()) if w != 0.0]


def distribution(measure: SingularMeasure, x: float, level: int) -> float:
    """Left-continuous distribution value: sum of weights strictly below x."""
    return math.fsum(w for (p, w) in realize(measure, level) if p < x)


def hahn(measure: SingularMeasure, level: int) -> HahnDecomposition:
    """Split the level realization into its positive and negative parts."""
    atoms = realize(measure, level)
    pos = tuple((x, w) for (x, w) in atoms if w > 0.0)
    neg = tuple((x, w) for (x, w) in atoms if w < 0.0)
    return HahnDecomposition(SingularMeasure(atoms=pos), SingularMeasure(atoms=neg))


def kappa_minus(measure: SingularMeasure) -> int | float:
    """Size of the negative part's support: a count, or inf.

    A Cantor generator with negative mass has a singular continuous negative
    part, which is never pure point; in that case the count is infinite.
    Otherwise it equals the number of distinct positions carrying negative
    weight.  Level-independent.
    """
    if any(c.mass < 0.0 for c in measure.cantor_parts):
        return math.inf
    return sum(1 for (_, w) in measure.atoms if w < 0.0)


def _ptilde_segments(measure: SingularMeasure, level: int, origin: float,
                     span: float):
    """Piecewise data of xi -> ptilde(origin + xi) on [0, span].

    Each segment carries (xi0, xi1, flat, rise0): ptilde(xi) =
    max(flat, rise0 + (xi - xi0)) on [xi0, xi1].
    """
    atoms = [(x - origin, w) for (x, w) in realize(measure, level)
             if 0.0 <= x - origin <= span]
    segs = []
    cur = 0.0
    lo = hi = 0.0
    best = 0.0
    pos = 0.0
    for (xi, w) in atoms:
        if xi > pos:
            segs.append((pos, xi, best, cur - lo))
            cur += xi - pos
            best = max(best, cur - lo, hi - cur)
            lo, hi = min(lo, cur), max(hi, cur)
        cur += w
        best = max(best, cur - lo, hi - cur)
        lo, hi = min(lo, cur), max(hi, cur)
        pos = xi
    if span > pos:
        segs.append((pos, span, best, cur - lo))
    return segs


def peak_variation(measure: SingularMeasure, x: float, level: int,
                   start: float = 0.0) -> float:
    """Largest |increment of P| over subintervals [s,t) of [start, x].

    P(t) = (t - start) + nu(t) with nu the left-continuous distribution of
    the level realization.  P is piecewise linear with jumps, so the
    supremum is attained on the finite set of breakpoint values (taking both
    left limits and post-jump values); it is the end value of the last
    ptilde segment, which leaves out any atom at x itself.
    """
    if x < start:
        raise ValueError("x must be >= start")
    if x == start:
        return 0.0
    x0, x1, flat, rise0 = _ptilde_segments(measure, level, start,
                                           x - start)[-1]
    return max(flat, rise0 + (x1 - x0))
