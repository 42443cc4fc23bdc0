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

# deepest realizable level.  A per-cell consumer builds 2^20 atoms, each a
# Python tuple; a problem crossed on its block plan builds O(level) of them
# but is held to the same bound
_MAX_LEVEL = 20


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
        if not all(map(math.isfinite, (c, d, self.mass))):
            raise ValueError("cantor support and mass must be finite")
        if not (c < d):
            raise ValueError("cantor support must be a nondegenerate interval")
        if not (0.0 < self.ratio < 0.5):
            raise ValueError("cantor ratio must lie in (0, 1/2)")
        if self.level_cap < 1:
            raise ValueError("level_cap must be a positive integer")

    def atoms(self, level: int, lo: float = -math.inf,
              hi: float = math.inf) -> list[tuple[float, float]]:
        """Level-``level`` atomic realization as (position, weight) pairs,
        those in [lo, hi) only.

        The descent splits only the construction intervals that meet [lo,
        hi) (each holds its descendants' atoms), so a short span costs
        O(level) and every position is bitwise that of the whole
        realization.
        """
        self.check_level(level)
        intervals = [self.support]
        for _ in range(level):
            if intervals[0][1] < lo or intervals[-1][0] >= hi:
                intervals = [iv for iv in intervals
                             if iv[1] >= lo and iv[0] < hi]
                if not intervals:
                    return []
            intervals = self.split(intervals)
        w = self.mass / 2 ** level
        return [(x, w) for (x, _) in intervals if lo <= x < hi]

    def check_level(self, level: int) -> None:
        """Refuse a level past level_cap or the deepest realizable one."""
        if level > min(self.level_cap, _MAX_LEVEL):
            raise RefinementUnavailableError(
                f"level {level} exceeds level_cap {self.level_cap} or the "
                f"deepest realizable level {_MAX_LEVEL}")
        if level < 0:
            raise ValueError("level must be nonnegative")

    def distinct(self, level: int) -> bool:
        """Whether the level-``level`` atoms are distinct doubles: the
        narrowest leaf or gap is far above the rounding of the positions
        (level * a few ulps of the support's ends)."""
        c, d = self.support
        r = self.ratio
        narrow = (d - c) * r ** max(level - 1, 0) * min(r, 1.0 - 2.0 * r)
        return level == 0 or narrow > 2.0 ** -40 * max(abs(c), abs(d))

    def split(self, intervals) -> list[tuple[float, float]]:
        """The construction intervals one level down: each (lo, hi) keeps
        (lo, lo + keep) and (hi - keep, hi), keep = (hi - lo)*ratio."""
        out = []
        for (lo, hi) in intervals:
            keep = (hi - lo) * self.ratio
            out.append((lo, lo + keep))
            out.append((hi - keep, hi))
        return out


@dataclass(frozen=True)
class SingularMeasure:
    """Finite signed atomic measure plus optional Cantor parts."""

    atoms: tuple[tuple[float, float], ...] = ()
    cantor_parts: tuple[CantorSpec, ...] = ()

    def __post_init__(self):
        if not all(math.isfinite(x) and math.isfinite(w)
                   for (x, w) in self.atoms):
            raise ValueError("atom positions and weights must be finite")
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


@dataclass(frozen=True)
class HahnDecomposition:
    positive_part: SingularMeasure
    negative_part: SingularMeasure


def realize(measure: SingularMeasure, level: int, lo: float = -math.inf,
            hi: float = math.inf) -> list[tuple[float, float]]:
    """Finite atomic realization at the given refinement level, in [lo, hi).

    Explicit atoms and Cantor-level atoms landing on the same coordinate are
    merged by weight addition (exact cancellations are dropped).  The result
    is sorted by position; over the whole line its total signed mass equals
    the measure's.  The atoms of a span are bitwise those of the whole
    realization there.
    """
    merged: dict[float, float] = {}
    for (x, w) in measure.atoms:
        if lo <= x < hi:
            merged[x] = merged.get(x, 0.0) + w
    for part in measure.cantor_parts:
        for (x, w) in part.atoms(level, lo, hi):
            merged[x] = merged.get(x, 0.0) + w
    return [(x, w) for x, w in sorted(merged.items()) if w != 0.0]


def misplaced(positions, supports, a: float, b: float):
    """(pointer, reason) per atom position outside [a, b) and per Cantor
    support outside [a, b], pointer "atoms/i/x" or "cantor/i/support"."""
    for i, x in enumerate(positions):
        if not a <= x < b:
            yield f"atoms/{i}/x", f"atom at {x} outside [{a}, {b})"
    for i, (c, d) in enumerate(supports):
        if not a <= c < d <= b:
            yield f"cantor/{i}/support", f"support outside [{a}, {b}]"


def check_placement(measure: SingularMeasure, a: float, b: float) -> None:
    """Raise misplaced's first finding: every realized atom stays in [a, b)."""
    for where, reason in misplaced([x for x, _ in measure.atoms], [
            c.support for c in measure.cantor_parts], a, b):
        raise ValueError(f"measure {where}: {reason}")


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
        # the rise to the atom (0.0 on it changes nothing), then its jump
        for step in (xi - pos, w):
            cur += step
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
