import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaprime import (CantorSpec, RefinementUnavailableError,
                        SingularMeasure, distribution, hahn, kappa_minus,
                        peak_variation, realize)
from conftest import peak_variation_brute, random_measure


def cantor_intervals_brute(support, ratio, level):
    """Independent recursive enumeration of construction intervals."""
    if level == 0:
        return [support]
    out = []
    for (lo, hi) in cantor_intervals_brute(support, ratio, level - 1):
        keep = (hi - lo) * ratio
        out.append((lo, lo + keep))
        out.append((hi - keep, hi))
    return out


class TestRealize:
    def test_pure_atomic_identity(self):
        m = SingularMeasure.from_atoms([(0.5, -1.0)])
        assert realize(m, 3) == [(0.5, -1.0)]

    def test_cantor_level_one(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
        got = realize(m, 1)
        np.testing.assert_allclose([x for (x, _) in got], [0.0, 2.0 / 3.0],
                                   atol=1e-15)
        assert [w for (_, w) in got] == [0.5, 0.5]

    def test_cantor_level_two_against_enumeration(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
        got = realize(m, 2)
        expect = sorted(lo for (lo, _) in
                        cantor_intervals_brute((0.0, 1.0), 1.0 / 3.0, 2))
        assert [x for (x, _) in got] == expect
        assert all(w == 0.25 for (_, w) in got)
        np.testing.assert_allclose(expect, [0.0, 2.0 / 9.0, 2.0 / 3.0,
                                            8.0 / 9.0], atol=1e-15)

    def test_levels_against_enumeration(self):
        spec = CantorSpec((0.2, 0.9), -0.6, ratio=0.4)
        m = SingularMeasure(cantor_parts=(spec,))
        for level in range(0, 6):
            got = realize(m, level)
            expect = cantor_intervals_brute(spec.support, spec.ratio, level)
            assert [x for (x, _) in got] == sorted(lo for (lo, _) in expect)
            np.testing.assert_allclose([w for (_, w) in got],
                                       -0.6 / 2 ** level)

    def test_merge_with_explicit_atom(self):
        m = SingularMeasure(atoms=((0.0, 0.25),),
                            cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
        got = realize(m, 1)
        assert got[0] == (0.0, 0.75)

    def test_exact_cancellation_drops_atom(self):
        m = SingularMeasure(atoms=((0.0, -0.5),),
                            cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
        got = realize(m, 1)
        np.testing.assert_allclose([x for (x, _) in got], [2.0 / 3.0],
                                   atol=1e-15)

    def test_level_cap_error(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0,
                                                     level_cap=3),))
        realize(m, 3)
        with pytest.raises(RefinementUnavailableError):
            realize(m, 4)

    def test_depth_bound(self):
        # level_cap allows 40, but 2^40 atoms are refused before any is built
        part = CantorSpec((0.0, 1.0), 1.0, level_cap=40)
        for level in (21, 40):
            with pytest.raises(RefinementUnavailableError,
                               match="deepest realizable level 20"):
                part.atoms(level)

    def test_total_mass_level_independent(self):
        m = SingularMeasure(atoms=((0.05, -0.2),),
                            cantor_parts=(CantorSpec((0.1, 1.0), 0.7),))
        for level in range(0, 9):
            total = math.fsum(w for (_, w) in realize(m, level))
            assert abs(total - 0.5) < 1e-12

    def test_weak_star_refinement(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))

        def moment(level, f):
            return math.fsum(w * f(x) for (x, w) in realize(m, level))

        for f in (lambda x: x, lambda x: x * x):
            diffs = [abs(moment(l + 1, f) - moment(l, f)) for l in range(1, 8)]
            assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


class TestDistribution:
    def test_left_continuity(self):
        m = SingularMeasure.from_atoms([(0.5, 2.0)])
        assert distribution(m, 0.5, 1) == 0.0
        assert distribution(m, 0.6, 1) == 2.0

    def test_cantor_midpoint(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
        assert distribution(m, 0.5, 2) == 0.5

    def test_devils_staircase_pointwise(self):
        # x = 1/4 = 0.020202..._3 lies in the middle-thirds set and the
        # staircase value there is the binary reread 0.0101... = 1/3
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
        errs = [abs(distribution(m, 0.25, L) - 1.0 / 3.0)
                for L in (4, 8, 12)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-3

    def test_monotone_iff_nonnegative(self, rng):
        grid = np.linspace(-0.1, 1.1, 101)
        for _ in range(30):
            m = random_measure(rng)
            vals = [distribution(m, x, 1) for x in grid]
            nondecreasing = all(b >= a for a, b in zip(vals, vals[1:]))
            nonneg = all(w >= 0 for (_, w) in realize(m, 1))
            assert nondecreasing == nonneg


class TestHahn:
    def test_trivial_split(self):
        m = SingularMeasure.from_atoms([(0.2, 1.0), (0.5, -2.0)])
        dec = hahn(m, 1)
        assert dec.positive_part.atoms == ((0.2, 1.0),)
        assert dec.negative_part.atoms == ((0.5, -2.0),)

    def test_all_positive(self):
        m = SingularMeasure.from_atoms([(0.2, 1.0), (0.5, 2.0)])
        assert hahn(m, 1).negative_part.atoms == ()

    def test_negative_cantor_level3(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), -1.0),))
        dec = hahn(m, 3)
        assert dec.positive_part.atoms == ()
        assert len(dec.negative_part.atoms) == 8

    def test_recombination_1000_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = random_measure(rng)
            dec = hahn(m, 1)
            merged = sorted(dec.positive_part.atoms + dec.negative_part.atoms)
            assert merged == realize(m, 1)


class TestKappaMinus:
    def test_counts_negative_atoms(self):
        m = SingularMeasure.from_atoms([(0.2, 1.0), (0.5, -2.0), (0.7, -0.3)])
        assert kappa_minus(m) == 2

    def test_empty(self):
        assert kappa_minus(SingularMeasure.empty()) == 0

    def test_negative_cantor_is_infinite(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), -1.0),))
        assert kappa_minus(m) == math.inf


class TestPeakVariation:
    def test_free(self):
        assert peak_variation(SingularMeasure.empty(), 0.3, 1) == 0.3

    def test_empty_span(self):
        # [start, x] is one point: no subinterval, even with an atom on it
        m = SingularMeasure.from_atoms([(0.3, 1.0)])
        assert peak_variation(m, 0.3, 0, start=0.3) == 0.0

    def test_negative_atom(self):
        # P walks 0 -> 0.1, jumps to -0.4, rises to -0.2; the half-open
        # subinterval [0.1, 0.1+eps) isolates the atom, so the sup is 0.5
        m = SingularMeasure.from_atoms([(0.1, -0.5)])
        got = peak_variation(m, 0.3, 1)
        assert abs(got - peak_variation_brute(m, 0.3, 1)) < 1e-9
        assert abs(got - 0.5) < 1e-12

    def test_positive_atom(self):
        m = SingularMeasure.from_atoms([(0.1, 1.0)])
        assert abs(peak_variation(m, 0.2, 1) - 1.2) < 1e-12

    def test_brute_force_random(self, rng):
        for _ in range(25):
            m = random_measure(rng)
            x = float(rng.uniform(0.3, 1.2))
            exact = peak_variation(m, x, 1)
            brute = peak_variation_brute(m, x, 1)
            assert abs(exact - brute) < 1e-9

    def test_monotone_and_dominates_p(self, rng):
        for _ in range(10):
            m = random_measure(rng)
            xs = np.linspace(0.05, 1.3, 40)
            vals = [peak_variation(m, x, 1) for x in xs]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
            for x, v in zip(xs, vals):
                p = (x - 0.0) + distribution(m, x, 1)
                assert v >= abs(p) - 1e-12


class TestFiniteValues:
    @pytest.mark.parametrize("atom", [(math.nan, 0.5), (math.inf, 0.5),
                                      (0.5, math.nan), (0.5, -math.inf)])
    def test_atom_position_and_weight(self, atom):
        with pytest.raises(ValueError, match="finite"):
            SingularMeasure.from_atoms([atom])

    @pytest.mark.parametrize("support, mass", [
        ((0.0, math.inf), 1.0), ((math.nan, 1.0), 1.0),
        ((0.0, 1.0), math.nan), ((0.0, 1.0), -math.inf)])
    def test_cantor_support_and_mass(self, support, mass):
        with pytest.raises(ValueError, match="finite"):
            CantorSpec(support, mass)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(-2.0, 2.0)),
                min_size=1, max_size=6,
                unique_by=lambda t: round(t[0], 3)))
def test_hahn_parts_have_pure_signs(pairs):
    pairs = [(x, w) for (x, w) in pairs if w != 0.0]
    if not pairs:
        return
    m = SingularMeasure.from_atoms(pairs)
    dec = hahn(m, 1)
    assert all(w > 0 for (_, w) in dec.positive_part.atoms)
    assert all(w < 0 for (_, w) in dec.negative_part.atoms)
