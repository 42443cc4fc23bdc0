import cmath
import math

import numpy as np
import pytest

from deltaprime import (CantorSpec, InsufficientDataError, ProblemSpec,
                        SingularMeasure, UnsupportedHypothesisError,
                        eigenvalues, m_asymptotics_check,
                        m_function, power_constant, rho_asymptotics_check,
                        scale_function, spectral_function_samples, weyl_fit)
from deltaprime.spectrum import _eigenvalue_by_index

CANTOR1 = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))

# pinned by direct evaluation of the Gamma-function formula at alpha = 1/2
POWER_CONSTANT_HALF = 1.426647501693559


def on(measure, span, level):
    """The problem whose scale function is the measure's from 0 over span."""
    return ProblemSpec((0.0, span), measure=measure, level=level)


def halfline(R=50.0, measure=SingularMeasure(), bc_left="neumann"):
    return ProblemSpec((0.0, R), bc_left=bc_left, measure=measure)


class TestWeylFit:
    def test_free_interval_exact(self):
        p = ProblemSpec((0.0, 1.0))
        data = eigenvalues(p, n_max=100, with_norming=False)
        fit = weyl_fit(data, p.interval)
        assert abs(fit.fitted_coefficient - 1.0 / math.pi) < 1e-12
        assert fit.max_rel_dev < 1e-10

    def test_scaling_to_longer_interval(self):
        p = ProblemSpec((0.0, 2.0))
        data = eigenvalues(p, n_max=60, with_norming=False)
        fit = weyl_fit(data, p.interval)
        assert abs(fit.fitted_coefficient - 2.0 / math.pi) < 1e-10

    def test_insufficient_data(self):
        p = ProblemSpec((0.0, 1.0))
        data = eigenvalues(p, n_max=10, with_norming=False)
        with pytest.raises(InsufficientDataError):
            weyl_fit(data, p.interval)

    def test_invariance_under_weak_atoms(self):
        # the fitted constant moves by < 2% when a finite nonnegative atomic
        # measure is added (couplings weak at the fitted energies)
        p0 = ProblemSpec((0.0, 1.0))
        m = SingularMeasure.from_atoms([(0.3, 0.004), (0.7, 0.002)])
        p1 = ProblemSpec((0.0, 1.0), measure=m)
        f0 = weyl_fit(eigenvalues(p0, n_max=60, with_norming=False),
                      p0.interval)
        f1 = weyl_fit(eigenvalues(p1, n_max=60, with_norming=False),
                      p1.interval)
        assert abs(f1.fitted_coefficient / f0.fitted_coefficient - 1) < 0.02

    def test_cantor_level5_asymptotic_window(self):
        """The Weyl constant is recovered at indices where the counting
        offset (between 0 and 1 per atom by interlacing, 32 atoms at level
        5) is small relative to n; at n ~ 2000 the deviation is under 2%."""
        p = ProblemSpec((0.0, 1.0), measure=CANTOR1, level=5)
        for n in (1500, 2000):
            lam = _eigenvalue_by_index(p, n)
            assert abs(n / math.sqrt(lam) * math.pi - 1.0) < 0.02
        lam_lo = _eigenvalue_by_index(p, 50)
        assert 50 / math.sqrt(lam_lo) * math.pi > 1.3  # offset regime


class TestCountingGrowth:
    def test_counting_over_sqrt_approaches_weyl(self):
        from deltaprime import counting_function
        p = ProblemSpec((0.0, 1.0), measure=SingularMeasure.from_atoms(
            [(0.4, 0.02)]))
        for t in (1e4, 4e4):
            n = counting_function(p, t)
            assert abs(n / math.sqrt(t) - 1.0 / math.pi) < 0.03

    def test_negative_side_stabilizes_at_kappa(self):
        from deltaprime import counting_function
        m = SingularMeasure.from_atoms([(0.3, -0.3), (0.7, -0.4)])
        p = ProblemSpec((-3.0, 4.0), measure=m)
        assert counting_function(p, -1e5) == 2
        assert counting_function(p, -1e7) == 2


class TestMFunction:
    def test_free_deep_value(self):
        assert abs(m_function(halfline(), -100.0) - 0.1) < 1e-8

    def test_truncation_insensitivity(self):
        m25 = m_function(halfline(25.0), -1.0)
        m50 = m_function(halfline(50.0), -1.0)
        assert abs(m50 - m25) < 1e-10

    def test_atom_on_halfline_free_leading_term(self):
        m = SingularMeasure.from_atoms([(1.0, 1.0)])
        p = halfline(measure=m)
        val = m_function(p, -1.0e4)
        assert abs(val / 0.01 - 1.0) < 0.05

    def test_herglotz_on_grid(self):
        m = SingularMeasure.from_atoms([(1.0, 1.0), (2.0, -0.3)])
        p = halfline(measure=m)
        rng = np.random.default_rng(11)
        for _ in range(40):
            z = complex(rng.uniform(-50.0, 50.0), rng.uniform(0.1, 50.0))
            mv = m_function(p, z)
            assert mv.imag * z.imag > 0.0

    def test_truncation_stability_rate(self):
        for z in (-4.0, -9.0):
            for R in (6.0, 9.0):
                m_r = m_function(halfline(R), z)
                d = abs(m_function(halfline(2 * R), z) - m_r)
                bound = 10.0 * math.exp(-2.0 * math.sqrt(-z) * R)
                # the exponential bound bottoms out at float resolution
                assert d <= max(bound, 1e-15 * abs(m_r))

    def test_requires_dirichlet_truncation(self):
        p = ProblemSpec((0.0, 10.0), bc_left="neumann", bc_right="neumann")
        with pytest.raises(UnsupportedHypothesisError):
            m_function(p, -1.0)


class TestPowerConstant:
    def test_endpoints_are_one(self):
        assert power_constant(1.0) == 1.0
        assert power_constant(0.0) == 1.0

    def test_pinned_half(self):
        assert abs(power_constant(0.5) - POWER_CONSTANT_HALF) < 1e-12

    def test_shape_and_domain(self):
        alphas = np.linspace(0.05, 1.0, 30)
        vals = [power_constant(a) for a in alphas]
        assert max(vals) > 1.4  # interior bump
        assert abs(vals[-1] - 1.0) < 1e-12
        with pytest.raises(ValueError):
            power_constant(1.5)

    def test_continuous_at_both_ends(self):
        # Gamma(a/(1+a)) ~ (1+a)/a cancels the vanishing prefactor, so the
        # formula tends to the declared branch value 1 at alpha -> 0+
        assert abs(power_constant(1e-4) - 1.0) < 5e-3
        assert abs(power_constant(1.0 - 1e-8) - 1.0) < 1e-6


class TestScaleFunction:
    def test_free_inverse_square_root(self):
        for r in (1e2, 1e4, 1e6):
            f = scale_function(on(SingularMeasure(), 50.0, 0), r)
            assert abs(f * math.sqrt(r) - 1.0) < 1e-12

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_r_rejected(self, r):
        with pytest.raises(ValueError, match="positive"):
            scale_function(on(SingularMeasure(), 50.0, 0), r)

    def test_atom_dominated_window(self):
        m = SingularMeasure.from_atoms([(1e-6, 1.0)])
        for r in (1e3, 1e4, 1e5):
            f = scale_function(on(m, 50.0, 0), r)
            assert abs(f - 1.0) < 2e-3

    def test_jump_band_interpolation(self):
        # between G(xi0-) and G(xi0+) the interpolating branch 1/(r xi0)
        m = SingularMeasure.from_atoms([(0.1, 1.0)])
        # band: 1/r inside (xi0^2, xi0*(xi0+1)) = (0.01, 0.11)
        r = 1.0 / 0.05
        f = scale_function(on(m, 50.0, 0), r)
        assert abs(f - 0.05 / 0.1) < 1e-12

    # P(t) = t + nu(t) on [0, 50] drops by 1 at the negative atom, which
    # stays its largest variation up to well past 0.2
    FLAT = ProblemSpec((0.0, 50.0), "neumann",
                       measure=SingularMeasure.from_atoms([(0.1, -1.0),
                                                           (0.5, 0.05)]))

    def test_flat_branch(self):
        # ell = 0.2 with ptilde(0.2) = 1.0: ptilde is flat there (the
        # rising branch would give 0.4)
        assert scale_function(self.FLAT, 5.0) == 1.0

    def test_far_end_clamp(self):
        # 1/r beyond the window's G(50): ptilde at the far end
        assert abs(scale_function(self.FLAT, 1e-6) / 49.95 - 1.0) < 1e-15

    def test_weight_scaling_law(self):
        # scaling the measure by c maps f(r) -> c*f(c*r) in the
        # atom-dominated window (pure-power regime of the inverse)
        m1 = SingularMeasure.from_atoms([(1e-6, 1.0)])
        c = 3.0
        mc = SingularMeasure.from_atoms([(1e-6, 3.0)])
        for r in (1e3, 1e4):
            f1 = scale_function(on(m1, 50.0, 0), c * r)
            fc = scale_function(on(mc, 50.0, 0), r)
            assert abs(fc - c * f1) < 5e-3 * c

    def test_brute_force_bisection_oracle(self, rng):
        # independent check: solve xi * ptilde(xi) = 1/r by dense scanning
        from deltaprime import peak_variation
        for _ in range(10):
            n = int(rng.integers(1, 5))
            xs = np.sort(rng.uniform(0.05, 2.0, n))
            ws = rng.uniform(0.1, 1.5, n)
            m = SingularMeasure.from_atoms(zip(xs.tolist(), ws.tolist()))
            r = float(rng.uniform(0.05, 50.0))
            got = scale_function(on(m, 10.0, 1), r)
            xis = np.linspace(1e-9, 10.0, 200001)
            pt = np.array([peak_variation(m, x, 1) for x in
                           np.linspace(1e-9, 10.0, 2001)])
            xi_c = np.interp(np.linspace(1e-9, 10.0, 200001),
                             np.linspace(1e-9, 10.0, 2001), pt)
            G = xis * xi_c
            j = int(np.searchsorted(G, 1.0 / r))
            if 0 < j < len(xis):
                # away from jump bands the value is ptilde at the crossing
                lo, hi = xi_c[max(j - 200, 0)], xi_c[min(j + 200,
                                                         len(xis) - 1)]
                if hi - lo < 0.05 * max(1.0, hi):
                    assert lo - 0.05 <= got <= hi + 0.05


class TestMAsymptotics:
    def test_alpha_one_free(self):
        p = halfline()
        mus = (-1.0, cmath.exp(3j * math.pi / 4))
        fit = m_asymptotics_check(p, 1.0, [1e4, 1e5, 1e6], mus=mus)
        assert fit.max_rel_dev < 0.05
        assert fit.dropped == 0

    def test_alpha_one_atom_away_from_origin(self):
        m = SingularMeasure.from_atoms([(1.0, 1.0)])
        fit = m_asymptotics_check(halfline(measure=m), 1.0,
                                  [1e4, 1e5, 1e6])
        assert fit.max_rel_dev < 0.05

    def test_alpha_zero_atom_window(self):
        # window and tolerance pinned by the pre-build sweep of m(-r)
        # against the scale function: ratios ~ [1.03, 1.00, 0.91]
        m = SingularMeasure.from_atoms([(1e-6, 1.0)])
        fit = m_asymptotics_check(halfline(measure=m), 0.0, [1e3, 1e4, 1e5])
        assert fit.max_rel_dev < 0.15

    def test_uniformity_over_mu_compact(self):
        p = halfline()
        mus = tuple(cmath.exp(1j * t)
                    for t in np.linspace(math.pi / 8, 7 * math.pi / 8, 8))
        fit = m_asymptotics_check(p, 1.0, [1e5], mus=mus)
        assert fit.max_rel_dev < 0.05


class TestRhoAsymptotics:
    def test_alpha_one_reduces_to_free_form(self):
        # ((1+a)/pi) sin(pi/(1+a)) C_a t f(t) == (2/pi) sqrt(t) at a = 1
        t = 12345.0
        pred = (2.0 / math.pi) * math.sin(math.pi / 2.0) * 1.0 \
            * t * t ** -0.5
        assert abs(pred - 2.0 / math.pi * math.sqrt(t)) < 1e-12

    def test_no_samples(self):
        with pytest.raises(InsufficientDataError):
            rho_asymptotics_check([], 1.0, lambda r: r ** -0.5)

    def test_free_halfline_ratio(self):
        p = halfline()
        samples = spectral_function_samples(p, [2e3, 6e3, 1e4])
        fit = rho_asymptotics_check(samples, 1.0, lambda r: r ** -0.5)
        assert fit.max_rel_dev < 0.05

    def test_alpha_zero_ratio_trends_to_zero(self):
        m = SingularMeasure.from_atoms([(1e-6, 1.0)])
        p = halfline(measure=m)
        samples = spectral_function_samples(p, [1e3, 4e3, 1e4])

        def scale(r):
            return scale_function(on(m, 50.0, 0), r)

        fit = rho_asymptotics_check(samples, 0.0, scale)
        ratios = [v for (_, v) in fit.samples]
        assert fit.model.startswith("rho(t) = o")
        assert all(v < 0.05 for v in ratios)
        assert ratios[-1] < ratios[0]
