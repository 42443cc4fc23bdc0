import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from deltaprime import (CantorSpec, GreenKernel, NearSingularError,
                        PiecewisePotential, ProblemSpec, SingularMeasure,
                        StateVector, convergence_study, eigenvalues, green,
                        hs_distance, propagate)
from deltaprime.resolvent import _hs_value, _panel_grid
from deltaprime.spectrum import GalerkinOracle

CANTOR1 = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))
ONE_ATOM = SingularMeasure.from_atoms([(0.5, 0.3)])


def fem_green_oracle(problem, z, x, t, h=2.0 ** -12):
    """Independent resolvent value: banded FEM solve of (A - zB)u = delta_t.

    The discrete delta is a unit nodal load, so u approximates G(., t; z).
    """
    orc = GalerkinOracle(problem, h)
    nodes = orc.dof_positions
    j = int(np.argmin(np.abs(nodes - t)))
    rhs = np.zeros(orc.n)
    rhs[j] = 1.0
    ab = np.zeros((2, orc.n))
    ab[0, 1:] = orc.off
    ab[1, :] = orc.diag - z * orc.mass
    u = solveh_banded(ab, rhs, lower=False)
    i = int(np.argmin(np.abs(nodes - x)))
    return u[i]


def dense_hs_value(g1, g2, xs, ws, block=512):
    """Independent HS value: the full double sum over G_1 - G_2, in blocks."""
    phi1, psi1 = g1.phi.values(xs), g1.psi.values(xs)
    phi2, psi2 = g2.phi.values(xs), g2.psi.values(xs)
    n = len(xs)
    acc = 0.0
    idx = np.arange(n)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        lo = np.minimum(idx[sl][:, None], idx[None, :])
        hi = np.maximum(idx[sl][:, None], idx[None, :])
        G1 = phi1[lo] * psi1[hi]
        G2 = phi2[lo] * psi2[hi]
        diff = G1 / g1.denominator - G2 / g2.denominator
        acc += np.einsum("i,ij,j->", ws[sl], np.abs(diff) ** 2, ws)
    return math.sqrt(acc)


class TestGreen:
    def test_free_kernel_closed_form(self):
        p = ProblemSpec((0.0, 1.0))
        for (x, t) in [(0.7, 0.2), (0.5, 0.5), (0.9, 0.3)]:
            assert abs(green(p, 0.0, x, t) - t * (1 - x)) < 1e-14

    @pytest.mark.parametrize("bcs, closed", [
        (("neumann", "dirichlet"),
         lambda x, t: math.cosh(x) * math.sinh(1 - t) / math.cosh(1)),
        (("dirichlet", "neumann"),
         lambda x, t: math.sinh(x) * math.cosh(1 - t) / math.cosh(1)),
        (("neumann", "neumann"),
         lambda x, t: math.cosh(x) * math.cosh(1 - t) / math.sinh(1)),
    ])
    def test_free_kernel_honours_boundary_conditions(self, bcs, closed):
        # (-d^2/dx^2 + 1)^{-1} on (0, 1), x <= t, endpoints included
        k = GreenKernel(ProblemSpec((0.0, 1.0), *bcs), -1.0)
        for (x, t) in [(0.3, 0.6), (0.5, 0.5), (0.0, 0.6), (0.2, 1.0),
                       (0.0, 1.0)]:
            assert k(x, t) == pytest.approx(closed(x, t), rel=1e-14)
            assert k(t, x) == pytest.approx(closed(x, t), rel=1e-14)

    def test_hs_distance_between_boundary_conditions(self):
        # G_N - G_D is smooth, so a plain Gauss double sum of the closed
        # forms converges
        d = ProblemSpec((0.0, 1.0))
        n = ProblemSpec((0.0, 1.0), bc_left="neumann")
        x, w = np.polynomial.legendre.leggauss(200)
        x, w = (x + 1.0) / 2.0, w / 2.0
        lo, hi = np.minimum.outer(x, x), np.maximum.outer(x, x)
        diff = (np.cosh(lo) / np.cosh(1.0) - np.sinh(lo) / np.sinh(1.0)) \
            * np.sinh(1.0 - hi)
        want = math.sqrt(w @ diff ** 2 @ w)
        assert want > 0.2
        assert hs_distance(n, d, -1.0) == pytest.approx(want, rel=1e-10)

    def test_symmetry(self):
        m = SingularMeasure.from_atoms([(0.3, 0.7), (0.6, -0.2)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        k = GreenKernel(p, -1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, t = rng.uniform(0.01, 0.99, 2)
            assert abs(k(x, t) - k(t, x)) <= 1e-10 * max(1.0, abs(k(x, t)))

    def test_single_atom_hand_value(self):
        # phi: x then jump at 0.5 -> 1.5 + (x-0.5); psi: x-1 then x-2;
        # G(0.25, 0.75; 0) = 0.25*(-0.25)/(-2) = 1/32
        m = SingularMeasure.from_atoms([(0.5, 1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        assert abs(green(p, 0.0, 0.25, 0.75) - 0.03125) < 1e-14

    def test_against_fem_point_load(self):
        m = SingularMeasure.from_atoms([(0.5, 1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        for (x, t, z) in [(0.25, 0.75, 0.0), (0.4, 0.8, -2.0)]:
            fem = fem_green_oracle(p, z, x, t)
            assert abs(green(p, z, x, t) - fem) < 5e-4

    def test_complex_z_symmetry_and_conjugation(self):
        m = SingularMeasure.from_atoms([(0.4, 0.6)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        z = complex(2.0, 1.5)
        k = GreenKernel(p, z)
        kbar = GreenKernel(p, z.conjugate())
        for (x, t) in [(0.2, 0.9), (0.7, 0.3)]:
            v = k(x, t)
            assert abs(v - k(t, x)) <= 1e-12 * abs(v)
            # real coefficients: G(x,t; conj z) = conj G(x,t; z)
            assert abs(kbar(x, t) - v.conjugate()) <= 1e-12 * abs(v)

    @pytest.mark.parametrize("x, t", [(-5.0, 0.5), (2.0, 3.0), (0.5, 1.5),
                                      (math.nan, 0.5), (0.5, math.inf)])
    def test_point_outside_the_interval_rejected(self, x, t):
        # the closed form would extrapolate past [a, b]: -40.97 at (-5, 0.5)
        p = ProblemSpec((0.0, 1.0), measure=ONE_ATOM)
        bad = x if not 0.0 <= x <= 1.0 else t
        with pytest.raises(ValueError, match=f"point {bad!r} is outside"):
            green(p, -1.0, x, t)

    def test_near_singular_rejected(self):
        p = ProblemSpec((0.0, 1.0))
        with pytest.raises(NearSingularError):
            GreenKernel(p, math.pi ** 2)

    def test_solution_scale_beyond_assembly_rejected(self):
        # at z = -1e4 the state grows by e^100 per unit cell: past the
        # ninth atom its log scale passes what the kernel arrays can hold
        m = SingularMeasure.from_atoms([(float(x), 0.5) for x in range(1, 10)])
        with pytest.raises(NearSingularError, match="solution scale"):
            GreenKernel(ProblemSpec((0.0, 10.0), measure=m), -1e4)

    def test_resolvent_identity(self):
        m = SingularMeasure.from_atoms([(0.4, 0.5)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        z1, z2 = -1.0, -3.0
        k1, k2 = GreenKernel(p, z1), GreenKernel(p, z2)
        gl_x, gl_w = np.polynomial.legendre.leggauss(16)
        rng = np.random.default_rng(5)
        for _ in range(6):
            x, t = rng.uniform(0.05, 0.95, 2)
            # the integrand kinks at the atom and at s = x, s = t
            edges = sorted({0.0, 0.4, 1.0, float(x), float(t)})
            xs, ws = [], []
            for lo, hi in zip(edges, edges[1:]):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                xs.append(mid + half * gl_x)
                ws.append(half * gl_w)
            xs, ws = np.concatenate(xs), np.concatenate(ws)
            conv = float(np.sum(ws * np.array([k1(x, s) for s in xs])
                                * np.array([k2(s, t) for s in xs])))
            rhs = (k1(x, t) - k2(x, t)) / (z1 - z2)
            assert abs(conv - rhs) < 1e-8

    def test_kernel_eigenvalues_are_reciprocal(self):
        m = SingularMeasure.from_atoms([(0.5, 1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        k = GreenKernel(p, 0.0)
        # the kernel has a kink along the diagonal, so Nystrom converges
        # ~O(h^2); 8 panels x 64 points holds 1e-4 with margin
        gl_x, gl_w = np.polynomial.legendre.leggauss(64)
        xs, ws = [], []
        for lo, hi in zip(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9)[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            xs.append(mid + half * gl_x)
            ws.append(half * gl_w)
        xs, ws = np.concatenate(xs), np.concatenate(ws)
        order = np.argsort(xs)
        xs, ws = xs[order], ws[order]
        # G(x_i, x_j) = phi(x_min) psi(x_max) / psi(a) on the sorted grid
        i, j = np.indices((len(xs), len(xs)))
        G = (k.phi.values(xs)[np.minimum(i, j)]
             * k.psi.values(xs)[np.maximum(i, j)] / k.denominator)
        sym = np.sqrt(ws)[:, None] * G * np.sqrt(ws)[None, :]
        mu = np.sort(np.linalg.eigvalsh(sym))[::-1]
        lams = eigenvalues(p, n_max=3, with_norming=False).eigenvalues
        for j in range(3):
            assert abs(mu[j] * lams[j] - 1.0) < 1e-4


class TestSolutionValues:
    """Vectorized phi/psi evaluation against partial propagation runs."""

    STEP = ProblemSpec(
        (0.0, 2.0), potential=PiecewisePotential((0.8,), (1.5, -2.0)),
        measure=SingularMeasure.from_atoms(
            [(0.0, 0.3), (0.4, 0.3), (0.8, -0.15), (1.3, 0.2)]))

    @staticmethod
    def _reference(problem, z, x, from_left):
        a, b = problem.interval
        st = propagate(problem, z, StateVector(0.0, 1.0), from_left=from_left,
                       x_from=a if from_left else b, x_to=x).state
        return st.u * math.exp(st.log_scale), st.u1 * math.exp(st.log_scale)

    # z = 1.5 and z = -2.0 hit a potential value (w == 0 on one cell);
    # the others give w > 0 and w < 0 on both cells, or complex w
    @pytest.mark.parametrize("z", [40.0, -30.0, 1.5, -2.0, complex(3.0, 2.5)])
    @pytest.mark.parametrize("from_left", [True, False])
    def test_values_match_partial_runs(self, z, from_left):
        p = self.STEP
        k = GreenKernel(p, z)
        cache = k.phi if from_left else k.psi
        # x == a, every atom node, a breakpoint, b and interior points
        xs = np.array(sorted({0.0, 0.4, 0.8, 1.3, 2.0, 0.05, 0.61, 0.95,
                              1.1, 1.77, 1.999}))
        got = cache.values(xs)
        assert got.dtype == (complex if isinstance(z, complex) else float)
        for x, v in zip(xs, got):
            u, u1 = self._reference(p, z, float(x), from_left)
            assert abs(v - u) <= 1e-12 * max(abs(u), abs(u1), 1.0)


class TestHSDistance:
    STEP = TestSolutionValues.STEP

    # deep z: phi reaches e^400 on the unit interval, so |phi|^2 alone
    # overflows; on Cantor levels phi_5 / phi_3 grows to 1e14 across it
    @pytest.mark.parametrize("pair, z, panels", [
        (((CANTOR1, 3), (CANTOR1, 5)), -1.0, 2),
        (((CANTOR1, 3), (CANTOR1, 5)), complex(2.0, 1.5), 2),
        ((("signed", 4), ("signed", 6)), -1.0, 2),
        (((CANTOR1, 7), (CANTOR1, 8)), -1.0, 2),
        (((SingularMeasure(), 0), (ONE_ATOM, 0)), -1.6e5, 2),
        (((SingularMeasure(), 0), (ONE_ATOM, 0)), complex(1e5, 3e5), 2),
        (((CANTOR1, 3), (CANTOR1, 5)), -1e5, 2),
    ], ids=["real_z", "complex_z", "signed_cantor", "close_levels_7_8",
            "deep_real_z", "deep_complex_z", "deep_z_cantor_3_5"])
    def test_semiseparable_sum_matches_dense(self, pair, z, panels):
        signed = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), -1.0),))
        p1, p2 = (ProblemSpec((0.0, 1.0), measure=signed if m == "signed"
                              else m, level=lv) for m, lv in pair)
        g1, g2 = GreenKernel(p1, z), GreenKernel(p2, z)
        xs, ws = _panel_grid((p1, p2), panels)
        dense = dense_hs_value(g1, g2, xs, ws)
        assert dense > 0.0
        assert abs(_hs_value(g1, g2, xs, ws) - dense) <= 1e-12 * dense

    def test_semiseparable_sum_with_potential(self):
        other = ProblemSpec(self.STEP.interval, potential=self.STEP.potential)
        for z in (-3.0, complex(-1.0, 4.0)):
            g1, g2 = GreenKernel(self.STEP, z), GreenKernel(other, z)
            xs, ws = _panel_grid((self.STEP, other), 4)
            dense = dense_hs_value(g1, g2, xs, ws)
            assert abs(_hs_value(g1, g2, xs, ws) - dense) <= 1e-12 * dense

    def test_deep_z_distance_is_finite(self):
        free = ProblemSpec((0.0, 1.0))
        atom = ProblemSpec((0.0, 1.0), measure=ONE_ATOM)
        d = hs_distance(free, atom, -1.6e5)
        assert math.isfinite(d) and d > 0.0

    def test_cancellation_below_rounding_rejected(self):
        # kernel 2 is kernel 1 times (1 + eps), but its factors carry a
        # gauge of 1e6: the difference form cancels the gauge and the
        # kernel form cancels the kernels, so both lose digits
        xs = np.linspace(0.05, 0.95, 40)
        ws = np.full(40, 1.0 / 40)

        def kernel(a, b):
            return SimpleNamespace(phi=SimpleNamespace(values=lambda _: a),
                                   psi=SimpleNamespace(values=lambda _: b),
                                   denominator=1.0)

        g1 = kernel(xs, 1.0 - xs)
        g2 = kernel(1e6 * xs, (1.0 - xs) * (1.0 + 1e-2) / 1e6)
        dense = dense_hs_value(g1, g2, xs, ws)
        assert abs(_hs_value(g1, g2, xs, ws) - dense) <= 1e-9 * dense
        g2 = kernel(1e6 * xs, (1.0 - xs) * (1.0 + 1e-6) / 1e6)
        with pytest.raises(NearSingularError):
            _hs_value(g1, g2, xs, ws)

    def test_memory_is_linear_in_grid(self):
        # the dense double sum peaked near 400 MiB here; the suffix-sum
        # form needs a few arrays of the grid size
        p9, p10 = (ProblemSpec((0.0, 1.0), measure=CANTOR1, level=lv)
                   for lv in (9, 10))
        tracemalloc.start()
        try:
            d = hs_distance(p9, p10, -1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d > 0.0
        assert peak < 32 * 2 ** 20

    def test_identical_problems(self):
        m = SingularMeasure.from_atoms([(0.5, -1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        assert hs_distance(p, p, -1.0) <= 1e-14

    def test_tiny_atom_first_order(self):
        free = ProblemSpec((0.0, 1.0))
        small = ProblemSpec((0.0, 1.0),
                            measure=SingularMeasure.from_atoms([(0.5, 1e-8)]))
        d_small = hs_distance(free, small, -1.0)
        assert d_small <= 1e-6
        bigger = ProblemSpec((0.0, 1.0),
                             measure=SingularMeasure.from_atoms([(0.5, 1e-4)]))
        d_big = hs_distance(free, bigger, -1.0)
        slope_ratio = (d_big / 1e-4) / (d_small / 1e-8)
        assert abs(slope_ratio - 1.0) < 0.1  # linear response regime

    def test_requires_same_interval(self):
        with pytest.raises(ValueError):
            hs_distance(ProblemSpec((0.0, 1.0)), ProblemSpec((0.0, 2.0)),
                        -1.0)

    def test_negative_doublings_rejected(self):
        # no doubling to run: a refusal, not a None distance
        p = ProblemSpec((0.0, 1.0))
        with pytest.raises(ValueError, match="max_doublings"):
            hs_distance(p, p, -1.0, max_doublings=-1)
        assert hs_distance(p, p, -1.0, max_doublings=0) == 0.0

    def test_cantor_levels_decrease(self):
        ps = {lv: ProblemSpec((0.0, 1.0), measure=CANTOR1, level=lv)
              for lv in (2, 3, 4, 6)}
        d = {lv: hs_distance(ps[lv], ps[6], -1.0) for lv in (2, 3, 4)}
        assert d[2] > d[3] > d[4] > 0.0


class TestConvergenceStudy:
    def test_needs_a_level(self):
        with pytest.raises(ValueError, match="level"):
            convergence_study(ProblemSpec((0.0, 1.0), measure=CANTOR1), [])

    def test_zero_mass_rows_identical(self):
        zero = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 0.0),))
        p_zero = ProblemSpec((0.0, 1.0), measure=zero)
        rows = convergence_study(p_zero, [2, 3, 4], z=-1.0)
        for r in rows:
            assert r.hs_to_finest <= 1e-13
            np.testing.assert_allclose(
                r.lambdas, [(math.pi * n) ** 2 for n in range(1, 6)],
                rtol=1e-9)

    def test_signed_cantor_hs_column_reported(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), -1.0),))
        p = ProblemSpec((0.0, 1.0), measure=m, level=2)
        rows = convergence_study(p, [2, 3, 4, 5], z=-1.0)
        hs = [r.hs_to_finest for r in rows[:-1]]
        assert all(v > 0 for v in hs)
        assert all(b < a for a, b in zip(hs, hs[1:]))
        assert all(math.isnan(l) for r in rows for l in r.lambdas)

    def test_nonnegative_cantor_columns(self):
        p = ProblemSpec((0.0, 1.0), measure=CANTOR1, level=2)
        rows = convergence_study(p, [2, 3, 4, 5], z=-1.0)
        hs = [r.hs_to_finest for r in rows[:-1]]
        assert all(b < a for a, b in zip(hs, hs[1:]))
        ref = rows[-1].lambdas
        err_prev = None
        for r in rows[:-1]:
            err = [abs(a - b) for a, b in zip(r.lambdas, ref)]
            if err_prev is not None:
                assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(err_prev, err))
            err_prev = err
