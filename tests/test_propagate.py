import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaprime import (PiecewisePotential, ProblemSpec, SingularMeasure,
                        StateVector, atom_jump, propagate, realize,
                        stretch_propagator, transfer_matrix, wronskian)
from deltaprime.propagate import cell_entry_states, transfer_matrix_with_dz
from conftest import random_problem, rk4_state


class TestAtomJump:
    def test_zero_strength_is_identity(self):
        m = atom_jump(0.0)
        assert (m.a11, m.a12, m.a21, m.a22) == (1.0, 0.0, 0.0, 1.0)

    def test_negative_unit(self):
        m = atom_jump(-1.0)
        assert (m.a11, m.a12, m.a21, m.a22) == (1.0, -1.0, 0.0, 1.0)

    def test_state_action(self):
        st_out = atom_jump(0.5).apply(StateVector(1.0, 2.0))
        assert (st_out.u, st_out.u1) == (2.0, 2.0)


class TestStretch:
    def test_degenerate_free(self):
        m = stretch_propagator(1.0, 0.0, 0.0)
        np.testing.assert_allclose([m.a11, m.a12, m.a21, m.a22],
                                   [1.0, 1.0, 0.0, 1.0], atol=1e-14)

    def test_half_period(self):
        m = stretch_propagator(1.0, 0.0, math.pi ** 2)
        np.testing.assert_allclose([m.a11, m.a12, m.a21, m.a22],
                                   [-1.0, 0.0, 0.0, -1.0], atol=1e-12)

    def test_hyperbolic_vs_rk4(self):
        m = stretch_propagator(1.0, 0.0, -1.0)
        np.testing.assert_allclose(
            [m.a11, m.a12, m.a21, m.a22],
            [math.cosh(1), math.sinh(1), math.sinh(1), math.cosh(1)],
            rtol=1e-14)
        for (u0, u1) in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.3)]:
            ue, u1e = rk4_state(0.0, -1.0, 1.0, u0, u1, steps=4000)
            got = m.apply(StateVector(u0, u1))
            assert abs(got.u - ue) < 1e-8
            assert abs(got.u1 - u1e) < 1e-8

    def test_random_stretches_vs_rk4(self, rng):
        for _ in range(8):
            L = float(rng.uniform(0.2, 1.5))
            q = float(rng.uniform(-4.0, 4.0))
            z = complex(rng.uniform(-6.0, 6.0), rng.uniform(-1.0, 1.0))
            m = stretch_propagator(L, q, z)
            ue, u1e = rk4_state(q, z, L, 0.3, -1.1, steps=6000)
            got = m.apply(StateVector(0.3, -1.1))
            assert abs(got.u - ue) < 1e-7
            assert abs(got.u1 - u1e) < 1e-7

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            stretch_propagator(0.0, 0.0, 1.0)


class TestPropagate:
    def test_free_linear_solution(self):
        p = ProblemSpec((0.0, 1.0))
        res = propagate(p, 0.0)
        assert (res.state.u, res.state.u1) == (1.0, 1.0)
        assert res.zero_count == 0

    def test_free_oscillatory_zero_count(self):
        p = ProblemSpec((0.0, 1.0))
        res = propagate(p, (3 * math.pi) ** 2)
        assert res.zero_count == 2

    def test_atom_hand_composition(self):
        m = SingularMeasure.from_atoms([(0.5, -1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        res = propagate(p, 0.0)
        assert abs(res.state.u) < 1e-15
        assert abs(res.state.u1 - 1.0) < 1e-15
        assert res.zero_count == 1

    def test_complex_z_returns_no_count(self):
        p = ProblemSpec((0.0, 1.0))
        res = propagate(p, complex(1.0, 1.0))
        assert res.zero_count is None

    def test_zero_count_monotone_in_z(self, rng):
        for _ in range(10):
            p = random_problem(rng, signed=False)
            counts = [propagate(p, z).zero_count
                      for z in np.linspace(-5.0, 400.0, 60)]
            assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_deep_z_renormalizes_without_overflow(self):
        p = ProblemSpec((0.0, 50.0))
        res = propagate(p, -1.0e6)
        assert res.state.log_scale > 0.0
        assert math.isfinite(res.state.u)
        assert res.state.u > 0.0  # sinh-type growth, no sign flips

    def test_atom_at_potential_breakpoint_ordering(self):
        # left stretch, then the jump, then the right stretch
        m = SingularMeasure.from_atoms([(0.5, 2.0)])
        pot = PiecewisePotential((0.5,), (0.0, 9.0))
        p = ProblemSpec((0.0, 1.0), potential=pot, measure=m)
        res = propagate(p, 0.0)
        u_mid, u1_mid = 0.5, 1.0            # free drift from (0, 1)
        u_jump = u_mid + 2.0 * u1_mid       # 2.5
        k = 3.0                             # sqrt(q - z) on the right cell
        u_end = u_jump * math.cosh(k * 0.5) + u1_mid * math.sinh(k * 0.5) / k
        u1_end = u_jump * k * math.sinh(k * 0.5) + u1_mid * math.cosh(k * 0.5)
        assert abs(res.state.u - u_end) < 1e-12 * abs(u_end)
        assert abs(res.state.u1 - u1_end) < 1e-12 * abs(u1_end)

    def test_partial_interval_half_open_atoms(self):
        m = SingularMeasure.from_atoms([(0.5, 2.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        init = StateVector(1.0, 1.0)
        upto = propagate(p, 0.0, init, x_from=0.0, x_to=0.5)
        assert upto.state.u == 1.5  # left limit: atom at 0.5 not crossed
        past = propagate(p, 0.0, init, x_from=0.0, x_to=0.6)
        # crossing adds beta*u1 = 2 at 0.5, then drifts 0.1 further
        assert abs(past.state.u - (1.5 + 2.0 + 0.1)) < 1e-14


def _close(s1, s2, rtol=1e-13):
    """Two states agree in their true values (log scales may differ)."""
    scale = max(s1.log_scale, s2.log_scale)
    v1 = [v * math.exp(s1.log_scale - scale) for v in (s1.u, s1.u1)]
    v2 = [v * math.exp(s2.log_scale - scale) for v in (s2.u, s2.u1)]
    ref = max(abs(v) for v in v1 + v2)
    return all(abs(a - b) <= rtol * ref for a, b in zip(v1, v2))


class TestSweepEdges:
    TWO_ATOMS = SingularMeasure.from_atoms([(0.3, 0.5), (0.6, -0.25)])

    def test_right_to_left_from_atom(self):
        # atoms in [0.3, 0.6) are crossed: the one at 0.6 where the run
        # starts is left alone, the one at x_to = 0.3 is undone
        p = ProblemSpec((0.0, 1.0), measure=self.TWO_ATOMS)
        res = propagate(p, 0.0, StateVector(1.0, 1.0), from_left=False,
                        x_from=0.6, x_to=0.3)
        assert res.zero_count is None
        assert abs(res.state.u - (1.0 - 0.3 - 0.5)) < 1e-15
        assert res.state.u1 == 1.0

    def test_empty_run_on_atom_is_identity(self):
        p = ProblemSpec((0.0, 1.0), measure=self.TWO_ATOMS)
        init = StateVector(0.7, -1.3, 2.0)
        for from_left in (True, False):
            res = propagate(p, 5.0, init, from_left=from_left,
                            x_from=0.3, x_to=0.3)
            assert res.state == init
        assert propagate(p, 5.0, init, x_from=0.6, x_to=0.6).zero_count == 0

    def test_atom_at_left_endpoint(self):
        m = SingularMeasure.from_atoms([(0.0, 0.4)])
        # Dirichlet: u(a+) = 0 + beta*1, then a free unit drift
        p = ProblemSpec((0.0, 1.0), measure=m)
        res = propagate(p, 0.0)
        assert (res.state.u, res.state.u1) == (1.4, 1.0)
        assert res.zero_count == 0
        back = propagate(p, 0.0, from_left=False)
        assert (back.state.u, back.state.u1) == (-1.0 - 0.4, 1.0)
        # Neumann: u^[1](a) = 0 makes the atom inert
        pn = ProblemSpec((0.0, 1.0), "neumann", measure=m)
        res = propagate(pn, 0.0)
        assert (res.state.u, res.state.u1) == (1.0, 0.0)
        back = propagate(pn, 0.0, StateVector(1.0, 0.0), from_left=False)
        assert (back.state.u, back.state.u1) == (1.0, 0.0)

    @pytest.mark.parametrize("from_left, x_from, x_to", [
        (True, 0.0, 1.5), (True, -0.5, 1.0),
        (False, 1.5, 0.0), (False, 1.0, -0.5)])
    def test_endpoints_outside_interval_rejected(self, from_left, x_from,
                                                 x_to):
        p = ProblemSpec((0.0, 1.0), measure=self.TWO_ATOMS)
        with pytest.raises(ValueError, match="needs a <="):
            propagate(p, 3.0, StateVector(0.0, 1.0), from_left=from_left,
                      x_from=x_from, x_to=x_to)

    def test_transfer_matrix_outside_interval_rejected(self):
        p = ProblemSpec((0.0, 1.0), measure=self.TWO_ATOMS)
        with pytest.raises(ValueError, match="needs a <="):
            transfer_matrix(p, 3.0, 0.0, 2.0)

    def test_cell_entries_match_partial_runs(self, rng):
        problems = [random_problem(rng) for _ in range(4)]
        problems.append(ProblemSpec(
            (0.0, 1.0), potential=PiecewisePotential((0.3,), (2.0, -1.0)),
            measure=SingularMeasure.from_atoms([(0.0, 0.3), (0.3, -0.2),
                                                (0.8, 0.1)])))
        for p in problems:
            beta = dict(realize(p.measure, p.level))
            for z in (7.5, complex(-3.0, 2.0), -1.0e5):
                init = StateVector(0.3, 1.1)
                nodes, _, ent, final = cell_entry_states(p, z, init)
                for i, st in enumerate(ent):
                    left = propagate(p, z, init, x_from=p.a,
                                     x_to=nodes[i]).state
                    want = atom_jump(beta.get(nodes[i], 0.0)).apply(left)
                    assert _close(st, want)
                assert _close(final, propagate(p, z, init).state)
                nodes, _, ent, final = cell_entry_states(p, z, init,
                                                         from_left=False)
                for i, st in enumerate(ent):
                    want = propagate(p, z, init, from_left=False,
                                     x_from=p.b, x_to=nodes[i + 1]).state
                    assert _close(st, want)
                assert _close(final, propagate(p, z, init,
                                               from_left=False).state)


class TestWronskian:
    def test_unit_pair(self):
        assert wronskian(StateVector(1.0, 0.0), StateVector(0.0, 1.0)) == 1.0

    def test_identical_states(self):
        assert wronskian(StateVector(2.0, 3.0), StateVector(2.0, 3.0)) == 0.0

    def test_constancy_along_interval(self, rng):
        for _ in range(12):
            p = random_problem(rng)
            z = float(rng.uniform(-20.0, 80.0))
            a, b = p.interval
            phi0 = StateVector(0.0, 1.0)
            psi0 = StateVector(0.0, 1.0)
            xs = np.linspace(a, b, 9)
            ws = []
            for x in xs:
                phi = propagate(p, z, phi0, x_from=a, x_to=float(x)).state
                psi = propagate(p, z, psi0, from_left=False, x_from=b,
                                x_to=float(x)).state
                ws.append(wronskian(phi, psi))
            ref = ws[0]
            assert all(abs(w - ref) <= 1e-10 * max(1.0, abs(ref))
                       for w in ws)

    def test_free_problem_value(self):
        # W(phi, psi) = -psi(a) for phi launched Dirichlet at a
        p = ProblemSpec((0.0, 1.0))
        phi = propagate(p, 0.0, StateVector(0.0, 1.0), x_from=0.0,
                        x_to=0.7).state
        psi = propagate(p, 0.0, StateVector(0.0, 1.0), from_left=False,
                        x_from=1.0, x_to=0.7).state
        assert abs(wronskian(phi, psi) - 1.0) < 1e-14


class TestTransferMatrix:
    def test_factor_determinants(self, rng):
        # round-off in C^2 + w S^2 scales with the squared entry magnitude,
        # so the unimodularity tolerance is relative to that scale
        for _ in range(40):
            L = float(rng.uniform(0.05, 2.0))
            q = float(rng.uniform(-5.0, 5.0))
            z = complex(rng.uniform(-30.0, 50.0), rng.uniform(-2.0, 2.0))
            m = stretch_propagator(L, q, z)
            scale = max(1.0, max(abs(m.a11), abs(m.a12), abs(m.a21),
                                 abs(m.a22)) ** 2)
            assert abs(m.det() - 1.0) < 1e-12 * scale
            assert atom_jump(float(rng.uniform(-2, 2))).det() == 1.0

    def test_product_determinant_and_associativity(self, rng):
        for _ in range(15):
            p = random_problem(rng)
            z = float(rng.uniform(-10.0, 60.0))
            a, b = p.interval
            c = float(rng.uniform(a + 0.1, b - 0.1))
            full = transfer_matrix(p, z)
            left = transfer_matrix(p, z, a, c)
            right = transfer_matrix(p, z, c, b)
            prod = right @ left
            assert abs(full.det() - 1.0) < 1e-12
            for e_full, e_prod in zip(
                    (full.a11, full.a12, full.a21, full.a22),
                    (prod.a11, prod.a12, prod.a21, prod.a22)):
                assert abs(e_full - e_prod) <= 1e-12 * max(1.0, abs(e_full))

    def test_entire_in_z(self, rng):
        for _ in range(10):
            p = random_problem(rng)
            z = float(rng.uniform(-5.0, 40.0))
            _, dM = transfer_matrix_with_dz(p, z)
            h = 1e-5 * max(1.0, abs(z))
            mp = transfer_matrix(p, z + h)
            mm = transfer_matrix(p, z - h)
            fd = [(a - b) / (2 * h) for a, b in zip(
                (mp.a11, mp.a12, mp.a21, mp.a22),
                (mm.a11, mm.a12, mm.a21, mm.a22))]
            for d_exact, d_fd in zip(dM, fd):
                scale = max(1.0, abs(d_exact))
                assert abs(d_exact - d_fd) <= 1e-6 * scale


class TestPiecewisePotential:
    def test_value_lookup(self):
        q = PiecewisePotential((0.5, 1.0), (1.0, -2.0, 3.0))
        assert q.value(0.2) == 1.0
        assert q.value(0.75) == -2.0
        assert q.value(1.5) == 3.0

    def test_exact_integral(self):
        q = PiecewisePotential((0.5, 1.0), (1.0, -2.0, 3.0))
        assert abs(q.integral(0.0, 1.5) - (0.5 - 1.0 + 1.5)) < 1e-15
        assert abs(q.integral(0.6, 0.9) + 0.6) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePotential((1.0, 0.5), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            PiecewisePotential((0.5,), (1.0,))


@settings(max_examples=50, deadline=None)
@given(st.floats(-30.0, 60.0), st.floats(0.05, 2.0), st.floats(-4.0, 4.0))
def test_stretch_unimodular_property(z, length, q):
    m = stretch_propagator(length, q, z)
    scale = max(1.0, max(abs(m.a11), abs(m.a12), abs(m.a21),
                         abs(m.a22)) ** 2)
    assert abs(m.det() - 1.0) < 1e-12 * scale
