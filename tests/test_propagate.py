import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaprime import (PiecewisePotential, ProblemSpec, SingularMeasure,
                        StateVector, TransferMatrix, atom_jump, propagate,
                        realize, stretch_propagator, transfer_matrix,
                        wronskian)
from deltaprime.propagate import (_count_stretch_zeros, cell_entry_states,
                                  realize_problem)
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
        # the negative atom flips u from + to -: an oriented count of -1
        assert res.zero_count == -1

    def test_complex_z_returns_no_count(self):
        p = ProblemSpec((0.0, 1.0))
        res = propagate(p, complex(1.0, 1.0))
        assert res.zero_count is None

    def test_zero_count_monotone_in_z(self, rng):
        # oriented jumps keep the count monotone for signed measures too
        for signed in (False, True):
            for _ in range(10):
                p = random_problem(rng, signed=signed)
                counts = [propagate(p, z).zero_count
                          for z in np.linspace(-3000.0, 400.0, 80)]
                assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_deep_z_renormalizes_without_overflow(self):
        p = ProblemSpec((0.0, 50.0))
        res = propagate(p, -1.0e6)
        assert res.state.log_scale > 0.0
        assert math.isfinite(res.state.u)
        assert res.state.u > 0.0  # sinh-type growth, no sign flips

    def test_collapsed_stretch_keeps_the_decaying_state(self):
        # at z = -4 the cosh/sinh form cancels the state past the atom to
        # exactly zero, in both directions; the split form keeps the
        # decaying solution, e^{-2|x|} on the far side of the atom
        m = SingularMeasure.from_atoms([(0.0, -1.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        for from_left, sign in ((True, -1.0), (False, 1.0)):
            res = propagate(p, -4.0, from_left=from_left)
            u, u1 = res.state.true_values()
            assert u1 == pytest.approx(2.0 * sign * u, rel=1e-14)
            assert abs(u) == pytest.approx(0.25, rel=1e-14)
        assert propagate(p, -4.0).zero_count == -1

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

    @pytest.mark.parametrize("L", [
        math.pi / 2, math.nextafter(math.pi / 2, 0.0),
        math.nextafter(math.pi / 2, 4.0)])
    def test_stretch_end_zero_counted_once(self, L):
        # u = cos(s) from (1, 0): the end value is taken as exactly 0.0
        # while the phase pi/2 + L rounds to either side of pi
        assert _count_stretch_zeros(1.0, 0.0, 1.0, L, 0.0, True) == 1
        assert _count_stretch_zeros(1.0, 0.0, 1.0, L, 0.0, False) == 0
        assert _count_stretch_zeros(0.0, 1.0, 1.0, 2.0 * L, 0.0, True) == 1

    def test_linear_stretch_end_zero(self):
        assert _count_stretch_zeros(-0.25, 1.0, 0.0, 0.25, 0.0, True) == 1
        assert _count_stretch_zeros(-0.25, 1.0, 0.0, 0.25, 0.0, False) == 0
        assert _count_stretch_zeros(0.0, 1.0, -4.0, 0.25, 0.3, True) == 0

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
            nodes = realize_problem(p).nodes
            for z in (7.5, complex(-3.0, 2.0), -1.0e5):
                # both walks launch from the problem's own boundary state
                ent, final = cell_entry_states(p, z)
                for i, st in enumerate(ent):
                    left = propagate(p, z, x_from=p.a, x_to=nodes[i]).state
                    want = atom_jump(beta.get(nodes[i], 0.0)).apply(left)
                    assert _close(st, want)
                assert _close(final, propagate(p, z).state)
                ent, final = cell_entry_states(p, z, from_left=False)
                for i, st in enumerate(ent):
                    want = propagate(p, z, from_left=False, x_from=p.b,
                                     x_to=nodes[i + 1]).state
                    assert _close(st, want)
                assert _close(final, propagate(p, z, from_left=False).state)


def _inverse(m):
    """Inverse of a unimodular factor: its adjugate, with the same scale."""
    return TransferMatrix(m.a22, -m.a12, -m.a21, m.a11, m.log_scale)


def _reference_run(p, z, init, lo, hi, from_left):
    """A run from a product of atom_jump/stretch_propagator factors.

    The factors come from the measure's realization and the potential,
    not from the realized cells; the right-to-left run applies the inverse
    factors in reverse order.  The state is renormalized after each factor.
    """
    atoms = dict(realize(p.measure, p.level))
    cuts = sorted({lo, hi} | {x for x in atoms if lo < x < hi}
                  | {c for c in p.potential.breakpoints if lo < c < hi})
    steps = [(atom_jump(atoms.get(x, 0.0)),
              stretch_propagator(y - x, p.potential.value(0.5 * (x + y)), z))
             for x, y in zip(cuts, cuts[1:])]
    if from_left:
        factors = [f for jump, stretch in steps for f in (jump, stretch)]
    else:
        factors = [_inverse(f) for jump, stretch in reversed(steps)
                   for f in (stretch, jump)]
    st = init
    for f in factors:
        st = f.apply(st)
        m = max(abs(st.u), abs(st.u1))
        st = StateVector(st.u / m, st.u1 / m, st.log_scale + math.log(m))
    return st


class TestWalkReference:
    """Full and partial runs in both directions against factor products."""

    ATOMS = SingularMeasure.from_atoms([(0.0, 0.4), (0.5, -0.3),
                                        (1.2, 0.25)])
    POT = PiecewisePotential((0.7,), (3.0, -2.0))
    RUNS = [
        (0.0, 2.0),     # full run, atom at a
        (0.0, 0.9),     # from a, ends inside a cell
        (0.5, 1.2),     # atoms at both run ends: only the low one crossed
        (1.2, 2.0),     # from an atom to b
        (0.3, 1.6),     # both ends inside cells
        (0.6, 0.65),    # inside one cell
    ]

    @pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("z", [7.5, 60.0, -1.0e6, complex(-3.0, 2.0),
                                   complex(-1.0e6, 40.0)])
    def test_runs_match_factor_products(self, bc_left, z):
        p = ProblemSpec((0.0, 2.0), bc_left, "neumann", potential=self.POT,
                        measure=self.ATOMS)
        for lo, hi in self.RUNS:
            for from_left in (True, False):
                x0, x1 = (lo, hi) if from_left else (hi, lo)
                for init in (p.launch(from_left), StateVector(0.3, -1.1, 2.0)):
                    got = propagate(p, z, init, from_left, x0, x1).state
                    want = _reference_run(p, z, init, lo, hi, from_left)
                    assert _close(got, want, rtol=1e-12), (lo, hi, from_left)

    def test_launch_rule(self):
        p = ProblemSpec((0.0, 1.0), "neumann", "dirichlet")
        assert p.launch() == StateVector(1.0, 0.0)
        assert p.launch(from_left=False) == StateVector(0.0, 1.0)


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
        # the complex-step derivative Im M(z + ih) / h equals the real
        # derivative only where M is analytic in z (Cauchy-Riemann)
        for _ in range(10):
            p = random_problem(rng)
            z = float(rng.uniform(-5.0, 40.0))
            mc = transfer_matrix(p, z + 1e-20j)
            dM = [(e * math.exp(mc.log_scale)).imag / 1e-20
                  for e in (mc.a11, mc.a12, mc.a21, mc.a22)]
            h = 1e-5 * max(1.0, abs(z))
            mp = transfer_matrix(p, z + h)
            mm = transfer_matrix(p, z - h)
            fd = [(a - b) / (2 * h) for a, b in zip(
                (mp.a11, mp.a12, mp.a21, mp.a22),
                (mm.a11, mm.a12, mm.a21, mm.a22))]
            for d_exact, d_fd in zip(dM, fd):
                scale = max(1.0, abs(d_exact))
                assert abs(d_exact - d_fd) <= 1e-6 * scale

    def test_deep_real_z_rebases_columns(self, rng):
        # the unit-state sweeps end on different log scales past 700; the
        # columns share the larger one instead of overflowing to true values
        deep = ProblemSpec((0.0, 1.1377), measure=SingularMeasure.from_atoms(
            [(0.8605, 0.669), (0.8915, -0.513), (1.0084, 0.461)]))
        assert transfer_matrix(deep, -1e6).log_scale > 700.0
        for p in [deep] + [random_problem(rng) for _ in range(20)]:
            z = -1e6
            m = transfer_matrix(p, z)
            for init in (StateVector(1.0, 0.0), StateVector(0.0, 1.0),
                         StateVector(1.0, -2.0)):
                assert _close(m.apply(init), propagate(p, z, init).state,
                              rtol=1e-12)

    def test_rebased_columns_match_true_values(self, rng):
        # where the true values fit in double range the rebased matrix
        # reproduces them: columns on different log scales below 700
        seen = 0
        for _ in range(30):
            p = random_problem(rng)
            for z in (-3e4, -1e5):
                s1 = propagate(p, z, StateVector(1.0, 0.0)).state
                s2 = propagate(p, z, StateVector(0.0, 1.0)).state
                if s1.log_scale == s2.log_scale or max(
                        s1.log_scale, s2.log_scale) > 600.0:
                    continue
                want = s1.true_values() + s2.true_values()
                if not all(map(math.isfinite, want)):
                    continue
                seen += 1
                m = transfer_matrix(p, z)
                s = math.exp(m.log_scale)
                got = (m.a11 * s, m.a21 * s, m.a12 * s, m.a22 * s)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-14 * abs(w)
        assert seen >= 10


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
