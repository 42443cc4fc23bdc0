import logging
import math
import random

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from deltaprime import (CantorSpec, DomainViolationError, GalerkinOracle,
                        JumpFunction, MeshRefinementError, NearSingularError,
                        PiecewisePotential, ProblemSpec,
                        RefinementUnavailableError, SingularMeasure,
                        counting_function,
                        eigenvalues, jump_function_l2,
                        kappa_minus, negative_count, propagate,
                        quadratic_form, shoot,
                        spectral_function, spectral_function_samples,
                        UnsupportedHypothesisError)
from deltaprime import spectrum
from deltaprime.io import parse_problem
from deltaprime.propagate import cell_l2_integral, realize_problem
from deltaprime.spectrum import (_eigenvalue_by_index, _weyl_upper_guess,
                                 solution_l2_norm)
from conftest import random_measure
from test_cli import ATOM_HALFLINE

CANTOR1 = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), 1.0),))

# frozen before the build: shooting and the independent FEM oracle agree on
# these to their respective tolerances (see test_oracle_agreement)
CANTOR4_LAMBDA_1 = 4.14099359121


def _count_below(problem, z):
    return shoot(problem, z).count


def free_problem(a=0.0, b=1.0, **kw):
    return ProblemSpec((a, b), **kw)


def bisect_by_count(problem, n):
    """Independent n-th eigenvalue: plain bisection on the exact zero count
    from [min q - 1, Weyl guess] down to float adjacency."""
    lo = min(problem.potential.values) - 1.0
    hi = _weyl_upper_guess(problem, n)
    while _count_below(problem, hi) < n:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _count_below(problem, mid) >= n:
            hi = mid
        else:
            lo = mid


# (problem, n_max) pairs for the root finder; the strong atom nearly
# decouples (0, 1/2) from (1/2, 1), whose mirror spectra then pair up 46
# and 5 ulp apart
ROOT_CASES = {
    "cantor5": (ProblemSpec((0.0, 1.0), measure=CANTOR1, level=5), 12),
    "cantor8": (ProblemSpec((0.0, 1.0), measure=CANTOR1, level=8), 12),
    "neumann_steps": (ProblemSpec(
        (0.0, 2.0), bc_left="neumann",
        potential=PiecewisePotential((0.5, 1.2), (3.0, -2.0, 10.0)),
        measure=SingularMeasure.from_atoms([(0.7, 0.3), (1.5, 0.1)])), 30),
    "truncation_60": (ProblemSpec((0.0, 60.0), measure=SingularMeasure
                                  .from_atoms([(17.3, 0.8)])), 100),
    "near_degenerate": (ProblemSpec((0.0, 1.0), measure=SingularMeasure
                                    .from_atoms([(0.5, 1e14)])), 4),
}

# signed measures and Neumann right ends (count offset by the negative
# atoms, plus the Neumann half step)
SIGNED_NEUMANN_CASES = {
    "dn_signed_atoms": ProblemSpec(
        (0.0, 1.0), bc_right="neumann",
        potential=PiecewisePotential((0.5,), (2.0, -1.0)),
        measure=SingularMeasure.from_atoms([(0.3, -0.2), (0.55, 0.4),
                                            (0.8, -0.1)])),
    "nn_signed_atoms": ProblemSpec(
        (0.0, 2.0), bc_left="neumann", bc_right="neumann",
        potential=PiecewisePotential((1.0,), (-3.0, 1.5)),
        measure=SingularMeasure.from_atoms([(0.4, 0.3), (1.1, -0.25)])),
    "nn_negative_cantor": ProblemSpec(
        (0.0, 1.0), bc_left="neumann", bc_right="neumann", level=3,
        measure=SingularMeasure(cantor_parts=(
            CantorSpec((0.2, 0.9), -0.6, 0.3),))),
}


class TestShoot:
    def test_free_dirichlet_eigenvalue(self):
        assert abs(shoot(free_problem(), math.pi ** 2).residual) < 1e-12

    def test_free_neumann_constant(self):
        p = ProblemSpec((0.0, 1.0), bc_left="neumann", bc_right="neumann")
        assert shoot(p, 0.0).residual == 0.0

    def test_midpoint_atom_zero_eigenvalue(self):
        m = SingularMeasure.from_atoms([(0.5, -1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        assert abs(shoot(p, 0.0).residual) < 1e-15

    def test_complex_z_is_refused(self):
        # the count exists for real z only; propagate takes complex z
        with pytest.raises(TypeError, match="propagate"):
            shoot(free_problem(), 1.0 + 1.0j)


class TestEigenvalues:
    def test_needs_a_count_or_a_window(self):
        with pytest.raises(ValueError, match="n_max and/or window"):
            eigenvalues(free_problem())

    def test_free_spectrum(self):
        data = eigenvalues(free_problem(), n_max=20)
        for n, lam in zip(data.indices, data.eigenvalues):
            assert abs(lam / (math.pi * n) ** 2 - 1.0) < 1e-10
        assert all(c > 0 for c in data.norming_constants)
        # free norming: int_0^1 (sin(pi n x)/(pi n))^2 = 1/(2 (pi n)^2)
        for n, c in zip(data.indices, data.norming_constants):
            assert abs(c * 2.0 * (math.pi * n) ** 2 - 1.0) < 1e-9

    def test_delta_prime_bound_state(self):
        m = SingularMeasure.from_atoms([(0.0, -1.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        data = eigenvalues(p, window=(-30.0, -0.5), with_norming=False)
        assert len(data.eigenvalues) == 1
        assert abs(data.eigenvalues[0] + 4.0) < 1e-6

    def test_cantor_level4_frozen_value(self):
        p = ProblemSpec((0.0, 1.0), measure=CANTOR1, level=4)
        data = eigenvalues(p, n_max=1, with_norming=False)
        assert abs(data.eigenvalues[0] / CANTOR4_LAMBDA_1 - 1.0) < 1e-9

    def test_window_only(self):
        data = eigenvalues(free_problem(), window=(30.0, 100.0),
                           with_norming=False)
        assert data.indices == (2, 3)

    def test_eigenvalue_at_window_top_is_that_end(self):
        # a zero residual at the window top: the eigenvalue is the end
        # itself, not the least float above it
        q5 = ProblemSpec((0.0, 1.0), "neumann", "neumann",
                         potential=PiecewisePotential((), (5.0,)))
        assert eigenvalues(q5, window=(1.0, 5.0)).eigenvalues == (5.0,)
        free_nn = free_problem(bc_left="neumann", bc_right="neumann")
        data = eigenvalues(free_nn, window=(-1.0, 0.0), with_norming=False)
        assert data.eigenvalues == (0.0,) and data.indices == (1,)

    def test_empty_window_is_not_an_error(self):
        data = eigenvalues(free_problem(), window=(11.0, 20.0),
                           with_norming=False)
        assert data.eigenvalues == ()

    def test_reversed_window_is_refused(self):
        # lambda_2 = 39.48 lies in [10, 50]; (50, 10) is no window at all
        with pytest.raises(ValueError, match="LO <= HI"):
            eigenvalues(free_problem(), window=(50.0, 10.0))
        data = eigenvalues(free_problem(), window=(10.0, 10.0),
                           with_norming=False)
        assert data.eigenvalues == ()

    def test_window_with_count(self):
        # every eigenvalue in the window, up to index n_max: lambda_2 and
        # lambda_3 lie in [30, 1000] and so do lambda_4 ... lambda_10
        data = eigenvalues(free_problem(), n_max=3, window=(30.0, 1000.0),
                           with_norming=False)
        assert data.indices == (2, 3)
        data = eigenvalues(free_problem(), n_max=1, window=(30.0, 1000.0),
                           with_norming=False)
        assert data.eigenvalues == () and data.indices == ()

    def test_interval_scaling_law(self):
        base = eigenvalues(free_problem(), n_max=6, with_norming=False)
        for s in (0.5, 2.0, 3.7):
            scaled = eigenvalues(free_problem(0.0, s), n_max=6,
                                 with_norming=False)
            for lb, ls in zip(base.eigenvalues, scaled.eigenvalues):
                assert abs(ls - lb / s ** 2) <= 1e-12 * abs(ls)

    def test_minmax_monotone_in_beta(self, rng):
        for _ in range(12):
            m = random_measure(rng, signed=False)
            p1 = ProblemSpec((0.0, 1.0), measure=m)
            k = int(rng.integers(0, len(m.atoms)))
            bumped = list(m.atoms)
            bumped[k] = (bumped[k][0], bumped[k][1] * 1.1)
            p2 = ProblemSpec((0.0, 1.0),
                             measure=SingularMeasure(atoms=tuple(bumped)))
            d1 = eigenvalues(p1, n_max=3, with_norming=False)
            d2 = eigenvalues(p2, n_max=3, with_norming=False)
            for a, b in zip(d1.eigenvalues, d2.eigenvalues):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_cantor_level_refinement_approaches_level8(self):
        lam8 = eigenvalues(ProblemSpec((0.0, 1.0), measure=CANTOR1, level=8),
                           n_max=5, with_norming=False).eigenvalues
        prev_err = None
        for level in range(2, 7):
            lam = eigenvalues(ProblemSpec((0.0, 1.0), measure=CANTOR1,
                                          level=level),
                              n_max=5, with_norming=False).eigenvalues
            err = [abs(a - b) for a, b in zip(lam, lam8)]
            if prev_err is not None:
                assert all(e2 <= e1 for e1, e2 in zip(prev_err, err))
            prev_err = err


class TestRootFinder:
    @pytest.mark.parametrize("case", sorted(ROOT_CASES))
    def test_bit_identical_to_count_bisection(self, case):
        p, n_max = ROOT_CASES[case]
        expected = tuple(bisect_by_count(p, n) for n in range(1, n_max + 1))
        assert all(b > a for a, b in zip(expected, expected[1:]))
        data = eigenvalues(p, n_max=n_max, with_norming=False)
        assert data.eigenvalues == expected
        # cold per-index calls (no shared samples) and the window route
        assert _eigenvalue_by_index(p, n_max) == expected[-1]
        w0 = 0.5 * (expected[0] + expected[1])
        window = eigenvalues(p, window=(w0, expected[-1]),
                             with_norming=False)
        assert window.indices == tuple(range(2, n_max + 1))
        assert window.eigenvalues == expected[1:]

    def test_near_degenerate_pairs_are_ulps_apart(self):
        p, n_max = ROOT_CASES["near_degenerate"]
        lam = eigenvalues(p, n_max=n_max, with_norming=False).eigenvalues
        assert lam[0] < lam[1] <= lam[0] + 100 * math.ulp(lam[0])
        assert lam[2] < lam[3] <= lam[2] + 10 * math.ulp(lam[2])

    @pytest.mark.parametrize("case", sorted(ROOT_CASES))
    def test_adjacency_certificate(self, case):
        p, n_max = ROOT_CASES[case]
        data = eigenvalues(p, n_max=n_max, with_norming=False)
        for n, lam in zip(data.indices, data.eigenvalues):
            assert _count_below(p, lam) >= n
            assert _count_below(p, math.nextafter(lam, -math.inf)) < n

    def test_sweep_budget_level8(self, monkeypatch):
        sweeps = []
        propagate = spectrum.propagate

        def counted(*args, **kwargs):
            sweeps.append(args[1])
            return propagate(*args, **kwargs)

        monkeypatch.setattr(spectrum, "propagate", counted)
        p = ProblemSpec((0.0, 1.0), measure=CANTOR1, level=8)
        eigenvalues(p, n_max=10, with_norming=False)
        assert len(sweeps) <= 20 * 10
        assert len(set(sweeps)) == len(sweeps)  # no z is shot twice
        sweeps.clear()
        data = eigenvalues(p, window=(10.0, 300.0), with_norming=False)
        assert len(data.eigenvalues) >= 5
        assert len(set(sweeps)) == len(sweeps)  # window ends included

    def test_dropped_samples_keep_later_brackets(self):
        p = ROOT_CASES["cantor5"][0]
        samples = spectrum._Samples(p)
        for n in range(1, 6):
            _eigenvalue_by_index(p, n, samples)
        i = samples.bracket(6)
        pair = samples.points[i - 1:i + 1]
        kept = len(samples.points) - (i - 1)
        samples.drop_below(6)
        assert samples.points[:2] == pair and len(samples.points) == kept

    def test_secant_zero_residual_probes_the_neighbour(self):
        # an exact zero residual at one end puts the root within an ulp of
        # it: the point is that end's neighbour inside the bracket, not a
        # bisection step; both residuals zero show no sign change
        def sample(z, count, residual):
            return spectrum._Sample(z, count, residual, 0.0)

        lo, hi = sample(1.0, 0, 0.0), sample(2.0, 1, 3.0)
        assert spectrum._secant(lo, hi, 1.0, 1.0) == math.nextafter(1.0, 2.0)
        lo, hi = sample(1.0, 0, -3.0), sample(2.0, 1, 0.0)
        assert spectrum._secant(lo, hi, 1.0, 1.0) == math.nextafter(2.0, 1.0)
        lo, hi = sample(1.0, 0, 0.0), sample(2.0, 1, 0.0)
        assert spectrum._secant(lo, hi, 1.0, 1.0) is None

    def test_debug_record_per_eigenvalue(self, caplog):
        for p in (ROOT_CASES["cantor5"][0],
                  SIGNED_NEUMANN_CASES["dn_signed_atoms"],
                  SIGNED_NEUMANN_CASES["nn_negative_cantor"]):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="deltaprime"):
                eigenvalues(p, n_max=3, with_norming=False)
            assert caplog.records == []
            with caplog.at_level(logging.DEBUG, logger="deltaprime"):
                data = eigenvalues(p, n_max=3, with_norming=False)
            assert len(caplog.records) == 3
            for n, lam, rec in zip(data.indices, data.eigenvalues,
                                   caplog.records):
                assert rec.name == "deltaprime"
                assert rec.levelno == logging.DEBUG
                index, lo, hi, c_lo, c_hi, sweeps, interp, bisect = rec.args
                assert (index, hi, c_hi) == (n, lam, n)
                assert lo == math.nextafter(hi, -math.inf) and c_lo == n - 1
                assert sweeps >= 1 and interp + bisect >= 1
                assert f"eigenvalue {n}:" in rec.getMessage()


def wide_band_problem(seed):
    """A seeded truncation on (0, ell), ell in [20, 60], as in the wide_band
    benchmark: 0-4 atoms, here of either sign, maybe a q step, any ends."""
    rng = random.Random(f"lockstep/{seed}")
    ell = rng.uniform(20.0, 60.0)
    atoms = {rng.uniform(0.5, ell - 0.5): rng.choice((1.0, -1.0))
             * rng.uniform(0.05, 2.0) for _ in range(rng.randint(0, 4))}
    cut = rng.uniform(0.1 * ell, 0.9 * ell)
    potential = rng.choice((PiecewisePotential(), PiecewisePotential(
        (cut,), (0.0, rng.uniform(-5.0, 5.0)))))
    return ProblemSpec((0.0, ell), rng.choice(("dirichlet", "neumann")),
                       rng.choice(("dirichlet", "neumann")), potential,
                       SingularMeasure.from_atoms(sorted(atoms.items())),
                       level=1)


def one_by_one(p, indices):
    """lambda_n index by index, sharing shots as eigenvalues does."""
    samples = spectrum._Samples(p)
    out = []
    for n in indices:
        out.append(_eigenvalue_by_index(p, n, samples))
        samples.drop_below(n + 1)
    return out


class TestLockstep:
    """Many indices of a problem without a block plan, searched at once."""

    @staticmethod
    def check(p, indices):
        lams = list(spectrum._eigenvalue_list(p, indices))
        for n, lam, ref in zip(indices, lams, one_by_one(p, indices)):
            # the least float whose count reaches n
            assert _count_below(p, lam) >= n, (n, lam)
            assert _count_below(p, math.nextafter(lam, -math.inf)) < n
            # where the count is monotone, the float of the one-by-one
            # search; a few ulps from it where the count reverses
            assert abs(lam - ref) <= 4 * math.ulp(ref), (n, lam, ref)
        return lams

    @pytest.mark.parametrize("seed", range(6))
    def test_least_float_of_each_count(self, seed):
        p = wide_band_problem(seed)
        assert realize_problem(p).plan is None
        first = 1 + 40 * (seed % 2)
        self.check(p, range(first, first + spectrum.LOCKSTEP_MIN + 7 * seed))

    def test_golden_asymptotics_window(self):
        # the eigenvalues behind the asymptotics goldens' window 1e3..4e3
        p = parse_problem(ATOM_HALFLINE)
        w0, w1 = 1e3, 4e3
        indices = range(_count_below(p, w0) + 1, _count_below(p, w1) + 1)
        assert len(indices) >= spectrum.LOCKSTEP_MIN
        lams = self.check(p, indices)
        assert eigenvalues(p, window=(w0, w1),
                           with_norming=False).eigenvalues == tuple(lams)

    def test_route_by_size_and_plan(self, monkeypatch):
        searched = []
        by_index, lockstep = _eigenvalue_by_index, spectrum._lockstep

        def one(p, n, samples=None):
            searched.append(n)
            return by_index(p, n, samples)

        def many(p, indices, samples):
            searched.append(tuple(indices))
            return lockstep(p, indices, samples)

        monkeypatch.setattr(spectrum, "_eigenvalue_by_index", one)
        monkeypatch.setattr(spectrum, "_lockstep", many)
        k = spectrum.LOCKSTEP_MIN
        p = wide_band_problem(0)
        eigenvalues(p, n_max=k - 1, with_norming=False)
        assert searched == list(range(1, k))
        searched.clear()
        eigenvalues(p, n_max=k, with_norming=False)
        assert searched == [tuple(range(1, k + 1))]
        # a block plan keeps the index-by-index search at any size
        searched.clear()
        plan = ProblemSpec((0.0, 1.0), measure=CANTOR1, level=6)
        assert realize_problem(plan).plan is not None
        eigenvalues(plan, n_max=k, with_norming=False)
        assert searched == list(range(1, k + 1))

    def test_debug_record_per_call(self, caplog, capsys):
        p = wide_band_problem(1)
        k = spectrum.LOCKSTEP_MIN
        with caplog.at_level(logging.INFO, logger="deltaprime"):
            eigenvalues(p, n_max=k, with_norming=False)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="deltaprime"):
            eigenvalues(p, n_max=k, with_norming=False)
        (rec,) = caplog.records
        assert rec.name == "deltaprime" and rec.levelno == logging.DEBUG
        first, last, indices, rounds, shots, interp, bisect = rec.args
        assert (first, last, indices) == (1, k, k)
        # every unfinished index takes a step per round; indices that
        # share a bracket share its midpoint
        assert 1 <= rounds <= shots <= interp + bisect
        assert "in lockstep" in rec.getMessage()
        assert capsys.readouterr() == ("", "")


# pencils for the oracle's eigenvalues against eigh_tridiagonal: both
# Dirichlet ends, Neumann ends with the eigenvalue 0, signed atoms with a
# potential step, and an atom at the Dirichlet end a
ORACLE_PENCILS = {
    "dd_free": (free_problem(), 2.0 ** -8),
    "nn_free": (free_problem(bc_left="neumann", bc_right="neumann"),
                2.0 ** -8),
    "signed_atoms": (ProblemSpec(
        (0.0, 1.0), potential=PiecewisePotential((0.6,), (3.0, -5.0)),
        measure=SingularMeasure.from_atoms([(0.3, -0.2), (0.7, 0.4)])),
        2.0 ** -7),
    "atom_at_a": (ProblemSpec((0.0, 1.0), measure=SingularMeasure
                              .from_atoms([(0.0, 0.5), (0.5, -0.25)])),
                  2.0 ** -7),
}


def _richardson(problem, count, h):
    """Galerkin eigenvalues extrapolated from meshes h and h/2 (O(h^2))."""
    coarse = GalerkinOracle(problem, h).eigenvalues(count)
    fine = GalerkinOracle(problem, h / 2.0).eigenvalues(count)
    return (4.0 * fine - coarse) / 3.0


def _widen(s):
    return s + max(abs(s), 1.0) * 1e-14


class TestCountedRoute:
    def test_zero_exactly_on_a_node_is_counted(self):
        # at z = 0 the solution is linear: -0.25 after the atom at 0.25,
        # exactly 0.0 at the atom at 0.5, where the stretch owns the zero
        m = SingularMeasure.from_atoms([(0.25, -0.5), (0.5, 0.3)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        assert [_count_below(p, z) for z in
                (-1.0, -1e-20, 0.0, 1e-20, 1.0)] == [1] * 5
        data = eigenvalues(p, window=(0.0, 30.0), with_norming=False)
        assert data.indices == (2, 3)
        assert data.eigenvalues[0] > 16.0
        lam1 = eigenvalues(p, n_max=1, with_norming=False).eigenvalues[0]
        assert lam1 == pytest.approx(-13.5766, abs=1e-4)

    def test_weak_negative_atom_binds_deep(self):
        # a delta' coupling of weight beta < 0 binds one state at
        # -4/beta^2 = -1600, far below any coarse oracle's reach
        m = SingularMeasure.from_atoms([(0.0, -0.05)])
        p = ProblemSpec((-200.0, 200.0), measure=m)
        data = eigenvalues(p, window=(-5000.0, -1.0), with_norming=False)
        assert data.indices == (1,)
        assert data.eigenvalues[0] == pytest.approx(-1600.0, rel=1e-12)

    def test_signed_cantor_neumann_right_against_richardson(self):
        m = SingularMeasure(atoms=((0.7, 0.2),), cantor_parts=(
            CantorSpec((0.0, 1.0), -0.5, 0.3),))
        p = ProblemSpec((0.0, 1.0), bc_right="neumann", level=4,
                        potential=PiecewisePotential((0.4,), (3.0, -2.0)),
                        measure=m)
        data = eigenvalues(p, n_max=6, with_norming=False)
        oracle = _richardson(p, 6, 2.0 ** -14)
        # the h = 2^-15 oracle alone is 9e-7 off; the extrapolation 4e-9
        assert data.eigenvalues[0] == pytest.approx(-8262.79287, abs=1e-5)
        np.testing.assert_allclose(data.eigenvalues, oracle, rtol=2e-8)

    def test_wide_signed_truncation_count(self):
        # four negative atoms on a wide truncation: 155 eigenvalues in
        # (0, t]; a coarse default-mesh oracle reports 241
        m = SingularMeasure.from_atoms([
            (-15.486156, -0.965236), (-5.556958, -0.331679),
            (2.141711, -0.388607), (10.164699, -0.637136)])
        pot = PiecewisePotential((-1.505236, 8.047563),
                                 (-0.083806, -0.567703, -0.186431))
        p = ProblemSpec((-36.904851, 36.904851), potential=pot, measure=m)
        t = 49.722088
        count = _count_below(p, _widen(t)) - _count_below(p, _widen(0.0))
        assert count == 155
        oracle = GalerkinOracle(p, 73.809702 * 2.0 ** -15)
        assert oracle.inertia(_widen(t)) - oracle.inertia(_widen(0.0)) == 155

    def test_negative_atom_at_dirichlet_left_end(self):
        # u(a+) = beta u^[1](a): a Robin end.  On (0, 1), free, the
        # eigenvalues solve tanh(k) = -beta k (lambda = -k^2) and
        # tan(w) = -beta w (lambda = w^2)
        beta = -0.2
        p = ProblemSpec((0.0, 1.0),
                        measure=SingularMeasure.from_atoms([(0.0, beta)]))
        assert realize_problem(p).negative_jumps == 1
        k = brentq(lambda k: math.tanh(k) + beta * k, 1.0, 10.0, xtol=1e-15)
        ws = [brentq(lambda w: math.sin(w) + beta * w * math.cos(w),
                     j * math.pi + 1e-9, (j + 0.5) * math.pi, xtol=1e-15)
              for j in (1, 2)]
        data = eigenvalues(p, n_max=3, with_norming=False)
        np.testing.assert_allclose(data.eigenvalues,
                                   [-k * k] + [w * w for w in ws],
                                   rtol=1e-12)

    @pytest.mark.parametrize("bc_right", ["dirichlet", "neumann"])
    def test_inert_atom_at_neumann_left_end(self, bc_right):
        # u^[1](a) = 0 leaves an atom at a without effect, whatever its sign
        pot = PiecewisePotential((0.6,), (1.0, -2.0))
        rest = [(0.35, -0.2), (0.7, 0.5)]
        with_atom, without = (
            ProblemSpec((0.0, 1.0), bc_left="neumann", bc_right=bc_right,
                        potential=pot,
                        measure=SingularMeasure.from_atoms(atoms))
            for atoms in ([(0.0, -0.3)] + rest, rest))
        assert realize_problem(with_atom).negative_jumps == 1
        assert eigenvalues(with_atom, n_max=6).eigenvalues == \
            eigenvalues(without, n_max=6).eigenvalues

    def test_neumann_right_count_where_u_vanishes_at_b(self):
        # u(a+) = -u^[1](a), so at z = 0 the state reaches b as (0, 1)
        # exactly: theta(b) sits on a multiple of pi, above lambda_1 = -k^2
        # (k tanh k = 1) and below lambda_2 = w^2 (w tan w = -1)
        p = ProblemSpec((0.0, 1.0), bc_right="neumann",
                        measure=SingularMeasure.from_atoms([(0.0, -1.0)]))
        assert propagate(p, 0.0).state.u == 0.0
        assert _count_below(p, 0.0) == 1
        k = brentq(lambda k: k * math.tanh(k) - 1.0, 0.5, 2.0, xtol=1e-15)
        w = brentq(lambda w: w * math.sin(w) + math.cos(w),
                   0.5 * math.pi, math.pi, xtol=1e-15)
        data = eigenvalues(p, n_max=2, with_norming=False)
        np.testing.assert_allclose(data.eigenvalues, [-k * k, w * w],
                                   rtol=1e-12)

    @pytest.mark.parametrize("case", sorted(SIGNED_NEUMANN_CASES))
    def test_counts_match_oracle_inertia(self, case):
        # the adjacency certificate of every eigenvalue, and the oracle's
        # inertia between neighbours
        p = SIGNED_NEUMANN_CASES[case]
        h = 2.0 ** -12
        data = eigenvalues(p, n_max=8, with_norming=False)
        assert data.method == "shooting"
        for n, lam in zip(data.indices, data.eigenvalues):
            assert _count_below(p, lam) >= n
            assert _count_below(p, math.nextafter(lam, -math.inf)) < n
        oracle = GalerkinOracle(p, h)
        for n, (lo, hi) in enumerate(zip(data.eigenvalues,
                                         data.eigenvalues[1:]), start=1):
            assert oracle.inertia(0.5 * (lo + hi)) == n
        for a, b in zip(data.eigenvalues, oracle.eigenvalues(8)):
            assert abs(a - b) <= max(1e-5, (a * h) ** 2, 200.0 * h * h)


class TestCounting:
    def test_free_counts(self):
        p = free_problem()
        assert counting_function(p, 50.0) == 2
        assert counting_function(p, -10.0) == 0

    def test_zero_t_counts_nothing(self):
        # (0, 0] and [0, 0) are empty: the bound state at -4 is not in them
        m = SingularMeasure.from_atoms([(0.0, -1.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        assert counting_function(p, -10.0) == 1
        assert counting_function(p, 0.0) == 0

    def test_three_negative_atoms_saturate(self):
        m = SingularMeasure.from_atoms([(0.25, -0.3), (0.5, -0.5),
                                        (0.75, -0.4)])
        p = ProblemSpec((-3.0, 4.0), measure=m)
        assert counting_function(p, -1.0e6) == 3
        assert counting_function(p, -1.0e8) == 3

    def test_boundary_inclusion_convention(self):
        # t exactly at an eigenvalue belongs to (0, t]
        p = free_problem()
        lam2 = (2 * math.pi) ** 2
        assert counting_function(p, lam2) == 2

    # a nonnegative measure counts exactly under a Neumann right end too;
    # the default-mesh oracle broke down on the first and miscounted the
    # other two (61 and 19)
    def test_free_neumann_neumann(self):
        p = free_problem(bc_left="neumann", bc_right="neumann")
        assert counting_function(p, 50.0) == 2      # pi^2, 4 pi^2; not 0
        assert counting_function(p, 5.0) == 0

    def test_free_dirichlet_neumann(self):
        p = free_problem(bc_right="neumann")
        lam60 = (59.5 * math.pi) ** 2
        assert counting_function(p, lam60 * (1.0 + 1e-5)) == 60
        assert counting_function(p, lam60 * (1.0 - 1e-5)) == 59

    def test_cantor_dirichlet_neumann(self):
        p = ProblemSpec((0.0, 1.0), bc_right="neumann", measure=CANTOR1,
                        level=5)
        lam20 = eigenvalues(p, n_max=20, with_norming=False).eigenvalues[-1]
        assert counting_function(p, lam20 * (1.0 + 1e-5)) == 20

    def test_wide_signed_truncation_q_zero(self):
        # the four negative atoms of test_wide_signed_truncation_count with
        # q = 0: exact counts, which an h = (b - a) 2^-15 oracle confirms;
        # the default-mesh oracle gave 251 and 76
        m = SingularMeasure.from_atoms([
            (-15.486156, -0.965236), (-5.556958, -0.331679),
            (2.141711, -0.388607), (10.164699, -0.637136)])
        p = ProblemSpec((-36.904851, 36.904851), measure=m)
        assert counting_function(p, 49.722088) == 164
        assert counting_function(p, 10.0) == 73

    def test_signed_neumann_q_zero_counts(self):
        # zero is an eigenvalue (the constants) and one state lies below
        # it; the default-mesh oracle's Sturm pivots broke down at every
        # t != 0
        p = ProblemSpec((0.0, 1.0), "neumann", "neumann",
                        measure=SingularMeasure.from_atoms([(0.5, -0.2)]))
        assert [counting_function(p, t) for t in (-1.0, 5.0, -1e4, 100.0)] \
            == [0, 0, 1, 2]

    def test_counts_match_eigenvalues(self, rng):
        # the counting function, negative_count and eigenvalues answer the
        # same question alike: nonnegative measures with or without q, and
        # signed measures with q = 0
        bcs = ("dirichlet", "neumann")
        for k in range(24):
            signed = k % 2 == 1
            pot = PiecewisePotential()
            if not signed:
                pot = PiecewisePotential((0.5,), tuple(
                    rng.uniform(-40.0, 5.0, 2).tolist()))
            bc = (bcs[k % 4 // 2], bcs[k % 3 == 0])
            if pot.is_zero and bc == ("neumann", "neumann"):
                bc = ("neumann", "dirichlet")
            p = ProblemSpec((0.0, 1.0), *bc, potential=pot,
                            measure=random_measure(rng, signed=signed))
            lams = eigenvalues(p, n_max=12, with_norming=False).eigenvalues
            for j in range(6):
                t = rng.uniform(lams[0] - 20.0, (lams[-1], 0.0)[j % 2])
                if min(abs(t - l) for l in lams) <= 1e-9 * max(abs(t), 1.0):
                    continue
                expected = (sum(1 for l in lams if 0.0 < l <= t) if t > 0.0
                            else sum(1 for l in lams if t <= l < 0.0))
                assert counting_function(p, t) == expected
            if not pot.is_zero:
                assert negative_count(p) == sum(1 for l in lams if l < 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            counting_function(free_problem(), t)

    @pytest.mark.parametrize("window", [(0.0, math.nan), (math.nan, 10.0),
                                        (-math.inf, 10.0), (0.0, math.inf)])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(free_problem(), window=window)

    # q = 0 under Neumann ends: the constants solve at lambda = 0 whatever
    # the atoms (u^[1] = 0, so no jumps), and zero is in neither [t, 0)
    # nor (0, t]
    @pytest.mark.parametrize("level", [0, 5])
    def test_zero_eigenvalue_in_neither_side(self, level):
        p = ProblemSpec((0.0, 1.0), bc_left="neumann", bc_right="neumann",
                        measure=CANTOR1 if level else SingularMeasure(),
                        level=level)
        assert counting_function(p, -10.0) == 0
        assert counting_function(p, -1e-3) == 0
        assert counting_function(p, 1e-3) == 0


class TestNegativeCount:
    def test_signed_pair(self):
        m = SingularMeasure.from_atoms([(0.3, 1.0), (0.6, -0.5)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        assert negative_count(p) == 1

    def test_all_positive_cantor(self):
        p = ProblemSpec((0.0, 1.0), measure=CANTOR1, level=5)
        assert negative_count(p) == 0

    def test_four_negative_atoms_wide_interval(self):
        # Sum|beta_-| must stay below the interval length for the truncated
        # operator to carry the full count (rank-one Dirichlet return term):
        # on (-2, 3) the criterion 4 < 5 holds and all routes agree
        m = SingularMeasure.from_atoms([(0.2, -1.0), (0.4, -1.0),
                                        (0.6, -1.0), (0.8, -1.0)])
        p = ProblemSpec((-2.0, 3.0), measure=m)
        assert negative_count(p) == 4
        assert GalerkinOracle(p, 2.0 ** -9).inertia(0.0) == 4
        scan = eigenvalues(p, window=(-100.0, -1e-8), with_norming=False)
        assert len(scan.eigenvalues) == 4

    def test_unit_interval_saturation(self):
        # same atoms on (0,1): Sum|beta_-| equals the length and exactly one
        # negative direction is lost to the Dirichlet return constraint
        m = SingularMeasure.from_atoms([(0.2, -1.0), (0.4, -1.0),
                                        (0.6, -1.0), (0.8, -1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        assert GalerkinOracle(p, 2.0 ** -10).inertia(0.0) == 3

    def test_theorem_vs_oracle_random(self, rng):
        for _ in range(40):
            m = random_measure(rng, beta_lo=0.02, beta_hi=0.08, min_gap=0.05)
            p = ProblemSpec((0.0, 1.0), measure=m)
            expected = sum(1 for (_, w) in m.atoms if w < 0)
            assert negative_count(p) == kappa_minus(m) == expected
            assert GalerkinOracle(p, 2.0 ** -10).inertia(0.0) == expected

    def test_negative_cantor_growth(self):
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), -1.0),))
        assert negative_count(ProblemSpec((0.0, 1.0), measure=m)) == math.inf
        for level in range(1, 7):
            p = ProblemSpec((-1.0, 2.0), measure=m, level=level)
            assert GalerkinOracle(p, 3.0 ** -(level + 1) / 2.0).inertia(0.0) \
                == 2 ** level

    @pytest.mark.parametrize("measure, where", [
        (SingularMeasure.from_atoms([(2.0, -1.0)]), "atoms/0/x"),
        (SingularMeasure(cantor_parts=(CantorSpec((0.5, 1.5), -1.0),)),
         "cantor/0/support")])
    def test_q_zero_refuses_a_measure_outside_the_interval(self, measure,
                                                          where):
        # the schema's check, made without realizing the problem; every
        # realization makes the same check, so the counting function
        # refuses it too
        p = ProblemSpec((0.0, 1.0), measure=measure)
        with pytest.raises(ValueError, match=f"{where}: .* outside"):
            negative_count(p)
        with pytest.raises(ValueError, match="outside"):
            counting_function(p, 1.0)

    def test_q_zero_count_realizes_nothing(self):
        # a level past level_cap is refused by every realization, but the
        # count on this route does not depend on the level
        m = SingularMeasure(cantor_parts=(CantorSpec((0.0, 1.0), -1.0),))
        p = ProblemSpec((0.0, 1.0), measure=m, level=13)
        with pytest.raises(RefinementUnavailableError):
            realize_problem(p)
        assert negative_count(p) == math.inf

    def test_nonzero_q_numerical_path(self):
        m = SingularMeasure.from_atoms([(0.5, -0.05)])
        pot = PiecewisePotential((), (5.0,))
        p = ProblemSpec((0.0, 1.0), potential=pot, measure=m)
        # +q shifts the deep bound state (~ -4/beta^2 = -1600) but not away
        # from negativity; kappa stays 1
        assert negative_count(p) == 1

    def test_nonzero_q_counts_eigenvalue_just_below_zero(self):
        # q = -(5 pi)^2 - 1e-3: lambda_n = (n^2 - 25) pi^2 - 1e-3, so
        # lambda_5 = -1e-3 is the fifth negative eigenvalue; the
        # default-mesh oracle lifted it above zero (4)
        q = -25.0 * math.pi ** 2 - 1e-3
        p = ProblemSpec((0.0, 1.0), potential=PiecewisePotential((), (q,)))
        assert negative_count(p) == 5
        assert counting_function(p, -1e9) == 5


class TestQuadraticForm:
    def test_hat_energy(self):
        f = JumpFunction.hat(0.5, 0.25)
        val = quadratic_form(free_problem(), f)
        assert abs(val.kinetic - 2.0 / 0.25) < 1e-12
        assert val.potential == 0.0
        assert val.jump_sum == 0.0

    def test_constant_potential_is_q_times_l2(self):
        f = JumpFunction.hat(0.4, 0.3, 2.0)
        p = free_problem(potential=PiecewisePotential((), (3.5,)))
        assert quadratic_form(p, f).potential == pytest.approx(
            3.5 * jump_function_l2(f), rel=1e-14)

    def test_an_ulp_long_element_reads_the_q_of_its_left_end(self):
        # f lives where q = 0; the midpoint of its last element [x, 0.5], x
        # the float below 0.5, rounds onto the breakpoint, where q = 100
        x = math.nextafter(0.5, 0.0)
        p = free_problem(potential=PiecewisePotential((0.5,), (0.0, 100.0)))
        f = JumpFunction.continuous((0.25, x, 0.5), (0.0, 1.0, 0.0))
        assert quadratic_form(p, f).potential == 0.0

    def test_matches_oracle_stiffness(self, rng):
        # a continuous P1 function on the oracle's dofs: the exact form is
        # v @ A @ v for the oracle's stiffness with consistent q entries
        pot = PiecewisePotential((0.3,), (-2.0, 5.0))
        p = free_problem(potential=pot)
        orc = GalerkinOracle(p, 0.1)
        v = rng.uniform(-1.0, 1.0, orc.n)
        f = JumpFunction.continuous(
            (0.0, *orc.dof_positions.tolist(), 1.0), (0.0, *v.tolist(), 0.0))
        A = (np.diag(orc.diag) + np.diag(orc.off, 1) + np.diag(orc.off, -1))
        val = quadratic_form(p, f)
        assert val.potential != 0.0
        assert val.total() == pytest.approx(v @ A @ v, rel=1e-12)

    def test_paper_ramp_is_exactly_borderline(self):
        # jump of size beta at the atom, then slope 1/N over length N|beta|
        # with N = 1: kinetic |beta|/N - |beta| = 0
        beta = -1.0
        m = SingularMeasure.from_atoms([(0.0, beta)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        f = JumpFunction((0.0, 1.0), (0.0, 0.0), (beta, 0.0))
        val = quadratic_form(p, f)
        assert abs(val.total()) < 1e-14

    def test_steeper_ramp_goes_negative(self):
        beta = -1.0
        m = SingularMeasure.from_atoms([(0.0, beta)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        f = JumpFunction((0.0, 2.0), (0.0, 0.0), (beta, 0.0))
        val = quadratic_form(p, f)
        assert val.total() < -0.49  # |beta|(1/2 - 1)

    def test_jump_identity(self):
        # pure jump of size 1 at beta = 2 with a long shallow return:
        # both representations of the atom part equal 1/2
        m = SingularMeasure.from_atoms([(0.0, 2.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        f = JumpFunction((0.0, 19.0), (0.0, 0.0), (1.0, 0.0))
        val = quadratic_form(p, f)
        assert abs(val.jump_sum - 0.5) < 1e-14
        lebesgue = val.kinetic - val.jump_sum
        assert abs(lebesgue - 1.0 / 19.0) < 1e-12

    def test_jump_within_1e_12_of_an_atom_takes_its_weight(self):
        m = SingularMeasure.from_atoms([(0.0, 2.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        f = JumpFunction((5e-13, 19.0), (0.0, 0.0), (1.0, 0.0))
        assert quadratic_form(p, f).jump_sum == 0.5

    def test_off_atom_jump_rejected(self):
        p = free_problem()
        f = JumpFunction((0.2, 0.5, 0.8), (0.0, 0.3, 0.0), (0.0, 0.8, 0.0))
        with pytest.raises(DomainViolationError):
            quadratic_form(p, f)

    def test_variational_lower_bound(self, rng):
        for _ in range(10):
            m = random_measure(rng, signed=False)
            p = ProblemSpec((0.0, 1.0), measure=m)
            lam1 = eigenvalues(p, n_max=1, with_norming=False).eigenvalues[0]
            for _ in range(5):
                nodes = np.sort(rng.uniform(0.05, 0.95, 4))
                vals = [0.0] + rng.uniform(-1.0, 1.0, 2).tolist() + [0.0]
                f = JumpFunction.continuous(nodes.tolist(), vals)
                val = quadratic_form(p, f)
                norm = jump_function_l2(f)
                assert val.total() >= lam1 * norm - 1e-9

    def test_negative_certificate_matrix(self, rng):
        # the ramp family of jump functions certifies kappa_- >= N via a
        # negative-definite N x N form matrix (bilinear values by
        # polarization)
        m = SingularMeasure.from_atoms([(0.0, -0.4), (1.0, -0.3),
                                        (2.5, -0.6)])
        p = ProblemSpec((-30.0, 30.0), measure=m)
        n = len(m.atoms)
        slope = 2 * n

        def ramp(k):
            x, beta = m.atoms[k]
            eps = slope * abs(beta)
            return JumpFunction((x, x + eps), (0.0, 0.0), (beta, 0.0))

        def form(f, g):
            def combine(a, b, s):
                nodes = sorted(set(a.nodes) | set(b.nodes))

                def value(h, x, side):
                    vals = dict(zip(h.nodes,
                                    zip(h.left_values, h.right_values)))
                    if x in vals:
                        return vals[x][side]
                    if x < h.nodes[0] or x > h.nodes[-1]:
                        return 0.0
                    i = max(j for j, p in enumerate(h.nodes) if p < x)
                    x0, x1 = h.nodes[i], h.nodes[i + 1]
                    v0, v1 = h.right_values[i], h.left_values[i + 1]
                    return v0 + (v1 - v0) * (x - x0) / (x1 - x0)

                lv = tuple(value(a, x, 0) + s * value(b, x, 0) for x in nodes)
                rv = tuple(value(a, x, 1) + s * value(b, x, 1) for x in nodes)
                return JumpFunction(tuple(nodes), lv, rv)

            tp = quadratic_form(p, combine(f, g, 1.0)).total()
            tm = quadratic_form(p, combine(f, g, -1.0)).total()
            return (tp - tm) / 4.0

        ramps = [ramp(k) for k in range(n)]
        M = np.array([[form(fi, fj) for fj in ramps] for fi in ramps])
        assert np.all(np.linalg.eigvalsh(M) < 0.0)


class TestGalerkinOracle:
    @pytest.mark.parametrize("mesh_size", [0.0, -0.1])
    def test_nonpositive_mesh_rejected(self, mesh_size):
        with pytest.raises(MeshRefinementError, match="positive"):
            GalerkinOracle(free_problem(), mesh_size)

    def test_free_lambda1_convergence(self):
        orc = GalerkinOracle(free_problem(), 2.0 ** -10).eigenvalues(3)
        assert abs(orc[0] / math.pi ** 2 - 1.0) < 1e-4

    def test_bound_state(self):
        m = SingularMeasure.from_atoms([(0.0, -1.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        vals = [GalerkinOracle(p, h).eigenvalues(1)[0]
                for h in (2.0 ** -6, 2.0 ** -7, 2.0 ** -8)]
        errs = [abs(v + 4.0) for v in vals]
        assert errs[-1] < 2e-4
        assert errs[0] > errs[1] > errs[2]

    def test_oracle_agreement_random(self, rng):
        h = 2.0 ** -10
        for _ in range(8):
            m = random_measure(rng, signed=False, min_gap=0.05)
            ncells = int(rng.integers(1, 5))
            bps = np.sort(rng.uniform(0.1, 0.9, ncells - 1))
            pot = PiecewisePotential(tuple(bps.tolist()),
                                     tuple(rng.uniform(-4.0, 4.0, ncells)))
            p = ProblemSpec((0.0, 1.0), potential=pot, measure=m)
            shootv = eigenvalues(p, n_max=5, with_norming=False).eigenvalues
            orcv = GalerkinOracle(p, h).eigenvalues(5)
            for a, b in zip(shootv, orcv):
                tol = max(1e-6, (a * h) ** 2, 100.0 * h * h)
                assert abs(a - b) <= tol

    def test_oracle_agreement_signed_clustered(self, rng):
        # mixed-sign atoms in tight clusters with a potential: the counted
        # route must find every root the FEM sees, with the same indices
        h = 2.0 ** -11
        for _ in range(5):
            xs = (0.3 + np.cumsum(rng.uniform(0.012, 0.03, 4))).tolist()
            ws = (rng.uniform(0.1, 0.4, 4)
                  * rng.choice([-1.0, 1.0], 4)).tolist()
            m = SingularMeasure.from_atoms(zip(xs, ws))
            pot = PiecewisePotential((0.5,), (1.0, -1.0))
            p = ProblemSpec((0.0, 1.0), potential=pot, measure=m)
            data = eigenvalues(p, window=(-2000.0, 200.0),
                               with_norming=False)
            orcv = GalerkinOracle(p, h).eigenvalues(len(data.eigenvalues))
            for a, b in zip(data.eigenvalues, orcv):
                assert abs(a - b) <= max(1e-5, (a * h) ** 2, 200.0 * h * h)

    @pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
    def test_pencil_entries_closed_form(self, bc_left):
        # atoms at a = 0 (beta 0.5) and 0.5 (beta -0.25), q = 2 then -3
        # past 0.75; mesh 1/4 keeps the grid point 0.25 and drops those on
        # nodes, so the dofs are 0, 0.25, 0.5-, 0.5+, 0.75 (1 is clamped).
        # Elements of length L = 1/4: 1/L + qL/3 is 4 + 1/6 (q = 2) or 3.75
        # (q = -3) on the diagonal, -1/L + qL/6 is -4 + 1/12 (q = 2) off it,
        # lumped mass L/2; the atom pair adds 1/beta = -4 to both of its
        # dofs and -1/beta = 4 between them
        m = SingularMeasure.from_atoms([(0.0, 0.5), (0.5, -0.25)])
        pot = PiecewisePotential((0.75,), (2.0, -3.0))
        p = ProblemSpec((0.0, 1.0), bc_left=bc_left, potential=pot,
                        measure=m)
        orc = GalerkinOracle(p, 0.25)
        # (u(0+) - 0)^2/beta = 2 u(0+)^2 under Dirichlet; inert under Neumann
        end = 2.0 if bc_left == "dirichlet" else 0.0
        np.testing.assert_array_equal(orc.dof_positions,
                                      [0.0, 0.25, 0.5, 0.5, 0.75])
        np.testing.assert_allclose(
            orc.diag, [4.0 + 1.0 / 6.0 + end, 8.0 + 1.0 / 3.0, 1.0 / 6.0,
                       1.0 / 6.0, 7.75 + 1.0 / 6.0], rtol=1e-15, atol=1e-14)
        np.testing.assert_allclose(
            orc.off, [-4.0 + 1.0 / 12.0, -4.0 + 1.0 / 12.0, 4.0,
                      -4.0 + 1.0 / 12.0], rtol=1e-15)
        np.testing.assert_array_equal(orc.mass,
                                      [0.125, 0.25, 0.125, 0.125, 0.25])
        assert orc.n == 5

    def test_mesh_refinement_error(self):
        m = SingularMeasure.from_atoms([(0.5, 1.0), (0.5005, 1.0)])
        p = ProblemSpec((0.0, 1.0), measure=m)
        with pytest.raises(MeshRefinementError):
            GalerkinOracle(p, 2.0 ** -6)


    @pytest.mark.parametrize("bc_left", ["dirichlet", "neumann"])
    def test_inertia_counts_pencil_eigenvalues(self, bc_left):
        # potential step, atoms of both signs inside and one at a; t at
        # the midpoints between the pencil's eigenvalues and past both ends
        m = SingularMeasure.from_atoms([(0.0, 0.5), (0.3, -0.2),
                                        (0.7, 0.4)])
        pot = PiecewisePotential((0.6,), (3.0, -5.0))
        p = ProblemSpec((0.0, 1.0), bc_left=bc_left, potential=pot,
                        measure=m)
        orc = GalerkinOracle(p, 2.0 ** -5)
        scale = 1.0 / np.sqrt(orc.mass)
        lams = eigh_tridiagonal(orc.diag * scale * scale,
                                orc.off * scale[:-1] * scale[1:],
                                eigvals_only=True)
        assert lams[0] < -50.0      # the negative atom's bound state
        ts = np.concatenate(([lams[0] - 1.0], 0.5 * (lams[:-1] + lams[1:]),
                             [lams[-1] + 1.0]))
        assert [orc.inertia(t) for t in ts] == list(range(orc.n + 1))

    def test_inertia_zero_pivot_retry(self):
        # the first pivot at t = 128 is exactly zero, so the count comes
        # from the perturbed second shift; the pencil's eigenvalues near
        # 128 are 80.6 and 129.3
        p = ProblemSpec((0.0, 1.0),
                        potential=PiecewisePotential((0.5,), (0.0, 4.0)))
        orc = GalerkinOracle(p, 0.125)
        assert orc.diag[0] - 128.0 * orc.mass[0] == 0.0
        assert orc.inertia(128.0) == 3

    def test_empty_pencil(self):
        orc = GalerkinOracle(free_problem(), 1.0)
        assert orc.n == 0
        assert orc.inertia(5.0) == 0
        assert orc.eigenvalues(3).shape == (0,)

    @pytest.mark.parametrize("case", sorted(ORACLE_PENCILS))
    def test_eigenvalues_match_eigh_tridiagonal(self, case):
        p, h = ORACLE_PENCILS[case]
        orc = GalerkinOracle(p, h)
        scale = 1.0 / np.sqrt(orc.mass)
        d = orc.diag * scale * scale
        e = orc.off * scale[:-1] * scale[1:]
        count = 8
        ref = eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                               eigvals_only=True)
        lams = orc.eigenvalues(count)
        assert lams.shape == (count,)
        norm_t = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
        np.testing.assert_allclose(lams, ref, rtol=0.0,
                                   atol=4.0 * np.finfo(float).eps * norm_t)
        if case == "nn_free":
            assert abs(lams[0]) <= 4.0 * np.finfo(float).eps * norm_t

    @pytest.mark.parametrize("case", sorted(ORACLE_PENCILS))
    def test_eigenvalues_bracket_the_inertia(self, case):
        # lambda_k is where the Sturm count reaches k, to the stopping
        # width eps * max(|lo_0|, |hi_0|) of the Gershgorin bounds
        p, h = ORACLE_PENCILS[case]
        orc = GalerkinOracle(p, h)
        r = np.abs(np.pad(orc.off, (1, 0))) + np.abs(np.pad(orc.off, (0, 1)))
        lo0 = np.min((orc.diag - r) / orc.mass)
        hi0 = np.max((orc.diag + r) / orc.mass)
        w = np.finfo(float).eps * max(abs(lo0), abs(hi0))
        for k, lam in enumerate(orc.eigenvalues(8), start=1):
            assert orc.inertia(lam) >= k
            if lam - w == 0.0:
                # the Neumann pencil is singular at 0 (the constants), so
                # no Sturm count exists there; lambda_1 is 0 to within w
                assert case == "nn_free" and k == 1
                continue
            assert orc.inertia(lam - w) < k

    def test_eigenvalue_count_clipped_to_pencil(self):
        orc = GalerkinOracle(free_problem(), 0.25)
        assert orc.n == 3
        assert orc.eigenvalues(10).shape == (3,)
        assert orc.eigenvalues(0).shape == (0,)
        assert orc.eigenvalues(-2).shape == (0,)


class TestSpectralFunction:
    def test_below_first_eigenvalue(self):
        p = ProblemSpec((0.0, 50.0), bc_left="neumann")
        assert spectral_function(p, 1e-6) == 0.0

    def test_zero_t_is_zero(self):
        p = ProblemSpec((0.0, 50.0), bc_left="neumann")
        assert spectral_function(p, 0.0) == 0.0

    def test_free_halfline_small_t(self):
        p = ProblemSpec((0.0, 50.0), bc_left="neumann")
        rho = spectral_function(p, 100.0)
        assert abs(rho / (2.0 / math.pi * 10.0) - 1.0) < 0.05

    def test_free_halfline_leading_term(self):
        p = ProblemSpec((0.0, 50.0), bc_left="neumann")
        t = 1.0e4
        rho = spectral_function(p, t)
        assert abs(math.pi / 2.0 * rho / math.sqrt(t) - 1.0) < 0.05

    def test_atom_far_from_origin_matches_free(self):
        m = SingularMeasure.from_atoms([(7.0, 1.0)])
        p = ProblemSpec((0.0, 50.0), bc_left="neumann", measure=m)
        t = 1.0e4
        rho = spectral_function(p, t)
        assert abs(math.pi / 2.0 * rho / math.sqrt(t) - 1.0) < 0.05

    def test_samples_are_partial_sums(self):
        p = ProblemSpec((0.0, 10.0), bc_left="neumann")
        samples = spectral_function_samples(p, [50.0, 200.0, 400.0])
        singles = [spectral_function(p, t) for t in (50.0, 200.0, 400.0)]
        np.testing.assert_allclose([v for (_, v) in samples], singles,
                                   rtol=1e-9)

    def test_requires_neumann_left(self):
        with pytest.raises(UnsupportedHypothesisError):
            spectral_function(free_problem(), 10.0)

    def test_samples_require_neumann_left(self):
        with pytest.raises(UnsupportedHypothesisError):
            spectral_function_samples(free_problem(), [10.0])

    def test_samples_need_a_grid(self):
        p = ProblemSpec((0.0, 1.0), bc_left="neumann")
        with pytest.raises(ValueError, match="non-empty"):
            spectral_function_samples(p, [])

    def test_zero_eigenvalue_left_out(self):
        # free Neumann-Neumann: lambda = 0, pi^2, 4 pi^2, 9 pi^2 < 100, each
        # with 1/||c||^2 = 2; the zero eigenvalue is not in (0, t]
        p = ProblemSpec((0.0, 1.0), bc_left="neumann", bc_right="neumann")
        assert counting_function(p, 100.0) == 3
        assert spectral_function(p, 100.0) == 6.0
        assert spectral_function_samples(p, [1e-3, 100.0]) == [
            (1e-3, 0.0), (100.0, 6.0)]

    def test_eigenvalue_at_t_counts_on_both_routes(self):
        # lambda_1 = 5 exactly (the constant state): rho(5) takes it, as
        # counting_function does, whether asked for alone or on a grid
        p = ProblemSpec((0.0, 1.0), "neumann", "neumann",
                        potential=PiecewisePotential((), (5.0,)))
        assert counting_function(p, 5.0) == 1
        assert spectral_function(p, 5.0) == pytest.approx(1.0, rel=1e-12)
        assert spectral_function_samples(p, [5.0]) == [
            (5.0, spectral_function(p, 5.0))]

    def test_negative_side_with_sign(self):
        m = SingularMeasure.from_atoms([(0.0, -1.0)])
        p = ProblemSpec((-20.0, 20.0), bc_left="neumann", measure=m)
        rho = spectral_function(p, -10.0)
        assert rho < 0.0
        assert spectral_function(p, -1.0) == 0.0  # bound state below window


class TestNorming:
    def test_bound_state_norm_closed_form(self):
        # Dirichlet problem on (-20,20) with the unit-strength negative
        # coupling at 0: the left-launched eigenfunction is
        # sinh(2(x+20))/2 mirrored, so ||u||^2 = sinh(80)/16 - 5 exactly
        m = SingularMeasure.from_atoms([(0.0, -1.0)])
        p = ProblemSpec((-20.0, 20.0), measure=m)
        data = eigenvalues(p, window=(-30.0, -0.5))
        analytic = math.sinh(80.0) / 16.0 - 5.0
        assert abs(data.norming_constants[0] / analytic - 1.0) < 1e-6

    # deep bound states on wide truncations; references from 250-digit
    # mpmath with the exact eigenvalue and closed-form cell integrals
    @pytest.mark.parametrize("problem, reference", [
        (ProblemSpec((-17.241019, 17.241019), potential=PiecewisePotential(
            (-5.164618, 3.616741), (0.091436, -0.473356, 0.302563)),
            measure=SingularMeasure.from_atoms(
                [(-7.422662, -0.845402), (-3.631811, -0.228799),
                 (1.446264, 0.9408), (4.876427, -0.538777)])),
         1.272151363e101),
        (ProblemSpec((-32.050739, 32.050739), potential=PiecewisePotential(
            (), (-0.126263,)), measure=SingularMeasure.from_atoms(
                [(-13.597012, -0.83134), (-1.780513, 0.569948),
                 (8.407903, -0.945824)])),
         6.536013499e36),
    ])
    def test_deep_state_matches_reference(self, problem, reference):
        # the float eigenvalue leaves a growing component past the state,
        # so matching where the left solution alone peaks (the far end)
        # overstates these by factors of 2e34 and 3e14
        data = eigenvalues(problem, n_max=1)
        assert abs(data.norming_constants[0] / reference - 1.0) < 1e-6

    # a wide_band benchmark problem (seed 0, op 39): the match inside a walk
    # run is scored on the states whose ratio it takes, both read past the
    # atom at the node.  Scored on the right solution before the atom, it
    # picked nodes where these came out 2.6e-12 and 1.8e-11 off.
    # References: 60-digit mpmath quadrature of the left solution squared,
    # cell by cell, at the float eigenvalue
    @pytest.mark.parametrize("n, lam, reference", [
        (93, 24.333397073788863, 285.24276527407547446),
        (156, 68.75266167330301, 886.13576807029148939),
    ])
    def test_match_scored_on_matched_states(self, n, lam, reference):
        p = ProblemSpec((0.0, 58.738202), "neumann", "dirichlet",
                        measure=SingularMeasure.from_atoms(
                            [(10.349768, 0.147484), (19.5624, 1.082943),
                             (29.743719, 1.205631)]), level=1)
        data = eigenvalues(p, window=(lam - 0.1, lam))
        assert data.eigenvalues == (lam,) and data.indices == (n,)
        assert abs(data.norming_constants[0] / reference - 1.0) < 2e-13

    def test_norm_beyond_double_range_is_inf(self):
        # the bound state at -4/beta^2 grows like exp(40 (x + 20)) up to the
        # atom, so ||u||^2 is about e^1600
        p = ProblemSpec((-20.0, 20.0),
                        measure=SingularMeasure.from_atoms([(0.0, -0.05)]))
        data = eigenvalues(p, window=(-5000.0, -1.0))
        assert data.eigenvalues == (-1599.9999999999995,)
        assert data.norming_constants == (math.inf,)
        # a cell whose u^2 integral, about e^2000 / 8000, has no double:
        # its value comes back scaled by e^2000
        val, log_scale = cell_l2_integral(1.0, 0.0, -1e6, 1.0)
        assert log_scale == 2000.0
        assert abs(math.log(val) + log_scale - (2000.0 - math.log(8000.0))) \
            < 1e-12

    # (w, L, the double nearest the 60-digit closed form of the integral of
    # (sin(om s)/om)^2 over [0, L], om = sqrt(w)): |w L^2| from 1e-9 to 10
    # at both signs, and two Cantor-sized cells
    @pytest.mark.parametrize("w, L, reference", [
        (1e-09, 1.0, 0.33333333326666664),
        (-1e-09, 1.0, 0.3333333334),
        (1e-06, 1.0, 0.333333266666673),
        (-1e-06, 1.0, 0.33333340000000633),
        (2e-06, 1.0, 0.3333332000000254),
        (1e-05, 1.0, 0.3333326666673016),
        (0.0001, 1.0, 0.33332666673015837),
        (-0.0001, 1.0, 0.3333400000634924),
        (0.01, 1.0, 0.3326673012346961),
        (-0.01, 1.0, 0.3340006352734969),
        (2.191380569758948, 0.37, 0.015899740717635835),
        (0.5, 1.0, 0.30154400136339166),
        (-0.5, 1.0, 0.3682988720085907),
        (1.0, 1.0, 0.2726756432935796),
        (-1.0, 1.0, 0.4067151019617547),
        (-0.3333333333333333, 3.0, 16.230338731874728),
        (10.0, 1.0, 0.04967303461328352),
        (-10.0, 1.0, 2.1561147324447054),
        (-4.0, 0.0005, 4.16666750000008e-11),
        (-34838543.59824322, 0.0005, 2.152597684224039e-10),
    ])
    def test_sin_squared_cell_integral_to_4_ulp(self, w, L, reference):
        # (L - sin(2 om L)/(2 om))/(2w) cancels to 1e-10 at w L^2 = -1e-6
        val, log_scale = cell_l2_integral(0.0, 1.0, w, L)
        assert log_scale == 0.0
        assert abs(val - reference) <= 4 * math.ulp(reference)

    # u = sinh(10 (L - |x|)) / 10 at lambda_1 = -100: its hyperbolic phase
    # 2kL = 20L takes the scaled branch of the doubled stretch, and
    # ||u||^2 = sinh(20 L) / 2000 - L / 100 still has a double
    @pytest.mark.parametrize("L, closed_form", [
        (16.0, 2.3559942040407636e135), (20.0, 1.3053674224409623e170)])
    def test_scaled_cell_integrals_stay_finite(self, L, closed_form):
        p = ProblemSpec((-L, L),
                        measure=SingularMeasure.from_atoms([(0.0, -0.2)]))
        data = eigenvalues(p, n_max=1)
        assert data.eigenvalues == (-99.99999999999997,)
        assert abs(data.norming_constants[0] / closed_form - 1.0) < 1e-12

    # two cantor_deep benchmark problems (seed 0, ops 6 and 9) at levels 10
    # and 12, past the goldens' levels; the second has a q step and an
    # explicit atom.  Both shoot and norm across a block plan; the norming
    # constants agree with the cell walk's to 5e-14
    @pytest.mark.parametrize("config, n_max, lams, norms", [
        ({"schema": 1, "interval": [0.0, 1.0],
          "bc": ["dirichlet", "dirichlet"], "level": 10,
          "potential": {"breakpoints": [0.174896, 0.579524, 0.618666],
                        "values": [3.851255, 2.182915, 1.094443, 3.386677]},
          "measure": {"atoms": [{"x": 0.776111, "beta": 0.782323}],
                      "cantor": [{"support": [0.0, 1.0], "mass": 1.309207,
                                  "ratio": 0.276501, "level_cap": 12}]}},
         3, ["0x1.4bd9e7d485144p+2", "0x1.4abc4b07d5762p+4",
             "0x1.b55e8a16ede42p+4"],
         ["0x1.f60d83b7b48b9p-2", "0x1.7113984bf7c14p-3",
          "0x1.66993bb66a57cp-5"]),
        ({"schema": 1, "interval": [0.0, 1.0],
          "bc": ["dirichlet", "dirichlet"], "level": 12,
          "potential": {"breakpoints": [0.142361, 0.249452, 0.285353],
                        "values": [0.491034, 2.067544, 2.709662, 1.813702]},
          "measure": {"atoms": [{"x": 0.910227, "beta": 0.350237}],
                      "cantor": [{"support": [0.0, 1.0], "mass": 1.473168,
                                  "ratio": 0.280473, "level_cap": 12}]}},
         1, ["0x1.18e728ecab1b3p+2"], ["0x1.14b9abe3c5e6ep-1"]),
    ])
    def test_deep_cantor_pinned(self, config, n_max, lams, norms):
        p = parse_problem(config)
        assert realize_problem(p).plan is not None
        data = eigenvalues(p, n_max=n_max)
        assert [lam.hex() for lam in data.eigenvalues] == lams
        assert [c.hex() for c in data.norming_constants] == norms
        real = realize_problem(p)
        real.plan = None
        try:
            walked = [solution_l2_norm(p, lam) for lam in data.eigenvalues]
        finally:
            realize_problem.cache_clear()
        for c, w in zip(data.norming_constants, walked):
            assert abs(c / w - 1.0) < 1e-12

    def test_debug_record_per_norming_constant(self, caplog):
        staircase = ProblemSpec((0.0, 1.0), level=8, measure=SingularMeasure(
            cantor_parts=(CantorSpec((0.0, 1.0), 1.3, 0.3),)))
        assert realize_problem(staircase).plan is not None
        for p, route in ((staircase, "plan"), (free_problem(), "walk")):
            lams = eigenvalues(p, n_max=2, with_norming=False).eigenvalues
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="deltaprime"):
                solution_l2_norm(p, lams[0])
            assert caplog.records == []
            with caplog.at_level(logging.DEBUG, logger="deltaprime"):
                for lam in lams:
                    solution_l2_norm(p, lam)
            assert len(caplog.records) == 2
            for lam, rec in zip(lams, caplog.records):
                assert rec.name == "deltaprime"
                assert rec.levelno == logging.DEBUG
                assert rec.args[:2] == (lam, route)
                assert f"{route} route, match at" in rec.getMessage()

    def test_split_deep_states_positive(self):
        # three tunnelling-split states near -181743.7 and a fourth; the
        # far-end match gave negative constants here
        m = SingularMeasure(
            atoms=((0.446376, -0.315739),),
            cantor_parts=(CantorSpec((0.0, 1.0), -0.538633, 0.313456, 12),))
        p = ProblemSpec((0.0, 1.0), potential=PiecewisePotential(
            (0.524773,), (-2.167677, -2.483558)), measure=m)
        data = eigenvalues(p, n_max=4)
        assert len(data.norming_constants) == 4
        assert all(c > 0.0 for c in data.norming_constants)

    def test_unjoined_pair_is_a_domain_error(self):
        # lambda_1..4 near -325928.09 form two tunnelling pairs of the
        # negative Cantor mass; at lambda_2 the left and right solutions
        # join into a negative "norm" (-4.4e171), which no eigenvalue has
        p = ProblemSpec((0.0, 1.0), "dirichlet", "neumann",
                        potential=PiecewisePotential(
                            (0.287261, 0.291359, 0.540605),
                            (-1.68228365687657, -3.565351399682468,
                             2.724221208932712, -2.32089979250212)),
                        measure=SingularMeasure(
                            atoms=((0.031286, 0.5746934301685904),
                                   (0.458903, 0.10186727791410277)),
                            cantor_parts=(CantorSpec(
                                (0.08028870000460778, 0.9342584315474214),
                                -0.684041469691299, 0.4023540322485164),)),
                        level=7)
        lams = eigenvalues(p, n_max=4, with_norming=False).eigenvalues
        assert solution_l2_norm(p, lams[0]) > 0.0
        with pytest.raises(NearSingularError) as err:
            solution_l2_norm(p, lams[1])
        assert repr(lams[1]) in str(err.value)
        with pytest.raises(NearSingularError):
            eigenvalues(p, n_max=4)
