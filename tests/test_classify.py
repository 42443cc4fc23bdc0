import math

import numpy as np
import pytest

from deltaprime import (EndpointDescriptor, GapStructure, PiecewisePotential,
                        ProblemSpec, SingularMeasure,
                        UnsupportedHypothesisError, classify_endpoint,
                        deficiency_indices, eigenvalues, evaluate_criteria)


def staircase(f, lo, hi, cells):
    """Cell-averaged piecewise-constant approximation of f on [lo, hi]."""
    edges = np.linspace(lo, hi, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return PiecewisePotential(tuple(edges[1:-1].tolist()),
                              tuple(float(f(m)) for m in mids))


def tile_gaps(lengths, window_hi, lo=0.5):
    """Disjoint gaps of the prescribed lengths tiled over (lo, window_hi).

    A fixed separator stands in for the (measure-carrying) support blocks
    between consecutive complement intervals.
    """
    total = sum(lengths)
    sep = (window_hi - lo - total) / (len(lengths) + 1)
    if sep <= 0:
        raise ValueError("window too small for the requested gap lengths")
    gaps = []
    pos = lo + sep
    for d in lengths:
        gaps.append((float(pos), float(pos + d)))
        pos += d + sep
    return GapStructure(tuple(gaps))


class TestEndpointClassification:
    def test_finite_interval_finite_measure(self):
        left = EndpointDescriptor("left", 0.0)
        right = EndpointDescriptor("right", 1.0)
        vl, vr = classify_endpoint(left), classify_endpoint(right)
        assert vl.kind == vr.kind == "limit_circle"
        assert deficiency_indices(vl, vr) == (2, 2)

    def test_whole_line_bounded_q(self):
        left = EndpointDescriptor("left", -math.inf)
        right = EndpointDescriptor("right", math.inf)
        vl, vr = classify_endpoint(left), classify_endpoint(right)
        assert vl.kind == vr.kind == "limit_point"
        assert deficiency_indices(vl, vr) == (0, 0)  # self-adjoint

    def test_half_line(self):
        vl = classify_endpoint(EndpointDescriptor("left", 0.0))
        vr = classify_endpoint(EndpointDescriptor("right", math.inf))
        assert (vl.kind, vr.kind) == ("limit_circle", "limit_point")
        assert deficiency_indices(vl, vr) == (1, 1)

    def test_deficiency_symmetric(self):
        vl = classify_endpoint(EndpointDescriptor("left", 0.0))
        vr = classify_endpoint(EndpointDescriptor("right", math.inf))
        assert deficiency_indices(vl, vr) == deficiency_indices(vr, vl)

    def test_unbounded_variation_needs_declaration(self):
        d = EndpointDescriptor("left", 0.0, measure_tv_finite_near=False)
        with pytest.raises(UnsupportedHypothesisError):
            classify_endpoint(d)
        d_in = EndpointDescriptor("left", 0.0, measure_tv_finite_near=False,
                                  p_square_integrable=True)
        assert classify_endpoint(d_in).kind == "limit_circle"
        d_out = EndpointDescriptor("left", 0.0, measure_tv_finite_near=False,
                                   p_square_integrable=False)
        assert classify_endpoint(d_out).kind == "limit_point"

    def test_unsupported_q_class(self):
        d = EndpointDescriptor("left", 0.0, q_class="unbounded_other")
        with pytest.raises(UnsupportedHypothesisError):
            classify_endpoint(d)


class TestCriteria:
    def test_growing_q_shrinking_gaps_discrete(self):
        k = 200
        lengths = [1.0 / (j + 1) for j in range(k)]
        gaps = tile_gaps(lengths, 40.0)
        q = staircase(lambda x: x, 0.0, 41.5, 400)
        report = evaluate_criteria(gaps, q, epsilon_grid=(0.5, 1.0))
        assert report.verdict == "discrete"
        assert report.brinck_sup == 0.0

    def test_constant_q_not_discrete(self):
        lengths = [0.15] * 120
        gaps = tile_gaps(lengths, 40.0)
        q = PiecewisePotential((), (1.0,))
        report = evaluate_criteria(gaps, q, epsilon_grid=(0.5,))
        assert report.verdict == "not_discrete"
        np.testing.assert_allclose(report.gap_means, 1.0)

    def test_vanishing_gaps_zero_q_inconclusive(self):
        k = 200
        lengths = [1.0 / (j + 1) for j in range(k)]
        gaps = tile_gaps(lengths, 40.0)
        q = PiecewisePotential((), (0.0,))
        report = evaluate_criteria(gaps, q, epsilon_grid=(0.5,))
        assert report.verdict == "inconclusive"
        assert all(m == 0.0 for m in report.gap_means)
        # the necessary-condition sequence 1/d_k^2 diverges along the prefix
        assert report.necessary_seq[-1] > 100.0 * report.necessary_seq[0]

    def test_molchanov_samples_exact(self):
        gaps = tile_gaps([0.5, 0.5, 0.5], 10.0)
        q = staircase(lambda x: x, 0.0, 12.0, 1200)
        report = evaluate_criteria(gaps, q, epsilon_grid=(1.0,))
        for (eps, x, val) in report.molchanov_samples:
            exact = eps * x + eps * eps / 2.0
            assert abs(val - exact) < eps * 0.02  # staircase resolution

    def test_brinck_picks_up_negative_part(self):
        gaps = GapStructure(((0.0, 1.0), (2.0, 3.0)))
        q = PiecewisePotential((1.5,), (-2.0, 1.0))
        report = evaluate_criteria(gaps, q)
        assert report.brinck_sup == 2.0

    def test_alternating_blocks_family(self):
        # support confined to even blocks of summable length, gap blocks of
        # bounded length: verdict tracks the Molchanov trend alone
        lengths = [0.6 + 0.3 * ((j * 7) % 5) / 5.0 for j in range(80)]
        gaps = tile_gaps(lengths, 120.0)
        growing = staircase(lambda x: x, 0.0, 125.0, 500)
        assert evaluate_criteria(gaps, growing,
                                 epsilon_grid=(1.0,)).verdict == "discrete"
        flat = PiecewisePotential((), (1.0,))
        assert evaluate_criteria(gaps, flat,
                                 epsilon_grid=(1.0,)).verdict == "not_discrete"

    def test_rising_samples_over_flat_gap_means_are_mixed(self):
        # q = 0 on every unit gap and rising between them: the Molchanov
        # samples trend up, the gap means (0) and 1/d_k^2 + mean (1) stay
        # flat, so neither rule holds
        gaps = GapStructure(tuple((2.0 * k, 2.0 * k + 1.0)
                                  for k in range(40)))
        q = PiecewisePotential(tuple(float(x) for x in range(1, 80)),
                               tuple(float(j % 2 * j) for j in range(80)))
        report = evaluate_criteria(gaps, q, epsilon_grid=(1.0,))
        assert report.verdict == "inconclusive"
        assert report.reasons == ("mixed windowed evidence",)

    def test_prefix_restriction(self):
        gaps = tile_gaps([1.0 / (j + 1) for j in range(100)], 40.0)
        q = PiecewisePotential((), (0.0,))
        report = evaluate_criteria(gaps, q, k_prefix=10)
        assert len(report.gap_means) == 10


class TestVerdictSpectrumConsistency:
    """Verdicts never contradict truncated-spectrum experiments.

    For the growing-q family (verdict: discrete) the low eigenvalues
    stabilize as the truncation widens; for constant q (verdict:
    not_discrete) the spectral gaps collapse.
    """

    def test_growing_q_gaps_stable(self):
        q = staircase(lambda x: x, 0.0, 40.0, 200)
        lams = {}
        for R in (15.0, 30.0):
            p = ProblemSpec((0.0, R), potential=q)
            lams[R] = eigenvalues(p, n_max=4, with_norming=False).eigenvalues
        for a, b in zip(lams[15.0], lams[30.0]):
            assert abs(a - b) < 1e-3 * max(1.0, abs(a))

    def test_constant_q_gaps_collapse(self):
        q = PiecewisePotential((), (1.0,))
        gap = {}
        for R in (10.0, 40.0):
            p = ProblemSpec((0.0, R), potential=q)
            lam = eigenvalues(p, n_max=3, with_norming=False).eigenvalues
            gap[R] = lam[1] - lam[0]
        assert gap[40.0] < 0.1 * gap[10.0]
