"""Tests for the refining stages: window filters, postselection, case study."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.special import erf, ndtr

from qprep.hamiltonian import AffineNormalizer
from qprep.refine import (
    CaseStudyRow,
    DegenerateWindow,
    FilterPolynomial,
    PosteriorUndefined,
    RefineResult,
    coarse_qpe_postselect,
    gaussian_case_study,
    gaussian_levels,
    qetu_filter,
    qetu_params,
    symmetric_filter,
)
from qprep.spectra import SpectralMeasure


# ---------------------------------------------------------------------------
# FilterPolynomial container
# ---------------------------------------------------------------------------

def test_filter_polynomial_validation():
    with pytest.raises(ValueError, match="degree"):
        FilterPolynomial(np.array([1.0, 0.0]), 3)
    with pytest.raises(ValueError, match="parity"):
        FilterPolynomial(np.array([0.3, 1.0]), 1)
    with pytest.raises(ValueError, match="parity"):
        FilterPolynomial(np.array([1.0, 0.5, 0.2]), 2)


def test_filter_polynomial_evaluates_chebyshev():
    # coefficients [0, 0, 1] are T_2(x) = 2x^2 - 1
    poly = FilterPolynomial(np.array([0.5, 0.0, 0.5]), 2)
    x = np.linspace(-1, 1, 11)
    assert np.allclose(poly(x), x ** 2, atol=1e-14)


# ---------------------------------------------------------------------------
# symmetric window filter
# ---------------------------------------------------------------------------

def _exact_window(k, mu, x):
    return 0.5 * (erf(-k * (x - mu)) + erf(k * (x + mu)))


def test_symmetric_filter_shape():
    k, mu = 3.9342, 0.6598
    poly = symmetric_filter(k, mu, 200)
    assert poly.degree == 200
    # plateau value at the centre is erf(k*mu); the transition midpoints
    # sit at exactly one half
    assert abs(poly(0.0) - erf(k * mu)) < 1e-10
    assert abs(poly(mu) - 0.5) < 1e-9
    assert abs(poly(-mu) - 0.5) < 1e-9
    grid = np.linspace(-1, 1, 8001)
    vals = poly(grid)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-3
    assert np.max(np.abs(poly(grid) - poly(-grid))) < 1e-12


def test_symmetric_filter_tracks_exact_window():
    # a degree-n Chebyshev interpolant is off by at most twice the absolute
    # sum of the function's Chebyshev coefficients above degree n (taken
    # here from a degree-600 interpolant of the window), plus rounding
    # noise once that sum is at machine scale
    grid = np.linspace(-1, 1, 8001)
    for n, k, mu in ((20, 3.9342, 0.6598), (40, 3.9342, 0.6598),
                     (60, 6.0, 0.4), (200, 3.9342, 0.6598)):
        poly = symmetric_filter(k, mu, n)
        tail = np.abs(chebyshev.chebinterpolate(
            lambda x: _exact_window(k, mu, x), 600)[n + 1:]).sum()
        filt_err = np.max(np.abs(poly(grid) - _exact_window(k, mu, grid)))
        assert filt_err <= 2 * tail + 1e-13


@pytest.mark.parametrize("n, k, mu, bound", [
    (40, 4.160, 0.200, 1e-10),      # the pinned levels refine qetu window
    (60, 6.0, 0.4, 1e-10),
    (200, 37.13, 0.68, 1e-6),       # steep: the window QETU can implement
    (200, 3.934, 0.660, 1e-13)])    # the case study's window
def test_symmetric_filter_is_close_to_the_window_on_a_fine_grid(n, k, mu,
                                                                bound):
    grid = np.linspace(-1, 1, 40_001)
    vals = symmetric_filter(k, mu, n)(grid)
    assert np.max(np.abs(vals - _exact_window(k, mu, grid))) <= bound
    # the filter's amplitude must stay at most one to be implementable
    assert np.max(vals) <= 1.0 + 1e-6


def test_symmetric_filter_converges_in_degree():
    k, mu = 3.9342, 0.6598
    grid = np.linspace(-1, 1, 4001)
    errors = []
    for n in (20, 50, 100, 200):
        poly = symmetric_filter(k, mu, n)
        errors.append(np.max(np.abs(poly(grid) - _exact_window(k, mu, grid))))
    # no worse with degree, up to rounding noise at machine scale
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-13
    assert errors[0] > 1e-6       # degree 20 is visibly truncated
    assert errors[-1] < 1e-12     # degree 200 is converged


def test_symmetric_filter_steep_stays_finite():
    poly = symmetric_filter(80.0, 0.5, 200)
    assert np.all(np.isfinite(poly.chebyshev_coeffs))
    assert abs(poly(0.0) - 1.0) < 1e-6


def test_symmetric_filter_shallow_limit():
    # for small k the linear terms of the two steps cancel and the window
    # is the constant 2 k mu / sqrt(pi)
    k, mu = 0.01, 0.5
    poly = symmetric_filter(k, mu, 10)
    x = np.linspace(-1, 1, 41)
    lead = 2 * k * mu / math.sqrt(math.pi)
    assert np.max(np.abs(poly(x) - lead)) < 1e-3 * lead


def test_symmetric_filter_validation():
    with pytest.raises(ValueError, match="even"):
        symmetric_filter(3.0, 0.5, 41)
    with pytest.raises(ValueError, match="even"):
        symmetric_filter(3.0, 0.5, 0)
    with pytest.raises(ValueError, match="window"):
        symmetric_filter(3.0, 1.2, 40)
    with pytest.raises(ValueError, match="window"):
        symmetric_filter(3.0, 0.0, 40)


def test_symmetric_filter_refuses_nonpositive_steepness():
    for k in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            symmetric_filter(k, 0.5, 40)


# ---------------------------------------------------------------------------
# window parameters
# ---------------------------------------------------------------------------

def test_qetu_params_formulas():
    e_l, e_u = -2.0, -1.0
    mu, k = qetu_params(e_l, e_u)
    cu, cl = math.cos(e_u / 2), math.cos(e_l / 2)
    assert mu == pytest.approx((cu + cl) / 2, rel=1e-15)
    assert k == pytest.approx(2 / (cu - cl), rel=1e-15)
    # round trip: the window edges are mu +- 1/k
    assert cu == pytest.approx(mu + 1 / k, rel=1e-12)
    assert cl == pytest.approx(mu - 1 / k, rel=1e-12)


def test_qetu_params_softening_rescales_steepness():
    mu1, k1 = qetu_params(-2.0, -1.0, zeta=1.0)
    mu2, k2 = qetu_params(-2.0, -1.0, zeta=2.0)
    assert mu1 == mu2
    assert k2 == pytest.approx(k1 / 2, rel=1e-15)


def test_qetu_params_degenerate_window():
    with pytest.raises(DegenerateWindow):
        qetu_params(-1.0, -1.0)
    # energies symmetric about zero share a half-angle cosine
    with pytest.raises(DegenerateWindow):
        qetu_params(-0.7, 0.7)
    # 1e-320 leaves a subnormal width, 5e-324 none at all
    for zeta in (0.0, -1.0, math.nan, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="softening factor .* positive"):
            qetu_params(-2.0, -1.0, zeta=zeta)


def test_qetu_params_case_study_values():
    # the case study's angle map sends the Gaussian's 12-sigma support to
    # (-pi + 0.1, -0.1); the 6-sigma window lands on these parameters
    scale = (math.pi - 0.2) / 0.24
    shift = -math.pi + 0.1 - scale * (-0.06)
    angle = AffineNormalizer(scale, shift)
    mu, k = qetu_params(angle.apply(0.0), angle.apply(0.12))
    assert mu == pytest.approx(0.65984, abs=5e-6)
    assert k == pytest.approx(3.93417, abs=5e-6)


# ---------------------------------------------------------------------------
# RefineResult container
# ---------------------------------------------------------------------------

def test_refine_result_validation():
    post = SpectralMeasure([(0.3, 1.0)])
    with pytest.raises(ValueError, match="success"):
        RefineResult(1.1, post, 16)
    with pytest.raises(ValueError, match="success"):
        RefineResult(-0.1, post, 16)
    with pytest.raises(ValueError, match="cost"):
        RefineResult(0.5, post, -1)


# ---------------------------------------------------------------------------
# coarse postselection
# ---------------------------------------------------------------------------

def test_postselect_accept_all_is_identity():
    rng = np.random.default_rng(3)
    energies = np.sort(rng.uniform(0.1, 0.9, 8))
    probs = rng.dirichlet(np.ones(8))
    m = SpectralMeasure(list(zip(energies, probs)))
    res = coarse_qpe_postselect(m, 3, range(8))
    assert res.success_prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.posterior.probs, m.probs, atol=1e-12)
    assert res.query_cost == 8


def test_postselect_on_grid_levels():
    # levels sitting exactly on readout values make the readout a delta,
    # so accepting one value keeps exactly that level's weight
    m = SpectralMeasure([(0.25, 0.6), (0.75, 0.4)])
    res = coarse_qpe_postselect(m, 2, {1})
    assert res.success_prob == pytest.approx(0.6, abs=1e-14)
    assert res.posterior.probs[0] == pytest.approx(1.0, abs=1e-14)
    assert res.posterior.probs[1] == pytest.approx(0.0, abs=1e-14)
    assert np.array_equal(res.posterior.energies, m.energies)


def test_postselect_hand_computed_success():
    # one level at 0.3 read with a single digit: the two outcome weights
    # are sin^2(0.6 pi) / (4 sin^2(pi (0.3 - x/2)))
    m = SpectralMeasure([(0.3, 1.0)])
    spike = math.sin(0.6 * math.pi) ** 2
    w1 = spike / (4 * math.sin(math.pi * (0.3 - 0.5)) ** 2)
    res = coarse_qpe_postselect(m, 1, {1})
    assert res.success_prob == pytest.approx(w1, rel=1e-12)
    res0 = coarse_qpe_postselect(m, 1, {0})
    assert res.success_prob + res0.success_prob == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_postselect_wraps_outcome_labels():
    m = SpectralMeasure([(0.3, 0.5), (0.8, 0.5)])
    a = coarse_qpe_postselect(m, 3, {-1})
    b = coarse_qpe_postselect(m, 3, {7})
    assert a.success_prob == b.success_prob
    assert np.array_equal(a.posterior.probs, b.posterior.probs)


def test_postselect_guards():
    m = SpectralMeasure([(0.25, 1.0)])
    with pytest.raises(ValueError, match="accepted"):
        coarse_qpe_postselect(m, 2, set())
    with pytest.raises(PosteriorUndefined):
        coarse_qpe_postselect(m, 2, {0})  # delta sits on outcome 1


def test_postselect_gaussian_reference_values():
    prior = gaussian_levels()
    stage = coarse_qpe_postselect(prior, 4, {0})
    assert stage.success_prob == pytest.approx(0.10370, rel=1e-3)
    from qprep.qpestats import cdf_below
    assert cdf_below(stage.posterior, 0.0) == pytest.approx(0.012417,
                                                            rel=1e-3)


# ---------------------------------------------------------------------------
# eigenstate filter
# ---------------------------------------------------------------------------

IDENTITY = AffineNormalizer(1.0, 0.0)


def _unit_poly():
    return FilterPolynomial(np.array([1.0]), 0)


def test_qetu_identity_polynomial():
    m = SpectralMeasure([(0.2, 0.3), (0.5, 0.7)])
    res = qetu_filter(m, _unit_poly(), IDENTITY)
    assert res.success_prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.posterior.probs, m.probs, atol=1e-14)
    assert res.query_cost == 0


def test_qetu_born_square_reweighting():
    # P(x) = x^2 squares to cos^4(E/2) per level
    poly = FilterPolynomial(np.array([0.5, 0.0, 0.5]), 2)
    m = SpectralMeasure([(0.2, 0.3), (1.2, 0.7)])
    res = qetu_filter(m, poly, IDENTITY)
    gains = np.cos(np.array([0.2, 1.2]) / 2) ** 4
    expect = np.array([0.3, 0.7]) * gains
    assert res.success_prob == pytest.approx(expect.sum(), rel=1e-12)
    assert np.allclose(res.posterior.probs, expect / expect.sum(),
                       atol=1e-14)
    assert res.query_cost == 2


def test_qetu_angle_map_forms_agree():
    # the AffineNormalizer form against the map applied by hand
    m = SpectralMeasure([(0.1, 0.4), (0.4, 0.6)])
    poly = symmetric_filter(4.0, 0.5, 40)
    mapped = qetu_filter(m, poly, angle_map=AffineNormalizer(2.0, -1.0))
    boosted = m.probs * poly(np.cos((2.0 * m.energies - 1.0) / 2)) ** 2
    assert mapped.success_prob == pytest.approx(boosted.sum(), rel=1e-14)
    assert np.allclose(mapped.posterior.probs, boosted / boosted.sum(),
                       atol=1e-14)
    # the posterior reports energies in the original frame
    assert np.array_equal(mapped.posterior.energies, m.energies)


def test_qetu_vanishing_filter():
    zero = FilterPolynomial(np.array([0.0]), 0)
    m = SpectralMeasure([(0.3, 1.0)])
    with pytest.raises(PosteriorUndefined):
        qetu_filter(m, zero, IDENTITY)


# ---------------------------------------------------------------------------
# refining invariants
# ---------------------------------------------------------------------------

def test_postselecting_lowest_bin_never_hurts():
    # keeping the lowest readout value can only grow the weight below the
    # target for these single-bump distributions
    from qprep.qpestats import cdf_below
    for sigma in (0.01, 0.02, 0.04):
        prior = gaussian_levels(0.06, sigma, 1024)
        before = cdf_below(prior, 0.0)
        after = cdf_below(coarse_qpe_postselect(prior, 4, {0}).posterior,
                          0.0)
        assert after >= before - 1e-12


def test_repeated_filtering_keeps_cutting_high_weight():
    from qprep.qpestats import cdf_below
    prior = gaussian_levels(0.06, 0.02, 1024)
    scale = (math.pi - 0.2) / 0.24
    angle = AffineNormalizer(scale, -math.pi + 0.1 - scale * (-0.06))
    mu, k = qetu_params(angle.apply(0.0), angle.apply(0.12))
    poly = symmetric_filter(k, mu, 200)
    once = qetu_filter(prior, poly, angle_map=angle)
    twice = qetu_filter(once.posterior, poly, angle_map=angle)
    high_once = 1.0 - cdf_below(once.posterior, 0.12)
    high_twice = 1.0 - cdf_below(twice.posterior, 0.12)
    assert high_twice <= high_once + 1e-12


def test_query_costs_accumulate():
    prior = gaussian_levels(0.06, 0.02, 512)
    s4 = coarse_qpe_postselect(prior, 4, {0})
    s5 = coarse_qpe_postselect(s4.posterior, 5, {0})
    assert s4.query_cost + s5.query_cost == 48
    assert s4.query_cost + s5.query_cost < 2 ** 10


# ---------------------------------------------------------------------------
# Gaussian case study
# ---------------------------------------------------------------------------

def test_gaussian_levels_match_moments():
    m = gaussian_levels(0.06, 0.02, 4096)
    assert m.mean() == pytest.approx(0.06, abs=1e-6)
    variance = m.probs @ (m.energies - m.mean()) ** 2
    assert math.sqrt(variance) == pytest.approx(0.02, rel=1e-3)


@pytest.mark.parametrize("n_levels", [128, 4096, 65536])
@pytest.mark.parametrize("mean, sigma",
                         [(0.06, 0.02), (0.5, 0.1), (-0.001, 0.02),
                          (0.5, 1e-12)])
def test_gaussian_levels_match_scipy_ndtr(mean, sigma, n_levels):
    # math.erfc at the edges agrees with scipy's normal CDF within an ulp
    # or two of the CDF
    m = gaussian_levels(mean, sigma, n_levels)
    edges = np.linspace(mean - 6 * sigma, mean + 6 * sigma, n_levels + 1)
    mass = np.diff(ndtr((edges - mean) / sigma))
    mass /= mass.sum()
    np.testing.assert_allclose(m.probs, mass, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(m.energies, (edges[:-1] + edges[1:]) / 2)


def test_gaussian_case_study_report():
    report = gaussian_case_study()
    names = [row.name for row in report.rows]
    assert names == [
        "p_below_prior", "success_k4", "p_below_after_k4",
        "success_k5_after_k4", "success_k4_and_k5", "p_below_after_k4_k5",
        "success_qetu", "p_below_after_qetu", "leak_prior",
        "leak_after_k4", "leak_after_k4_k5", "coarse_query_cost",
    ]
    for row in report.rows:
        assert row.passed, f"{row.name}: {row.computed} vs {row.reference}"
    assert report.all_passed

    frozen = {
        "p_below_prior": 0.0013499,
        "success_k4": 0.103701,
        "p_below_after_k4": 0.0124168,
        "success_k5_after_k4": 0.1298423,
        "success_k4_and_k5": 0.0134648,
        "p_below_after_k4_k5": 0.0831241,
        "success_qetu": 0.2014367,
        "p_below_after_qetu": 0.0059495,
        "leak_prior": 0.0009119,
        "leak_after_k4": 0.0017137,
        "leak_after_k4_k5": 0.0040948,
    }
    by_name = {row.name: row for row in report.rows}
    for name, value in frozen.items():
        assert by_name[name].computed == pytest.approx(value, rel=1e-3), name
    cost = by_name["coarse_query_cost"]
    assert cost.computed == 48
    assert cost.reference == 1024


def test_case_study_row_dict():
    row = CaseStudyRow("demo", 1.0, 1.1, 0.15, True)
    d = row.as_dict()
    assert set(d) == {"name", "computed", "reference", "rel_tol", "passed"}
    report = gaussian_case_study(n_levels=512)
    d = report.as_dict()
    assert set(d) == {"rows", "all_passed"}
    assert len(d["rows"]) == 12
