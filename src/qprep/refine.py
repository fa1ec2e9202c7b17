"""Quantum refining: cheap filters that enrich a state's low-energy weight.

Running the full-precision phase estimation until it lands in the energy
range of interest costs 1/p attempts at 2^k queries each.  Refining spends a
few much cheaper operations first to grow p: a coarse phase readout kept
only when it hits an accepted register value, or an eigenstate filter that
rescales every level by an even polynomial of cos(E/2) (implementable with
one query per polynomial degree).  Both are simulated here at the spectral
level: a prior measure goes in, a success probability and reweighted
posterior measure come out, and query costs are tallied so the cheap stage
can be compared against the precision readout it saves.

The filter polynomial is the Chebyshev interpolant of the two-sided window
made of two opposing error-function steps, with erf itself taken at the
interpolation nodes, so the interpolant's own error is the filter's only
one.  The module ends with a self-contained case study on a Gaussian
energy distribution that exercises the whole chain and reports each number
next to its reference value.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .hamiltonian import AffineNormalizer
from .leakage import LeakageSetup, leak_prob_exact
from .qpestats import cdf_below
from .spectra import (SpectralMeasure, as_measure, readout_mass,
                      register_size)

PARITY_TOL = 1e-12
SUCCESS_OVERSHOOT_TOL = 1e-6


class DegenerateWindow(ValueError):
    """The requested filter window has zero width."""


class PosteriorUndefined(RuntimeError):
    """The filter wiped out the entire state; no posterior exists."""


@dataclass(frozen=True)
class FilterPolynomial:
    """An even Chebyshev-basis polynomial: the two-sided window ("one"
    inside |x| < mu, "zero" outside) that the eigenstate filter applies.
    """

    chebyshev_coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.chebyshev_coeffs, dtype=float)
        object.__setattr__(self, "chebyshev_coeffs", coeffs)
        odd = coeffs[1::2]
        scale = np.max(np.abs(coeffs)) or 1.0
        if odd.size and np.max(np.abs(odd)) > PARITY_TOL * scale:
            raise ValueError("coefficients violate the even parity")

    @property
    def degree(self):
        return len(self.chebyshev_coeffs) - 1

    def __call__(self, x):
        return chebyshev.chebval(x, self.chebyshev_coeffs)


def symmetric_filter(k_steep, mu, n):
    """Even polynomial window: close to 1 on |x| < mu, close to 0 outside.

    The degree-n Chebyshev interpolant of the exact window
    W(x) = (erf(k (mu - x)) + erf(k (x + mu))) / 2, k = ``k_steep``, with
    ``math.erf`` taken at each node and the odd coefficients (rounding
    noise, W being even) set to zero.
    """
    if n < 2 or n % 2 == 1:
        raise ValueError("the filter degree must be even")
    if not 0.0 < mu < 1.0:
        raise ValueError("window position must lie in (0, 1)")
    if not k_steep > 0:
        raise ValueError("steepness must be positive")
    erf = np.vectorize(math.erf, otypes=[float])
    coeffs = chebyshev.chebinterpolate(
        lambda x: 0.5 * (erf(k_steep * (mu - x)) + erf(k_steep * (x + mu))),
        n)
    coeffs[1::2] = 0.0
    return FilterPolynomial(coeffs)


def qetu_params(e_l, e_u, zeta=1.0):
    """Window position and steepness for filtering between two energies.

    The filter acts on cos(E/2), so the window edges are the half-angle
    cosines of the energy bounds; ``zeta`` softens the transition.  Both
    energies must be given in the frame the filter will see.
    """
    cu = math.cos(e_u / 2)
    cl = math.cos(e_l / 2)
    if cu == cl:
        raise DegenerateWindow("energy window has zero cosine width")
    if cu < cl:
        cu, cl = cl, cu
    # a width that underflows to zero gives NaN, a subnormal one an
    # infinite steepness; both are refused, as are zeta <= 0 and NaN
    k_steep = 2.0 / (zeta * (cu - cl) or math.nan)
    if not 0 < k_steep < math.inf:
        raise ValueError(f"softening factor {zeta!r} must be positive and "
                         "leave the window a finite steepness")
    return (cu + cl) / 2, k_steep


def qetu_angle_map(lo, hi, margin):
    """Affine map of the energy range [lo, hi] onto the filter's angle range
    [-pi + margin, -margin], with 0 < margin < pi/2.  A single level (lo ==
    hi) gets slope one; any positive slope works there.
    """
    if not 0 < margin < math.pi / 2:
        raise ValueError("angle margin must lie in (0, pi/2)")
    if hi > lo:
        scale = (math.pi - 2 * margin) / (hi - lo)
    else:
        scale = 1.0
    return AffineNormalizer(scale, -math.pi + margin - scale * lo)


@dataclass(frozen=True)
class RefineResult:
    """Outcome of one refining stage."""

    success_prob: float
    posterior: SpectralMeasure
    query_cost: int

    def __post_init__(self):
        if not 0.0 <= self.success_prob <= 1.0 + SUCCESS_OVERSHOOT_TOL:
            raise ValueError("success probability %r out of range"
                             % self.success_prob)
        if self.query_cost < 0:
            raise ValueError("query cost must be nonnegative")


def coarse_qpe_postselect(m, k, accepted):
    """Keep a k-digit readout only when it lands in ``accepted``.

    Each level is reweighted by the kernel mass it places on the accepted
    register values; the readout costs 2^k queries whether or not it is
    kept.
    """
    size = register_size(k)
    measure = as_measure(m)
    kept = sorted({int(x) % size for x in accepted})
    if not kept:
        raise ValueError("need at least one accepted outcome")
    # readout_mass, not _window_mass over runs of kept values: with few
    # or scattered values, as in traffic, it is 5-40x faster
    gain = readout_mass(measure.energies, k, kept)
    success = float(measure.probs @ gain)
    if success <= 0.0:
        raise PosteriorUndefined("no accepted outcome carries probability")
    weights = measure.probs * gain / success
    posterior = SpectralMeasure(np.column_stack((measure.energies, weights)),
                                measure.normalizer)
    return RefineResult(success, posterior, size)


def qetu_filter(m, poly, angle_map):
    """Rescale every level's weight by P(cos(E/2)) squared.

    ``angle_map``, an AffineNormalizer, converts measure energies into the
    frame the polynomial was designed for; the filter only reweights, so
    the posterior keeps the original energies.  The query cost equals the
    polynomial degree.
    """
    measure = as_measure(m)
    amplitude = poly(np.cos(angle_map.apply(measure.energies) / 2))
    boosted = measure.probs * amplitude ** 2
    success = float(boosted.sum())
    if success <= 0.0:
        raise PosteriorUndefined("the filter vanishes on the whole support")
    posterior = SpectralMeasure(
        np.column_stack((measure.energies, boosted / success)),
        measure.normalizer)
    return RefineResult(min(success, 1.0 + SUCCESS_OVERSHOOT_TOL), posterior,
                        poly.degree)


# ---------------------------------------------------------------------------
# Gaussian case study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseStudyRow:
    """One computed number beside its reference value."""

    name: str
    computed: float
    reference: float
    rel_tol: float | None
    passed: bool

    def as_dict(self):
        return {"name": self.name, "computed": self.computed,
                "reference": self.reference, "rel_tol": self.rel_tol,
                "passed": self.passed}


@dataclass(frozen=True)
class CaseStudyReport:
    rows: tuple

    @property
    def all_passed(self):
        return all(row.passed for row in self.rows)

    def as_dict(self):
        return {"rows": [row.as_dict() for row in self.rows],
                "all_passed": self.all_passed}


def _compare(name, computed, reference, rel_tol):
    passed = abs(computed - reference) <= rel_tol * abs(reference)
    return CaseStudyRow(name, float(computed), float(reference), rel_tol,
                        passed)


def gaussian_levels(mean=0.06, sigma=0.02, n_levels=4096):
    """Point-mass version of a Gaussian: CDF differences on equal bins."""
    if not (math.isfinite(mean) and math.isfinite(sigma) and sigma > 0):
        raise ValueError("a Gaussian needs a finite mean and sigma > 0")
    edges = np.linspace(mean - 6 * sigma, mean + 6 * sigma, n_levels + 1)
    # the normal CDF at edge x is erfc((mean - x) / (sigma sqrt 2)) / 2
    z = (mean - edges) / (sigma * math.sqrt(2))
    mass = 0.5 * np.diff(np.fromiter(map(math.erfc, z.tolist()), float, z.size))
    mass /= mass.sum()
    centers = (edges[:-1] + edges[1:]) / 2
    return SpectralMeasure(np.column_stack((centers, mass)))


# The energy distribution and the precision readout that the reference
# values in gaussian_case_study were derived for.
CASE_MEAN = 0.06
CASE_SIGMA = 0.02
CASE_PRECISION_DIGITS = 10
CASE_TOLERATED_ERROR = 2 ** -8


def gaussian_case_study(n_levels=4096):
    """Run the full refining chain on a Gaussian energy distribution.

    Reports, next to reference values: the weight below zero before and
    after each stage, the stage success probabilities, the leakage of a
    10-digit readout before and after refining, and the query-cost
    bookkeeping of the coarse chain against one precision readout.
    """
    mean, sigma = CASE_MEAN, CASE_SIGMA
    prior = gaussian_levels(mean, sigma, n_levels)
    stage4 = coarse_qpe_postselect(prior, 4, {0})
    stage45 = coarse_qpe_postselect(stage4.posterior, 5, {0})

    # filter between the mean's +-3 sigma window, on the +-6 sigma support
    # mapped into the angle range (-pi + 0.1, -0.1)
    angle = qetu_angle_map(mean - 6 * sigma, mean + 6 * sigma, 0.1)
    mu, k_steep = qetu_params(angle.apply(mean - 3 * sigma),
                              angle.apply(mean + 3 * sigma), zeta=1.0)
    poly = symmetric_filter(k_steep, mu, 200)
    qetu = qetu_filter(prior, poly, angle_map=angle)

    leak_setup = LeakageSetup(CASE_PRECISION_DIGITS, CASE_TOLERATED_ERROR, 0.0)
    coarse_cost = stage4.query_cost + stage45.query_cost
    precision_cost = 2 ** CASE_PRECISION_DIGITS

    rows = (
        _compare("p_below_prior", cdf_below(prior, 0.0), 0.0013, 0.15),
        _compare("success_k4", stage4.success_prob, 0.10, 0.15),
        _compare("p_below_after_k4",
                 cdf_below(stage4.posterior, 0.0), 0.012, 0.15),
        _compare("success_k5_after_k4", stage45.success_prob, 0.13, 0.15),
        _compare("success_k4_and_k5",
                 stage4.success_prob * stage45.success_prob, 0.013, 0.15),
        _compare("p_below_after_k4_k5",
                 cdf_below(stage45.posterior, 0.0), 0.083, 0.15),
        _compare("success_qetu", qetu.success_prob, 0.21, 0.15),
        _compare("p_below_after_qetu",
                 cdf_below(qetu.posterior, 0.0), 0.0056, 0.20),
        _compare("leak_prior",
                 leak_prob_exact(prior, leak_setup), 0.00097, 0.15),
        _compare("leak_after_k4",
                 leak_prob_exact(stage4.posterior, leak_setup), 0.0019, 0.15),
        _compare("leak_after_k4_k5",
                 leak_prob_exact(stage45.posterior, leak_setup), 0.0036,
                 0.15),
        CaseStudyRow("coarse_query_cost", float(coarse_cost),
                     float(precision_cost), None,
                     coarse_cost < precision_cost),
    )
    return CaseStudyReport(rows)
