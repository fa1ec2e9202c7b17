from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm as normal_dist
from scipy.stats import wasserstein_distance

from qprep.qpestats import (GoldilocksReport, cdf_below, expected_min,
                            goldilocks_report, qpe_outcome_distribution)
from qprep.spectra import SpectralMeasure

import oracles


def gaussian_measure(mean=0.06, sigma=0.02, n_levels=4096):
    """Point-mass version of a Gaussian: CDF differences on equal bins."""
    edges = np.linspace(mean - 6 * sigma, mean + 6 * sigma, n_levels + 1)
    mass = np.diff(normal_dist.cdf(edges, mean, sigma))
    mass /= mass.sum()
    centers = (edges[:-1] + edges[1:]) / 2
    return SpectralMeasure(list(zip(centers, mass)))


def random_measure(rng, n, lo=0.15, hi=0.85):
    energies = np.sort(rng.uniform(lo, hi, n))
    probs = rng.dirichlet(np.ones(n))
    return SpectralMeasure(list(zip(energies, probs)))


# ---------------------------------------------------------------------------
# Outcome distributions
# ---------------------------------------------------------------------------

def test_outcome_distribution_validation():
    with pytest.raises(ValueError, match="digit"):
        qpe_outcome_distribution(SpectralMeasure([(0.5, 1.0)]), 0)
    grid = [0.0, 0.5]
    with pytest.raises(ValueError):
        SpectralMeasure(np.column_stack((grid, [0.7, 0.7])))
    with pytest.raises(ValueError):
        SpectralMeasure(np.column_stack((grid, [1.5, -0.5])))


def test_outcome_on_grid_is_delta():
    m = SpectralMeasure([(5 / 16, 1.0)])
    dist = qpe_outcome_distribution(m, 4)
    assert isinstance(dist, SpectralMeasure)
    assert np.array_equal(dist.energies, np.arange(16) / 16)
    assert dist.probs[5] == 1.0
    assert cdf_below(dist, 5 / 16) == 1.0
    assert cdf_below(dist, 4 / 16) == 0.0


def test_outcome_midbin_symmetry():
    dist = qpe_outcome_distribution(SpectralMeasure([(7.5 / 16, 1.0)]), 4)
    for j in range(8):
        assert dist.probs[(7 - j) % 16] == pytest.approx(
            dist.probs[(8 + j) % 16], abs=1e-12)


def test_outcome_mixes_levels_linearly():
    m = SpectralMeasure([(0.23, 0.3), (0.61, 0.7)])
    dist = qpe_outcome_distribution(m, 5)
    direct = (0.3 * oracles.qpe_kernel_probs_loop(0.23, 5)
              + 0.7 * oracles.qpe_kernel_probs_loop(0.61, 5))
    assert np.allclose(dist.probs, direct, atol=1e-14)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_outcome_matches_sampling_oracle():
    rng = np.random.default_rng(41)
    m = random_measure(rng, 6)
    dist = qpe_outcome_distribution(m, 5)
    shots = 100_000
    draws = oracles.sample_qpe_outcomes(m.energies, m.probs, 5, shots, rng)
    empirical = np.bincount(draws, minlength=32) / shots
    ks = np.max(np.abs(np.cumsum(empirical) - np.cumsum(dist.probs)))
    assert ks < 0.02


def test_outcome_wasserstein_halves_per_digit():
    # individual steps fluctuate with the level-to-grid offsets, but the
    # per-digit decay factor averages to one half across k = 4 .. 10
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        m = random_measure(rng, 8)
        dists = []
        for k in range(4, 11):
            d = qpe_outcome_distribution(m, k)
            dists.append(wasserstein_distance(d.energies, m.energies,
                                              d.probs, m.probs))
        factor = (dists[-1] / dists[0]) ** (1 / 6)
        assert 0.4 < factor < 0.6


# ---------------------------------------------------------------------------
# Cumulative statistics
# ---------------------------------------------------------------------------

def test_cdf_below_edges():
    m = SpectralMeasure([(0.3, 0.25), (0.7, 0.75)])
    assert cdf_below(m, 0.1) == 0.0
    assert cdf_below(m, 0.3) == 0.25
    assert cdf_below(m, 0.699) == 0.25
    assert cdf_below(m, 0.9) == 1.0


def test_cdf_below_gaussian_case():
    p = cdf_below(gaussian_measure(), 0.0)
    assert abs(p - 0.0013) / 0.0013 < 0.15


def test_expected_min_two_point_closed_form():
    a, b, q = 0.2, 0.8, 0.6
    m = SpectralMeasure([(a, 1 - q), (b, q)])
    for n_reps in (1, 2, 5, 30):
        expected = b * q ** n_reps + a * (1 - q ** n_reps)
        assert expected_min(m, n_reps) == pytest.approx(expected, abs=1e-12)


def test_expected_min_enumeration_oracle():
    levels = [(0.2, 0.5), (0.5, 0.3), (0.9, 0.2)]
    m = SpectralMeasure(levels)
    for n_reps in (1, 2, 3, 4):
        ref = oracles.exhaustive_min_mean(levels, n_reps)
        assert expected_min(m, n_reps) == pytest.approx(ref, abs=1e-12)


def test_expected_min_monotone_and_limit():
    rng = np.random.default_rng(47)
    m = random_measure(rng, 6)
    means = [expected_min(m, n) for n in (1, 2, 4, 8, 16, 64, 512)]
    assert all(x >= y - 1e-12 for x, y in zip(means, means[1:]))
    assert means[0] == pytest.approx(m.mean())
    assert means[-1] == pytest.approx(m.energies[0], abs=1e-6)


# ---------------------------------------------------------------------------
# Goldilocks triage
# ---------------------------------------------------------------------------

def test_goldilocks_classes():
    m = SpectralMeasure([(0.3, 0.25), (0.7, 0.75)])
    easy = goldilocks_report(m, 0.9, 10)
    assert easy.label == "Easy" and easy.p_below_target == 1.0
    assert easy.required_reps == 1

    hard = goldilocks_report(m, 0.1, 10 ** 6)
    assert hard.label == "Hard"
    assert hard.p_below_target == 0.0 and hard.required_reps is None

    mid = goldilocks_report(m, 0.3, 10)
    assert mid.label == "Goldilocks" and mid.required_reps == 4

    broke = goldilocks_report(m, 0.3, 3)
    assert broke.label == "Hard" and broke.required_reps == 4


def test_goldilocks_hundredth_example():
    m = SpectralMeasure([(0.2, 0.01), (0.8, 0.99)])
    report = goldilocks_report(m, 0.2, 1000)
    assert report.label == "Goldilocks"
    assert report.required_reps == 100


def test_goldilocks_subnormal_weight_needs_exact_repetitions():
    # 1 / p overflows a float; the repetition count is the exact ceiling
    m = SpectralMeasure([(0.1, 1e-320), (0.5, 1.0)])
    report = goldilocks_report(m, 0.2, 10)
    # the least n with n p >= 1, in exact arithmetic
    p, n = Fraction(report.p_below_target), report.required_reps
    assert p == Fraction(1e-320) and n > 10 ** 319
    assert n * p >= 1 > (n - 1) * p
    assert report.label == "Hard"


def test_goldilocks_threshold_configurable():
    m = SpectralMeasure([(0.2, 0.01), (0.8, 0.99)])
    report = goldilocks_report(m, 0.2, 1000, easy_threshold=0.005)
    assert report.label == "Easy"
    with pytest.raises(ValueError):
        goldilocks_report(m, 0.2, 0)
    with pytest.raises(ValueError):
        goldilocks_report(m, 0.2, 10, easy_threshold=0.0)


def test_goldilocks_report_dict():
    report = GoldilocksReport(target_energy=0.2, budget=10,
                              easy_threshold=0.5, p_below_target=0.25,
                              required_reps=4, label="Goldilocks")
    d = report.as_dict()
    assert d["class"] == "Goldilocks"
    assert d["required_reps"] == 4
    assert d["p_below_target"] == 0.25
