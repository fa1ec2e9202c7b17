"""The vectorized readout kernel against the per-level loops it replaced.

Every measure kind is drawn from a seeded generator at each digit count
k = 1 .. 13.  The loop oracles (``oracles.*_loop``) lose relative accuracy
where E - x/2^k sits near a whole period (see ``oracles``).  So levels
outside [0, 1), and levels above 1/2 in the centred leakage window, are
handed to them shifted by a whole period; the shift is exact for the
energies drawn here, and the kernel is periodic in the energy.  Off-grid
levels within a few register values of a multiple of 1/2, or within 1e-4 of
a register value (where the leakage loop's sin(pi frac(2^k E)) loses
precision), are left out of the loop comparisons and checked against
``oracles.readout_kernel_reduced`` instead.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from qprep import leakage, spectra
from qprep.leakage import LeakageSetup, leak_prob_exact
from qprep.qpestats import qpe_outcome_distribution
from qprep.refine import coarse_qpe_postselect, gaussian_levels
from qprep.spectra import (READOUT_DIGIT_CAP, SPIKE_TOL, DigitCapExceeded,
                           SpectralMeasure, characteristic_function,
                           coarse_qpe_sample, outcome_law, readout_mass,
                           register_size)

DIGITS = range(1, 14)
KINDS = ("in_range", "gridded", "aliasing", "below", "above", "single")


def draw_levels(rng, kind, k, n=40):
    """Sorted energies and weights of one kind of test measure."""
    m = 2 ** k
    if kind == "in_range":
        energies = rng.uniform(0.0, 1.0, n)
    elif kind == "gridded":
        # half exactly on the readout grid, half anywhere
        energies = np.concatenate([rng.integers(0, m, n // 2) / m,
                                   rng.uniform(0.0, 1.0, n - n // 2)])
    elif kind == "aliasing":
        energies = rng.uniform(0.85, 0.95, n)
    elif kind == "below":
        energies = rng.uniform(0.5, 1.0, n) - 1.0      # exact: [-0.5, 0)
    elif kind == "above":
        energies = rng.uniform(1.0, 1.5, n)
    else:
        energies = rng.uniform(-0.5, 1.5, 8)
    scaled = m * energies
    to_grid = np.abs(scaled - np.rint(scaled))
    clear = ((np.abs(scaled - m / 2 * np.rint(2 * energies)) >= min(4, m / 16))
             & (to_grid >= 1e-4))
    energies = energies[clear | (to_grid == 0.0)]
    if kind == "single":
        energies = energies[:1]
    energies = np.unique(energies)
    return energies, rng.dirichlet(np.ones(energies.size))


def into_period(energies, lo):
    """Shift each energy by a whole period into [lo, lo + 1); exact here."""
    return np.where(energies < lo, energies + 1.0,
                    np.where(energies >= lo + 1.0, energies - 1.0, energies))


def rng_for(*key):
    return np.random.default_rng([20261018, *key])


# ---------------------------------------------------------------------------
# Differential tests against the loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", DIGITS)
def test_outcome_law_matches_loop(k):
    for i, kind in enumerate(KINDS):
        energies, weights = draw_levels(rng_for(1, k, i), kind, k)
        law = outcome_law(energies, weights, k)
        ref = oracles.outcome_law_loop(into_period(energies, 0.0), weights, k)
        assert np.max(np.abs(law - ref)) <= 1e-14, kind
    # the public wrapper goes through the same law
    measure = SpectralMeasure(list(zip(energies, weights)))
    assert np.array_equal(qpe_outcome_distribution(measure, k).probs,
                          outcome_law(energies, weights, k))


@pytest.mark.parametrize("k", DIGITS)
def test_leak_prob_exact_matches_loop(k):
    for i, kind in enumerate(KINDS):
        rng = rng_for(2, k, i)
        energies, weights = draw_levels(rng, kind, k)
        measure = SpectralMeasure(list(zip(energies, weights)))
        eps = float(rng.uniform(0.002, 0.05))
        # with e0 - eps > 1/2 the window is longer than one period
        setups = [LeakageSetup(k, eps, float(e0))
                  for e0 in (rng.uniform(0.0, 0.1), rng.uniform(0.6, 1.0))]
        for setup in setups:
            for cut in (setup.exclude_below, -1.0):
                counted = energies > cut
                if setup.x_upper - setup.window_low <= setup.size:
                    # the loop counts everything it is given
                    ref = oracles.leak_prob_loop(
                        into_period(energies[counted], -0.5),
                        weights[counted], setup, cut=-np.inf)
                else:
                    # repeated bins would meet the loop's whole-period
                    # arguments, so the reduced kernel is the reference
                    window = np.arange(setup.window_low, setup.x_upper)
                    ref = sum(w * oracles.readout_kernel_reduced(
                                  e, k, window).sum()
                              for e, w in zip(energies[counted],
                                              weights[counted]))
                value = leak_prob_exact(measure, setup, exclude_below=cut)
                if ref == 0.0:
                    assert value == 0.0, kind
                else:
                    assert abs(value - ref) <= 1e-12 * ref, kind


@pytest.mark.parametrize("k", DIGITS)
def test_postselect_gain_matches_loop(k):
    m = 2 ** k
    for i, kind in enumerate(KINDS):
        rng = rng_for(3, k, i)
        energies, weights = draw_levels(rng, kind, k)
        accepted = set(rng.integers(-m, 2 * m, 1 + m // 3).tolist())
        gain = readout_mass(energies, k, sorted({x % m for x in accepted}))
        ref = oracles.postselect_gain_loop(into_period(energies, 0.0), k,
                                           accepted)
        assert np.max(np.abs(gain - ref)) <= 1e-14, kind
        measure = SpectralMeasure(list(zip(energies, weights)))
        if weights @ ref > 0.0:
            result = coarse_qpe_postselect(measure, k, accepted)
            assert abs(result.success_prob - weights @ ref) <= 1e-14, kind


@pytest.mark.parametrize("k", DIGITS)
def test_coarse_sample_matches_per_shot_loop(k):
    for i, kind in enumerate(KINDS):
        energies, weights = draw_levels(rng_for(4, k, i), kind, k)
        measure = SpectralMeasure(list(zip(energies, weights)))
        seed = 1000 * k + i
        samples = coarse_qpe_sample(measure, k, 150, seed)
        ref = oracles.coarse_qpe_sample_loop(energies, weights, k, 150, seed)
        assert np.array_equal(samples, ref), kind


def test_sample_prefix_is_the_shorter_run():
    energies, weights = draw_levels(rng_for(8), "in_range", 9)
    measure = SpectralMeasure(list(zip(energies, weights)))
    for shots in (1, 37, 500):
        assert np.array_equal(coarse_qpe_sample(measure, 9, shots, 42),
                              coarse_qpe_sample(measure, 9, 2 * shots,
                                                42)[:shots])


@pytest.mark.parametrize("k", range(1, READOUT_DIGIT_CAP + 1))
def test_window_mass_matches_direct_sum(k):
    m, edge = 2 ** k, spectra._EDGE
    rng = rng_for(9, k)
    # random offsets, half-bin offsets, offsets just past the spike
    # tolerance (on a small register value, where m E keeps them) and
    # on-grid levels, with register values anywhere in [-m, 2m)
    near = np.concatenate([rng.integers(-m, 2 * m, 10), [1, -1]])
    offset = np.concatenate([rng.uniform(-0.5, 0.5, 4), [0.5, -0.5],
                             [0.0] * 4, [2 * SPIKE_TOL, -2 * SPIKE_TOL]])
    energies = (near + offset) / m
    assert np.all(np.abs(m * energies[-2:] - near[-2:]) > SPIKE_TOL)

    def check(lo, hi):
        lo, hi = np.broadcast_arrays(lo, hi, energies)[:2]
        got = spectra._window_mass(energies, k, lo, hi)
        for i, energy in enumerate(energies):
            ref = readout_mass([energy], k, np.arange(lo[i], hi[i]))[0]
            assert abs(got[i] - ref) <= 1e-13 * ref, (i, lo[i], hi[i])

    for _ in range(3):
        lo = int(rng.integers(-2 * m, 2 * m))
        check(lo, lo + int(rng.integers(0, 2 * m + 1)))
    for width in (0, 1, m - 1, m, m + 1 + int(rng.integers(0, m))):
        lo = int(rng.integers(-m, m))
        check(lo, lo + width)
    # Windows of j = near - x that end one bin past the directly summed
    # bins at the pole j = 0 (they take j = edge) or at the pole j = m
    # (they take j = m - edge - 1), from anywhere on the circle.
    a = edge + 1 - rng.integers(1, m + 1, near.size)
    check(near - edge, near - a + 1)
    b = m - edge - 1 + rng.integers(1, m + 1, near.size)
    check(near - b + 1, near - m + edge + 2)


def test_levels_near_half_periods_match_reduced_kernel():
    for k in DIGITS:
        m = 2 ** k
        bins = np.arange(m)
        for centre in (-0.5, 0.0, 0.5, 1.0, 1.5):
            offsets = np.array([-3.0, -0.7, -1e-9, 1e-9, 0.4, 2.5]) / m
            energies = np.clip(centre + offsets, -0.5, 1.5)
            energies = np.unique(energies)
            weights = np.full(energies.size, 1.0 / energies.size)
            kernels = np.array([oracles.readout_kernel_reduced(e, k, bins)
                                for e in energies])
            law = outcome_law(energies, weights, k)
            assert np.max(np.abs(law - weights @ kernels)) <= 1e-14
            kept = bins[::3]
            assert np.max(np.abs(readout_mass(energies, k, kept)
                                 - kernels[:, kept].sum(axis=1))) <= 1e-14
            measure = SpectralMeasure(list(zip(energies, weights)))
            setup = LeakageSetup(k, 0.01, 0.05)
            window = np.arange(setup.window_low, setup.x_upper) % m
            ref = weights @ kernels[:, window].sum(axis=1)
            value = leak_prob_exact(measure, setup, exclude_below=-1.0)
            assert abs(value - ref) <= 1e-12 * ref


def test_kernel_probs_match_loop_and_sum_to_one():
    rng = rng_for(5)
    for k in DIGITS:
        for energy in (*rng.uniform(0.0, 1.0, 4), 3 / 8, 0.9):
            probs = outcome_law([energy], [1.0], k)
            ref = oracles.qpe_kernel_probs_loop(energy, k)
            assert np.max(np.abs(probs - ref)) <= 1e-14
            assert probs.sum() == pytest.approx(1.0, abs=1e-13)


def test_outcome_law_spikes_stay_exact_beside_smooth_levels():
    energies = np.array([5 / 16, 0.4, 9 / 16])
    weights = np.array([0.25, 0.5, 0.25])
    spikes = np.zeros(16)
    spikes[[5, 9]] = 0.25
    smooth = outcome_law(energies[1:2], weights[1:2], 4)
    assert np.array_equal(outcome_law(energies, weights, 4), spikes + smooth)
    assert np.array_equal(outcome_law(energies[[0, 2]], weights[[0, 2]], 4),
                          spikes)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def test_characteristic_function_is_the_direct_sum():
    energies, weights = draw_levels(rng_for(6), "in_range", 5, n=30)
    for n_terms in (1, 2, 7, 64, 100):
        phi = characteristic_function(energies, weights, n_terms)
        ls = np.arange(n_terms)
        direct = np.exp(2j * np.pi * np.outer(ls, energies)) @ weights
        assert phi.shape == (n_terms,)
        assert np.max(np.abs(phi - direct)) <= 1e-12
    assert characteristic_function(energies, weights, 1)[0] \
        == pytest.approx(1.0)
    with pytest.raises(ValueError):
        characteristic_function(energies, weights, 0)


def phi_levels(rng, n, m):
    """n levels in [-0.5, 1.5) and their weights: anywhere, at a rounding
    tie d = +-1/2 of the m-point grid, and within 1e-13/m of it, in
    turn."""
    kind = np.arange(n) % 3
    on = rng.integers(-m // 2, 3 * m // 2, n)
    energies = np.where(kind == 0, rng.uniform(-0.5, 1.5, n),
                        np.where(kind == 1, (on + 0.5) / m,
                                 (on + rng.uniform(-1e-13, 1e-13, n)) / m))
    energies = np.clip(energies, -0.5, np.nextafter(1.5, 0))
    weights = rng.random(n)
    return energies, weights / weights.sum()


@pytest.mark.parametrize("n_levels", [1, 30, 784, 4096])
def test_characteristic_function_matches_gemm_oracle(n_levels):
    for n_terms in (1, 2, 7, 100, 2 ** 4, 2 ** 10, 2 ** 13, 2 ** 16):
        m = 1 << (n_terms - 1).bit_length()
        energies, weights = phi_levels(rng_for(11, n_levels, n_terms),
                                       max(n_levels, 3), m)
        cases = ([(energies[[i]], [1.0]) for i in range(3)]  # each kind alone
                 if n_levels == 1 else [(energies, weights)])
        for energies, weights in cases:
            phi = characteristic_function(energies, weights, n_terms)
            ref = oracles.characteristic_function_gemm(energies, weights,
                                                       n_terms)
            assert phi.shape == (n_terms,)
            assert np.max(np.abs(phi - ref)) <= 1e-14


def test_characteristic_function_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n_terms = 2 ** 13
    energies, weights = phi_levels(rng_for(12), 30, n_terms)
    phi = characteristic_function(energies, weights, n_terms)
    with mpmath.workdps(30):
        for l in (0, 1, 2 ** 12 - 1, 2 ** 12, 5321, n_terms - 1):
            exact = mpmath.fsum(
                mpmath.mpf(w) * mpmath.expjpi(2 * l * mpmath.mpf(e))
                for e, w in zip(energies, weights))
            assert abs(phi[l] - complex(exact)) <= 1e-14


def test_characteristic_function_memory_is_linear():
    """At N = 2^18 levels and m = 2^16 terms the peak stays within four
    complex values per level and term; one array of a value per Taylor
    term and level, or per term and register value, would not fit."""
    n, m = 2 ** 18, 2 ** 16
    energies, weights = phi_levels(rng_for(13), n, m)
    tracemalloc.start()
    try:
        characteristic_function(energies, weights, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * (n + m)


# ---------------------------------------------------------------------------
# The shared digit cap
# ---------------------------------------------------------------------------

def test_digit_cap_refuses_before_allocating():
    k = READOUT_DIGIT_CAP + 20          # 2^k values would not fit in memory
    measure = SpectralMeasure([(0.3, 0.5), (0.6, 0.5)])
    assert register_size(READOUT_DIGIT_CAP) == 2 ** READOUT_DIGIT_CAP
    assert leakage.DigitCapExceeded is DigitCapExceeded
    calls = (
        lambda: register_size(k),
        lambda: outcome_law(measure.energies, measure.probs, k),
        lambda: qpe_outcome_distribution(measure, k),
        lambda: leak_prob_exact(measure, LeakageSetup(k, 0.01, 0.1)),
        lambda: leakage.leak_prob_integral(lambda e: np.ones_like(e),
                                           LeakageSetup(k, 0.01, 0.1)),
        lambda: coarse_qpe_postselect(measure, k, {0}),
        lambda: coarse_qpe_sample(measure, k, 10, 0),
        lambda: readout_mass(measure.energies, k, [0]),
        lambda: characteristic_function(measure.energies, measure.probs,
                                        2 ** k),
    )
    for call in calls:
        with pytest.raises(DigitCapExceeded):
            call()


# ---------------------------------------------------------------------------
# Non-finite input
# ---------------------------------------------------------------------------

def test_measure_rejects_non_finite_levels():
    with pytest.raises(ValueError, match="finite"):
        SpectralMeasure([(0.2, 0.5), (np.nan, 0.5)])
    with pytest.raises(ValueError, match="finite"):
        SpectralMeasure([(0.2, np.nan), (0.4, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        SpectralMeasure([(0.2, 0.5), (np.inf, 0.5)])


def test_gaussian_levels_need_finite_mean_and_positive_sigma():
    for mean, sigma in ((0.06, 0.0), (0.06, -0.01), (np.nan, 0.02),
                        (0.06, np.inf)):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_levels(mean, sigma, 64)
