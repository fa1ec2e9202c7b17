import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm as normal_dist

from qprep import spectra
from qprep.hamiltonian import DenseHamiltonian
from qprep.spectra import (MomentSet, OrderUnsupported, SpectralMeasure,
                           broaden, as_measure, coarse_qpe_sample,
                           default_grid, edgeworth, edgeworth_terms,
                           exact_spectral_measure, gram_charlier,
                           gram_charlier_coefficient, hermite_e_coefficients,
                           kde, moments_from_measure, outcome_law)

import oracles


def random_normalized(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (mat + mat.conj().T) / 2
    return oracles.normalize_spectrum(DenseHamiltonian(mat))


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_moments(rng, dim, n_max):
    """Moments of a random state's measure under a random Hamiltonian."""
    h, _ = random_normalized(rng, dim)
    measure = exact_spectral_measure(h, random_state(rng, dim))
    return moments_from_measure(measure, n_max)


# ---------------------------------------------------------------------------
# Exact measures
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        SpectralMeasure([])
    with pytest.raises(ValueError):
        SpectralMeasure([(0.6, 0.5), (0.4, 0.5)])
    with pytest.raises(ValueError):
        SpectralMeasure([(0.2, 0.7), (0.5, 0.7)])
    with pytest.raises(ValueError):
        SpectralMeasure([(0.2, 1.5), (0.5, -0.5)])
    with pytest.raises(ValueError):
        SpectralMeasure([(1.7, 1.0)])
    for bad in (np.full((2, 3), 1 / 6), [0.5, 0.5], np.empty((0, 2))):
        with pytest.raises(ValueError):
            SpectralMeasure(bad)
    pairs = [(0.2, 0.25), (0.5, 0.75)]
    m = SpectralMeasure(pairs)
    from_array = SpectralMeasure(np.column_stack(([0.2, 0.5], [0.25, 0.75])))
    assert np.array_equal(m.levels, from_array.levels)
    assert m.levels.shape == (2, 2) and m.levels.dtype == np.float64
    assert m.energies.flags.c_contiguous and m.probs.flags.c_contiguous
    with pytest.raises(ValueError):
        m.energies[0] = 0.0
    assert m.energies[0] == 0.2


def test_exact_measure_eigenvector():
    rng = np.random.default_rng(1)
    h, _ = random_normalized(rng, 12)
    evals, evecs = h.eigensystem()
    m = exact_spectral_measure(h, evecs[:, 3])
    assert m.probs.sum() == pytest.approx(1.0, abs=1e-12)
    top = int(np.argmax(m.probs))
    assert m.probs[top] > 1 - 1e-10
    assert m.energies[top] == pytest.approx(evals[3], abs=1e-12)


def test_exact_measure_matches_projections():
    rng = np.random.default_rng(2)
    h, _ = random_normalized(rng, 10)
    psi = random_state(rng, 10)
    m = exact_spectral_measure(h, 3.0 * psi)
    evals, evecs = np.linalg.eigh(h.entries)
    assert np.allclose(m.energies, evals)
    assert np.allclose(m.probs, np.abs(evecs.conj().T @ psi) ** 2)
    # a spectrum already in the normalized frame maps onto itself
    assert m.normalizer.scale == pytest.approx(1.0, rel=1e-13)
    assert m.normalizer.shift == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("scale", [1e300, 1e-320])
def test_exact_measure_of_a_state_whose_norm_overflows_or_underflows(scale):
    rng = np.random.default_rng(5)
    h, _ = random_normalized(rng, 784)
    signs = np.where(rng.random(784) < 0.5, -1.0, 1.0)
    for psi in (signs, signs + 2j * signs[::-1]):
        with np.errstate(over="ignore", under="ignore"):
            extreme = psi * scale
            assert np.linalg.norm(extreme) in (0.0, np.inf)
        m = exact_spectral_measure(h, extreme)
        ref = exact_spectral_measure(h, psi)
        assert np.array_equal(m.energies, ref.energies)
        assert np.allclose(m.probs, ref.probs, rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match="zero state"):
        exact_spectral_measure(h, np.zeros(784))
    with pytest.raises(ValueError, match="must be finite"):
        exact_spectral_measure(h, np.where(signs > 0, np.inf, 1.0))


def test_exact_measure_with_margin_takes_one_eigensolve(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(16, 16))
    h = DenseHamiltonian(5.0 * (a + a.T))
    psi = random_state(rng, 16)
    h_norm, norm = oracles.normalize_spectrum(h)
    ref = exact_spectral_measure(h_norm, psi)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, _f=solver, **kw:
                            calls.append(_f) or _f(*args, **kw))
    m = exact_spectral_measure(h, psi)
    assert len(calls) == 1
    assert m.energies[0] == pytest.approx(0.1, abs=1e-14)
    assert m.energies[-1] == pytest.approx(0.9, abs=1e-14)
    assert np.allclose(m.energies, ref.energies, rtol=0, atol=1e-14)
    assert np.allclose(m.probs, ref.probs, rtol=0, atol=1e-12)
    assert m.normalizer.scale == pytest.approx(norm.scale, rel=1e-13)
    assert m.normalizer.shift == pytest.approx(norm.shift, rel=1e-13)


def test_exact_measure_uniform_superposition():
    rng = np.random.default_rng(3)
    h, _ = random_normalized(rng, 8)
    _, evecs = h.eigensystem()
    m = exact_spectral_measure(h, evecs.sum(axis=1))
    assert np.allclose(m.probs, 1 / 8, atol=1e-12)


# ---------------------------------------------------------------------------
# Lorentzian broadening
# ---------------------------------------------------------------------------

def lorentzian_mass(energy, eta, lo, hi):
    """Analytic mass of a Lorentzian at ``energy`` on [lo, hi]."""
    return (np.arctan((hi - energy) / eta)
            - np.arctan((lo - energy) / eta)) / np.pi


def test_kernel_validation():
    m = SpectralMeasure([(0.5, 1.0)])
    for eta in (0.0, -0.1):
        with pytest.raises(ValueError, match="eta"):
            broaden(m, eta)


def test_broaden_single_level_in_window_mass():
    m = SpectralMeasure([(0.5, 1.0)])
    grid, vals = broaden(m, 0.02)
    assert np.trapezoid(vals, grid) == pytest.approx(
        lorentzian_mass(0.5, 0.02, grid[0], grid[-1]), abs=1e-6)


def test_broaden_small_width_recovers_spikes():
    m = SpectralMeasure([(0.3, 0.4), (0.7, 0.6)])
    grid = np.linspace(0, 1, 2001)
    _, vals = broaden(m, 1e-3, grid)
    for energy in m.energies:
        window = np.abs(grid - energy) < 6e-3
        lo, hi = grid[window][[0, -1]]
        mass = sum(p * lorentzian_mass(e, 1e-3, lo, hi) for e, p in m.levels)
        assert np.trapezoid(vals[window], grid[window]) == pytest.approx(
            mass, abs=1e-3)
        peak = grid[window][np.argmax(vals[window])]
        assert abs(peak - energy) < 1e-3


def test_broaden_lorentzian_tail_budget():
    # an algebraic tail keeps visible mass outside any finite grid; the
    # integral matches the analytic in-window mass instead of 1
    eta = 0.01
    m = SpectralMeasure([(0.5, 1.0)])
    grid = np.linspace(-0.05, 1.05, 20001)
    _, vals = broaden(m, eta, grid)
    covered = lorentzian_mass(0.5, eta, grid[0], grid[-1])
    assert np.trapezoid(vals, grid) == pytest.approx(covered, abs=1e-3)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_moments_match_measure_sums():
    rng = np.random.default_rng(7)
    h, _ = random_normalized(rng, 24)
    psi = random_state(rng, 24)
    ms = moments_from_measure(exact_spectral_measure(h, psi), 8)
    ref = oracles.matvec_moments(h, psi, 8)
    for n in range(9):
        assert ms.raw[n] == pytest.approx(ref[n], abs=1e-9)


def test_moments_eigenvector_degenerate():
    rng = np.random.default_rng(8)
    h, _ = random_normalized(rng, 6)
    evals, evecs = h.eigensystem()
    ms = moments_from_measure(exact_spectral_measure(h, evecs[:, 0]), 6)
    for n in range(7):
        assert ms.raw[n] == pytest.approx(evals[0] ** n, abs=1e-12)
    # a single level has zero spread, so no standardized ladder
    ms = moments_from_measure(SpectralMeasure([(evals[0], 1.0)]), 6)
    assert ms.sigma == 0.0
    assert ms.mu is None
    with pytest.raises(ValueError):
        gram_charlier(ms, 4)


def test_moments_standardization():
    rng = np.random.default_rng(9)
    h, _ = random_normalized(rng, 16)
    psi = random_state(rng, 16)
    ms = moments_from_measure(exact_spectral_measure(h, psi), 8)
    assert ms.mu[1] == 0.0
    assert ms.mu[2] == 1.0
    assert ms.kappa[3] == pytest.approx(ms.mu[3], abs=1e-12)
    assert ms.kappa[4] == pytest.approx(ms.mu[4] - 3, abs=1e-12)
    ref = oracles.matvec_moments(h, psi, 8)
    for n in range(9):
        assert ms.raw[n] == pytest.approx(ref[n], abs=1e-9)


# ---------------------------------------------------------------------------
# Series coefficients
# ---------------------------------------------------------------------------

def test_hermite_coefficients():
    assert hermite_e_coefficients(0) == [1]
    assert hermite_e_coefficients(1) == [0, 1]
    assert hermite_e_coefficients(4) == [3, 0, -6, 0, 1]
    assert hermite_e_coefficients(6) == [-15, 0, 45, 0, -15, 0, 1]


def test_gram_charlier_coefficient_table():
    expected = {
        3: {3: Fraction(-1, 6)},
        4: {4: Fraction(1, 24), 0: Fraction(-3, 24)},
        5: {5: Fraction(-1, 120), 3: Fraction(10, 120)},
        6: {6: Fraction(1, 720), 4: Fraction(-15, 720), 0: Fraction(30, 720)},
        7: {7: Fraction(-1, 5040), 5: Fraction(21, 5040),
            3: Fraction(-105, 5040)},
        8: {8: Fraction(1, 40320), 6: Fraction(-28, 40320),
            4: Fraction(210, 40320), 0: Fraction(-315, 40320)},
    }
    for n, table_row in expected.items():
        assert gram_charlier_coefficient(n) == table_row


def test_gram_charlier_two_point_measure():
    # levels at +-1 with equal weight: mu4 = 1, so c4 = (1 - 3)/24 = -1/12
    ms = MomentSet.from_raw([1, 0, 1, 0, 1])
    series = gram_charlier(ms, 4)
    assert series.hermite_weights[4] == pytest.approx(-1 / 12, abs=1e-14)
    assert series.hermite_weights[3] == 0.0


def test_gram_charlier_against_quadrature():
    # standardized two-bump mixture; project onto He_6 by direct quadrature
    a, s = 0.8, 0.6

    def pdf(x):
        return 0.5 * (normal_dist.pdf(x, -a, s) + normal_dist.pdf(x, a, s))

    mu4 = a ** 4 + 6 * a ** 2 * s ** 2 + 3 * s ** 4
    mu6 = (a ** 6 + 15 * a ** 4 * s ** 2 + 45 * a ** 2 * s ** 4
           + 15 * s ** 6)
    ms = MomentSet.from_raw([1, 0, 1, 0, mu4, 0, mu6])
    series = gram_charlier(ms, 6)
    ref = oracles.hermite_projection_coefficient(pdf, 6, -9, 9)
    assert series.hermite_weights[6] == pytest.approx(ref, rel=1e-8)


def test_gram_charlier_gaussian_vanishes():
    ms = MomentSet.from_raw([1, 0, 1, 0, 3, 0, 15, 0, 105])
    series = gram_charlier(ms, 8)
    assert np.allclose(series.hermite_weights[3:], 0.0, atol=1e-12)


def test_gram_charlier_order_guard():
    raw = [1, 0, 1, 0, 3, 0, 15, 0, 105, 0, 945]
    ms = MomentSet.from_raw(raw)
    with pytest.raises(OrderUnsupported):
        gram_charlier(ms, 9)
    with pytest.raises(ValueError):
        gram_charlier(MomentSet.from_raw([1, 0, 1, 0, 3]), 6)


def test_edgeworth_term_table():
    f = Fraction
    assert edgeworth_terms(1) == {3: {(3,): f(1, 6)}}
    assert edgeworth_terms(2) == {4: {(4,): f(1, 24)},
                                  6: {(3, 3): f(1, 72)}}
    assert edgeworth_terms(3) == {5: {(5,): f(1, 120)},
                                  7: {(3, 4): f(1, 144)},
                                  9: {(3, 3, 3): f(1, 1296)}}
    assert edgeworth_terms(4) == {6: {(6,): f(1, 720)},
                                  8: {(3, 5): f(1, 720),
                                      (4, 4): f(1, 1152)},
                                  10: {(3, 3, 4): f(1, 1728)},
                                  12: {(3, 3, 3, 3): f(1, 31104)}}
    assert edgeworth_terms(5) == {7: {(7,): f(1, 5040)},
                                  9: {(3, 6): f(1, 4320),
                                      (4, 5): f(1, 2880)},
                                  11: {(3, 3, 5): f(1, 8640),
                                       (3, 4, 4): f(1, 6912)},
                                  13: {(3, 3, 3, 4): f(1, 31104)},
                                  15: {(3, 3, 3, 3, 3): f(1, 933120)}}


def test_edgeworth_numeric_weights():
    rng = np.random.default_rng(11)
    ms = random_moments(rng, 20, 8)
    series = edgeworth(ms, 2)
    assert series.hermite_weights[4] == pytest.approx(ms.kappa[4] / 24)
    assert series.hermite_weights[6] == pytest.approx(ms.kappa[3] ** 2 / 72)
    assert series.hermite_weights[5] == 0.0


def test_edgeworth_gaussian_is_gaussian():
    ms = MomentSet.from_raw([1, 0, 1, 0, 3, 0, 15, 0, 105])
    series = edgeworth(ms, 5, hermite_cap=8)
    grid = np.linspace(-4, 4, 101)
    assert np.allclose(series.standardized(grid), normal_dist.pdf(grid),
                       atol=1e-12)


def test_gc_edgeworth_matched_truncation():
    rng = np.random.default_rng(13)
    for _ in range(5):
        ms = random_moments(rng, 14, 8)
        gc = gram_charlier(ms, 8)
        ew = edgeworth(ms, 6, hermite_cap=8)
        assert np.allclose(gc.hermite_weights, ew.hermite_weights,
                           atol=1e-12)
        grid = default_grid()
        assert np.allclose(gc(grid), ew(grid), atol=1e-12)


def test_series_density_unit_integral():
    rng = np.random.default_rng(15)
    ms = random_moments(rng, 12, 8)
    series = gram_charlier(ms, 8)
    x = np.linspace(-12, 12, 20001)
    assert np.trapezoid(series.standardized(x), x) == pytest.approx(
        1.0, abs=1e-6)
    e = np.linspace(ms.mean - 12 * ms.sigma, ms.mean + 12 * ms.sigma, 20001)
    assert np.trapezoid(series(e), e) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# QPE kernel and coarse sampling
# ---------------------------------------------------------------------------

def kernel_row(energy, k):
    """Outcome law of one sharp energy: the readout kernel itself."""
    return outcome_law([energy], [1.0], k)


def test_qpe_kernel_spike_and_wrap():
    probs = kernel_row(5 / 16, 4)
    assert probs[5] == 1.0
    assert kernel_row(1.0, 4)[0] == 1.0
    assert kernel_row(-0.25, 2)[3] == 1.0


def test_qpe_kernel_one_digit_law():
    # k=1 collapses to [cos^2(pi E), sin^2(pi E)]
    for e in (0.13, 0.377, 0.81):
        probs = kernel_row(e, 1)
        assert probs[0] == pytest.approx(np.cos(np.pi * e) ** 2, abs=1e-12)
        assert probs[1] == pytest.approx(np.sin(np.pi * e) ** 2, abs=1e-12)


def test_coarse_sample_deterministic_and_sharp():
    m = SpectralMeasure([(0.3127, 1.0)])
    a = coarse_qpe_sample(m, 8, 200, seed=5)
    b = coarse_qpe_sample(m, 8, 200, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, coarse_qpe_sample(m, 8, 200, seed=6))
    close = np.abs(a - 0.3127) <= 2 * 2 ** -8
    assert close.mean() > 0.9
    assert np.all(a > -2 ** -8) and np.all(a < 1.0)


def test_coarse_sample_mean_tracks_measure():
    m = SpectralMeasure([(0.35, 0.5), (0.55, 0.3), (0.6, 0.2)])
    samples = coarse_qpe_sample(m, 6, 4000, seed=11)
    sem = np.std(samples) / np.sqrt(len(samples))
    assert abs(np.mean(samples) - m.mean()) < 3 * sem + 1e-3


# ---------------------------------------------------------------------------
# KDE and discretization
# ---------------------------------------------------------------------------

def test_kde_single_sample_gaussian():
    grid, vals = kde([0.4], default_grid(), bandwidth=0.05)
    assert np.allclose(vals, normal_dist.pdf(grid, 0.4, 0.05), atol=1e-12)
    assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)


def test_kde_default_bandwidth_rule():
    rng = np.random.default_rng(23)
    samples = rng.normal(0.5, 0.1, size=400)
    h = np.std(samples) * 400 ** (-1 / 5)
    grid, auto = kde(samples, default_grid())
    _, manual = kde(samples, default_grid(), bandwidth=h)
    assert np.allclose(auto, manual)


def test_kde_matches_direct_sum():
    rng = np.random.default_rng(29)
    samples = rng.normal(0.5, 0.08, size=5000)
    grid = np.linspace(0.2, 0.8, 41)
    _, vals = kde(samples, bandwidth=0.03, grid=grid)
    direct = np.zeros_like(grid)
    for i, g in enumerate(grid):
        z = (g - samples) / 0.03
        direct[i] = np.exp(-0.5 * z ** 2).sum() \
            / (len(samples) * 0.03 * np.sqrt(2 * np.pi))
    assert np.allclose(vals, direct, atol=1e-12)


def test_kde_validation():
    with pytest.raises(ValueError):
        kde([], default_grid())
    with pytest.raises(ValueError):
        kde([0.5, 0.5, 0.5], default_grid())
    with pytest.raises(ValueError):
        kde([0.1, 0.2], default_grid(), bandwidth=0.0)


@pytest.mark.parametrize("samples, bandwidth", [
    ([0.1, 0.2], np.nan),
    ([0.1, 0.2], np.inf),
    ([0.1, np.inf], 0.05),
    ([0.1, -np.inf], 0.05),
    ([0.1, np.nan], 0.05),
    ([0.1, np.nan], None),
])
def test_kde_refuses_non_finite_input(samples, bandwidth):
    with pytest.raises(ValueError, match="finite"):
        kde(samples, default_grid(), bandwidth=bandwidth)


def test_kde_matches_dense_oracle():
    rng = np.random.default_rng(37)
    grid = default_grid()
    cases = {
        "clustered": (rng.normal(0.3, 0.002, 4096), 2.0 ** -10),
        "spread": (rng.uniform(-0.05, 1.05, 3000), 2.0 ** -12),
        "outside the grid": (np.concatenate([rng.uniform(-3.0, -1.0, 500),
                                             rng.uniform(1.2, 4.0, 500),
                                             rng.normal(0.5, 0.1, 500)]),
                             0.01),
        "single": (np.array([0.42]), 2.0 ** -8),
        "wider than the grid": (rng.normal(0.5, 0.2, 5000), 3.0),
    }
    for name, (samples, h) in cases.items():
        _, vals = kde(samples, bandwidth=h, grid=grid)
        ref = oracles.kde_dense(samples, h, grid)
        assert np.all(np.abs(vals - ref) <= 1e-14 * ref), name
    # unsorted grids are summed the same way
    shuffled = rng.permutation(grid)
    samples, h = cases["clustered"]
    _, vals = kde(samples, bandwidth=h, grid=shuffled)
    ref = oracles.kde_dense(samples, h, shuffled)
    assert np.all(np.abs(vals - ref) <= 1e-14 * ref)


def test_kde_is_zero_beyond_the_underflow_radius():
    h = 2.0 ** -10
    samples = np.random.default_rng(41).uniform(0.4, 0.6, 1000)
    grid = np.array([0.6 + 38.7 * h, 0.9, 0.4 - 39 * h])
    _, vals = kde(samples, bandwidth=h, grid=grid)
    assert np.array_equal(vals, np.zeros(3))
    _, vals = kde(samples, bandwidth=h, grid=[0.5, 0.6 + 30 * h])
    assert np.all(vals > 0.0)


def test_kde_memory_is_bounded_by_the_block():
    """2^20 samples at h = 0.5, every one within reach of every grid point:
    beyond the sorted copy of the samples, temporaries stay within eight
    block-sized float arrays."""
    samples = np.random.default_rng(43).normal(0.5, 0.1, 2 ** 20)
    grid = np.linspace(-0.05, 1.05, 64)
    tracemalloc.start()
    try:
        kde(samples, bandwidth=0.5, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= samples.nbytes + 8 * 8 * spectra._BLOCK


def test_kde_mise_slope():
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 1.0, 401)
    target = normal_dist.pdf(grid, 0.5, 0.1)
    sizes = [100, 1000, 10000]
    mises = []
    for m in sizes:
        errs = []
        for _ in range(6):
            samples = rng.normal(0.5, 0.1, size=m)
            _, est = kde(samples, grid=grid)
            errs.append(np.trapezoid((est - target) ** 2, grid))
        mises.append(np.mean(errs))
    slope = np.polyfit(np.log(sizes), np.log(mises), 1)[0]
    assert -1.1 < slope < -0.5


def test_as_measure_refuses_anything_but_a_measure():
    m = SpectralMeasure([(0.5, 1.0)])
    assert as_measure(m) is m
    grid, vals = broaden(m, 0.03)
    for other in ((grid, vals), m.levels, [(0.5, 1.0)]):
        with pytest.raises(TypeError, match=type(other).__name__):
            as_measure(other)
