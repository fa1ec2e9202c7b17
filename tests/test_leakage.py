import math

import numpy as np
import pytest
from scipy.stats import norm as normal_dist

from qprep.leakage import (LeakageSetup, diagnose_leakage, leak_prob_approx,
                           leak_prob_exact, leak_prob_integral,
                           leak_prob_level_approx, leak_prob_level_bracket)
from qprep.spectra import SpectralMeasure

import oracles


def gaussian_measure(mean=0.06, sigma=0.02, n_levels=4096):
    edges = np.linspace(mean - 6 * sigma, mean + 6 * sigma, n_levels + 1)
    mass = np.diff(normal_dist.cdf(edges, mean, sigma))
    mass /= mass.sum()
    centers = (edges[:-1] + edges[1:]) / 2
    return SpectralMeasure(list(zip(centers, mass)))


def single(energy):
    return SpectralMeasure([(energy, 1.0)])


# ---------------------------------------------------------------------------
# Setup bookkeeping
# ---------------------------------------------------------------------------

def test_setup_properties():
    setup = LeakageSetup(10, 2 ** -8, 0.0)
    assert setup.size == 1024
    assert setup.x_upper == -4
    assert setup.window_low == -512
    assert setup.exclude_below == -2 ** -8

    assert LeakageSetup(3, 0.05, 0.1).x_upper == 1


def test_setup_validation():
    with pytest.raises(ValueError):
        LeakageSetup(0, 0.01, 0.0)
    with pytest.raises(ValueError):
        LeakageSetup(4, 0.0, 0.0)
    with pytest.raises(ValueError):
        LeakageSetup(4, 0.01, 1.2)


# ---------------------------------------------------------------------------
# Exact double sum
# ---------------------------------------------------------------------------

def test_exact_on_grid_levels_leak_only_when_aliased():
    # window [-16, 2): register value 8 stays outside, 20 = -12 mod 32 is in
    setup = LeakageSetup(5, 0.05, 0.1)
    m = SpectralMeasure([(8 / 32, 0.5), (20 / 32, 0.5)])
    assert leak_prob_exact(m, setup) == 0.5


def test_exact_is_continuous_through_an_aliased_grid_level():
    # k = 3: 2^k 0.75 = 6 = -2 mod 8 lies in the window [-4, 1), so the
    # level leaks its whole weight on the grid and within 1e-9 of it
    setup = LeakageSetup(3, 0.05, 0.1)
    window = np.arange(setup.window_low, setup.x_upper)
    for energy in (0.75 - 1e-9, 0.75, 0.75 + 1e-9):
        ref = oracles.readout_kernel_reduced(energy, setup.k, window).sum()
        value = leak_prob_exact(single(energy), setup)
        assert value == pytest.approx(ref, rel=1e-14)
        assert abs(value - 1.0) < 1e-12


def test_exact_matches_hand_sum():
    # one level, k=3: transcribe the double sum term by term
    setup = LeakageSetup(3, 0.05, 0.1)
    energy = 0.8
    result = leak_prob_exact(single(energy), setup)
    hand = 0.0
    for x in (-4, -3, -2, -1, 0):               # x < x_upper = 1
        hand += math.sin(math.pi * 6.4) ** 2 \
            / math.sin(math.pi * (6.4 - x) / 8) ** 2 / 64
    # sin(pi*6.4)^2 vs sin(pi*0.4)^2: equal in exact math, float paths differ
    assert result == pytest.approx(hand, rel=1e-12)
    assert hand > 0


def test_exact_excludes_levels_below_cut():
    setup = LeakageSetup(6, 0.05, 0.2)
    inside = leak_prob_exact(single(0.4), setup)
    # a level sitting below e0 - epsilon adds nothing by default
    m = SpectralMeasure([(0.05, 0.5), (0.4, 0.5)])
    assert leak_prob_exact(m, setup) == pytest.approx(inside / 2, rel=1e-12)
    # but the cut is overridable
    widened = leak_prob_exact(m, setup, exclude_below=-1.0)
    assert widened > inside / 2


def test_exact_nonnegative_and_nonincreasing_in_k():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        energies = np.sort(rng.uniform(0.05, 0.45, 12))
        probs = rng.dirichlet(np.ones(12))
        m = SpectralMeasure(list(zip(energies, probs)))
        values = [leak_prob_exact(m, LeakageSetup(k, 0.01, 0.02))
                  for k in range(4, 13)]
        assert all(v >= 0.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_exact_gaussian_reference_value():
    value = leak_prob_exact(gaussian_measure(), LeakageSetup(10, 2 ** -8))
    assert abs(value - 0.00097) / 0.00097 < 0.15


# ---------------------------------------------------------------------------
# Single-level approximation and bracket
# ---------------------------------------------------------------------------

def test_level_approx_degenerate_cases():
    setup = LeakageSetup(5, 0.05, 0.1)
    assert leak_prob_level_approx(10 / 32, setup) == 0.0     # on the grid
    boundary_level = (setup.x_upper - 1 + 0.3) / 32          # below boundary
    assert leak_prob_level_approx(boundary_level, setup) == 0.0


def test_bracket_orders_and_degenerate():
    setup = LeakageSetup(8, 0.02, 0.02)
    lo, hi = leak_prob_level_bracket(3.3 / 256, setup)
    assert 0 < lo < hi
    assert leak_prob_level_bracket(3 / 256, setup) == (0.0, 0.0)
    with pytest.raises(ValueError):
        leak_prob_level_bracket((setup.x_upper - 0.5) / 256, setup)
    with pytest.raises(ValueError, match="aliases"):
        leak_prob_level_bracket(0.9, setup)
    with pytest.raises(ValueError, match="regime"):
        leak_prob_level_bracket(0.2, setup)                  # far above
    with pytest.raises(ValueError, match="regime"):
        leak_prob_level_bracket(51 / 256, setup)             # far, on grid


def _outside_bracket_regime(setup, scaled):
    """Acceptance check 9's two skip conditions for a level at 2^k E."""
    gap = scaled - setup.x_upper
    return (setup.x_upper < -2 * scaled
            or math.tan(math.pi * scaled / setup.size) * gap * (gap + 1)
            > 0.5 * setup.size / math.pi)


@pytest.mark.parametrize("k, e0, eps", [
    (5, 0.3, 0.05), (6, 0.0, 0.03), (7, 0.1, 0.02), (8, 0.45, 0.01),
    (9, 0.02, 0.2)])
def test_bracket_is_never_negative_and_refuses_aliasing_levels(k, e0, eps):
    # the peak of a level at 2^k E >= 2^k + window_low + min(x_upper, 0)
    # lands in the centred window, so no bracket exists there; every level
    # between the boundary and that point, on the grid or off it, gets
    # nonnegative bounds or is refused as lying outside the bracket's regime
    setup = LeakageSetup(k, eps, e0)
    size = setup.size
    alias = size + setup.window_low + min(setup.x_upper, 0)
    off_grid = np.linspace(setup.x_upper, size, 8 * size + 1)[1:-1]
    on_grid = np.arange(setup.x_upper + 1, size)
    for scaled in np.concatenate([off_grid, on_grid]):
        if scaled >= alias:
            with pytest.raises(ValueError, match="aliases"):
                leak_prob_level_bracket(scaled / size, setup)
        elif _outside_bracket_regime(setup, scaled):
            with pytest.raises(ValueError, match="regime"):
                leak_prob_level_bracket(scaled / size, setup)
        else:
            lo, hi = leak_prob_level_bracket(scaled / size, setup)
            assert 0.0 <= lo <= hi


def test_bracket_contains_exact_wherever_it_is_returned():
    # k = 3 .. 12 over six (e0, eps) setups, 300 random levels each between
    # the boundary and the alias guard: a returned pair contains the exact
    # single-level leakage, and only levels outside the regime are refused
    rng = np.random.default_rng(3)
    returned = refused = 0
    for k in range(3, 13):
        for e0, eps in [(0.0, 0.01), (0.0, 0.05), (0.02, 0.005),
                        (0.1, 0.03), (0.3, 0.05), (0.6, 0.2)]:
            setup = LeakageSetup(k, eps, e0)
            size = setup.size
            alias = size + setup.window_low + min(setup.x_upper, 0)
            for scaled in rng.uniform(setup.x_upper, alias, 300):
                if scaled <= setup.x_upper:
                    continue
                energy = scaled / size
                if _outside_bracket_regime(setup, scaled):
                    with pytest.raises(ValueError, match="regime"):
                        leak_prob_level_bracket(energy, setup)
                    refused += 1
                    continue
                lo, hi = leak_prob_level_bracket(energy, setup)
                exact = leak_prob_exact(single(energy), setup)
                assert 0.0 <= lo <= hi
                assert lo * (1 - 1e-12) <= exact <= hi * (1 + 1e-12)
                returned += 1
    assert returned > 1000 and refused > 1000


def test_bracket_contains_exact_and_approx():
    # the one-term estimate lives inside the bracket on its home turf:
    # window not reaching past twice the level (x_up >= -2 c) and the level
    # low enough that the far-window wrap correction stays below the
    # bracket's own width (tan(pi c / M) g (g+1) <= M / 2 pi)
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 40:
        k = int(rng.integers(6, 13))
        size = 2 ** k
        e0 = float(rng.uniform(0.0, 0.05))
        eps = float(rng.uniform(1.5 / size, 0.03))
        setup = LeakageSetup(k, eps, e0)
        x_n = int(rng.integers(max(setup.x_upper + 2, 1),
                               max(setup.x_upper + 3,
                                   int(0.4 * size ** (2 / 3)))))
        delta = float(rng.uniform(0.05, 0.95))
        center = x_n + delta
        gap = center - setup.x_upper
        if setup.x_upper < -2 * center:
            continue
        if math.tan(math.pi * center / size) * gap * (gap + 1) \
                > 0.5 * size / math.pi:
            continue
        checked += 1
        energy = center / size
        lo, hi = leak_prob_level_bracket(energy, setup)
        approx = leak_prob_level_approx(energy, setup)
        exact = leak_prob_exact(single(energy), setup)
        assert lo - 1e-15 <= approx <= hi + 1e-15
        assert lo - 1e-15 <= exact <= hi + 1e-15


def test_level_approx_error_decay():
    # far from the 2^-2k floor the approximation error falls off as the
    # inverse square of the bin gap
    setup = LeakageSetup(16, 2 ** -12, 2 ** -11)
    gaps = np.array([8, 16, 32, 64, 128])
    errors = []
    for gap in gaps:
        energy = (setup.x_upper + gap + 0.5) / setup.size
        approx = leak_prob_level_approx(energy, setup)
        exact = leak_prob_exact(single(energy), setup)
        errors.append(abs(approx - exact))
    slope = np.polyfit(np.log(gaps), np.log(errors), 1)[0]
    assert -2.3 < slope < -1.7


def test_leak_prob_approx_aggregates_levels():
    setup = LeakageSetup(8, 0.02, 0.02)
    levels = [(0.004, 0.2), (0.11, 0.5), (0.23, 0.3)]
    m = SpectralMeasure(levels)
    expected = sum(w * leak_prob_level_approx(e, setup)
                   for e, w in levels if e > setup.exclude_below)
    assert leak_prob_approx(m, setup) == pytest.approx(expected, rel=1e-12)
    assert leak_prob_approx(m, setup) >= 0.0


def random_levels_with_edge_cases(setup, seed=5):
    """Seeded levels around the boundary: off-grid, on-grid, below the cut
    and between the cut and x_upper (counted, but with no tail)."""
    rng = np.random.default_rng(seed)
    size = setup.size
    energies = np.sort(np.concatenate([
        rng.uniform(0.0, 0.6, 300),
        np.arange(setup.x_upper - 8, setup.x_upper + 24) / size,
        rng.uniform(setup.exclude_below, setup.x_upper / size, 12)]))
    return energies, rng.dirichlet(np.ones(energies.size))


def test_level_approx_array_matches_scalar_calls():
    setup = LeakageSetup(10, 2 ** -8, 0.05)
    energies, _ = random_levels_with_edge_cases(setup)
    scalars = [leak_prob_level_approx(e, setup) for e in energies]
    assert all(isinstance(v, float) for v in scalars)
    assert np.array_equal(leak_prob_level_approx(energies, setup), scalars)
    assert sum(v == 0.0 for v in scalars) > 32


@pytest.mark.parametrize("case", ["gaussian", "random"])
def test_leak_prob_approx_matches_loop_oracle(case):
    if case == "gaussian":
        setup = LeakageSetup(10, 2 ** -8, 0.0)
        m = gaussian_measure()
    else:
        setup = LeakageSetup(10, 2 ** -8, 0.05)
        m = SpectralMeasure(np.column_stack(
            random_levels_with_edge_cases(setup)))
    for cut in (setup.exclude_below, 0.1):
        ref = oracles.leak_prob_approx_loop(m.energies, m.probs, setup, cut)
        assert ref > 0.0
        assert leak_prob_approx(m, setup, exclude_below=cut) \
            == pytest.approx(ref, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Integral form
# ---------------------------------------------------------------------------

def test_integral_zero_without_weight():
    setup = LeakageSetup(8, 0.01, 0.05)

    def low_only(e):
        return np.where(e < 0.05, 40.0, 0.0)

    assert leak_prob_integral(low_only, setup) == 0.0
    assert leak_prob_integral(low_only, setup, e_max=0.01) == 0.0


def test_integral_matches_exact_sum():
    density = lambda e: normal_dist.pdf(e, 0.06, 0.02)
    for k in (8, 10):
        setup = LeakageSetup(k, 2 ** -8)
        exact = leak_prob_exact(gaussian_measure(), setup)
        integral = leak_prob_integral(density, setup, e_max=0.18)
        assert abs(integral - exact) / exact < 0.10


def test_integral_peak_approximation():
    setup = LeakageSetup(10, 2 ** -6, 0.0)
    peak_energy = 0.3
    density = lambda e: normal_dist.pdf(e, peak_energy, 0.004)
    value = leak_prob_integral(density, setup, e_max=0.5)
    estimate = 1 / (2 * math.pi ** 2 * setup.size) / (peak_energy - setup.e0)
    assert abs(value - estimate) / estimate < 0.25


@pytest.mark.parametrize("k", [6, 12])
def test_integral_blocks_match_one_array_sum(k):
    sizes = []

    def density(e):
        sizes.append(e.size)
        return normal_dist.pdf(e, 0.3, 0.1)

    setup = LeakageSetup(k, 2 ** -5, 0.05)
    blocked = leak_prob_integral(density, setup)
    whole = oracles.leak_prob_integral_unblocked(
        lambda e: normal_dist.pdf(e, 0.3, 0.1), setup)
    assert max(sizes) <= 1 << 16
    assert len(sizes) == (1 if k == 6 else 2)
    assert abs(blocked - whole) <= 1e-14 * abs(whole)


# ---------------------------------------------------------------------------
# CDF-comparison diagnosis
# ---------------------------------------------------------------------------

def bimodal_measure():
    low = gaussian_measure(0.3, 0.02, 512)
    levels = [(e, 0.05 * w) for e, w in low.levels] + [(0.8, 0.95)]
    return SpectralMeasure(sorted(levels))


def test_diagnose_flags_coarse_bimodal():
    report = diagnose_leakage(bimodal_measure(), 4, 100)
    assert report.flagged
    assert report.ratio > 10
    assert report.outcome_cdf > report.energy_cdf


def test_diagnose_clears_at_high_resolution():
    report = diagnose_leakage(bimodal_measure(), 11, 100)
    assert not report.flagged
    assert 0.8 < report.ratio < 1.3


def test_diagnose_empty_low_tail():
    m = SpectralMeasure([(0.4, 0.3), (0.7, 0.7)])
    report = diagnose_leakage(m, 6, 1000)
    assert report.flagged
    assert math.isinf(report.ratio)
    assert report.as_dict()["ratio"] is None
    assert report.threshold_energy < 0.4


def test_diagnose_validation_and_dict():
    m = SpectralMeasure([(0.4, 1.0)])
    with pytest.raises(ValueError):
        diagnose_leakage(m, 4, 0)
    with pytest.raises(ValueError):
        diagnose_leakage(m, 4, 10, flag_factor=0.0)
    d = diagnose_leakage(bimodal_measure(), 8, 100).as_dict()
    assert set(d) == {"k", "n_reps", "flag_factor", "threshold_energy",
                      "energy_cdf", "outcome_cdf", "ratio", "flagged"}
