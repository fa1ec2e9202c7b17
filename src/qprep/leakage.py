"""Probability that a k-digit phase readout lands below the accepted window.

Even a state with no weight under the target energy produces occasional
readouts there: the discrete readout kernel of each level has algebraic
tails, and mass caught by register values x below the acceptance boundary
x_upper = ceil(2^k (E0 - eps)) is what we call leakage.  Register values are
counted in the centred window [-2^(k-1), 2^(k-1)) so that "below the ground
energy" keeps meaning the bins just under 2^k E0 rather than the top of the
register.

The module offers three views of the same quantity: the exact sum of the
readout kernel of every counted level over every window bin (taken by
``qprep.spectra._window_mass`` at O(1) cost per level: whole periods count
1, the bins next to the kernel's pole are summed directly and the rest by
Euler-Maclaurin, so small leakage keeps full relative precision), a
one-term-per-level approximation evaluated elementwise over the measure's
energy array, with a rigorous antiderivative bracket, and a
panel-quadrature integral form for smooth densities.  A CDF-comparison
diagnosis flags states whose low-energy readout tail is dominated by
kernel spill rather than by actual spectral weight.
"""

import math
from dataclasses import dataclass

import numpy as np

from .qpestats import cdf_below, qpe_outcome_distribution
from .spectra import SPIKE_TOL, _window_mass, as_measure, register_size
# Re-exported: the readout routines here raise it past the digit cap.
from .spectra import DigitCapExceeded  # noqa: F401

# Quadrature points per block of leak_prob_integral: bounds its temporaries
# (a few 512 kB arrays) whatever the digit count.
_INTEGRAL_BLOCK = 1 << 16
# Gauss-Legendre nodes per panel of leak_prob_integral.
_NODES_PER_PANEL = 10


@dataclass(frozen=True)
class LeakageSetup:
    """Window bookkeeping for below-threshold readouts.

    ``e0`` is the reference ground energy and ``epsilon`` the tolerated
    error; outcomes strictly below ``x_upper`` count as leaked.  Levels at
    or below ``e0 - epsilon`` belong below the boundary already and are not
    counted as leakers.
    """

    k: int
    epsilon: float
    e0: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one readout digit")
        if self.epsilon <= 0:
            raise ValueError("tolerated error must be positive")
        if not 0.0 <= self.e0 <= 1.0:
            raise ValueError("reference energy must lie in [0, 1]")

    @property
    def size(self):
        return 2 ** self.k

    @property
    def x_upper(self):
        return math.ceil(self.size * (self.e0 - self.epsilon))

    @property
    def window_low(self):
        return -(2 ** (self.k - 1))

    @property
    def exclude_below(self):
        return self.e0 - self.epsilon


def _split_bins(energy, size):
    """Integer and fractional parts of 2^k E, elementwise, and whether E sits
    within ``SPIKE_TOL`` of the readout grid."""
    scaled = size * np.asarray(energy, dtype=float)
    x_n = np.floor(scaled)
    delta = scaled - x_n
    return x_n, delta, (delta < SPIKE_TOL) | (1.0 - delta < SPIKE_TOL)


def leak_prob_exact(m, setup):
    """Exact leaked probability: every counted level against every window bin.

    Counted levels lie above ``setup.exclude_below``.  A level on the
    readout grid is the kernel's limit there, a Kronecker spike: it leaks
    its whole weight when its register value falls in the window and
    nothing otherwise.  Window bins are taken modulo 2^k, repeats included.
    """
    register_size(setup.k)          # refuses k past the cap before any array
    measure = as_measure(m)
    energies = measure.energies
    counted = energies > setup.exclude_below
    if setup.x_upper <= setup.window_low or not counted.any():
        return 0.0
    mass = _window_mass(energies[counted], setup.k, setup.window_low,
                        setup.x_upper)
    return float(measure.probs[counted] @ mass)


def leak_prob_level_approx(energy, setup):
    """One-term estimate of each level's leaked probability, elementwise.

    Keeps only the first-order pole of the kernel tail: sin^2(pi delta) /
    (pi^2 (x_n - x_upper + delta)).  Zero for levels on the readout grid
    and for levels at or below the boundary, where the expansion has no
    meaning.  A scalar energy gives a scalar.
    """
    x_n, delta, grid = _split_bins(energy, setup.size)
    gap = x_n - setup.x_upper + delta
    live = ~grid & (gap > 0)
    tail = np.sin(np.pi * delta) ** 2 / (np.pi ** 2 * np.where(live, gap, 1.0))
    return np.where(live, tail, 0.0)[()]


def leak_prob_level_bracket(energy, setup):
    """(lower, upper) bounds on a single level's leaked probability.

    Where the kernel tail is monotone across the window, the bin sum is
    pinched between the antiderivative (a cotangent) evaluated one bin
    apart: I(x_upper - 1) <= sum <= I(x_upper).  That holds for levels near
    the boundary, the regime acceptance check 9 samples; far above it the
    tail wraps round the register and the pair is no longer a bracket of
    the exact leakage.  So a level is refused when it sits at or below the
    boundary, when its peak aliases into the centred window (2^k E >= 2^k +
    window_low + min(x_upper, 0)), or when it leaves that regime: with c =
    2^k E and gap g = c - x_upper, when x_upper < -2 c or tan(pi c / 2^k)
    g (g + 1) > 2^k / (2 pi).  A level on the readout grid inside the
    regime gets (0, 0).
    """
    size = setup.size
    scaled = size * energy
    if scaled <= setup.x_upper:
        raise ValueError("level sits at or below the leakage boundary")
    if scaled >= size + setup.window_low + min(setup.x_upper, 0):
        raise ValueError("level aliases across the centred readout window")
    gap = scaled - setup.x_upper
    if setup.x_upper < -2 * scaled or \
            math.tan(math.pi * scaled / size) * gap * (gap + 1) \
            > 0.5 * size / math.pi:
        raise ValueError("level lies outside the near-boundary regime "
                         "where the pair brackets the exact leakage")
    _, delta, grid = _split_bins(energy, size)
    if grid:
        return 0.0, 0.0
    amp = math.sin(math.pi * delta) ** 2 / (math.pi * size)

    def anti(x):
        return amp / math.tan(math.pi * (scaled - x) / size)

    base = anti(setup.window_low)
    return anti(setup.x_upper - 1) - base, anti(setup.x_upper) - base


def leak_prob_approx(m, setup):
    """Weighted one-term estimates summed over the levels above
    ``setup.exclude_below``, in one elementwise pass of
    :func:`leak_prob_level_approx`."""
    measure = as_measure(m)
    counted = measure.energies > setup.exclude_below
    return float(measure.probs[counted]
                 @ leak_prob_level_approx(measure.energies[counted], setup))


def leak_prob_integral(density_fn, setup, e_max=1.0):
    """Leaked probability of a smooth density by panel quadrature.

    Integrates P(E) sin^2(pi 2^k E) / (E - x_upper/2^k) from e0 + epsilon
    upward with Gauss-Legendre panels aligned to the oscillation period, so
    the rapidly oscillating factor is resolved exactly where it matters.
    Panels are summed in blocks of about 2^16 points.  ``density_fn`` must
    accept numpy arrays.
    """
    size = register_size(setup.k)
    lower = setup.e0 + setup.epsilon
    if e_max <= lower:
        return 0.0
    center = setup.x_upper / size
    n_panels = max(8, 2 * math.ceil((e_max - lower) * size))
    edges = np.linspace(lower, e_max, n_panels + 1)
    nodes, node_weights = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    total = 0.0
    step = _INTEGRAL_BLOCK // _NODES_PER_PANEL
    for start in range(0, n_panels, step):
        block = edges[start:start + step + 1]
        mid = (block[:-1] + block[1:]) / 2
        half = (block[1:] - block[:-1]) / 2
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = density_fn(pts) * np.sin(np.pi * size * pts) ** 2 \
            / (pts - center)
        total += float(np.sum(vals * (half[:, None] * node_weights[None, :])))
    return total / (math.pi ** 2 * size)


@dataclass(frozen=True)
class LeakageDiagnosis:
    """CDF comparison at the energy where one of n_reps outcomes is due.

    ``threshold_energy`` is the last readout-grid energy whose spectral
    (energy) CDF still sits at or below 1/n_reps; ``ratio`` compares the
    readout CDF against the energy CDF there.  A ratio well above 1 means
    the low-energy readouts one expects to see are kernel spill, not state
    weight — refining or more digits are needed before trusting them.
    """

    k: int
    n_reps: int
    flag_factor: float
    threshold_energy: float
    energy_cdf: float
    outcome_cdf: float
    ratio: float
    flagged: bool

    def as_dict(self):
        return {
            "k": self.k,
            "n_reps": self.n_reps,
            "flag_factor": self.flag_factor,
            "threshold_energy": self.threshold_energy,
            "energy_cdf": self.energy_cdf,
            "outcome_cdf": self.outcome_cdf,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "flagged": self.flagged,
        }


def diagnose_leakage(m, k, n_reps, flag_factor=2.0):
    """Compare readout and spectral CDFs at the 1/n_reps quantile."""
    if n_reps < 1:
        raise ValueError("need at least one repetition")
    if flag_factor <= 0:
        raise ValueError("flag factor must be positive")
    measure = as_measure(m)
    dist = qpe_outcome_distribution(measure, k)
    grid = dist.energies
    cum = np.concatenate([[0.0], np.cumsum(measure.probs)])
    energy_cdfs = cum[np.searchsorted(measure.energies, grid, side="right")]
    target = 1.0 / n_reps
    below = np.flatnonzero(energy_cdfs <= target + 1e-15)
    pick = below[-1] if below.size else 0
    energy_cdf = float(energy_cdfs[pick])
    outcome_cdf = cdf_below(dist, grid[pick])
    if energy_cdf > 0.0:
        ratio = outcome_cdf / energy_cdf
    else:
        ratio = math.inf if outcome_cdf > 0.0 else 1.0
    return LeakageDiagnosis(k=k, n_reps=n_reps, flag_factor=flag_factor,
                            threshold_energy=float(grid[pick]),
                            energy_cdf=energy_cdf,
                            outcome_cdf=outcome_cdf,
                            ratio=ratio,
                            flagged=ratio > flag_factor)
