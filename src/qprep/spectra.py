"""Energy distributions of a state with respect to a Hamiltonian.

A :class:`SpectralMeasure` is the exact, discrete distribution of a state's
overlaps with the eigenbasis, and a Hamiltonian reaches it only through
:func:`exact_spectral_measure` (one eigensolve).  From the measure this
module provides three routes to a (possibly broadened) energy density and
the machinery shared by the QPE statistics modules:

* Lorentzian broadening of the exact measure, which is also the resolvent
  (Green's function) curve -(1/pi) Im <psi|(H - E + i eta)^-1|psi>;
* moment/cumulant series (Gram-Charlier and Edgeworth), from the measure's
  power sums, with exact rational coefficient tables;
* coarse phase-estimation sampling with a random sub-bin offset per shot,
  plus Gaussian kernel density estimation for smoothing, which sums each
  grid point only over the samples close enough to give a nonzero term.

The k-digit readout kernel F_k(E - x/2^k) (the periodic Fejer kernel) lives
here once, vectorized three ways: :func:`outcome_law` sums it over all
levels and register values through the characteristic function phi(l) =
sum_n p_n exp(2 pi i l E_n), taken by a binned Taylor expansion with one
real FFT per term, and one more FFT; :func:`readout_mass` evaluates it
directly, in bounded blocks, on chosen register values (a postselection
set); ``_window_mass`` sums it over a contiguous range of register values
(a leakage window, the outcomes below a sampled one) at O(1) cost per
level.  The last two keep full relative precision.  All three reduce 2^k E
- x modulo 2^k exactly before rounding, keep on-grid levels as exact
spikes, and refuse more than ``READOUT_DIGIT_CAP`` digits before
allocating.

All energies are expected in the normalized frame (spectrum inside [0, 1],
see :func:`qprep.hamiltonian.spectrum_normalizer`); phase-estimation
arithmetic treats energy modulo 1.  The measure container itself accepts
levels half a period beyond either edge so that idealized model densities
(e.g. a Gaussian tail crossing zero) can be represented.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import hermite_e

from .hamiltonian import AffineNormalizer, _pow2_scaled, spectrum_normalizer

PROB_SUM_TOL = 1e-10
ENERGY_LO, ENERGY_HI = -0.5, 1.5
GRID_POINTS = 512
SPIKE_TOL = 1e-12
GC_TABLE_MAX = 8
# Keeps every array of register size (the law, its complex Fourier-space
# intermediates, the kernel's angle tables) at or below 16 MB.
READOUT_DIGIT_CAP = 20
_BLOCK = 1 << 15    # values per block: 256 kB per float temporary, in cache


class OrderUnsupported(ValueError):
    """Gram-Charlier order beyond the closed-form coefficient table."""


class DigitCapExceeded(ValueError):
    """The requested precision needs more readout digits than the cap."""


def default_grid(n_points=GRID_POINTS):
    """Standard energy grid: [-0.05, 1.05] covers the periodic domain with
    margin."""
    return np.linspace(-0.05, 1.05, n_points)


# ---------------------------------------------------------------------------
# The exact measure and its Lorentzian broadening
# ---------------------------------------------------------------------------

@dataclass
class SpectralMeasure:
    """Discrete energy distribution: ``levels`` holds the rows (E_n, p_n).

    Any (n, 2) array-like is accepted (a list of pairs, or
    ``np.column_stack((energies, weights))``) and stored once as a
    read-only float64 (n, 2) array in column-major order, so ``energies``
    and ``probs`` are contiguous column views, not copies, and writing
    through them raises.  Energies ascend and the weights sum to one.
    ``normalizer`` optionally records the affine map that brought the
    energies into the normalized frame, so raw energies stay recoverable.
    """

    levels: np.ndarray
    normalizer: AffineNormalizer = None

    def __post_init__(self):
        self.levels = np.array(self.levels, dtype=float, order="F")
        if self.levels.ndim != 2 or self.levels.shape[1] != 2 \
                or self.levels.shape[0] == 0:
            raise ValueError("a measure needs n >= 1 (energy, weight) rows")
        self.levels.flags.writeable = False
        es, ps = self.energies, self.probs
        if not (np.all(np.isfinite(es)) and np.all(np.isfinite(ps))):
            raise ValueError("level energies and weights must be finite")
        if np.any(np.diff(es) < 0):
            raise ValueError("levels must be sorted by energy")
        if np.any(ps < -PROB_SUM_TOL):
            raise ValueError("negative level weight")
        if abs(ps.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError("level weights must sum to 1")
        if es[0] < ENERGY_LO or es[-1] > ENERGY_HI:
            raise ValueError(
                f"energies must lie within [{ENERGY_LO}, {ENERGY_HI}] "
                "(normalized frame, half a period of margin)")

    @property
    def energies(self):
        return self.levels[:, 0]

    @property
    def probs(self):
        return self.levels[:, 1]

    def mean(self):
        return float(np.dot(self.probs, self.energies))


def exact_spectral_measure(h, psi):
    """Overlap weights of ``psi`` with the eigenbasis of ``h``.

    ``h`` is a DenseHamiltonian in any units: the eigenvalues of the one
    eigensolve are mapped into the normalized frame by
    :func:`qprep.hamiltonian.spectrum_normalizer`, which the measure
    records.  ``psi`` need not be normalized: it is divided by the power
    of two of :func:`qprep.hamiltonian._pow2_scaled` before its norm is
    taken, an exact division, so the measure keeps its bits where the
    unscaled squares stay in the normal range, and amplitudes from either
    end of the float range give it too.  The weights are taken block by
    block (:meth:`~qprep.hamiltonian.DenseHamiltonian.eigensystem`):
    psi goes onto the orbit basis, split into its even and odd part psi_+-,
    and the weights are |V_+-^H psi_+-|^2, so a spin-flip sector makes no
    n x n eigenvector array.  One block (U = I) gives |V^H psi|^2.
    """
    blocks = h.eigensystem()
    evals, order = blocks.levels()
    normalizer = spectrum_normalizer(evals[0], evals[-1])
    evals = normalizer.apply(evals)
    psi, _ = _pow2_scaled(psi)
    nrm = np.linalg.norm(psi)
    if not np.isfinite(nrm):
        raise ValueError("state amplitudes must be finite")
    if nrm == 0:
        raise ValueError("cannot take the measure of the zero state")
    psi = psi / nrm
    ps = np.concatenate([_weights(vecs, part) for (_, vecs), part
                         in zip((blocks.even, blocks.odd),
                                blocks.project(psi))])[order]
    return SpectralMeasure(np.column_stack((evals, ps)), normalizer)


def _weights(evecs, psi):
    """|V^H psi|^2, one weight per column of ``evecs``."""
    if np.iscomplexobj(evecs):
        return np.abs(evecs.conj().T @ psi) ** 2
    # real V: |V^T psi|^2 = (V^T Re psi)^2 + (V^T Im psi)^2, one real
    # product instead of a complex copy of V
    parts = evecs.T @ np.column_stack((psi.real, psi.imag))
    return np.sum(parts * parts, axis=1)


def broaden(measure, eta, grid=None):
    """Place a unit-integral Lorentzian of half-width ``eta`` at each level:
    P(E) = sum_n p_n L(E_n - E), L(x) = (eta / pi) / (x^2 + eta^2).

    Returns (grid, density values).
    """
    if eta <= 0:
        raise ValueError("Lorentzian width eta must be positive")
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    x = measure.energies[:, None] - grid[None, :]
    return grid, measure.probs @ ((eta / np.pi) / (x ** 2 + eta ** 2))


def as_measure(m):
    """The one type gate of the measure routines: ``m`` itself when it is a
    SpectralMeasure, else TypeError naming the type."""
    if not isinstance(m, SpectralMeasure):
        raise TypeError("expected a SpectralMeasure, got %s"
                        % type(m).__name__)
    return m


# ---------------------------------------------------------------------------
# Moments and cumulants
# ---------------------------------------------------------------------------

@dataclass
class MomentSet:
    """Raw moments <E^n> plus the standardized moment/cumulant ladder.

    ``raw[n]`` is the n-th raw moment in the (normalized-energy) frame it
    was computed in; ``mu`` and ``kappa`` are the moments and cumulants of
    the shifted/rescaled variable (E - mean)/sigma, so mu[1] = 0 and
    mu[2] = 1.  For a zero-spread (single-level) input the standardized
    entries are None.
    """

    raw: list
    mean: float
    sigma: float
    mu: list
    kappa: list

    @property
    def n_max(self):
        return len(self.raw) - 1

    def __post_init__(self):
        if self.mu is not None:
            if abs(self.mu[1]) > 1e-9 or abs(self.mu[2] - 1) > 1e-9:
                raise ValueError("standardized moments need mu1=0, mu2=1")

    @classmethod
    def from_raw(cls, raw):
        raw = [float(m) for m in raw]
        if not raw or abs(raw[0] - 1.0) > 1e-12:
            raise ValueError("raw[0] must be 1")
        mean = raw[1] if len(raw) > 1 else 0.0
        var = raw[2] - mean ** 2 if len(raw) > 2 else 0.0
        if var < -1e-12:
            raise ValueError("negative variance")
        sigma = math.sqrt(max(var, 0.0))
        if sigma == 0.0 or len(raw) < 3:
            return cls(raw, mean, sigma, None, None)
        mu = [1.0, 0.0, 1.0]
        for n in range(3, len(raw)):
            c = sum(math.comb(n, i) * raw[i] * (-mean) ** (n - i)
                    for i in range(n + 1))
            mu.append(c / sigma ** n)
        kappa = [0.0, 0.0, 1.0]
        for n in range(3, len(raw)):
            k = mu[n] - sum(math.comb(n - 1, j - 1) * kappa[j] * mu[n - j]
                            for j in range(1, n))
            kappa.append(k)
        return cls(raw, mean, sigma, mu, kappa)


def moments_from_measure(measure, n_max):
    """Raw moments as direct power sums over a discrete measure."""
    e, p = measure.energies, measure.probs
    raw = [float(np.dot(p, e ** n)) for n in range(n_max + 1)]
    return MomentSet.from_raw(raw)


# ---------------------------------------------------------------------------
# Hermite series: Gram-Charlier and Edgeworth
# ---------------------------------------------------------------------------

def hermite_e_coefficients(n):
    """Integer power-basis coefficients of the probabilists' He_n."""
    if n == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for m in range(1, n):
        nxt = [0] * (m + 2)
        nxt[1:] = cur
        for j, a in enumerate(prev):
            nxt[j] -= m * a
        prev, cur = cur, nxt
    return cur


def gram_charlier_coefficient(n):
    """Exact series coefficient c_n as a map {moment order: Fraction}.

    c_n = ((-1)^n / n!) <He_n>, written in standardized moments (mu1 = 0 and
    mu2 = 1 substituted); key 0 holds the constant term.
    """
    if n < 3:
        raise ValueError("series coefficients start at order 3")
    sign = (-1) ** n
    fact = math.factorial(n)
    coeffs = hermite_e_coefficients(n)
    out = {}
    const = coeffs[0] + (coeffs[2] if n >= 2 else 0)
    if const:
        out[0] = Fraction(sign * const, fact)
    for j in range(3, n + 1):
        if coeffs[j]:
            out[j] = Fraction(sign * coeffs[j], fact)
    return out


def _partitions(s):
    """Multiplicity vectors {k_m} with sum(m * k_m) = s, m from 1 to s."""
    sols = []

    def rec(m, remaining, current):
        if m > remaining:
            if remaining == 0:
                sols.append(dict(current))
            return
        for k in range(remaining // m + 1):
            if k:
                current[m] = k
            rec(m + 1, remaining - m * k, current)
            current.pop(m, None)

    rec(1, s, {})
    return sols


def edgeworth_terms(s):
    """Exact s-th Edgeworth term: {Hermite order: {cumulant tuple: Fraction}}.

    Each cumulant tuple lists the orders of the kappa factors in the
    monomial (sorted, with multiplicity).
    """
    if s < 1:
        raise ValueError("terms start at s = 1")
    out = {}
    for sol in _partitions(s):
        r = sum(sol.values())
        he = s + 2 * r
        coeff = Fraction(1)
        mono = []
        for m, k in sorted(sol.items()):
            coeff /= math.factorial(k) * math.factorial(m + 2) ** k
            mono.extend([m + 2] * k)
        out.setdefault(he, {})[tuple(mono)] = coeff
    return out


@dataclass
class SeriesDensity:
    """Gaussian-times-Hermite-series density evaluator.

    ``hermite_weights[n]`` multiplies He_n in the standardized variable
    x = (E - mean)/sigma; evaluation at an energy divides by sigma so the
    result is a density in E.
    """

    hermite_weights: np.ndarray
    mean: float
    sigma: float

    def standardized(self, x):
        x = np.asarray(x, dtype=float)
        envelope = np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)
        return envelope * hermite_e.hermeval(x, self.hermite_weights)

    def __call__(self, energy):
        x = (np.asarray(energy, dtype=float) - self.mean) / self.sigma
        return self.standardized(x) / self.sigma


def _require_standardized(ms):
    if ms.mu is None:
        raise ValueError("series need a spread-out measure (sigma > 0)")


def gram_charlier(ms, order):
    """Gram-Charlier density up to Hermite order ``order``.

    Orders above ``GC_TABLE_MAX`` raise OrderUnsupported, the bound of the
    closed-form coefficient table; ``ms`` needs moments up to ``order``.
    """
    _require_standardized(ms)
    if order < 2:
        raise ValueError("order must be at least 2")
    if order > GC_TABLE_MAX:
        raise OrderUnsupported(
            f"closed-form coefficients stop at order {GC_TABLE_MAX}")
    if order > ms.n_max:
        raise ValueError("not enough moments for the requested order")
    weights = np.zeros(order + 1)
    weights[0] = 1.0
    for n in range(3, order + 1):
        coeffs = hermite_e_coefficients(n)
        mean_he = coeffs[0] + coeffs[2] + sum(
            coeffs[j] * ms.mu[j] for j in range(3, n + 1))
        weights[n] = mean_he / math.factorial(n)
    return SeriesDensity(weights, ms.mean, ms.sigma)


def edgeworth(ms, s_max, hermite_cap=None):
    """Edgeworth density with terms s = 1 .. s_max.

    ``hermite_cap`` drops the Hermite orders above it, which regroups the
    series back into a Gram-Charlier truncation (the two expansions carry
    identical terms, arranged differently).
    """
    _require_standardized(ms)
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    if s_max + 2 > ms.n_max:
        raise ValueError("s_max needs cumulants up to order s_max + 2")
    top = 3 * s_max if hermite_cap is None else hermite_cap
    weights = np.zeros(max(top, 0) + 1)
    weights[0] = 1.0
    for s in range(1, s_max + 1):
        for he, monos in edgeworth_terms(s).items():
            if he > top:
                continue
            for mono, coeff in monos.items():
                term = float(coeff)
                for order in mono:
                    term *= ms.kappa[order]
                weights[he] += term
    return SeriesDensity(weights, ms.mean, ms.sigma)


# ---------------------------------------------------------------------------
# The readout kernel, coarse phase-estimation sampling and KDE
# ---------------------------------------------------------------------------

def register_size(k):
    """2^k, or DigitCapExceeded above ``READOUT_DIGIT_CAP`` digits; every
    routine that allocates per register value calls this first."""
    if k > READOUT_DIGIT_CAP:
        raise DigitCapExceeded("%d readout digits exceed the cap of %d"
                               % (k, READOUT_DIGIT_CAP))
    return 2 ** k


def _split_register(energies, m):
    """m E = near + offset, integer ``near``, |offset| <= 1/2; both exact
    because m is a power of two."""
    scaled = m * np.asarray(energies, dtype=float)
    near = np.rint(scaled)
    return near.astype(np.int64), scaled - near


def _half_turn_tables(m):
    """sin and cos of pi r / m for each register offset r modulo m, with r
    taken in [-m/2, m/2] so every angle stays within [-pi/2, pi/2]."""
    r = np.arange(m)
    r[r > m // 2] -= m
    angle = (np.pi / m) * r
    return np.sin(angle), np.cos(angle)


def _kernel(j, offset, m, tables):
    """F_k(E - x/m) for levels m E = near + offset (rows of ``j``) at the
    integers j = near - x (modulo m); on-grid rows are exact Kronecker
    spikes.

    F_k = sin^2(pi d) / (m^2 sin^2(pi (j + d) / m)) with d the offset.  The
    denominator's sine comes from the tables by angle addition, which keeps
    full relative precision even where E - x/m sits near a whole period.
    """
    sin_t, cos_t = tables
    spike = np.abs(offset) < SPIKE_TOL
    d = np.where(spike, 0.5, offset)
    j = j & (m - 1)
    shift = (np.pi / m) * d
    den = (sin_t[j] * np.cos(shift)[:, None]
           + cos_t[j] * np.sin(shift)[:, None])
    out = ((np.sin(np.pi * d) / m) ** 2)[:, None] / den ** 2
    if spike.any():
        out[spike] = j[spike] == 0
    return out


def readout_mass(energies, k, bins):
    """Readout-kernel mass each level places on the register values ``bins``.

    ``bins`` are integers taken modulo 2^k; a value listed twice counts
    twice.  Evaluated directly, in blocks of about ``_BLOCK`` kernel values,
    so each level's mass keeps full relative precision however small it is.
    This serves arbitrary sets of register values (a postselection set); a
    contiguous range is summed at O(1) cost per level by
    :func:`_window_mass`.
    """
    m = register_size(k)
    near, offset = _split_register(energies, m)
    bins = np.asarray(bins, dtype=np.int64)
    tables = _half_turn_tables(m)
    cols = max(1, min(bins.size, _BLOCK))
    rows = max(1, _BLOCK // cols)
    out = np.zeros(near.size)
    for c0 in range(0, bins.size, cols):
        block = bins[c0:c0 + cols]
        for r0 in range(0, near.size, rows):
            sl = slice(r0, r0 + rows)
            j = near[sl, None] - block[None, :]
            out[sl] += _kernel(j, offset[sl], m, tables).sum(axis=1)
    return out


def _csc2_odd_derivatives(count):
    """Integer coefficients, ascending powers of c = cot t, of the odd
    derivatives d^(2p-1)/dt^(2p-1) csc^2 t for p = 1 .. count.

    csc^2 = 1 + c^2 and dc/dt = -(1 + c^2), so each derivative of a
    polynomial P(c) is -(1 + c^2) P'(c).
    """
    poly, out = [1, 0, 1], []
    for n in range(1, 2 * count):
        slope = [i * a for i, a in enumerate(poly)][1:]
        poly = [0] * (len(slope) + 2)
        for i, a in enumerate(slope):
            poly[i] -= a
            poly[i + 2] -= a
        if n % 2:
            out.append(poly)
    return out


# Kernel bins on each side of the pole that _window_mass sums directly.
_EDGE = 12
# B_2p / (2p)! times the (2p-1)-th derivative of csc^2, p = 1 .. 6: the
# Euler-Maclaurin corrections of _window_mass.
_EM_TERMS = [
    float(b / math.factorial(2 * p + 2)) * np.array(poly, dtype=float)
    for p, (b, poly) in enumerate(zip(
        (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
         Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730)),
        _csc2_odd_derivatives(6)))]


def _window_mass(energies, k, lo, hi):
    """Readout-kernel mass each level places on the register values
    lo <= x < hi, taken modulo 2^k, at O(1) cost per level.

    ``lo`` and ``hi`` are integers or integer arrays broadcast against the
    levels; ``lo <= hi`` is assumed.  Every whole period of the range counts
    exactly 1; the rest is an arc of j = near - x, summed by
    :func:`_arc_mass` in blocks of ``_BLOCK`` kernel values.
    """
    m = register_size(k)
    near, offset = _split_register(energies, m)
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=np.int64),
                                 np.asarray(hi, dtype=np.int64), near)[:2]
    whole, part = np.divmod(hi - lo, m)
    start = (near - lo - part + 1) & (m - 1)
    tables = _half_turn_tables(m)
    out = whole.astype(float)
    rows = _BLOCK // (2 * _EDGE)
    for r0 in range(0, near.size, rows):
        sl = slice(r0, r0 + rows)
        out[sl] += _arc_mass(start[sl], part[sl], offset[sl], m, tables)
    return out


def _arc_mass(start, part, offset, m, tables):
    """Kernel mass of each level over j in [start, start + part) modulo m,
    part < m, for levels m E = near + offset.

    The arc covers at most two pieces of [0, m), whose ends j = 0 and j = m
    sit at the kernel's pole.  Bins within ``_EDGE`` of the pole are summed
    directly; the bins between by the Euler-Maclaurin formula for
    csc^2(t), t = pi (j + d) / m: the integral cot t_a - cot t_b =
    sin(pi n / m) / (sin t_a sin t_b), n = b - a, with every angle taken
    from the integer-reduced tables, so it keeps full relative precision;
    the end-point terms; and ``len(_EM_TERMS)`` Bernoulli terms in the odd
    derivatives of csc^2, polynomials in cot t.  That far from the pole, a
    40-digit sum of the same bins agrees to 2e-15 relative or better.
    """
    stop = start + part             # past m, the arc wraps round to 0
    wrap = np.maximum(stop - m, 0)
    stop = np.minimum(stop, m)
    edge = np.concatenate([np.arange(min(_EDGE, m)),
                           np.arange(max(_EDGE, m - _EDGE), m)])
    inside = (((edge >= start[:, None]) & (edge < stop[:, None]))
              | (edge < wrap[:, None]))
    mass = np.sum(
        _kernel(np.broadcast_to(edge, inside.shape), offset, m, tables),
        axis=1, where=inside)
    if m <= 2 * _EDGE:
        return mass
    # the pieces' bins in [_EDGE, m - _EDGE), one row each
    first = np.concatenate([np.maximum(start, _EDGE),
                            np.full(start.size, _EDGE)])
    last = np.concatenate([np.minimum(stop, m - _EDGE),
                           np.minimum(wrap, m - _EDGE)]) - 1
    live = first <= last
    d = np.tile(np.where(np.abs(offset) < SPIKE_TOL, 0.0, offset), 2)[live]
    first, last = first[live], last[live]
    sin_t, cos_t = tables
    shift = (np.pi / m) * d
    cos_s, sin_s = np.cos(shift), np.sin(shift)

    def angle(j):
        """|sin t| and cot t at t = pi (j + d) / m."""
        s = sin_t[j] * cos_s + cos_t[j] * sin_s
        return np.abs(s), (cos_t[j] * cos_s - sin_t[j] * sin_s) / s

    sin_a, cot_a = angle(first)
    sin_b, cot_b = angle(last)
    step = np.pi / m
    corr = np.zeros(_EM_TERMS[-1].size)
    for p, poly in enumerate(_EM_TERMS):
        corr[:poly.size] += poly * step ** (2 * p + 1)
    total = (np.abs(sin_t[last - first]) / (step * sin_a * sin_b)
             + 0.5 * (sin_a ** -2 + sin_b ** -2)
             + np.polynomial.polynomial.polyval(cot_b, corr)
             - np.polynomial.polynomial.polyval(cot_a, corr))
    smooth = np.zeros(2 * start.size)
    smooth[live] = (np.sin(np.pi * d) / m) ** 2 * total
    return mass + smooth[:start.size] + smooth[start.size:]


# Taylor terms of characteristic_function: |2 pi l d / m| <= pi, and the
# first term left out is at most pi^30 / 30! < 4e-18 of sum |w_n|.
_TAYLOR_TERMS = 30


def characteristic_function(energies, weights, n_terms):
    """phi(l) = sum_n w_n exp(2 pi i l E_n) for l = 0 .. n_terms - 1.

    The input of the outcome law and of Hadamard-test phase estimators.
    A binned Taylor-FFT, the non-equispaced DFT of Anderson & Dahleh (SIAM
    J. Sci. Comput. 17, 913 (1996)): with m = 2^bits >= n_terms and m E_n =
    near_n + d_n, |d_n| <= 1/2,

        phi(l) = sum_p (2 pi i l / m)^p / p! sum_j b_p[j] exp(2 pi i l j / m),

    where the real vector b_p bins w_n d_n^p by near_n modulo m, so each
    Taylor term costs one bincount and one real FFT.  That is
    O(_TAYLOR_TERMS (N + m log m)) time and O(N + m) memory for N levels:
    one term is held at a time.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    m = register_size((n_terms - 1).bit_length())
    near, offset = _split_register(energies, m)
    near &= m - 1
    term = np.array(weights, dtype=float)
    turn = (2 * np.pi / m) * np.arange(n_terms)
    power = np.ones(n_terms)
    out = np.zeros(n_terms, dtype=complex)
    for p in range(_TAYLOR_TERMS):
        if p:
            term *= offset
            power *= turn
            power /= p
        # rfft takes exp(-2 pi i l j / m) for l <= m / 2; conjugate symmetry
        # of a real input gives the rest.
        half = np.fft.rfft(np.bincount(near, term, m))
        part = np.concatenate((half.conj(), half[-2:0:-1]))[:n_terms]
        part *= power
        part *= (1, 1j, -1, -1j)[p % 4]
        out += part
    return out


def outcome_law(energies, weights, k):
    """k-digit outcome law sum_n w_n F_k(E_n - x/2^k), x = 0 .. 2^k - 1.

    F_k(E - x/m) = m^-2 sum_{|l| < m} (m - |l|) exp(2 pi i l (E - x/m)), so
    off-grid levels enter through phi(l), 0 <= l < m: folding l < 0 onto
    l + m gives c[r] = (m - r) phi(r) + r conj(phi(m - r)), and the law is
    Re FFT(c) / m^2.  phi comes from :func:`characteristic_function`'s
    binned Taylor-FFT, so the whole law costs O(N + m log m) for N levels,
    with no level-by-register array.  Levels within ``SPIKE_TOL`` of the
    grid bypass the transform and are added as exact Kronecker spikes.
    """
    m = register_size(k)
    near, offset = _split_register(energies, m)
    weights = np.asarray(weights, dtype=float)
    spike = np.abs(offset) < SPIKE_TOL
    law = np.bincount(near[spike] & (m - 1), weights=weights[spike],
                      minlength=m).astype(float)
    if spike.all():
        return law
    phi = characteristic_function(np.asarray(energies)[~spike],
                                  weights[~spike], m)
    r = np.arange(m)
    folded = (m - r) * phi
    folded[1:] += r[1:] * np.conj(phi[:0:-1])
    law += np.fft.fft(folded).real / m ** 2
    return law


def coarse_qpe_sample(measure, k, shots, seed):
    """Sample shifted k-digit phase-estimation energies from a measure.

    Per shot: a constant c uniform in [0, 2^-k) shifts every level, a level
    is drawn by its weight, the integer outcome x by the QPE kernel at the
    shifted energy, and 2^-k x - c is recorded.  One stream,
    ``np.random.default_rng(seed)``, serves the whole run: shot i takes its
    doubles 3i .. 3i + 2 (c, level, outcome), so the first S shots of a
    longer run are the S shots of a shorter one.
    """
    m = register_size(k)
    probs = measure.probs
    probs = probs / probs.sum()
    if np.any(probs < 0):
        raise ValueError("cannot sample a measure with negative weights")
    # uniform(0, 1/m) is the first double times 1/m
    draws = np.random.default_rng(seed).random((shots, 3))
    shift = draws[:, 0] * (1.0 / m)
    u = draws[:, 2]
    # Inverse CDF as Generator.choice(p=...) takes it: cumulative sum,
    # scaled by its last entry, then the count of entries <= u.
    level_cdf = np.cumsum(probs)
    level_cdf /= level_cdf[-1]
    picks = np.searchsorted(level_cdf, draws[:, 1], side="right")
    energies = measure.energies[picks] + shift
    near, offset = _split_register(energies, m)
    # The outcome is the first x whose kernel mass over [0, x] exceeds u.
    # That CDF is not rescaled by its computed total (1 up to rounding),
    # which can move a pick only where u lies within rounding of a step.
    # Most shots find x among the _EDGE register values either side of the
    # peak, which start at the mass below them.
    peak = near & (m - 1)
    first = np.maximum(peak - _EDGE, 0)
    stop = np.minimum(peak + _EDGE + 1, m)
    below = _window_mass(energies, k, 0, first)
    tables = _half_turn_tables(m)
    width = min(2 * _EDGE + 1, m)
    outcomes = np.empty(shots, dtype=np.int64)
    rows = _BLOCK // width
    for r0 in range(0, shots, rows):
        sl = slice(r0, r0 + rows)
        bins = first[sl, None] + np.arange(width)
        row = _kernel(near[sl, None] - bins, offset[sl], m, tables)
        row[bins >= stop[sl, None]] = 0.0
        cdf = below[sl, None] + np.cumsum(row, axis=1)
        outcomes[sl] = first[sl] + np.count_nonzero(cdf <= u[sl, None],
                                                    axis=1)
    # The rest bisect on the mass below, inside [0, first) or [stop, m).
    low = u < below
    high = (outcomes >= stop) & (stop < m)
    rare = np.flatnonzero(low | high)
    lo = np.where(low[rare], 0, stop[rare])
    hi = np.where(low[rare], first[rare] - 1, m - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        past = _window_mass(energies[rare], k, 0, mid + 1) > u[rare]
        hi = np.where(past, mid, hi)
        lo = np.where(past, lo, np.minimum(mid + 1, hi))
    outcomes[rare] = lo
    # a u past the rounded total mass takes the last register value
    return np.minimum(outcomes, m - 1) / m - shift


# Gaussian terms farther than this many bandwidths from a grid point are
# exactly 0.0: exp(-z^2 / 2) underflows below 5e-324 once z exceeds
# sqrt(-2 ln 5e-324) = 38.6.
_KDE_REACH = 40.0
# Grid points per block of kde: a narrow block keeps its run of samples
# close to the 2 x _KDE_REACH bandwidths that any one point needs.
_KDE_ROWS = 8


def kde(samples, grid, bandwidth=None):
    """Gaussian kernel density estimate (1/Mh) sum_i K((x - X_i)/h).

    Default bandwidth is M^{-1/5} times the sample standard deviation (use
    2^-k for coarse phase-estimation samples).  Samples and bandwidth must
    be finite.  The samples are sorted once; each block of ``_KDE_ROWS``
    grid points sums only the contiguous run of samples within
    ``_KDE_REACH`` bandwidths of it, since every term farther out is
    exactly 0.0, in chunks of at most ``_BLOCK`` terms.  So the result is
    the full sum up to summation order, at no more work.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if bandwidth is None:
        spread = float(np.std(samples))
        if spread == 0.0:
            raise ValueError("degenerate samples: pass a bandwidth")
        bandwidth = spread * samples.size ** (-1 / 5)
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError("bandwidth must be positive and finite")
    grid = np.asarray(grid, dtype=float)
    norm = samples.size * bandwidth * np.sqrt(2 * np.pi)
    samples = np.sort(samples.ravel())
    reach = _KDE_REACH * bandwidth
    out = np.zeros(grid.shape)
    for g0 in range(0, grid.size, _KDE_ROWS):
        block = grid[g0:g0 + _KDE_ROWS]
        lo = np.searchsorted(samples, block.min() - reach)
        hi = np.searchsorted(samples, block.max() + reach, side="right")
        cols = _BLOCK // block.size
        for c0 in range(lo, hi, cols):
            z = (block[:, None] - samples[None, c0:min(c0 + cols, hi)]) \
                / bandwidth
            out[g0:g0 + _KDE_ROWS] += np.exp(-0.5 * z ** 2).sum(axis=1)
    return grid, out / norm
