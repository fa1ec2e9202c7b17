"""Outcome statistics for coarse phase estimation runs.

A k-digit phase readout of an input state maps its spectral measure onto a
discrete distribution over the 2^k register values x, where each level E_n
contributes through the periodic sinc-squared kernel centred on 2^k E_n.
This module builds that outcome law, evaluates cumulative probabilities on
either side of a target energy, analyses the minimum of K independent
outcomes (the quantity a repeat-until-lucky strategy actually reports), and
condenses the "is this state worth refining" question into a small triage
report.

The outcome law itself is :func:`qprep.spectra.outcome_law`: the
characteristic function of the measure at 0 <= l < 2^k (a binned Taylor
expansion, one real FFT per term), folded and transformed by one FFT, with
on-grid levels added as exact spikes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectra import as_measure, outcome_law

PROB_SUM_TOL = 1e-10
EASY_THRESHOLD = 0.5


@dataclass(frozen=True)
class OutcomeDistribution:
    """Distribution of a k-digit readout over register values 0 .. 2^k - 1."""

    k: int
    probs: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one readout digit")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (2 ** self.k,):
            raise ValueError("expected %d outcome probabilities, got %r"
                             % (2 ** self.k, probs.shape))
        if np.any(probs < -PROB_SUM_TOL):
            raise ValueError("negative outcome probability")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError("outcome probabilities sum to %.3e, not 1"
                             % probs.sum())
        object.__setattr__(self, "probs", probs)

    @property
    def energies(self):
        """Energy value x / 2^k read off for each register outcome x."""
        return np.arange(2 ** self.k) / 2 ** self.k

    def cdf_below(self, energy):
        """Probability that the readout energy is <= ``energy``."""
        return float(self.probs[self.energies <= energy].sum())


def qpe_outcome_distribution(m, k):
    """Exact k-digit outcome law of a measure.

    Each level is spread over the register by the periodic readout kernel;
    a level sitting exactly on the grid contributes a single delta.
    """
    measure = as_measure(m)
    return OutcomeDistribution(k, outcome_law(measure.energies,
                                              measure.probs, k))


def cdf_below(m, energy):
    """Total weight of the measure at energies <= ``energy``."""
    measure = as_measure(m)
    return float(measure.probs[measure.energies <= energy].sum())


def expected_min(m, n_reps):
    """Mean of the minimum of ``n_reps`` independent draws from a measure."""
    if n_reps < 1:
        raise ValueError("need at least one repetition")
    measure = as_measure(m)
    tail = np.cumsum(measure.probs[::-1])[::-1]
    tail = np.minimum(tail, 1.0)
    hit = tail ** n_reps - np.append(tail[1:], 0.0) ** n_reps
    return float(measure.energies @ hit)


@dataclass(frozen=True)
class GoldilocksReport:
    """Triage verdict on whether coarse phase estimation can beat a target.

    ``label`` is "Easy" when a single outcome already lands below the target
    more often than ``easy_threshold``, "Goldilocks" when the expected number
    of repetitions fits the stated budget, and "Hard" otherwise (including
    the zero-weight case, where no number of repetitions helps).
    """

    target_energy: float
    budget: int
    easy_threshold: float
    p_below_target: float
    required_reps: int | None
    label: str

    def as_dict(self):
        return {
            "target_energy": self.target_energy,
            "budget": self.budget,
            "easy_threshold": self.easy_threshold,
            "p_below_target": self.p_below_target,
            "required_reps": self.required_reps,
            "class": self.label,
        }


def goldilocks_report(m, target_energy, budget, easy_threshold=EASY_THRESHOLD):
    """Classify a state by the weight it places below a known target energy.

    ``budget`` is the number of coarse-QPE repetitions one is willing to
    spend; the expected repetitions to see one outcome below the target is
    ceil(1/p).
    """
    if budget < 1:
        raise ValueError("repetition budget must be positive")
    if not 0.0 < easy_threshold <= 1.0:
        raise ValueError("easy_threshold must lie in (0, 1]")
    p = cdf_below(m, target_energy)
    required = math.ceil(1.0 / p) if p > 0.0 else None
    if p > easy_threshold:
        label = "Easy"
    elif required is not None and required <= budget:
        label = "Goldilocks"
    else:
        label = "Hard"
    return GoldilocksReport(target_energy=float(target_energy),
                            budget=int(budget),
                            easy_threshold=float(easy_threshold),
                            p_below_target=p,
                            required_reps=required,
                            label=label)
