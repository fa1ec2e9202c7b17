"""Closed-form Toffoli and qubit cost estimates for state encodings.

All formulas are exact integer arithmetic; square roots and logs are
ceiled termwise (a conservative upper bound).  Every ceil(log2 n) is
``(n - 1).bit_length()`` and every ceil(a * sqrt n) is
``isqrt(a^2 * n - 1) + 1``, so the counts stay exact for any D.
``n_spatial`` counts spatial
orbitals throughout, so the system register holds ``2 * n_spatial``
spin-orbital qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ResourceReport",
    "sos_cost_basic",
    "sos_cost_tradeoff",
    "sos_cost_prior",
    "mps_cost",
    "cost_sweep",
]

DEFAULT_ROTATION_BITS = 10


@dataclass
class ResourceReport:
    """Gate/qubit counts for one method; all fields nonnegative integers."""

    toffoli: int
    clean_qubits: int
    dirty_qubits: int
    method: str

    def __post_init__(self):
        for name in ("toffoli", "clean_qubits", "dirty_qubits"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError("%s must be a nonnegative integer, got %r"
                                 % (name, v))


def _sqrt_ceil(x):
    """ceil(sqrt(x)) of a positive integer, exactly."""
    return math.isqrt(x - 1) + 1


def _check_args(n_spatial, n_det):
    if n_spatial < 1:
        raise ValueError("need at least one spatial orbital")
    if n_det < 1:
        raise ValueError("need at least one determinant")


def sos_cost_basic(n_spatial, n_det):
    """Cost of the signature-compressed sum-of-Slater encoding.

    Toffoli count (2*ceil(log2 D) + 3) * D with 5*ceil(log2 D) - 3 ancilla
    qubits on top of the 2N-qubit system register.  A single determinant is
    a basis state and costs nothing.
    """
    _check_args(n_spatial, n_det)
    system = 2 * n_spatial
    if n_det == 1:
        return ResourceReport(0, system, 0, "sos_basic")
    L = (n_det - 1).bit_length()
    toffoli = (2 * L + 3) * n_det
    ancilla = 5 * L - 3
    return ResourceReport(toffoli, system + ancilla, 0, "sos_basic")


def sos_cost_tradeoff(n_spatial, n_det):
    """Qubit-for-Toffoli trade-off variant of the sum-of-Slater encoding.

    Toffoli count min(2*sqrt(32*N*D), D) + (7*log2 D + 2*sqrt(32*log2 D)) *
    sqrt(D); (2*log2 D - 1)*sqrt(D) clean ancillas plus sqrt(32*N*D) dirty
    qubits.  When the min picks D, the QROM runs without the dirty block
    and the dirty cost is dropped.
    """
    _check_args(n_spatial, n_det)
    system = 2 * n_spatial
    if n_det == 1:
        return ResourceReport(0, system, 0, "sos_tradeoff")
    L = (n_det - 1).bit_length()
    # a * sqrt(x) = sqrt(a^2 * x), so each term is ceil(sqrt) of an integer
    swap_term = _sqrt_ceil(128 * n_spatial * n_det)
    dirty = _sqrt_ceil(32 * n_spatial * n_det)
    if n_det <= swap_term:
        swap_term = n_det
        dirty = 0
    toffoli = (swap_term + _sqrt_ceil(49 * L * L * n_det)
               + _sqrt_ceil(128 * L * n_det))
    ancilla = _sqrt_ceil((2 * L - 1) ** 2 * n_det)
    return ResourceReport(toffoli, system + ancilla, dirty, "sos_tradeoff")


def sos_cost_prior(n_spatial, n_det):
    """Iterative prior-art encoding: (2N-1)(D-1) Toffolis, 2N-1 ancillas."""
    _check_args(n_spatial, n_det)
    system = 2 * n_spatial
    if n_det == 1:
        return ResourceReport(0, system, 0, "sos_prior")
    ancilla = 2 * n_spatial - 1
    toffoli = ancilla * (n_det - 1)
    return ResourceReport(toffoli, system + ancilla, 0, "sos_prior")


def mps_cost(chis, d=4, b=DEFAULT_ROTATION_BITS, variant="select"):
    """Synthesis cost of a bond-dimension chain of site unitaries.

    Parameters
    ----------
    chis : interior bond dimensions (chi_1 .. chi_{N-1}); boundaries are 1,
        so a list of length N-1 describes an N-site chain.
    d : local (qudit) dimension per site.
    b : bits of rotation-angle precision.
    variant : "select" or "selswap_dirty".

    Per site the select variant costs
    chi_{j-1} * (8*chi_j*d + (b+1)*ceil(log2(chi_j*d))), and the dirty-qubit
    variant chi_{j-1} * (8*chi_j*d/lam + 8*lam*b*nu + b*nu + nu) with
    nu = ceil(log2(chi_j*d)) and the trade-off lam = ceil(sqrt(chi_j*d)).
    """
    if variant not in ("select", "selswap_dirty"):
        raise ValueError("unknown variant %r" % (variant,))
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    bonds = [1] + [int(c) for c in chis] + [1]
    if any(c < 1 for c in bonds):
        raise ValueError("bond dimensions must be positive")
    n_sites = len(bonds) - 1
    toffoli = 0
    dirty = 0
    nu_max = 0
    for j in range(1, n_sites + 1):
        chi_prev, chi_next = bonds[j - 1], bonds[j]
        nu = (chi_next * d - 1).bit_length()
        nu_max = max(nu_max, nu)
        if variant == "select":
            toffoli += chi_prev * (8 * chi_next * d + (b + 1) * nu)
        else:
            lam_j = _sqrt_ceil(chi_next * d)
            toffoli += chi_prev * (-(-8 * chi_next * d // lam_j)
                                   + 8 * lam_j * b * nu + b * nu + nu)
            dirty = max(dirty, lam_j * b)
    system = n_sites * (d - 1).bit_length()
    clean = system + nu_max + b
    method = "mps_select" if variant == "select" else "mps_selswap_dirty"
    return ResourceReport(toffoli, clean, dirty, method)


def cost_sweep(n_spatial, det_counts=(), chi_values=(), d=4,
               b=DEFAULT_ROTATION_BITS, n_sites=None):
    """Tabulate every method over ranges of D and/or uniform chi.

    Returns ``(param, ResourceReport)`` pairs, param being the D or chi of
    the row: the three sum-of-Slater methods for each D in ``det_counts``,
    then the two MPS variants for each chi in ``chi_values``.
    """
    rows = [(n_det, fn(n_spatial, n_det)) for n_det in det_counts
            for fn in (sos_cost_basic, sos_cost_tradeoff, sos_cost_prior)]
    sites = n_sites if n_sites is not None else n_spatial
    rows += [(chi, mps_cost([chi] * (sites - 1), d=d, b=b, variant=variant))
             for chi in chi_values for variant in ("select", "selswap_dirty")]
    return rows
