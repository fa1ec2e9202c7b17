"""Exact simulation of the two state-preparation circuits.

Two independent preparation strategies are verified here at the statevector
level:

* the determinant-superposition encoder: amplitudes are loaded on an
  enumeration register, determinants written into the system register, a
  short signature computed into an identification register through CNOTs
  (one per set bit of the compressed map from :mod:`qprep.gf2`), and both
  ancilla registers uncomputed again, the enumeration register conditioned
  on each determinant's signature;
* the sequential matrix-product-state circuit: one gate per site, acting
  on the site and a shared bond ancilla register.  The site tensor fills
  the gate's fixed columns; since the circuit only ever feeds those
  columns, the gate is applied either as that isometry or as a product of
  Householder reflections built from it, and never completed to a full
  unitary.

Lookup operations are simulated as exact classical-data-controlled
permutations (their gate cost lives in :mod:`qprep.resources`); every other
step is applied gate by gate.  Register layout for the encoder: system
qubits are the low bits (qubit ``s`` holds spin orbital ``s``), then the
enumeration register, then the identification register.
"""

from dataclasses import dataclass

import numpy as np

from . import gf2
from .states import LEFT_ORTHO_TOL, _left_ortho_residual, mps_to_statevector

MAX_SYSTEM_QUBITS = 12
MAX_DETERMINANTS = 64
MAX_CIRCUIT_DIM = 2 ** 20


class BudgetExceeded(ValueError):
    """The requested simulation is larger than the configured desk scale."""


class NotLeftCanonical(ValueError):
    """The MPS circuit constructions need a normalized left-canonical MPS."""


# ---------------------------------------------------------------------------
# Determinant-superposition encoder
# ---------------------------------------------------------------------------

def plan_encoding(state):
    """Compress the determinant list of ``state`` and lay out its CNOTs.

    Returns ``(smap, layers)``: the :class:`qprep.gf2.SignatureMap` and, for
    each identification qubit ``k``, the selected system qubits whose CNOTs
    onto it compute signature bit ``k`` (one per set bit of the k-th
    mapping vector).
    """
    smap = gf2.compress([occ for _, occ in state.terms])
    layers = [[smap.selected_rows[j] for j, bit in enumerate(u) if bit == "1"]
              for u in smap.u_vectors]
    return smap, layers


@dataclass
class EncodingResult:
    """Final state of the simulated encoder plus bookkeeping.

    ``state`` maps basis keys (ints over all registers) to amplitudes.
    ``fidelity`` is the squared overlap of the ancilla-zero block with the
    target superposition; ``ancilla_residual`` is the total probability left
    outside that block.
    """

    state: dict
    n_system: int
    n_enumeration: int
    n_identification: int
    fidelity: float
    ancilla_residual: float
    n_cnots_applied: int
    n_uncompute_ops: int

    @property
    def n_qubits(self):
        return self.n_system + self.n_enumeration + self.n_identification


def occupation_key(occ):
    """Basis key of an occupation string (system qubit s <-> character s)."""
    return int(occ[::-1], 2)


def simulate_sos_encoding(state):
    """Run the six-step encoder on ``state`` and check it against the target.

    All steps after the initial amplitude load are basis permutations, so the
    sparse state never grows beyond one entry per determinant.
    """
    n_sys = state.n_spin_orbitals
    n_det = len(state.terms)
    if n_det == 0:
        raise ValueError("nothing to encode")
    if n_sys > MAX_SYSTEM_QUBITS or n_det > MAX_DETERMINANTS:
        raise BudgetExceeded(
            f"{n_sys} system qubits / {n_det} determinants exceed the "
            f"simulation budget ({MAX_SYSTEM_QUBITS} / {MAX_DETERMINANTS})")
    smap, layers = plan_encoding(state)
    n_enum = (n_det - 1).bit_length()
    n_id = smap.signature_bits
    enum_mask = ((1 << n_enum) - 1) << n_sys

    # step 1: amplitudes against the enumeration register
    vec = {(i << n_sys): amp for i, (amp, _) in enumerate(state.terms)}

    # step 2: write determinant i into the system register
    dets = [occupation_key(occ) for _, occ in state.terms]
    vec = {key ^ dets[(key & enum_mask) >> n_sys]: amp
           for key, amp in vec.items()}

    def cnot_pass(vec):
        for id_q, layer in enumerate(layers):
            target = 1 << (n_sys + n_enum + id_q)
            for sys_q in layer:
                vec = {key ^ (target if (key >> sys_q) & 1 else 0): amp
                       for key, amp in vec.items()}
        return vec

    # steps 3-4: signature into the identification register
    vec = cnot_pass(vec)

    # step 5: clear the enumeration register, conditioned on each signature
    for i, pattern in enumerate(smap.signatures):
        sig_key = int(pattern[::-1], 2) if pattern else 0
        flip = i << n_sys
        vec = {key ^ (flip if key >> (n_sys + n_enum) == sig_key else 0): amp
               for key, amp in vec.items()}

    # step 6: uncompute the signature register
    vec = cnot_pass(vec)

    target = {occupation_key(occ): amp for amp, occ in state.terms}
    sys_norm2 = sum(abs(a) ** 2 for a in target.values())
    overlap = 0j
    residual = 0.0
    total = 0.0
    for key, amp in vec.items():
        total += abs(amp) ** 2
        if key >> n_sys:
            residual += abs(amp) ** 2
        elif key in target:
            overlap += np.conj(target[key]) * amp
    fidelity = abs(overlap) ** 2 / (sys_norm2 * total) if total else 0.0
    return EncodingResult(vec, n_sys, n_enum, n_id, float(fidelity),
                          float(residual), 2 * sum(map(len, layers)), n_det)


# ---------------------------------------------------------------------------
# Sequential MPS circuit
# ---------------------------------------------------------------------------

def _bond_qubits(state):
    return max((chi - 1).bit_length() for chi in state.bond_dims)


def _require_prepared(state):
    if state.canonical_form != "left":
        raise NotLeftCanonical("bring the MPS to left-canonical form first")
    if _left_ortho_residual(state.tensors[0]) > LEFT_ORTHO_TOL:
        raise NotLeftCanonical("the MPS must be normalized (the first site "
                               "tensor carries the norm)")


def _embedded_columns(tensor, aux_dim):
    """The isometry of a site, as the fixed columns of its unitary ``G``:
    column ``alpha`` (for input ``|alpha, 0>``) holds the site tensor slice
    ``A[alpha]`` as a vector over outputs ``|alpha_out, n> = alpha_out * d +
    n``, zero-padded to the shared bond register of ``aux_dim`` values."""
    chi_l, d, chi_r = tensor.shape
    cols = np.zeros((aux_dim * d, chi_l), dtype=complex)
    cols[:chi_r * d] = tensor.transpose(2, 1, 0).reshape(chi_r * d, chi_l)
    return cols


def householder_vectors(tensor, aux_dim):
    """The unit mirror vectors of a site's reflections, one row per input
    bond value ``alpha``: ``|w> = (|1>|alpha,0> - |0>|u_alpha>)/sqrt(2)`` on
    the site space extended by one flag qubit (most significant), where
    ``u_alpha`` is column ``alpha`` of :func:`_embedded_columns`."""
    cols = _embedded_columns(tensor, aux_dim)
    dim, chi_l = cols.shape
    d = tensor.shape[1]
    ws = np.zeros((chi_l, 2 * dim), dtype=complex)
    ws[:, :dim] = -cols.T / np.sqrt(2)
    ws[np.arange(chi_l), dim + d * np.arange(chi_l)] = 1.0 / np.sqrt(2)
    return ws


def householder_decompose(tensor, aux_dim):
    """Reflections whose product acts as the flag-doubled site unitary.

    Returns one dense reflection ``1 - 2|w><w|`` per row of
    :func:`householder_vectors`.  On the span of the ``|1,alpha,0>`` and
    ``|0,u_alpha>`` — the only subspace the sequential circuit ever occupies
    — the product equals ``|0><1| x G + |1><0| x G^dagger`` for any
    completion ``G`` of the site tensor; elsewhere the reflections act as
    the identity.
    """
    ws = householder_vectors(tensor, aux_dim)
    eye = np.eye(ws.shape[1])
    return [eye - 2.0 * np.outer(w, np.conj(w)) for w in ws]


@dataclass
class MpsCircuitResult:
    statevector: np.ndarray  # shape (ancilla head, d, d, ..., d)
    fidelity: float
    ancilla_residual: float
    n_gates: int


def _flip_flag(psi, aux_dim):
    """X on the flag qubit (the most significant head bit), in place."""
    low = psi[:aux_dim].copy()
    psi[:aux_dim] = psi[aux_dim:]
    psi[aux_dim:] = low


def _reflect(view, w):
    """Apply ``1 - 2|w><w|`` in place as the rank-one update
    ``psi -= 2 w (w^dagger psi)``.

    ``view`` is the statevector shaped (head, left sites, site j, right
    sites) and ``w`` is shaped (head, d); head rows where ``w`` vanishes are
    left untouched.
    """
    rows = np.flatnonzero(w.any(axis=1))
    overlap = sum(w[h].conj() @ view[h] for h in rows)
    for h in rows:
        view[h] -= (2.0 * w[h])[:, None] * overlap[:, None, :]


def simulate_mps_circuit(state, use_householder=False):
    """Apply the site gates in sequence to |0...0> and compare with the
    MPS statevector.

    Site ``j`` meets the register only on inputs ``|alpha, 0>`` (bond value
    ``alpha``, site ``j`` still empty), so the plain path applies just the
    site isometry, :func:`_embedded_columns`, to that slice: one gate per
    site.  With ``use_householder`` every site gate is replaced by its
    reflection product on a flag-extended ancilla; an X gate on the flag
    ahead of each site steers the reflections onto their ``|1, alpha, 0>``
    input block, and the flag returns to |0> at the end.  Each reflection is
    applied as a rank-one update built from the site tensor.  Neither path
    completes the site unitaries.
    """
    _require_prepared(state)
    d, n = state.local_dim, state.n_sites
    aux_dim = 2 ** _bond_qubits(state)
    head = (2 if use_householder else 1) * aux_dim
    if head * d ** n > MAX_CIRCUIT_DIM:
        raise BudgetExceeded("statevector too large for the circuit simulator")
    psi = np.zeros((head,) + (d,) * n, dtype=complex)
    psi[(0,) * (n + 1)] = 1.0
    n_gates = 0
    if use_householder:
        for j, tensor in enumerate(state.tensors):
            _flip_flag(psi, aux_dim)
            n_gates += 1
            view = psi.reshape(head, d ** j, d, -1)
            for w in householder_vectors(tensor, aux_dim):
                _reflect(view, w.reshape(head, d))
                n_gates += 1
    else:   # only tests reach it; kept while the bench passes the flag
        for j, tensor in enumerate(state.tensors):
            cols = _embedded_columns(tensor, aux_dim).reshape(aux_dim, d, -1)
            inputs = np.take(psi[:tensor.shape[0]], 0, axis=j + 1)
            out = np.tensordot(cols, inputs, axes=(2, 0))
            psi = np.moveaxis(out, 1, j + 1)
            n_gates += 1
    target = mps_to_statevector(state)
    block = psi.reshape(head, -1)
    overlap = np.vdot(target, block[0])
    residual = float(np.vdot(block[1:], block[1:]).real)
    fidelity = float(abs(overlap) ** 2
                     / (np.vdot(target, target).real
                        * np.vdot(psi, psi).real))
    return MpsCircuitResult(psi, fidelity, residual, n_gates)
