import tracemalloc

import numpy as np
import pytest

from qprep import encodesim, gf2
from qprep.encodesim import (BudgetExceeded, NotLeftCanonical,
                             householder_decompose, occupation_key,
                             plan_encoding, simulate_mps_circuit,
                             simulate_sos_encoding)
from qprep.states import (MpsState, SosState, left_canonicalize,
                          mps_to_statevector, occupation_from_spatial,
                          overlap, sos_to_mps)

import oracles


def random_sos(rng, n_spin_orbitals, n_terms):
    occs = set()
    while len(occs) < n_terms:
        occs.add("".join(rng.choice(["0", "1"], size=n_spin_orbitals)))
    amps = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    amps /= np.linalg.norm(amps)
    return SosState(n_spin_orbitals, list(zip(amps, sorted(occs))),
                    normalized=True)


def h6_sos():
    c = np.sqrt(0.86 ** 2 + 2 * 0.36 ** 2)
    return SosState(12, [
        (0.86 / c, occupation_from_spatial("222000")),
        (-0.36 / c, occupation_from_spatial("b2aa0b")),
        (-0.36 / c, occupation_from_spatial("a2bb0a")),
    ], normalized=True)


def n_cnots(layers):
    """CNOT count of one signature-computation pass."""
    return sum(len(layer) for layer in layers)


def site_column(tensor, alpha, dim):
    """``u_alpha``: the site tensor slice ``A[alpha]`` over outputs
    ``|alpha_out, n> = alpha_out * d + n``, zero-padded to ``dim``."""
    u = np.zeros(dim, dtype=complex)
    u[:tensor.shape[2] * tensor.shape[1]] = tensor[alpha].T.reshape(-1)
    return u


def normalized_canonical(rng, chis, d=4):
    """Random MPS brought to left-canonical form and unit norm."""
    dims = [1] + list(chis) + [1]
    tensors = []
    for j in range(len(dims) - 1):
        shape = (dims[j], d, dims[j + 1])
        tensors.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    state = left_canonicalize(MpsState(tensors))
    t0 = state.tensors[0] / state.norm()
    return MpsState([t0] + list(state.tensors[1:]), state.local_dim,
                    canonical_form="left")


# ---------------------------------------------------------------------------
# Encoder plans
# ---------------------------------------------------------------------------

def test_plan_structure():
    occs = ["0110", "1010", "1100", "0001"]
    state = SosState(4, [(0.5, occ) for occ in occs])
    smap, layers = plan_encoding(state)
    assert layers == [[0], [1], [3]]
    assert smap.signatures == ["010", "100", "110", "001"]
    assert n_cnots(layers) == 3
    assert n_cnots(layers) == sum(u.count("1") for u in smap.u_vectors)
    assert set(sum(layers, [])) <= set(smap.selected_rows)
    assert smap == gf2.compress(occs)


def test_plan_single_determinant():
    smap, layers = plan_encoding(SosState(4, [(1.0, "0101")]))
    assert layers == []
    assert smap.signature_bits == 0
    assert smap.signatures == [""]


# ---------------------------------------------------------------------------
# Encoder simulation
# ---------------------------------------------------------------------------

def test_encode_single_determinant():
    res = simulate_sos_encoding(SosState(4, [(1.0, "0101")]))
    assert res.n_enumeration == 0
    assert res.n_identification == 0
    assert res.n_qubits == 4
    assert res.state == {occupation_key("0101"): 1.0}
    assert res.fidelity == 1.0
    assert res.ancilla_residual == 0.0


def test_encode_pair_hand_worked():
    # |01> lives at key 2 (qubit s <-> character s), |10> at key 1
    state = SosState(2, [(0.8, "01"), (0.6, "10")], normalized=True)
    _, layers = plan_encoding(state)
    res = simulate_sos_encoding(state)
    assert res.state == {2: 0.8, 1: 0.6}
    assert res.fidelity == 1.0
    assert res.ancilla_residual == 0.0
    assert res.n_cnots_applied == 2 * n_cnots(layers)


def test_encode_three_determinant_registers():
    res = simulate_sos_encoding(h6_sos())
    assert res.n_system == 12
    assert res.n_enumeration == 2
    assert res.n_identification == 3
    assert res.n_qubits == 17
    assert res.fidelity >= 1 - 1e-10
    assert res.ancilla_residual < 1e-20
    assert res.n_uncompute_ops == 3


def test_encode_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n_sys = int(rng.integers(2, 9))
        n_det = int(rng.integers(1, min(8, 2 ** n_sys) + 1))
        state = random_sos(rng, n_sys, n_det)
        res = simulate_sos_encoding(state)
        vec = np.zeros(2 ** res.n_qubits, dtype=complex)
        for key, amp in res.state.items():
            vec[key] = amp
        smap = gf2.compress([occ for _, occ in state.terms])
        ref = oracles.dense_sos_encoding(state.terms, smap)
        assert np.max(np.abs(vec - ref)) < 1e-13
        assert res.fidelity > 1 - 1e-12
        assert res.ancilla_residual == 0.0
        assert len(res.state) == n_det


def test_encode_measurement_distribution():
    rng = np.random.default_rng(3)
    state = random_sos(rng, 6, 5)
    res = simulate_sos_encoding(state)
    mask = (1 << res.n_system) - 1
    probs = {}
    for key, amp in res.state.items():
        probs[key & mask] = probs.get(key & mask, 0.0) + abs(amp) ** 2
    for amp, occ in state.terms:
        assert probs[occupation_key(occ)] == pytest.approx(abs(amp) ** 2)
    assert sum(probs.values()) == pytest.approx(1.0)


def test_encode_gate_counts():
    rng = np.random.default_rng(5)
    state = random_sos(rng, 7, 6)
    _, layers = plan_encoding(state)
    res = simulate_sos_encoding(state)
    assert res.n_cnots_applied == 2 * n_cnots(layers)
    assert res.n_uncompute_ops == 6


def test_encode_budget_limits():
    with pytest.raises(BudgetExceeded):
        simulate_sos_encoding(SosState(14, [(1.0, "0" * 13 + "1")]))
    rng = np.random.default_rng(9)
    with pytest.raises(BudgetExceeded):
        simulate_sos_encoding(random_sos(rng, 7, 65))
    with pytest.raises(ValueError):
        simulate_sos_encoding(SosState(4, []))


# ---------------------------------------------------------------------------
# Site isometries
# ---------------------------------------------------------------------------

def test_embedded_columns_orthonormal_and_padded():
    rng = np.random.default_rng(21)
    state = normalized_canonical(rng, [3, 4, 2])
    aux_dim = 4
    d = state.local_dim
    for tensor in state.tensors:
        cols = encodesim._embedded_columns(tensor, aux_dim)
        chi_l, _, chi_r = tensor.shape
        assert cols.shape == (aux_dim * d, chi_l)
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(chi_l))) < 1e-10
        assert np.all(cols[chi_r * d:] == 0)
        for alpha in range(chi_l):
            assert np.array_equal(cols[:, alpha],
                                  site_column(tensor, alpha, aux_dim * d))


def test_g_chi_one_first_column():
    rng = np.random.default_rng(2)
    state = normalized_canonical(rng, [1, 1], d=4)
    for tensor in state.tensors:
        cols = encodesim._embedded_columns(tensor, 1)
        assert cols.shape == (4, 1)
        assert np.allclose(cols[:, 0], tensor[0, :, 0])


def test_g_requires_canonical_and_normalized():
    rng = np.random.default_rng(13)
    dims = [1, 3, 1]
    tensors = [rng.normal(size=(dims[j], 4, dims[j + 1]))
               for j in range(len(dims) - 1)]
    loose = MpsState(tensors)
    state = normalized_canonical(rng, [3])
    scaled = MpsState([2.0 * state.tensors[0]] + list(state.tensors[1:]),
                      state.local_dim, canonical_form="left")
    for bad in (loose, scaled):
        for use_householder in (False, True):
            with pytest.raises(NotLeftCanonical):
                simulate_mps_circuit(bad, use_householder=use_householder)


# ---------------------------------------------------------------------------
# Householder reflections
# ---------------------------------------------------------------------------

def test_householder_reflection_properties():
    rng = np.random.default_rng(17)
    state = normalized_canonical(rng, [2, 3])
    tensor = state.tensors[1]
    d = state.local_dim
    dim = 4 * d  # bond register of ceil(log2 3) = 2 qubits
    refls = householder_decompose(tensor, dim // d)
    assert len(refls) == tensor.shape[0]
    for alpha, r in enumerate(refls):
        assert np.max(np.abs(r - r.conj().T)) < 1e-12
        assert np.max(np.abs(r.conj().T @ r - np.eye(2 * dim))) < 1e-12
        w = np.zeros(2 * dim, dtype=complex)
        w[dim + alpha * d] = 1 / np.sqrt(2)
        w[:dim] = -site_column(tensor, alpha, dim) / np.sqrt(2)
        assert np.max(np.abs(r @ w + w)) < 1e-12
        # identity away from the reflection's two-dimensional support
        bystander = np.zeros(2 * dim)
        bystander[dim + alpha * d + 1] = 1.0
        assert np.allclose(r @ bystander, bystander)
    # mutually orthogonal mirrors commute
    assert np.max(np.abs(refls[0] @ refls[1] - refls[1] @ refls[0])) < 1e-12


def test_householder_product_swaps_designated_columns():
    rng = np.random.default_rng(19)
    state = normalized_canonical(rng, [3, 4, 2])
    d = state.local_dim
    dim = 4 * d  # bond register of ceil(log2 4) = 2 qubits
    for tensor in state.tensors:
        prod = np.eye(2 * dim)
        for r in householder_decompose(tensor, dim // d):
            prod = r @ prod
        for alpha in range(tensor.shape[0]):
            # G: |1, alpha, 0> -> [u_alpha; 0]
            flagged = np.zeros(2 * dim)
            flagged[dim + alpha * d] = 1.0
            image = np.zeros(2 * dim, dtype=complex)
            image[:dim] = site_column(tensor, alpha, dim)
            assert np.max(np.abs(prod @ flagged - image)) < 1e-12
            # G^dagger: [u_alpha; 0] -> |1, alpha, 0>
            assert np.max(np.abs(prod @ image - flagged)) < 1e-12


# ---------------------------------------------------------------------------
# Sequential circuit simulation
# ---------------------------------------------------------------------------

def test_mps_circuit_product_state():
    rng = np.random.default_rng(23)
    state = normalized_canonical(rng, [1, 1], d=4)
    plain = simulate_mps_circuit(state)
    assert plain.fidelity == pytest.approx(1.0, abs=1e-12)
    assert plain.ancilla_residual == 0.0
    assert plain.n_gates == 3
    refl = simulate_mps_circuit(state, use_householder=True)
    assert refl.fidelity == pytest.approx(1.0, abs=1e-12)
    assert refl.ancilla_residual < 1e-20
    assert refl.n_gates == 6
    target = mps_to_statevector(state)
    got = plain.statevector.reshape(-1)
    assert abs(abs(np.vdot(target, got)) - 1.0) < 1e-12


def test_mps_circuit_random():
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        chis = [int(rng.integers(1, 5)) for _ in range(n - 1)]
        state = normalized_canonical(rng, chis)
        plain = simulate_mps_circuit(state)
        assert plain.fidelity >= 1 - 1e-10
        assert plain.ancilla_residual < 1e-20
        assert plain.n_gates == n
        refl = simulate_mps_circuit(state, use_householder=True)
        assert refl.fidelity >= 1 - 1e-10
        assert refl.ancilla_residual < 1e-20
        assert refl.n_gates == sum(1 + t.shape[0] for t in state.tensors)


def _assert_matches_dense_reflections(state):
    res = simulate_mps_circuit(state, use_householder=True)
    psi, n_gates = oracles.mps_circuit_dense_reflections(state)
    assert res.n_gates == n_gates
    assert np.max(np.abs(res.statevector - psi)) < 1e-12


def test_rank_one_reflections_match_dense_gates():
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        chis = [int(rng.integers(1, 5)) for _ in range(n - 1)]
        _assert_matches_dense_reflections(normalized_canonical(rng, chis))
    _assert_matches_dense_reflections(
        normalized_canonical(rng, [4, 16, 16, 16, 4]))


def test_householder_circuit_at_chi_64_fidelity_and_memory():
    sos = random_sos(np.random.default_rng(41), 12, 64)
    mps, fid = sos_to_mps(sos, chi_max=64)
    assert fid >= 1 - 1e-10
    state = MpsState([mps.tensors[0] / mps.norm()] + list(mps.tensors[1:]),
                     mps.local_dim, canonical_form="left")
    assert max(state.bond_dims) == 64
    tracemalloc.start()
    try:
        res = simulate_mps_circuit(state, use_householder=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.fidelity >= 1 - 1e-10
    assert res.ancilla_residual < 1e-20
    assert res.n_gates == sum(1 + t.shape[0] for t in state.tensors)
    assert peak <= 6 * res.statevector.nbytes


def test_mps_circuit_from_compressed_superposition():
    mps, fid = sos_to_mps(h6_sos(), chi_max=4)
    assert fid >= 1 - 1e-10
    for use_householder in (False, True):
        res = simulate_mps_circuit(mps, use_householder=use_householder)
        assert res.fidelity >= 1 - 1e-10
        assert res.ancilla_residual < 1e-8


def test_mps_circuit_budget():
    rng = np.random.default_rng(31)
    state = normalized_canonical(rng, [2] * 9, d=4)
    with pytest.raises(BudgetExceeded):
        simulate_mps_circuit(state, use_householder=True)
