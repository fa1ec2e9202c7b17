import warnings

import numpy as np
import pytest

from qprep import states
from qprep.states import (MpsState, SosState, TermBudgetExceeded,
                          compress_mps, left_canonicalize, load_mps, load_sos,
                          mps_to_sos, mps_to_statevector,
                          occupation_from_spatial, overlap, save_mps,
                          save_sos, sos_to_mps)

import oracles
from oracles import sos_to_statevector


def random_mps(rng, chis, d=4):
    """Random MPS with the given interior bond dimensions."""
    dims = [1] + list(chis) + [1]
    tensors = []
    for j in range(len(dims) - 1):
        shape = (dims[j], d, dims[j + 1])
        tensors.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return MpsState(tensors)


def random_sos(rng, n_spin_orbitals, n_terms):
    occs = set()
    while len(occs) < n_terms:
        occs.add("".join(rng.choice(["0", "1"], size=n_spin_orbitals)))
    amps = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return SosState(n_spin_orbitals, list(zip(amps, sorted(occs)))).normalize()


def half_filled_sos(rng, n_spin_orbitals, n_terms):
    """Unnormalized half-filled determinants with complex amplitudes."""
    occs = set()
    while len(occs) < n_terms:
        occ = rng.choice(n_spin_orbitals, size=n_spin_orbitals // 2,
                         replace=False)
        occs.add("".join("1" if p in occ else "0"
                         for p in range(n_spin_orbitals)))
    amps = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return SosState(n_spin_orbitals, list(zip(amps, sorted(occs))))


def h6_like_state():
    terms = [(0.86, occupation_from_spatial("222000")),
             (-0.36, occupation_from_spatial("b2aa0b")),
             (-0.36, occupation_from_spatial("a2bb0a"))]
    return SosState(12, terms).normalize()


def normalized_fidelity(u, v):
    return abs(np.vdot(u, v)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real)


# ---------------------------------------------------------------------------
# Containers and validation
# ---------------------------------------------------------------------------

def test_sos_validation():
    with pytest.raises(ValueError):
        SosState(4, [(1.0, "010")])
    with pytest.raises(ValueError):
        SosState(4, [(1.0, "0120")])
    with pytest.raises(ValueError):
        SosState(4, [(0.5, "0101"), (0.5, "0101")])
    s = SosState(4, [(0.6, "0101"), (0.8j, "1010")])
    assert s.terms == [(0.6 + 0j, "0101"), (0.8j, "1010")]


@pytest.mark.parametrize("amp", [5e-324, 1e-300, 1e-160, 1.0, 1e160,
                                 1e300, 1.7e308])
def test_norm_and_normalize_scale_by_a_power_of_two_first(amp):
    # the squares are taken of amplitudes divided by 2^e, so they neither
    # underflow nor overflow, and the copy has unit norm
    s = SosState(4, [(amp, "1100"), (-1j * amp, "0011")])
    unit = s.normalize().terms
    assert [occ for _, occ in unit] == ["1100", "0011"]
    assert np.allclose([a for a, _ in unit], [2 ** -0.5, -1j * 2 ** -0.5],
                       rtol=1e-15, atol=0.0)
    if amp < 1e308:
        assert s.norm() == pytest.approx(2 ** 0.5 * amp, rel=1e-15)
    half = SosState(2, [(amp, "10")])
    assert half.norm() == amp
    assert half.normalize().terms == [(1.0, "10")]


def test_mps_norm_keeps_the_bits_of_the_unscaled_contraction():
    # powers of two are exact, so in the float range the scaled route
    # gives the bits of sqrt <m|m> contracted as it stands
    rng = np.random.default_rng(36)
    for trial in range(40):
        chis = rng.integers(1, 9, size=int(rng.integers(0, 5)))
        m = random_mps(rng, chis, d=int(rng.integers(2, 5)))
        m = MpsState([t * 10.0 ** rng.uniform(-30, 30) for t in m.tensors])
        assert m.norm() == float(np.sqrt(max(overlap(m, m).real, 0.0))), \
            trial


@pytest.mark.parametrize("amp", [1e200, 1e-200])
def test_mps_norm_of_extreme_entries_is_exact_and_silent(amp):
    first, second = np.zeros((1, 4, 1)), np.zeros((1, 4, 1))
    first[0, 1, 0], second[0, 2, 0] = amp, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MpsState([first, second]).norm() == amp
        assert MpsState([first * 1j, second]).norm() == amp


def test_mps_validation():
    good = [np.zeros((1, 4, 2)), np.zeros((2, 4, 1))]
    MpsState(good)
    with pytest.raises(ValueError):
        MpsState([np.zeros((1, 4, 2)), np.zeros((3, 4, 1))])
    with pytest.raises(ValueError):
        MpsState([np.zeros((2, 4, 1))])
    with pytest.raises(ValueError):
        MpsState(good, local_dim=2)
    with pytest.raises(ValueError):
        MpsState(good, canonical_form="right")
    # non-isometric tensors must be rejected when flagged canonical
    with pytest.raises(ValueError):
        MpsState(good, canonical_form="left")


def test_occupation_from_spatial():
    assert occupation_from_spatial("2a0") == "111000"
    assert occupation_from_spatial("b2aa0b") == "011110100001"
    with pytest.raises(ValueError):
        occupation_from_spatial("2x0")


# ---------------------------------------------------------------------------
# Statevector export
# ---------------------------------------------------------------------------

def test_single_determinant_statevector():
    vec = sos_to_statevector(SosState(4, [(1.0, "0110")]))
    expected = np.zeros(16)
    expected[int("0110", 2)] = 1.0
    assert np.array_equal(vec, expected)


def test_h6_statevector_entries():
    s = h6_like_state()
    vec = sos_to_statevector(s)
    hot = np.flatnonzero(np.abs(vec) > 1e-12)
    assert len(hot) == 3
    scale = 1.0 / np.sqrt(0.86**2 + 2 * 0.36**2)
    assert np.isclose(abs(vec[int("111111000000", 2)]), 0.86 * scale)
    assert np.isclose(vec[int("011110100001", 2)], -0.36 * scale)
    assert np.isclose(vec[int("101101010010", 2)], -0.36 * scale)


def test_sos_statevector_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_sos(rng, 8, int(rng.integers(1, 10)))
        assert np.isclose(np.linalg.norm(sos_to_statevector(s)), 1.0)


def test_statevector_caps():
    with pytest.raises(ValueError):
        mps_to_statevector(MpsState([np.zeros((1, 4, 1))] * 9))


def test_product_mps_statevector():
    t1 = np.zeros((1, 4, 1), dtype=complex)
    t1[0, 3, 0] = 1.0
    t2 = np.zeros((1, 4, 1), dtype=complex)
    t2[0, 1, 0] = 1.0
    vec = mps_to_statevector(MpsState([t1, t2]))
    expected = np.zeros(16)
    expected[int("1101", 2)] = 1.0  # digits (3, 1) -> bits 11 01
    assert np.allclose(vec, expected)


def test_ghz_mps_statevector():
    t0 = np.zeros((1, 2, 2), dtype=complex)
    t0[0, 0, 0] = t0[0, 1, 1] = 1.0
    t1 = np.zeros((2, 2, 2), dtype=complex)
    t1[0, 0, 0] = t1[1, 1, 1] = 1.0
    t2 = np.zeros((2, 2, 1), dtype=complex)
    t2[0, 0, 0] = t2[1, 1, 0] = 1 / np.sqrt(2)
    vec = mps_to_statevector(MpsState([t0, t1, t2]))
    assert np.isclose(vec[0], vec[-1])
    assert np.isclose(abs(vec[0]), 1 / np.sqrt(2))
    assert np.allclose(vec[1:-1], 0.0)


def test_mps_statevector_matches_bruteforce():
    rng = np.random.default_rng(5)
    for chis, d in [([3], 2), ([2, 3], 3), ([3, 5, 2], 2), ([4, 3], 4)]:
        m = random_mps(rng, chis, d)
        assert np.allclose(mps_to_statevector(m),
                           oracles.mps_contract_bruteforce(m.tensors),
                           atol=1e-12)


def test_mps_amplitude():
    # the statevector's entry int(occ, 2) is the product of the site
    # matrices that the two-bit digits of occ pick
    rng = np.random.default_rng(6)
    m = random_mps(rng, [3, 2], d=4)
    occ = "011011"
    product = np.ones(1)
    for j, t in enumerate(m.tensors):
        product = product @ t[:, int(occ[2 * j:2 * j + 2], 2), :]
    assert np.isclose(mps_to_statevector(m)[int(occ, 2)], product[0])


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_left_canonicalize_random():
    rng = np.random.default_rng(7)
    for chis, d in [([3], 4), ([2, 5, 3], 2), ([4, 4], 3)]:
        m = random_mps(rng, chis, d)
        before = mps_to_statevector(m)
        canon = left_canonicalize(m)
        assert canon.canonical_form == "left"
        for t in canon.tensors[1:]:
            assert states._left_ortho_residual(t) < 1e-10
        assert np.allclose(mps_to_statevector(canon), before, atol=1e-10)


def test_left_canonicalize_is_stable():
    rng = np.random.default_rng(8)
    m = left_canonicalize(random_mps(rng, [3, 3], d=2))
    again = left_canonicalize(m)
    assert np.allclose(mps_to_statevector(again), mps_to_statevector(m),
                       atol=1e-12)
    assert again.bond_dims == m.bond_dims


def test_left_canonicalize_chi1():
    rng = np.random.default_rng(9)
    m = random_mps(rng, [1, 1], d=4)
    canon = left_canonicalize(m)
    for t in canon.tensors[1:]:
        assert np.isclose(np.linalg.norm(t), 1.0)


# ---------------------------------------------------------------------------
# Compression
# ---------------------------------------------------------------------------

def test_compress_identity_when_chi_large():
    rng = np.random.default_rng(10)
    m = random_mps(rng, [2, 3, 2], d=2)
    out, fid = compress_mps(m, chi_max=8)
    assert fid == 1.0
    assert np.allclose(mps_to_statevector(out), mps_to_statevector(m),
                       atol=1e-10)


def test_compress_single_bond_matches_schmidt_weights():
    # bonds (4, 8, 4) with chi_max=4: only the middle bond is truncated, so
    # the reported fidelity must equal the retained Schmidt weight fraction
    # of that single cut.
    rng = np.random.default_rng(11)
    m = random_mps(rng, [4, 8, 4], d=4)
    vec = mps_to_statevector(m)
    out, fid = compress_mps(m, chi_max=4)
    weights = oracles.schmidt_weights(vec, 16)
    expected = np.sum(weights[:4]) / np.sum(weights)
    assert abs(fid - expected) < 1e-10
    assert normalized_fidelity(mps_to_statevector(out), vec) == pytest.approx(
        fid, abs=1e-10)
    assert max(out.bond_dims) <= 4


def test_compress_fidelity_matches_overlap():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = random_mps(rng, [int(rng.integers(2, 9)) for _ in range(3)], d=2)
        chi = int(rng.integers(1, 4))
        out, fid = compress_mps(m, chi_max=chi)
        assert max(out.bond_dims) <= chi
        assert out.canonical_form == "left"
        got = normalized_fidelity(mps_to_statevector(out),
                                  mps_to_statevector(m))
        assert abs(got - fid) < 1e-10
        # norm is preserved through truncation
        assert np.isclose(out.norm(), m.norm())


def test_compress_fidelity_monotone_in_chi():
    rng = np.random.default_rng(13)
    m = random_mps(rng, [6, 6], d=3)
    fids = [compress_mps(m, chi_max=chi)[1] for chi in (6, 4, 3, 2, 1)]
    for lo, hi in zip(fids[1:], fids):
        assert lo <= hi + 1e-12


def test_compress_takes_one_svd_per_bond(monkeypatch):
    # a QR sweep puts the left sites in column form first, so the one
    # truncating sweep cuts each bond with a single SVD
    m = random_mps(np.random.default_rng(17), [4, 8, 8, 4, 2], d=4)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(a[0].shape)
                        or svd(*a, **kw))
    out, fid = compress_mps(m, chi_max=3)
    assert len(calls) == m.n_sites - 1
    assert max(out.bond_dims) <= 3
    assert normalized_fidelity(mps_to_statevector(out),
                               mps_to_statevector(m)) == pytest.approx(
        fid, abs=1e-10)


def test_compress_to_product_state():
    # GHZ-like state: sequential truncation reaches the true best product
    # state, whose fidelity is the dominant weight.
    a, b = 0.9, np.sqrt(1 - 0.81)
    t0 = np.zeros((1, 2, 2), dtype=complex)
    t0[0, 0, 0] = a
    t0[0, 1, 1] = b
    t1 = np.zeros((2, 2, 2), dtype=complex)
    t1[0, 0, 0] = t1[1, 1, 1] = 1.0
    t2 = np.zeros((2, 2, 1), dtype=complex)
    t2[0, 0, 0] = t2[1, 1, 0] = 1.0
    m = MpsState([t0, t1, t2])
    out, fid = compress_mps(m, chi_max=1)
    assert abs(fid - a**2) < 1e-12
    rng = np.random.default_rng(14)
    best = oracles.best_product_fidelity(mps_to_statevector(m), (2, 2, 2), rng)
    assert abs(fid - best) < 1e-9
    # on generic states sequential truncation can only do as well as the
    # exhaustive search
    for seed in range(3):
        m = random_mps(np.random.default_rng(20 + seed), [2, 2], d=2)
        _, fid = compress_mps(m, chi_max=1)
        best = oracles.best_product_fidelity(
            mps_to_statevector(m), (2, 2, 2), np.random.default_rng(seed))
        assert fid <= best + 1e-9


# ---------------------------------------------------------------------------
# MPS -> SOS
# ---------------------------------------------------------------------------

def test_mps_to_sos_product_state():
    s = mps_to_sos(sos_to_mps(SosState(8, [(1.0, "01100011")]), 1)[0],
                   threshold=1e-12)
    assert len(s.terms) == 1
    amp, occ = s.terms[0]
    assert occ == "01100011"
    assert abs(amp - 1.0) < 1e-10


def test_mps_to_sos_recovers_all_heavy_terms():
    rng = np.random.default_rng(15)
    for _ in range(5):
        m = random_mps(rng, [3, 3, 3], d=4)
        m = compress_mps(m, chi_max=3)[0]  # unit-norm left-canonical input
        vec = mps_to_statevector(m) / m.norm()
        threshold = 1e-3
        s = mps_to_sos(m, threshold=threshold)
        got = {occ for _, occ in s.terms}
        for idx in range(len(vec)):
            if abs(vec[idx]) ** 2 > threshold:
                assert format(idx, "08b") in got
        # every reported amplitude is exact
        for amp, occ in s.terms:
            assert abs(amp - m.norm() * vec[int(occ, 2)]) < 1e-10


def test_mps_to_sos_overlap_near_one():
    rng = np.random.default_rng(16)
    m = random_mps(rng, [3, 3, 3], d=4)
    s = mps_to_sos(m, threshold=1e-12)
    ov = overlap(s, m)
    assert abs(ov) ** 2 / (s.norm() ** 2 * m.norm() ** 2) >= 1 - 1e-8


def test_mps_to_sos_degenerate_threshold():
    rng = np.random.default_rng(17)
    m = random_mps(rng, [2, 2], d=4)
    s = mps_to_sos(m, threshold=float(m.norm()) ** 2)
    assert len(s.terms) <= 1


def test_mps_to_sos_budget():
    rng = np.random.default_rng(18)
    m = random_mps(rng, [2, 2], d=4)
    with pytest.raises(TermBudgetExceeded):
        mps_to_sos(m, threshold=0.0, term_budget=3)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-3])
def test_mps_to_sos_refuses_bad_threshold(threshold):
    m = sos_to_mps(SosState(4, [(1.0, "1001")]), chi_max=1)[0]
    with pytest.raises(ValueError, match="threshold"):
        mps_to_sos(m, threshold=threshold)


def test_mps_to_sos_requires_local_dim_4():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError):
        mps_to_sos(random_mps(rng, [2], d=2), threshold=1e-6)


def _term_bits(state):
    """Each term as the hex of its amplitude's parts and its occupation, in
    order."""
    return [(a.real.hex(), a.imag.hex(), occ) for a, occ in state.terms]


def _oracle_cases():
    """(label, MPS) pairs: 1 to 7 sites, random bonds of 1 to 64, as given
    and in the left-canonical form."""
    rng = np.random.default_rng(40)
    cases = []
    for n in range(1, 8):
        for cap in (4, 64):
            chis = [int(rng.integers(1, cap + 1)) for _ in range(n - 1)]
            m = random_mps(rng, chis)
            cases.append((f"{n} sites {chis}", m))
            cases.append((f"{n} sites {chis} left", left_canonicalize(m)))
    return cases


@pytest.mark.parametrize("threshold", [0.0, 1e-10, 1e-3, 1.0, 7.5])
def test_mps_to_sos_matches_recursive_oracle_bit_for_bit(threshold):
    sizes = []
    for label, m in _oracle_cases():
        # weights relative to the norm, so that thresholds of 1 and more
        # prune every row of site 0 and leave nothing
        scaled = MpsState([m.tensors[0] / m.norm(), *m.tensors[1:]],
                          canonical_form=m.canonical_form)
        got = mps_to_sos(scaled, threshold)
        assert _term_bits(got) \
            == _term_bits(oracles.mps_to_sos_recursive(scaled, threshold)), \
            label
        sizes.append(len(got.terms))
    assert (max(sizes) == 0) == (threshold >= 1.0)


@pytest.mark.parametrize("amp", [1e-200, 1e200])
def test_mps_to_sos_of_extreme_entries_is_exact_and_silent(amp):
    # |amp|^2 under- or overflows unless site 0 is scaled first
    first, second = np.zeros((1, 4, 1)), np.zeros((1, 4, 1))
    first[0, 0, 0], second[0, 3, 0] = amp, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mps_to_sos(MpsState([first, second]), 0.0).terms \
            == [(amp, "0011")]


def test_mps_to_sos_keeps_the_bits_of_the_unscaled_expansion():
    # powers of two are exact, so in the float range the scaled expansion
    # gives the bits of the recursion, which runs unscaled
    rng = np.random.default_rng(37)
    for trial in range(40):
        chis = [int(c) for c in rng.integers(1, 9,
                                             size=int(rng.integers(0, 5)))]
        m = random_mps(rng, chis)
        m = MpsState([t * 10.0 ** rng.uniform(-20, 20) for t in m.tensors])
        threshold = float(rng.choice([0.0, 1e-12, 1e-3])) * m.norm() ** 2
        got = mps_to_sos(m, threshold)
        assert got.terms, trial
        assert _term_bits(got) == _term_bits(
            oracles.mps_to_sos_recursive(m, threshold)), trial


@pytest.mark.parametrize("threshold, found", [
    (0.5, [(10.0, "0011")]), (2.0, [(10.0, "0011")]), (99.0, [(10.0, "0011")]),
    (100.0, [])])
def test_mps_to_sos_prunes_by_the_rows_of_site_0(threshold, found):
    # the empty prefix is never pruned: a norm above 1 keeps a determinant
    # whose squared amplitude, 100, is above a threshold of 1 or more
    first, second = np.zeros((1, 4, 1)), np.zeros((1, 4, 1))
    first[0, 0, 0], second[0, 3, 0] = 1.0, 10.0
    m = MpsState([first, second])
    assert mps_to_sos(m, threshold).terms == found
    assert oracles.mps_to_sos_recursive(m, threshold).terms == found


@pytest.mark.parametrize("block", [1, 3, 64])
def test_mps_to_sos_blocks_do_not_change_the_bits(monkeypatch, block):
    # 4 ** 5 = 1024 leaves at threshold 0: the blocks split every level
    # from the second on
    rng = np.random.default_rng(41)
    m = random_mps(rng, [4, 16, 16, 4])
    want = _term_bits(oracles.mps_to_sos_recursive(m, 0.0))
    monkeypatch.setattr(states, "_EXPAND_BLOCK", block)
    assert _term_bits(mps_to_sos(m, 0.0)) == want
    assert len(want) == 4 ** 5


def test_mps_to_sos_of_a_mapped_file_matches_the_oracle(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "state.mps"
    save_mps(compress_mps(random_mps(rng, [3, 9, 3]), 8)[0], path)
    m = load_mps(path)
    assert _term_bits(mps_to_sos(m, 1e-6)) \
        == _term_bits(oracles.mps_to_sos_recursive(m, 1e-6))


@pytest.mark.parametrize("threshold", [0.0, 1e-3])
def test_mps_to_sos_budget_matches_the_oracle(threshold):
    rng = np.random.default_rng(43)
    m = compress_mps(random_mps(rng, [4, 8, 4]), 8)[0]
    leaves = len(oracles.mps_to_sos_recursive(m, threshold).terms)
    assert leaves > 1
    got = mps_to_sos(m, threshold, term_budget=leaves)
    assert _term_bits(got) == _term_bits(
        oracles.mps_to_sos_recursive(m, threshold, term_budget=leaves))
    with pytest.raises(TermBudgetExceeded) as want:
        oracles.mps_to_sos_recursive(m, threshold, term_budget=leaves - 1)
    with pytest.raises(TermBudgetExceeded) as exc:
        mps_to_sos(m, threshold, term_budget=leaves - 1)
    assert str(exc.value) == str(want.value) \
        == f"more than {leaves - 1} determinants above threshold"


@pytest.mark.parametrize("d, threshold", [(2, 1e-6), (4, float("nan")),
                                          (4, float("inf")), (4, -1e-3)])
def test_mps_to_sos_refusals_match_the_oracle(d, threshold):
    m = random_mps(np.random.default_rng(44), [2], d=d)
    with pytest.raises(ValueError) as want:
        oracles.mps_to_sos_recursive(m, threshold)
    with pytest.raises(ValueError) as exc:
        mps_to_sos(m, threshold)
    assert str(exc.value) == str(want.value)


def test_mps_to_sos_memory_stays_within_the_block_bound():
    # threshold 0 keeps all 4 ** 12 determinants of a random 12-site MPS;
    # a level-wide expansion would hold 4 ** 11 prefixes at the last site
    import tracemalloc

    n, chi = 12, 4
    m = random_mps(np.random.default_rng(45), [chi] * (n - 1))
    block = states._EXPAND_BLOCK
    # per site, the children of one block (coefficients and digit rows)
    # and the survivors of one of their blocks
    bound = n * 5 * block * (16 * chi + n)
    assert 4 ** (n - 1) * 16 * chi > 20 * bound
    tracemalloc.start()
    try:
        with pytest.raises(TermBudgetExceeded,
                           match="more than 100 determinants"):
            mps_to_sos(m, 0.0, term_budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# SOS -> MPS
# ---------------------------------------------------------------------------

def test_sos_to_mps_single_term():
    s = SosState(6, [(1.0j, "101001")])
    m, fid = sos_to_mps(s, chi_max=2)
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert m.bond_dims == [1, 1, 1, 1]
    assert np.allclose(mps_to_statevector(m), sos_to_statevector(s),
                       atol=1e-12)


def test_sos_to_mps_h6():
    s = h6_like_state()
    m, fid = sos_to_mps(s, chi_max=4)
    assert fid >= 1 - 1e-10
    assert max(m.bond_dims) <= 3  # three determinants never need more
    # cross-check the fidelity claim against dense vectors
    dense = normalized_fidelity(mps_to_statevector(m), sos_to_statevector(s))
    assert dense >= 1 - 1e-10


def test_sos_to_mps_chi1_equal_superposition():
    s = SosState(4, [(np.sqrt(0.5), "1100"), (np.sqrt(0.5), "0011")])
    m, fid = sos_to_mps(s, chi_max=1)
    assert abs(fid - 0.5) < 1e-10
    weights = oracles.schmidt_weights(sos_to_statevector(s), 4)
    assert np.isclose(np.max(weights), 0.5)


def test_sos_mps_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = random_sos(rng, 8, int(rng.integers(2, 7)))
        m, fid = sos_to_mps(s, chi_max=16)
        assert fid >= 1 - 1e-12
        back = {occ: amp for amp, occ in
                mps_to_sos(m, threshold=1e-16).terms}
        for amp, occ in s.terms:
            assert abs(back[occ] - amp) < 1e-8


def test_sos_to_mps_compression_cadence(monkeypatch):
    # many terms force intermediate compressions; the final fidelity must
    # still be reported against the exact input
    rng = np.random.default_rng(22)
    s = random_sos(rng, 8, 20)
    monkeypatch.setattr(states, "_COMPRESS_EVERY", 4)
    m, fid = sos_to_mps(s, chi_max=3)
    dense = normalized_fidelity(mps_to_statevector(m), sos_to_statevector(s))
    assert fid == pytest.approx(dense, abs=1e-10)
    assert max(m.bond_dims) <= 3


@pytest.mark.parametrize("n_terms, chi_max, compress_every", [
    (64, 64, 8),     # the size `convert --to mps` sees in the benchmark
    (64, 8, 8),      # D > chi: truncation at most cadence points
    (64, 3, 4),      # every cadence point truncates
    (20, 3, 4),
    (1, 64, 8),      # a single determinant
])
def test_sos_to_mps_matches_pairwise_oracle(monkeypatch, n_terms, chi_max,
                                            compress_every):
    rng = np.random.default_rng(30 + n_terms + chi_max + compress_every)
    s = half_filled_sos(rng, 12, n_terms)
    monkeypatch.setattr(states, "_COMPRESS_EVERY", compress_every)
    m, fid = sos_to_mps(s, chi_max=chi_max)
    ref, ref_fid = oracles.sos_to_mps_pairwise(s, chi_max, compress_every)
    v, v_ref = mps_to_statevector(m), mps_to_statevector(ref)
    assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.linalg.norm(v_ref)
    assert fid == pytest.approx(ref_fid, abs=1e-12)
    assert m.bond_dims == ref.bond_dims
    assert m.canonical_form == "left"


@pytest.mark.parametrize("n_terms, chi_max, compress_every, expected", [
    (64, 64, 8, 1),   # D <= chi: no bond ever exceeds chi, final only
    (8, 8, 8, 1),
    (64, 8, 8, 8),    # bonds exceed 8 after 16, 24, ..., 64 terms
    (20, 3, 4, 6),    # bonds exceed 3 after 4, 8, ..., 20 terms
    (18, 3, 4, 5),    # the partial last block gets the final one only
])
def test_sos_to_mps_compresses_only_when_a_bond_exceeds_chi(
        monkeypatch, n_terms, chi_max, compress_every, expected):
    rng = np.random.default_rng(40 + n_terms)
    s = half_filled_sos(rng, 12, n_terms)
    bonds = []
    compress = states.compress_mps
    monkeypatch.setattr(states, "compress_mps",
                        lambda mps, **kw: bonds.append(max(mps.bond_dims))
                        or compress(mps, **kw))
    monkeypatch.setattr(states, "_COMPRESS_EVERY", compress_every)
    sos_to_mps(s, chi_max=chi_max)
    assert len(bonds) == expected
    assert all(b > chi_max for b in bonds[:-1])


# ---------------------------------------------------------------------------
# Overlaps
# ---------------------------------------------------------------------------

def test_overlap_all_pairs():
    rng = np.random.default_rng(23)
    s = random_sos(rng, 6, 4)
    m = compress_mps(random_mps(rng, [2, 3], d=4), chi_max=3)[0]
    vs, vm = sos_to_statevector(s), mps_to_statevector(m)
    nm = m.norm()
    assert overlap(m, m) == pytest.approx(nm * nm, abs=1e-10)
    assert overlap(s, m) == pytest.approx(np.vdot(vs, vm), abs=1e-10)
    assert overlap(m, s) == pytest.approx(np.vdot(vm, vs), abs=1e-10)
    assert abs(overlap(s, m) / nm) <= 1 + 1e-12
    with pytest.raises(TypeError):
        overlap(s, np.ones(4))
    # two SOS states compare through their statevectors
    with pytest.raises(TypeError):
        overlap(s, s)


@pytest.mark.parametrize("n_terms, chis", [
    (64, [4, 16, 64, 16, 4]),   # the benchmark's 64 terms on 6 sites
    (5, [2, 3]),
    (1, [1]),
    (0, [3, 3]),
])
def test_sos_mps_overlap_matches_amplitude_loop(n_terms, chis):
    # the batched sum against one amplitude extraction per determinant
    rng = np.random.default_rng(n_terms + len(chis))
    n_sites = len(chis) + 1
    s = half_filled_sos(rng, 2 * n_sites, n_terms)
    m = random_mps(rng, chis)
    vec = mps_to_statevector(m)
    terms = [np.conj(amp) * vec[int(occ, 2)] for amp, occ in s.terms]
    scale = sum(abs(t) for t in terms)
    assert abs(overlap(s, m) - sum(terms)) <= 1e-13 * scale
    assert overlap(m, s) == np.conj(overlap(s, m))
    for wrong in (random_mps(rng, chis, d=2), random_mps(rng, chis[1:])):
        with pytest.raises(ValueError, match="spin-orbital count"):
            overlap(s, wrong)


@pytest.mark.parametrize("chis_a, chis_b", [
    ([1, 1, 1], [1, 1, 1]),
    ([2, 3, 5], [4, 1, 7]),
    ([3, 16, 64, 16, 4], [4, 16, 64, 16, 2]),
    ([64, 64], [7, 64]),
])
def test_mps_overlap_matches_einsum_oracle(chis_a, chis_b):
    rng = np.random.default_rng(len(chis_a) + sum(chis_b))
    a, b = random_mps(rng, chis_a), random_mps(rng, chis_b)
    for x, y in ((a, b), (b, a), (a, a)):
        ref = oracles.mps_overlap_einsum(x, y)
        assert abs(overlap(x, y) - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_sos_json_roundtrip(tmp_path):
    rng = np.random.default_rng(26)
    s = random_sos(rng, 6, 5)
    path = tmp_path / "state.json"
    save_sos(s, path)
    back = load_sos(path)
    assert back.n_spin_orbitals == 6
    assert back.terms == s.terms


def test_save_sos_writes_the_bytes_of_json_dump_at_once(tmp_path,
                                                      monkeypatch):
    import builtins
    import json

    rng = np.random.default_rng(29)
    s = SosState(12, half_filled_sos(rng, 12, 64).terms
                 + [(complex(-0.0, 1e-300), "0" * 12)])
    want = tmp_path / "want.json"
    with open(want, "w", encoding="utf-8") as fh:
        json.dump(s.to_json_dict(), fh, indent=1)
    writes = []

    def counting_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(len(text)) or write(text)
        return fh

    monkeypatch.setattr(states, "open", counting_open, raising=False)
    save_sos(s, tmp_path / "got.json")
    assert (tmp_path / "got.json").read_bytes() == want.read_bytes()
    assert writes == [len(want.read_text(encoding="utf-8"))]


def test_mps_file_roundtrip(tmp_path):
    rng = np.random.default_rng(27)
    m = left_canonicalize(random_mps(rng, [2, 4, 2], d=4))
    path = tmp_path / "state.mps"
    save_mps(m, path)
    back = load_mps(path)
    assert back.canonical_form == "left"
    assert back.local_dim == 4
    assert all(np.array_equal(a, b)
               for a, b in zip(back.tensors, m.tensors))


def test_sos_to_mps_to_sos_through_a_mapped_file(tmp_path):
    rng = np.random.default_rng(28)
    sos = random_sos(rng, 8, 6)
    path = tmp_path / "state.mps"
    mps = sos_to_mps(sos, chi_max=16)[0]
    save_mps(mps, path)
    back = load_mps(path)
    # the tensors are read-only views of the mapped file, not copies
    for t in back.tensors:
        assert not t.flags.writeable and t.base is not None
    again = mps_to_sos(back, threshold=1e-20)
    assert again.terms == mps_to_sos(mps, threshold=1e-20).terms
    assert sorted(occ for _, occ in again.terms) \
        == sorted(occ for _, occ in sos.terms)
    assert abs(abs(np.vdot(sos_to_statevector(again),
                           sos_to_statevector(sos))) - 1) <= 1e-10
