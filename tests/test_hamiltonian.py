import math

import numpy as np
import pytest

from qprep import hamiltonian as ham
from qprep.acceptance import _ladder_operator_matrix
from qprep.spectra import exact_spectral_measure

import oracles


TWO_ORBITAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.2 1 1 1 1
 0.1 2 1 1 1
-1.0 1 1 0 0
-0.5 2 2 0 0
 0.7 0 0 0 0
"""


def _random_fcidump(rng, n_orb, core=0.0, with_two_body=True):
    h = rng.normal(size=(n_orb, n_orb))
    h = (h + h.T) / 2
    g = np.zeros((n_orb,) * 4)
    if with_two_body:
        for p in range(n_orb):
            for q in range(p + 1):
                for r in range(p + 1):
                    for s in range((q if r == p else r) + 1):
                        ham._set_two_body(g, p, q, r, s, rng.normal() * 0.3)
    return ham.FciDump(n_orb, 2, 0, core, h, g)


_EIGHTFOLD = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
              (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0))


def _eightfold_fcidump(rng, n_orb, core=0.3):
    """Seeded random integrals, symmetrized over the eight index orders."""
    h = rng.normal(size=(n_orb, n_orb))
    g = rng.normal(scale=0.3, size=(n_orb,) * 4)
    g = sum(g.transpose(perm) for perm in _EIGHTFOLD) / 8
    return ham.FciDump(n_orb, 2, 0, core, (h + h.T) / 2, g)


def test_parse_header_and_core_only():
    fd = ham.parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n 1.25 0 0 0 0\n")
    assert fd.n_orb == 3 and fd.n_elec == 2 and fd.ms2 == 0
    assert fd.core_energy == 1.25
    assert not fd.one_body.any() and not fd.two_body.any()


def test_parse_two_orbital_example():
    fd = ham.parse_fcidump(TWO_ORBITAL)
    assert fd.one_body[0, 0] == -1.0
    assert fd.one_body[1, 1] == -0.5
    assert fd.two_body[0, 0, 0, 0] == 0.2
    # (21|11) stored under all eight chemist permutations
    for idx in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        assert fd.two_body[idx] == 0.1
    assert fd.core_energy == 0.7


def test_parse_index_beyond_norb():
    text = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.5 3 0 0 0\n"
    with pytest.raises(ham.InconsistentHeader):
        ham.parse_fcidump(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ham.ParseError) as exc:
        ham.parse_fcidump("&FCI NORB=2,\n&END\n 0.5 1 1 0\n")
    assert exc.value.line_no == 3
    with pytest.raises(ham.ParseError) as exc:
        ham.parse_fcidump("&FCI NORB=2,\n&END\n 1.0 1 1 0 0\n oops 1 1 0 0\n")
    assert exc.value.line_no == 4
    with pytest.raises(ham.ParseError):
        ham.parse_fcidump("NORB=2\n")


def test_parse_fortran_exponent():
    fd = ham.parse_fcidump("&FCI NORB=1,\n&END\n 1.5D-01 1 1 0 0\n 0.0 0 0 0 0\n")
    assert fd.one_body[0, 0] == 0.15


def test_round_trip_is_idempotent():
    rng = np.random.default_rng(8)
    fd = _random_fcidump(rng, 3, core=-0.75)
    text = ham.dump_fcidump(fd)
    fd2 = ham.parse_fcidump(text)
    assert np.array_equal(fd.one_body, fd2.one_body)
    assert np.array_equal(fd.two_body, fd2.two_body)
    assert fd.core_energy == fd2.core_energy
    assert ham.dump_fcidump(fd2) == text


def test_ci_single_electron_diagonal():
    h = np.diag([-2.0, -1.0, 0.5])
    fd = ham.FciDump(3, 1, 1, 0.25, h, np.zeros((3,) * 4))
    dense = ham.build_ci_matrix(fd, 1, 0)
    assert np.allclose(dense.entries, np.diag([-1.75, -0.75, 0.75]))
    assert dense.basis_labels == ["100000", "001000", "000010"]


def test_ci_matches_jw_oracle_two_orbital():
    fd = ham.parse_fcidump(TWO_ORBITAL)
    dense = ham.build_ci_matrix(fd, 1, 1)
    full = _ladder_operator_matrix(fd.n_orb, fd.core_energy, fd.one_body,
                                   fd.two_body)
    block = oracles.jw_sector_block(full, dense.basis_labels)
    assert np.max(np.abs(dense.entries - block)) < 1e-12


def test_ci_matches_jw_oracle_random_sectors():
    rng = np.random.default_rng(31)
    fd = _random_fcidump(rng, 3, core=0.4)
    full = _ladder_operator_matrix(fd.n_orb, fd.core_energy, fd.one_body,
                                   fd.two_body)
    for na, nb in ((1, 1), (2, 1), (1, 0), (3, 2)):
        dense = ham.build_ci_matrix(fd, na, nb)
        block = oracles.jw_sector_block(full, dense.basis_labels)
        assert np.max(np.abs(dense.entries - block)) < 1e-12


@pytest.mark.parametrize("n_orb", [3, 4, 5])
def test_ci_matches_both_oracles_in_every_sector(n_orb):
    fd = _eightfold_fcidump(np.random.default_rng(400 + n_orb), n_orb)
    full = _ladder_operator_matrix(n_orb, fd.core_energy, fd.one_body,
                                   fd.two_body)
    for na in range(n_orb + 1):
        for nb in range(n_orb + 1):
            dense = ham.build_ci_matrix(fd, na, nb)
            loop, labels = oracles.ci_matrix_loop(fd, na, nb)
            assert dense.basis_labels == labels
            assert np.array_equal(dense.entries, dense.entries.T)
            block = oracles.jw_sector_block(full, labels)
            assert np.max(np.abs(dense.entries - block)) <= 1e-12
            assert np.max(np.abs(dense.entries - loop)) <= 1e-12


def test_ci_wide_sector_matches_loop():
    fd = _eightfold_fcidump(np.random.default_rng(24), 24)
    dense = ham.build_ci_matrix(fd, 1, 1)
    loop, labels = oracles.ci_matrix_loop(fd, 1, 1)
    assert dense.dim == 576 and dense.basis_labels == labels
    assert np.array_equal(dense.entries, dense.entries.T)
    assert np.max(np.abs(dense.entries - loop)) <= 1e-12


def test_jw_matrix_is_sector_block_diagonal():
    rng = np.random.default_rng(5)
    fd = _random_fcidump(rng, 2)
    full = _ladder_operator_matrix(2, fd.core_energy, fd.one_body,
                                   fd.two_body)
    def sector(state):
        na = sum((state >> (2 * p)) & 1 for p in range(2))
        nb = sum((state >> (2 * p + 1)) & 1 for p in range(2))
        return na, nb
    for i in range(16):
        for j in range(16):
            if sector(i) != sector(j):
                assert full[i, j] == 0.0


def test_ci_noninteracting_eigenvalues():
    rng = np.random.default_rng(12)
    fd = _random_fcidump(rng, 3, with_two_body=False)
    dense = ham.build_ci_matrix(fd, 1, 1)
    eps = np.linalg.eigvalsh(fd.one_body)
    expected = np.sort([ea + eb for ea in eps for eb in eps])
    assert np.allclose(np.sort(np.linalg.eigvalsh(dense.entries)), expected)


def test_ci_eigenvalues_invariant_under_relabeling():
    rng = np.random.default_rng(77)
    fd = _random_fcidump(rng, 3, core=0.1)
    perm = [2, 0, 1]
    h2 = fd.one_body[np.ix_(perm, perm)]
    g2 = fd.two_body[np.ix_(perm, perm, perm, perm)]
    fd2 = ham.FciDump(3, 2, 0, fd.core_energy, h2, g2)
    e1 = np.linalg.eigvalsh(ham.build_ci_matrix(fd, 1, 1).entries)
    e2 = np.linalg.eigvalsh(ham.build_ci_matrix(fd2, 1, 1).entries)
    assert np.allclose(np.sort(e1), np.sort(e2))


def test_ci_dimension_cap():
    fd = ham.FciDump(4, 4, 0, 0.0, np.zeros((4, 4)), np.zeros((4,) * 4))
    with pytest.raises(ham.DimensionCapExceeded):
        ham.build_ci_matrix(fd, 2, 2, dim_cap=10)


def test_dense_hamiltonian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        ham.DenseHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermiticity_tolerance_is_relative():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6))
    sym = 1e6 * (a + a.T) / 2
    rounded = sym.copy()
    rounded[0, 1] = np.nextafter(np.nextafter(sym[0, 1], np.inf), np.inf)
    assert np.max(np.abs(rounded - rounded.T)) > ham.HERMITICITY_TOL
    ham.DenseHamiltonian(rounded)
    for scale in (1e6, 1.0, 1e-3):
        skewed = scale * (a + a.T) / 2
        skewed[0, 1] += 1e-9 * max(1.0, np.max(np.abs(skewed)))
        with pytest.raises(ValueError):
            ham.DenseHamiltonian(skewed)


def test_measure_normalizer_bounds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(12, 12))
        dense = ham.DenseHamiltonian((a + a.T) / 2)
        norm = exact_spectral_measure(dense, np.ones(12),
                                      margin=ham.SPECTRUM_MARGIN).normalizer
        evals = np.linalg.eigvalsh(norm.apply_matrix(dense).entries)
        assert evals.min() > 0.1 - 1e-9 and evals.max() < 0.9 + 1e-9
        x = rng.normal(size=5)
        assert np.allclose(norm.invert(norm.apply(x)), x)


def test_spectrum_normalizer_bounds_and_degenerate_spectrum():
    norm = ham.spectrum_normalizer(-2.0, 6.0, margin=0.1)
    assert np.allclose(norm.apply([-2.0, 6.0]), [0.1, 0.9], atol=1e-15)
    flat = ham.spectrum_normalizer(3.0, 3.0)
    assert flat.scale == 1.0 and flat.apply(3.0) == 0.5
    h = ham.DenseHamiltonian(3.0 * np.eye(4))
    measure = exact_spectral_measure(h, np.ones(4),
                                     margin=ham.SPECTRUM_MARGIN)
    assert measure.normalizer == flat
    assert np.array_equal(flat.apply_matrix(h).entries, 0.5 * np.eye(4))
    with pytest.raises(ValueError):
        ham.spectrum_normalizer(0.0, 1.0, margin=0.5)


def test_normalizer_explicit_convention():
    norm = ham.AffineNormalizer(scale=1 / 3, shift=1.0)
    assert norm.apply(-3.0) == 0.0
    assert norm.invert(0.0) == -3.0
    dense = ham.DenseHamiltonian(np.diag([-3.0, 0.0]))
    out = norm.apply_matrix(dense)
    assert np.allclose(np.diag(out.entries), [0.0, 1.0])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    fd = _random_fcidump(rng, 2)
    dense = ham.build_ci_matrix(fd, 1, 1)
    p = tmp_path / "h.bin"
    ham.save_hamiltonian(dense, p)
    back = ham.load_hamiltonian(p)
    assert np.array_equal(back.entries, dense.entries)
    assert back.basis_labels == dense.basis_labels
    c = tmp_path / "h.csv"
    ham.save_hamiltonian(dense, c)
    back_csv = ham.load_hamiltonian(c)
    assert np.allclose(back_csv.entries, dense.entries)


def test_entries_are_a_read_only_view():
    a = np.diag([1.0, 2.0, 3.0])
    dense = ham.DenseHamiltonian(a)
    assert np.shares_memory(dense.entries, a)
    assert a.flags.writeable and not dense.entries.flags.writeable
    with pytest.raises(ValueError):
        dense.entries[0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused(bad):
    a = np.eye(3)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite matrix entry"):
        ham.DenseHamiltonian(a)


def test_eigensystem_runs_one_eigh_per_object(eigensolves):
    a = np.random.default_rng(8).normal(size=(6, 6))
    dense = ham.DenseHamiltonian(a + a.T)
    first = dense.eigensystem()
    second = dense.eigensystem()
    assert eigensolves == ["eigh"]
    assert first[0] is second[0] and first[1] is second[1]
    assert not first[0].flags.writeable and not first[1].flags.writeable
    ham.DenseHamiltonian(a + a.T).eigensystem()
    assert eigensolves == ["eigh", "eigh"]


def test_saved_eigensystem_is_reused_and_old_files_still_load(tmp_path,
                                                              eigensolves):
    dense = ham.build_ci_matrix(_random_fcidump(np.random.default_rng(9), 3),
                                1, 1)
    evals, evecs = dense.eigensystem()
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    ham.save_hamiltonian(dense, new)
    with np.load(new) as data:
        assert sorted(data.files) == ["basis_labels", "eigenvalues",
                                      "eigenvectors", "entries"]
        np.savez(old, entries=data["entries"],
                 basis_labels=data["basis_labels"])
    eigensolves.clear()
    back = ham.load_hamiltonian(new)
    assert np.array_equal(back.eigensystem()[0], evals)
    assert np.array_equal(back.eigensystem()[1], evecs)
    assert eigensolves == []
    legacy = ham.load_hamiltonian(old)
    assert legacy.eigen is None
    assert np.array_equal(legacy.eigensystem()[0], evals)
    assert np.array_equal(legacy.eigensystem()[1], evecs)
    # the (1,1) sector is solved as its two spin-flip blocks
    assert eigensolves == ["eigh", "eigh"] and eigensolves.dims == [3, 6]


def test_supplied_eigensystem_is_checked_against_the_matrix():
    a = np.random.default_rng(10).normal(size=(5, 5))
    a = a + a.T
    evals, evecs = np.linalg.eigh(a)
    ham.DenseHamiltonian(a, eigen=(evals, evecs))
    swapped = evecs[:, [1, 0, 2, 3, 4]]
    for eigen, reason in [
            ((evals[:4], evecs), "shapes"),
            ((evals, evecs[:, :4]), "shapes"),
            ((evals.astype(complex), evecs), "real"),
            ((np.where(evals == evals[2], np.nan, evals), evecs),
             "non-finite"),
            ((evals[[1, 0, 2, 3, 4]], evecs), "ascending"),
            ((evals, swapped), "does not match"),
            ((evals, 2 * evecs), "does not match"),
            ((evals + 1e-6, evecs), "does not match")]:
        with pytest.raises(ValueError, match=reason):
            ham.DenseHamiltonian(a, eigen=eigen)


# ---------------------------------------------------------------------------
# Spin-flip blocks of the eigensolve
# ---------------------------------------------------------------------------

def _flip_matrix(labels):
    """Dense P from the labels: P e_i = sign_i e_partner_i."""
    partner, sign = ham._spin_flip(labels)
    p = np.zeros((len(labels),) * 2)
    p[partner, np.arange(len(labels))] = sign
    return p


@pytest.mark.parametrize("n_orb", [3, 4, 5])
def test_spin_flip_sign_commutes_with_every_balanced_sector(n_orb):
    # build_ci_matrix is pinned to the ladder oracle, so this pins the
    # sign (-1)^(doubly occupied orbitals) of the flip as well
    fd = _eightfold_fcidump(np.random.default_rng(500 + n_orb), n_orb)
    for n_el in range(n_orb + 1):
        dense = ham.build_ci_matrix(fd, n_el, n_el)
        h = dense.entries
        p = _flip_matrix(dense.basis_labels)
        assert np.array_equal(p @ p, np.eye(dense.dim))
        assert np.max(np.abs(p @ h @ p.T - h)) <= 1e-14 * np.max(np.abs(h))
        if 0 < n_el < n_orb:
            # the flip without its sign does not commute
            q = np.abs(p)
            assert np.max(np.abs(q @ h @ q.T - h)) > 1e-3


def _balanced_sectors():
    sectors = [(n_orb, n_el) for n_orb in (3, 4, 5)
               for n_el in range(n_orb + 1)]
    return sectors + [(6, 3), (8, 2)]


def _cluster_sums(levels, weights, gap=1e-8):
    starts = np.flatnonzero(np.diff(levels) >= gap) + 1
    return np.add.reduceat(weights, np.concatenate(([0], starts)))


@pytest.mark.parametrize("n_orb, n_el", _balanced_sectors())
def test_blocked_eigensolve_matches_dense_eigh(n_orb, n_el, eigensolves):
    from qprep.spectra import exact_spectral_measure

    rng = np.random.default_rng(600 + 10 * n_orb + n_el)
    dense = ham.build_ci_matrix(_eightfold_fcidump(rng, n_orb), n_el, n_el)
    h = dense.entries
    evals, evecs = dense.eigensystem()
    # orbits: d fixed points of sign (-1)^n_el, (d^2 - d) / 2 pairs
    d = math.comb(n_orb, n_el)
    pairs, even_fixed = (d * d - d) // 2, d * (n_el % 2 == 0)
    sizes = sorted(size for size in (pairs + even_fixed,
                                     pairs + d - even_fixed) if size)
    assert eigensolves == ["eigh"] * len(sizes)
    assert sorted(eigensolves.dims) == sizes
    eigensolves.clear()
    ref_vals, ref_vecs = np.linalg.eigh(h)
    size = max(1.0, np.max(np.abs(h)))
    assert np.max(np.abs(evals - ref_vals)) <= 1e-12 * size
    ham._check_eigensystem(h, evals, evecs, np.max(np.abs(h)))
    psi = rng.normal(size=dense.dim) + 1j * rng.normal(size=dense.dim)
    measure = exact_spectral_measure(dense, psi, margin=ham.SPECTRUM_MARGIN)
    ref = np.abs(ref_vecs.T @ (psi / np.linalg.norm(psi))) ** 2
    assert np.max(np.abs(_cluster_sums(ref_vals, measure.probs)
                         - _cluster_sums(ref_vals, ref))) <= 1e-10


def _one_block_cases():
    fd = _eightfold_fcidump(np.random.default_rng(700), 4)
    balanced = ham.build_ci_matrix(fd, 2, 2)
    h, labels = balanced.entries, balanced.basis_labels
    bump = np.zeros_like(h)
    bump[3, 7] = bump[7, 3] = 1e-9 * np.max(np.abs(h))
    return {
        "broken flip symmetry": (h + bump, labels),
        "labels not bit strings": (h, [lab.replace("1", "x")
                                      for lab in labels]),
        "odd label width": (h, [lab[:-1] for lab in labels]),
        "complex entries": (h + 0j, labels),
        "unequal spin counts": (lambda d: (d.entries, d.basis_labels))(
            ham.build_ci_matrix(fd, 2, 1)),
    }


@pytest.mark.parametrize("case", sorted(_one_block_cases()))
def test_one_block_route_is_plain_eigh(case, eigensolves):
    h, labels = _one_block_cases()[case]
    evals, evecs = ham.DenseHamiltonian(h, labels).eigensystem()
    assert eigensolves == ["eigh"] and eigensolves.dims == [len(h)]
    eigensolves.clear()
    ref_vals, ref_vecs = np.linalg.eigh(h)
    assert np.array_equal(evals, ref_vals)
    assert np.array_equal(evecs, ref_vecs)


@pytest.mark.parametrize("n_orb, n_el", [(4, 2), (5, 2), (6, 3), (8, 2)])
def test_blocked_eigensolve_is_byte_identical_to_quadrant_gathers(n_orb,
                                                                  n_el):
    rng = np.random.default_rng(650 + 10 * n_orb + n_el)
    dense = ham.build_ci_matrix(_eightfold_fcidump(rng, n_orb), n_el, n_el)
    evals, evecs = dense.eigensystem()
    ref_vals, ref_vecs = oracles.flip_blocked_eigh_quadrants(
        dense.entries, dense.basis_labels)
    assert evals.tobytes() == ref_vals.tobytes()
    assert evecs.tobytes() == ref_vecs.tobytes()
    assert evecs.flags.c_contiguous


# ---------------------------------------------------------------------------
# Checks of a stored matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fused_pass_equals_the_whole_matrix_maxima(n, kind):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(n, n))
    for e in (a, (a + a.conj().T) / 2, np.asfortranarray(a)):
        dev, size = ham._deviation_and_size(e)
        assert dev == np.max(np.abs(e - e.conj().T))
        assert size == np.max(np.abs(e))


def test_load_peaks_at_the_stored_arrays_plus_tiles(tmp_path):
    import tracemalloc

    dense = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(660), 8), 2, 2)
    path = tmp_path / "h.npz"
    ham.save_hamiltonian(dense, path)
    with np.load(path) as data:
        stored = sum(data[name].nbytes for name in data.files)
    tracemalloc.start()
    try:
        back = ham.load_hamiltonian(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.dim == 784 and back.eigen is not None
    # no n x n temporary: the arrays themselves plus a few tiles of 16 B
    assert peak <= stored + 4 * ham._TILE ** 2 * 16


def test_csv_hamiltonian_stays_real_unless_an_entry_is_complex(tmp_path):
    a = np.random.default_rng(11).normal(size=(4, 4))
    real = tmp_path / "real.csv"
    np.savetxt(real, a + a.T, delimiter=",")
    back = ham.load_hamiltonian(real)
    assert back.entries.dtype == np.float64
    assert np.array_equal(back.entries, np.loadtxt(real, delimiter=","))
    c = (a + a.T).astype(complex)
    c[1, 2], c[2, 1] = c[1, 2] + 0.5j, c[2, 1] - 0.5j
    cplx = tmp_path / "complex.csv"
    np.savetxt(cplx, c, delimiter=",")
    back = ham.load_hamiltonian(cplx)
    assert back.entries.dtype == np.complex128
    assert np.array_equal(back.entries, c)
