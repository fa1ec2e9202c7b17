import math

import numpy as np
import pytest

from qprep import blas
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
                        oracles.set_two_body(g, p, q, r, s,
                                             rng.normal() * 0.3)
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


def test_repeated_and_overlapping_lines_parse_like_the_line_loop():
    # many lines share an index orbit, some repeat one exactly, and a
    # later line must win wherever two meet; -0.0 must survive as such
    rng = np.random.default_rng(12)
    n = 3
    rows = ["&FCI NORB=%d,NELEC=2,MS2=0,\n&END" % n]
    for _ in range(400):
        i, j, k, l = rng.integers(1, n + 1, size=4)
        if rng.random() < 0.3:
            k = l = 0
        value = rng.choice([rng.normal(), -0.0, 0.0])
        rows.append(" %.17g %d %d %d %d" % (value, i, j, k, l))
        if rng.random() < 0.1:
            rows.append(rows[-1])
        if rng.random() < 0.05:
            rows.append(" %.17g 0 0 0 0" % rng.normal())
    text = "\n".join(rows) + "\n"
    fd = ham.parse_fcidump(text)
    core, h, g = oracles.parse_fcidump_loop(text)
    assert fd.core_energy == core
    assert fd.one_body.tobytes() == h.tobytes()
    assert fd.two_body.tobytes() == g.tobytes()
    assert np.signbit(fd.two_body).any() and np.signbit(fd.one_body).any()


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
        norm = exact_spectral_measure(dense, np.ones(12)).normalizer
        evals = np.linalg.eigvalsh(norm.scale * dense.entries
                                   + norm.shift * np.eye(12))
        assert evals.min() > 0.1 - 1e-9 and evals.max() < 0.9 + 1e-9
        x = rng.normal(size=5)
        assert np.allclose(norm.invert(norm.apply(x)), x)


def test_spectrum_normalizer_bounds_and_degenerate_spectrum():
    norm = ham.spectrum_normalizer(-2.0, 6.0)
    assert np.allclose(norm.apply([-2.0, 6.0]), [0.1, 0.9], atol=1e-15)
    flat = ham.spectrum_normalizer(3.0, 3.0)
    assert flat.scale == 1.0 and flat.apply(3.0) == 0.5
    h = ham.DenseHamiltonian(3.0 * np.eye(4))
    measure = exact_spectral_measure(h, np.ones(4))
    assert measure.normalizer == flat
    assert np.array_equal(measure.levels, [[0.5, 0.25]] * 4)


def test_spectrum_normalizer_refuses_an_overflowing_spread():
    with pytest.raises(np.linalg.LinAlgError, match="spread beyond"):
        ham.spectrum_normalizer(-1e308, 1e308)
    norm = ham.spectrum_normalizer(-8e307, 8e307)
    assert np.allclose(norm.apply([-8e307, 8e307]), [0.1, 0.9], atol=1e-15)


def test_normalizer_explicit_convention():
    norm = ham.AffineNormalizer(scale=1 / 3, shift=1.0)
    assert norm.apply(-3.0) == 0.0
    assert norm.invert(0.0) == -3.0
    assert np.allclose(norm.apply([-3.0, 0.0]), [0.0, 1.0])


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
    assert dense.eigensystem() is first
    assert eigensolves == ["eigh"]
    assert not any(x.flags.writeable for x in (*first.even, *first.odd))
    ham.DenseHamiltonian(a + a.T).eigensystem()
    assert eigensolves == ["eigh", "eigh"]


def test_saved_eigensystem_is_reused_and_old_files_still_load(tmp_path,
                                                              eigensolves):
    dense = ham.build_ci_matrix(_random_fcidump(np.random.default_rng(9), 3),
                                1, 1)
    blocks = dense.eigensystem()
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    ham.save_hamiltonian(dense, new)
    with np.load(new) as data:
        # a balanced sector is stored in the block layout
        assert sorted(data.files) == sorted(
            ["basis_labels", "entries", *ham._BLOCK_MEMBERS])
        np.savez(old, entries=data["entries"],
                 basis_labels=data["basis_labels"])
    eigensolves.clear()
    back = ham.load_hamiltonian(new).eigensystem()
    for x, y in ((back.partner, blocks.partner), (back.sign, blocks.sign),
                 *zip(back.even + back.odd, blocks.even + blocks.odd)):
        assert x.tobytes() == y.tobytes()
    assert eigensolves == []
    legacy = ham.load_hamiltonian(old)
    assert legacy.blocks is None
    # only the build knows the spin flip: the (1,1) sector that it solved
    # as two blocks loads as one
    legacy_vals, legacy_vecs = legacy.eigensystem().even
    assert eigensolves == ["eigh"] and eigensolves.dims == [9]
    eigensolves.clear()
    ref_vals, ref_vecs = np.linalg.eigh(legacy.entries)
    assert np.array_equal(legacy_vals, ref_vals)
    assert np.array_equal(legacy_vecs, ref_vecs)
    assert np.max(np.abs(legacy_vals - blocks.levels()[0])) <= 1e-12 * max(
        1.0, np.max(np.abs(legacy.entries)))


def _supplied_forms():
    """``{form: (matrix, (levels, vectors), make)}``: ``make(levels,
    vectors)`` hands the matrix's eigensystem over as that form's
    :class:`FlipBlocks`, with ``(levels, vectors)`` as its even block."""
    a = np.random.default_rng(10).normal(size=(5, 5))
    a = a + a.T
    # the (2,2) sector of 4 orbitals: an even block of order 21 beside an
    # odd one of order 15
    balanced = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(700), 4), 2, 2)
    blocks = balanced.eigensystem()
    return {
        "one block": (a, np.linalg.eigh(a), ham.FlipBlocks.one_block),
        "spin-flip blocks": (
            balanced.entries, blocks.even,
            lambda vals, vecs: ham.FlipBlocks(blocks.partner, blocks.sign,
                                              (vals, vecs), blocks.odd)),
    }


def test_supplied_eigensystem_is_checked_against_the_matrix():
    for a, (evals, evecs), make in _supplied_forms().values():
        ham.DenseHamiltonian(a, blocks=make(evals, evecs))
        n = len(evals)
        swap = [1, 0, *range(2, n)]
        for eigen, reason in [
                ((evals[:n - 1], evecs), "shapes"),
                ((evals, evecs[:, :n - 1]), "shapes"),
                ((evals.astype(complex), evecs), "real"),
                ((np.where(evals == evals[2], np.nan, evals), evecs),
                 "non-finite"),
                ((evals[swap], evecs), "ascending"),
                ((evals, evecs[:, swap]), "does not match"),
                ((evals, 2 * evecs), "does not match"),
                ((evals + 1e-6, evecs), "does not match")]:
            with pytest.raises(ValueError, match=reason):
                ham.DenseHamiltonian(a, blocks=make(*eigen))


def test_oversized_stored_levels_are_refused_before_any_allocation(
        tmp_path):
    import tracemalloc

    # 16 MB of levels beside a 5 x 5 matrix: no flip of their order is made
    path = tmp_path / "h.npz"
    ham.save_npz(path, {"entries": np.eye(5), "basis_labels": np.array([]),
                        "eigenvalues": np.zeros(2_000_000),
                        "eigenvectors": np.eye(5)})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="shapes"):
            ham.load_hamiltonian(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oversized_stored_flip_is_refused_before_any_allocation(tmp_path):
    import tracemalloc

    # a flip of 2,000,000 basis states (32 MB) beside a 5 x 5 matrix and
    # its blocks: neither its involution nor its orbits are checked
    path = tmp_path / "h.npz"
    ham.save_npz(path, {"entries": np.eye(5), "basis_labels": np.array([]),
                        "partner": np.arange(2_000_000),
                        "sign": np.ones(2_000_000),
                        "even_eigenvalues": np.ones(5),
                        "even_eigenvectors": np.eye(5),
                        "odd_eigenvalues": np.empty(0),
                        "odd_eigenvectors": np.empty((0, 0))})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="block shapes"):
            ham.load_hamiltonian(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("scale", [1e170, 1e200, 1e300])
def test_eigensystem_of_a_huge_matrix_is_accepted(scale):
    # the residual is scaled before its norm squares it
    a = np.random.default_rng(11).normal(size=(50, 50))
    a = (a + a.T) * scale
    evals, evecs = ham.DenseHamiltonian(a).eigensystem().even
    ham.DenseHamiltonian(a, None, ham.FlipBlocks.one_block(evals, evecs))
    if scale == 1e200:
        swapped = evecs[:, [1, 0, *range(2, 50)]]
        with pytest.raises(ValueError, match="does not match"):
            ham.DenseHamiltonian(a, None,
                                 ham.FlipBlocks.one_block(evals, swapped))


def test_eigensystem_whose_products_overflow_unscaled_is_accepted():
    # levels about +-1.5e308: H(Vx) and Lx overflow for an unscaled x
    a = np.random.default_rng(0).normal(size=(50, 50))
    a = (a + a.T) * 0.8e307
    evals, evecs = ham.DenseHamiltonian(a).eigensystem().even
    ham.DenseHamiltonian(a, None, ham.FlipBlocks.one_block(evals, evecs))
    swapped = evecs[:, [1, 0, *range(2, 50)]]
    with pytest.raises(ValueError, match="does not match"):
        ham.DenseHamiltonian(a, None,
                             ham.FlipBlocks.one_block(evals, swapped))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e100, 1e160, 1e300])
def test_eigen_probe_reports_the_unscaled_residuals(
        monkeypatch, scale):
    a = np.random.default_rng(12).normal(size=(40, 40))
    a = (a + a.T) * scale
    size = np.max(np.abs(a))
    evals, evecs = ham.DenseHamiltonian(a).eigensystem().even
    x = np.random.default_rng(0).standard_normal(40)
    pair = np.linalg.norm((a @ (evecs @ x) - evecs @ (evals * x))
                          / max(1.0, size)) / np.linalg.norm(x)
    basis = np.linalg.norm(evecs.T @ (evecs @ x) - x) / np.linalg.norm(x)
    # every eigensystem is refused, with its residuals in the message
    monkeypatch.setattr(ham, "EIGEN_PROBE_TOL", -1.0)
    with pytest.raises(ValueError) as refused:
        ham.DenseHamiltonian(a, None, ham.FlipBlocks.one_block(evals, evecs))
    assert str(refused.value) == ("eigensystem does not match the matrix "
                                  "(probe residuals %.3g, %.3g)"
                                  % (pair, basis))


def test_solved_levels_beyond_the_float_range_are_refused():
    import warnings

    # levels near +-2e308 at this scale, +-1e308 at half of it
    a = np.random.default_rng(0).normal(size=(50, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            ham.DenseHamiltonian((a + a.T) * 1e307).eigensystem()
        evals, evecs = ham.DenseHamiltonian((a + a.T) / 2 * 1e307) \
            .eigensystem().even
    assert np.isfinite(evals).all() and np.isfinite(evecs).all()


def _entry_bound(fd, n_alpha, n_beta):
    """The bound on max |H_ij| stated in ``_check_integral_sizes``."""
    n_el = n_alpha + n_beta
    return (abs(fd.core_energy) + n_el * np.abs(fd.one_body).max()
            + (n_el * (fd.n_orb + 0.5) + max(n_alpha, 1) * max(n_beta, 1))
            * np.abs(fd.two_body).max())


@pytest.mark.parametrize("n_orb, n_alpha, n_beta",
                         [(2, 1, 1), (3, 2, 1), (4, 2, 2), (5, 1, 3),
                          (4, 0, 2)])
def test_integral_bound_holds_and_is_the_refusal_edge(n_orb, n_alpha,
                                                      n_beta):
    import warnings

    rng = np.random.default_rng(50 + n_orb)
    fd = _eightfold_fcidump(rng, n_orb)
    # every integral of size 1 bar the signs: the terms can add up
    fd = ham.FciDump(n_orb, 2, 0, 1.0, np.sign(fd.one_body),
                     np.sign(fd.two_body))
    bound = _entry_bound(fd, n_alpha, n_beta)
    h = ham.build_ci_matrix(fd, n_alpha, n_beta)
    assert np.abs(h.entries).max() <= bound
    assert np.abs(h.eigensystem().levels()[0]).max() <= h.dim * bound
    # scaled to just below and just above the edge 2 dim bound = max float
    edge = np.finfo(float).max / (2 * h.dim * bound)
    for factor, fits in ((0.99, True), (1.01, False)):
        s = edge * factor
        big = ham.FciDump(n_orb, 2, 0, s, fd.one_body * s, fd.two_body * s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if fits:
                evals = ham.build_ci_matrix(big, n_alpha, n_beta) \
                    .eigensystem().levels()[0]
                assert np.isfinite(evals).all()
            else:
                with pytest.raises(ValueError, match="integrals too large"):
                    ham.build_ci_matrix(big, n_alpha, n_beta)


@pytest.mark.parametrize("core, value", [(0.7, 1e308), (0.7, 1.7e308),
                                         (np.inf, 0.2), (np.nan, 0.2)])
def test_huge_integrals_are_refused_before_the_build(monkeypatch, core,
                                                     value):
    def unreached(*args):
        raise AssertionError("the build started")

    monkeypatch.setattr(ham, "_string_excitations", unreached)
    fd = ham.parse_fcidump(TWO_ORBITAL.replace(" 0.2 1 1 1 1",
                                               " %r 1 1 1 1" % value))
    fd.core_energy = core
    with pytest.raises(ValueError, match="integrals too large"):
        ham.build_ci_matrix(fd, 1, 1)


# ---------------------------------------------------------------------------
# Physical invariants at 8 orbitals, past the reach of both CI oracles
# ---------------------------------------------------------------------------

_INVARIANT_FCIDUMP = _eightfold_fcidump(np.random.default_rng(800), 8)


def _sector_levels(fd, n_alpha, n_beta):
    """The sector's levels; a balanced sector's come from its two flip
    blocks, with no dense eigenvectors made."""
    return ham.build_ci_matrix(fd, n_alpha, n_beta).eigensystem().levels()[0]


def _level_tol(*levels):
    return 1e-12 * max(1.0, *(np.abs(e).max() for e in levels))


@pytest.mark.parametrize("sector", [(2, 2), (3, 3)])
def test_ci_levels_survive_an_orbital_rotation(sector):
    fd = _INVARIANT_FCIDUMP
    q, _ = np.linalg.qr(np.random.default_rng(801).normal(size=(8, 8)))
    levels = _sector_levels(fd, *sector)
    rotated = _sector_levels(oracles.rotate_fcidump(fd, q), *sector)
    assert np.abs(rotated - levels).max() <= _level_tol(levels)


_UNBALANCED = [(na, nb) for na in range(9) for nb in range(na + 1, 9)
               if math.comb(8, na) * math.comb(8, nb) <= 784]


def test_ci_levels_mirror_under_the_spin_flip():
    # (n_a, n_b) and (n_b, n_a) hold the same levels, M_S -> -M_S
    assert (2, 6) in _UNBALANCED and (1, 4) in _UNBALANCED
    for na, nb in _UNBALANCED:
        levels = _sector_levels(_INVARIANT_FCIDUMP, na, nb)
        mirror = _sector_levels(_INVARIANT_FCIDUMP, nb, na)
        assert np.abs(mirror - levels).max() <= _level_tol(levels), (na, nb)


@pytest.mark.parametrize("sector", [(2, 1), (2, 2)])
def test_ci_levels_nest_along_s_z(sector):
    # every level of M_S + 1 is a multiplet member also found at M_S >= 0
    na, nb = sector
    outer = _sector_levels(_INVARIANT_FCIDUMP, na, nb)
    inner = _sector_levels(_INVARIANT_FCIDUMP, na + 1, nb - 1)
    gap = np.abs(inner[:, None] - outer[None, :]).min(axis=1)
    assert gap.max() <= _level_tol(outer, inner)


def test_one_electron_levels_are_the_orbital_energies():
    fd = _INVARIANT_FCIDUMP
    want = np.linalg.eigvalsh(fd.one_body) + fd.core_energy
    for sector in ((1, 0), (0, 1)):
        levels = _sector_levels(fd, *sector)
        assert np.abs(levels - want).max() <= _level_tol(want), sector


# ---------------------------------------------------------------------------
# Spin-flip blocks of the eigensolve
# ---------------------------------------------------------------------------

def _flip_matrix(labels):
    """Dense P from the labels: P e_i = sign_i e_partner_i."""
    partner, sign = oracles.spin_flip_of_labels(labels)
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


@pytest.mark.parametrize("n_orb", range(1, 7))
def test_build_hands_over_the_flip_of_its_labels(n_orb, eigensolves):
    fd = _eightfold_fcidump(np.random.default_rng(520 + n_orb), n_orb)
    for n_el in range(n_orb + 1):
        dense = ham.build_ci_matrix(fd, n_el, n_el)
        partner, sign = dense._flip
        ref_partner, ref_sign = oracles.spin_flip_of_labels(
            dense.basis_labels)
        assert np.array_equal(partner, ref_partner)
        assert np.array_equal(sign, ref_sign)
        if dense.dim == 1:
            # one fixed point: a block of order 1 and an empty one
            dense.eigensystem()
            assert eigensolves == ["eigh"] and eigensolves.dims == [1]
            eigensolves.clear()
        if n_el < n_orb:
            assert ham.build_ci_matrix(fd, n_el + 1, n_el)._flip is None


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
    blocks = dense.eigensystem()
    evals = blocks.levels()[0]
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
    ham._check_blocks(h, blocks, np.max(np.abs(h)))
    psi = rng.normal(size=dense.dim) + 1j * rng.normal(size=dense.dim)
    measure = exact_spectral_measure(dense, psi)
    ref = np.abs(ref_vecs.T @ (psi / np.linalg.norm(psi))) ** 2
    assert np.max(np.abs(_cluster_sums(ref_vals, measure.probs)
                         - _cluster_sums(ref_vals, ref))) <= 1e-10


@pytest.mark.parametrize("n_orb", range(1, 7))
def test_block_measure_matches_the_dense_columns(n_orb):
    from qprep.spectra import exact_spectral_measure

    rng = np.random.default_rng(900 + n_orb)
    fd = _eightfold_fcidump(rng, n_orb)
    for n_el in range(n_orb + 1):
        dense = ham.build_ci_matrix(fd, n_el, n_el)
        psi = rng.normal(size=dense.dim) + 1j * rng.normal(size=dense.dim)
        measure = exact_spectral_measure(dense, psi)
        # one block of the identity flip has an empty odd block
        blocked = dense.blocks.odd[0].size > 0
        assert blocked == (dense.dim > 1), (n_orb, n_el)
        # the oracle's dense columns give the route the blocks replace
        h = dense.entries
        quadrants = oracles.flip_blocked_eigh_quadrants(h,
                                                        dense.basis_labels)
        evecs = np.linalg.eigh(h)[1] if quadrants is None else quadrants[1]
        ref = np.abs(evecs.T @ (psi / np.linalg.norm(psi))) ** 2
        assert np.max(np.abs(measure.probs - ref)) <= 1e-12
        evals = dense.eigensystem().levels()[0]
        assert np.array_equal(measure.normalizer.apply(evals),
                              measure.energies)
        assert np.max(np.abs(evals - np.linalg.eigvalsh(h))) \
            <= 1e-12 * max(1.0, np.max(np.abs(h)))


def _one_block_cases():
    fd = _eightfold_fcidump(np.random.default_rng(700), 4)
    balanced = ham.build_ci_matrix(fd, 2, 2)
    h, labels = balanced.entries, balanced.basis_labels
    bump = np.zeros_like(h)
    bump[3, 7] = bump[7, 3] = 1e-9 * np.max(np.abs(h))
    broken = ham.DenseHamiltonian(h + bump, labels)
    broken._flip = balanced._flip
    return {
        "broken flip symmetry": broken,
        # the build's matrix and labels, but not its flip
        "built entries by hand": ham.DenseHamiltonian(h, labels),
        "complex entries": ham.DenseHamiltonian(h + 0j, labels),
        "unequal spin counts": ham.build_ci_matrix(fd, 2, 1),
    }


@pytest.mark.parametrize("case", sorted(_one_block_cases()))
def test_one_block_route_is_plain_eigh(case, eigensolves):
    dense = _one_block_cases()[case]
    h = dense.entries
    blocks = dense.eigensystem()
    evals, evecs = blocks.even
    assert blocks.odd[0].size == 0
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
    # inside a command at full width 2: at 8 orbitals the blocks (406, 378)
    # solve side by side, one BLAS thread each; the oracle solves them one
    # after the other on one thread
    with blas.command(2):
        blocks = dense.eigensystem()
    with blas.limit(1):
        _, _, ref = oracles.flip_blocked_eigh_quadrants(
            dense.entries, dense.basis_labels)
    for got, want in zip(blocks.even + blocks.odd, ref[0] + ref[1]):
        assert got.tobytes() == want.tobytes()


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


def _whole_matrix_maxima(e):
    with np.errstate(invalid="ignore"):
        return np.max(np.abs(e - e.conj().T)), np.max(np.abs(e))


@pytest.mark.parametrize("n", [129, 300])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "pair", "one side",
                                   "last tile"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fused_pass_keeps_a_non_finite_entry(n, bad, where, kind):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a = a + a.T
    if kind == "complex":
        b = rng.normal(size=(n, n))
        a = a + 1j * (b - b.T)
    # one entry or a mirrored pair, in a diagonal tile, across tiles, and
    # in the short last tile of an order that is not a multiple of _TILE
    i, j = {"diagonal": (5, 5), "pair": (3, 200 % n), "one side": (n - 1, 4),
            "last tile": (n - 1, n - 2)}[where]
    a[i, j] = bad
    if where == "pair":
        a[j, i] = bad
    dev, size = ham._deviation_and_size(a)
    ref_dev, ref_size = _whole_matrix_maxima(a)
    assert not np.isfinite(size)
    assert np.array_equal([dev, size], [ref_dev, ref_size], equal_nan=True)


@pytest.mark.parametrize("n", [0, 1, 200, 257])
def test_fused_pass_of_zeros_is_positive_zero(n):
    for zero in (0.0, -0.0):
        dev, size = ham._deviation_and_size(np.full((n, n), zero))
        assert (dev, size) == (0.0, 0.0)
        assert not np.signbit(dev) and not np.signbit(size)


def test_fused_pass_of_a_real_matrix_allocates_one_tile():
    import tracemalloc

    a = np.random.default_rng(2).normal(size=(300, 300))
    # NumPy's iterator buffers (8192 elements each by default) would hide
    # a second tile; at 512 elements they do not
    bufsize = np.setbufsize(512)
    tracemalloc.start()
    try:
        ham._deviation_and_size(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    # the reused difference tile, and no |x| temporary beside it
    assert peak < 1.5 * ham._TILE ** 2 * a.itemsize


@pytest.mark.parametrize("n", [1, 300, 784])
def test_tiled_symmetrization_is_bitwise_the_mean_with_the_transpose(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    expected = (a + a.T) * 0.5
    ham._symmetrize(a)
    assert a.tobytes() == expected.tobytes()


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
    assert back.dim == 784 and back.blocks is not None
    # no n x n temporary: the arrays themselves plus a few tiles of 16 B
    assert peak <= stored + 4 * ham._TILE ** 2 * 16


def _payload_offsets(path):
    """File offset of each member's array data in the npz at ``path``:
    past its local header (30 bytes, name, extra field) and its ``.npy``
    header (10 bytes and the length these give)."""
    import struct
    import zipfile

    raw = path.read_bytes()
    offsets = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            at = info.header_offset
            at += 30 + sum(struct.unpack("<HH", raw[at + 26:at + 30]))
            assert raw[at:at + 8] == b"\x93NUMPY\x01\x00"
            offsets[info.filename] = at + 10 + struct.unpack(
                "<H", raw[at + 8:at + 10])[0]
    return offsets


def test_every_saved_payload_starts_at_a_multiple_of_64(tmp_path):
    from qprep.states import MpsState, save_mps

    dense = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(663), 5), 2, 1)
    rng = np.random.default_rng(664)
    mps = MpsState([rng.normal(size=shape) for shape in
                    [(1, 4, 3), (3, 4, 5), (5, 4, 1)]], 4, None)
    ham.save_hamiltonian(dense, tmp_path / "h.npz")
    save_mps(mps, tmp_path / "m.npz")
    for name, members in (("h.npz", 4), ("m.npz", 5)):
        offsets = _payload_offsets(tmp_path / name)
        assert len(offsets) == members
        assert all(at % 64 == 0 for at in offsets.values()), offsets


def test_loaded_arrays_are_read_only_views_of_the_file(tmp_path):
    import tracemalloc

    dense = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(665), 8), 2, 2)
    path = tmp_path / "h.npz"
    ham.save_hamiltonian(dense, path)
    tracemalloc.start()
    try:
        back = ham.load_hamiltonian(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (back.entries, *back.blocks.members().values())
    for a in arrays:
        assert not a.flags.writeable and a.flags.aligned
    # nothing of the size of one stored matrix was allocated
    assert peak < back.entries.nbytes
    assert back.entries.tobytes() == dense.entries.tobytes()
    assert back.blocks.even[1].tobytes() == dense.blocks.even[1].tobytes()


def test_block_measure_of_a_load_makes_no_dense_eigenvectors(tmp_path):
    import tracemalloc

    from qprep.spectra import exact_spectral_measure

    dense = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(669), 8), 2, 2)
    path = tmp_path / "h.npz"
    ham.save_hamiltonian(dense, path)
    psi = np.random.default_rng(670).normal(size=dense.dim)
    tracemalloc.start()
    try:
        back = ham.load_hamiltonian(path)
        measure = exact_spectral_measure(back, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.blocks.odd[0].size > 0
    # the blocks hold about half of an n x n array; the measure made
    # nothing near one
    assert peak < back.entries.nbytes / 4
    _, evecs, _ = oracles.flip_blocked_eigh_quadrants(dense.entries,
                                                      dense.basis_labels)
    assert np.max(np.abs(measure.probs - (evecs.T @ psi) ** 2
                         / np.dot(psi, psi))) <= 1e-12


def test_complex_archive_round_trip_keeps_the_measure(tmp_path):
    from qprep.spectra import exact_spectral_measure

    # complex eigenvectors, probed on load through V^H: V^T V x is not x
    rng = np.random.default_rng(671)
    a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    dense = ham.DenseHamiltonian((a + a.conj().T) / 2)
    path = tmp_path / "h.npz"
    ham.save_hamiltonian(dense, path)
    with np.load(path) as data:
        assert sorted(data.files) == ["basis_labels", "eigenvalues",
                                      "eigenvectors", "entries"]
        assert data["eigenvectors"].dtype == complex
    back = ham.load_hamiltonian(path)
    for x, y in zip(back.eigensystem().even, dense.eigensystem().even):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    psi = rng.normal(size=40) + 1j * rng.normal(size=40)
    want = exact_spectral_measure(dense, psi)
    got = exact_spectral_measure(back, psi)
    assert got.levels.tobytes() == want.levels.tobytes()
    assert got.normalizer == want.normalizer


def test_np_savez_archive_loads_bit_identically(tmp_path):
    dense = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(666), 6), 2, 1)
    evals, evecs = dense.eigensystem().even
    ours, theirs = tmp_path / "ours.npz", tmp_path / "theirs.npz"
    ham.save_hamiltonian(dense, ours)
    np.savez(theirs, entries=dense.entries,
             basis_labels=np.array(dense.basis_labels),
             eigenvalues=evals, eigenvectors=evecs)
    assert ours.read_bytes() != theirs.read_bytes()
    a, b = ham.load_hamiltonian(ours), ham.load_hamiltonian(theirs)
    for x, y in ((a.entries, b.entries),
                 *zip(a.eigensystem().even, b.eigensystem().even)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.basis_labels == b.basis_labels == dense.basis_labels


def test_rewriting_a_loaded_path_leaves_the_loaded_arrays_intact(tmp_path):
    big = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(667), 6), 3, 3)
    small = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(668), 3), 1, 1)
    path = tmp_path / "h.npz"
    ham.save_hamiltonian(big, path)
    loaded = ham.load_hamiltonian(path)
    # a smaller file at the same path: written in place, it would cut
    # the pages the loaded arrays map
    ham.save_hamiltonian(small, path)
    assert path.stat().st_size < big.entries.nbytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.npz"]
    assert loaded.entries.tobytes() == big.entries.tobytes()
    # the blocks stay mapped and intact
    for x, y in zip(loaded.eigensystem().even + loaded.eigensystem().odd,
                    big.eigensystem().even + big.eigensystem().odd):
        assert x.tobytes() == y.tobytes()
    assert ham.load_hamiltonian(path).dim == small.dim


@pytest.mark.parametrize("order", ["C", "F"])
def test_saved_npz_loads_back_in_its_order_and_aligned(tmp_path, order):
    dense = ham.build_ci_matrix(
        _eightfold_fcidump(np.random.default_rng(661), 6), 2, 1)
    evals, evecs = dense.eigensystem().even
    stored = ham.DenseHamiltonian(
        np.asarray(dense.entries, order=order), dense.basis_labels,
        ham.FlipBlocks.one_block(evals, np.asarray(evecs, order=order)))
    path = tmp_path / "h.npz"
    ham.save_hamiltonian(stored, path)
    back = ham.load_hamiltonian(path)
    for a, b in ((back.entries, stored.entries),
                 (back.eigensystem().even[1], stored.eigensystem().even[1])):
        assert a.tobytes("A") == b.tobytes("A")
        assert a.flags.f_contiguous == b.flags.f_contiguous
        assert a.flags.aligned
    assert back.basis_labels == dense.basis_labels


@pytest.mark.parametrize("how, reason", [
    ("compressed", "entries.npy: is compressed by deflate; only stored, "
     "unencrypted members are read"),
    ("version 2.0", "entries.npy: .npy version 2.0 is not read")],
    ids=["compressed", "version 2.0"])
def test_npz_off_the_one_read_route_is_refused(tmp_path, capsys, how,
                                               reason):
    from qprep import cli

    a = np.random.default_rng(662).normal(size=(5, 5))
    entries = np.asfortranarray(a + a.T)
    labels = np.array(["0011", "0101"] * 2 + ["1"])
    path = tmp_path / "h.npz"
    if how == "compressed":
        np.savez_compressed(path, entries=entries, basis_labels=labels)
    else:
        _stored_npz(path, {"entries.npy": _npy(entries, (2, 0)),
                           "basis_labels.npy": _npy(labels)})
    code = cli.dispatch(["qpe-stats", "--ham", str(path), "--k", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert "%s: %s" % (path, reason) in captured.err


def _stored_npz(path, members, deflated=False):
    """A zip of ``name: bytes`` members, stored unless ``deflated``."""
    import zipfile

    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED if deflated
                         else zipfile.ZIP_STORED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def _npy(a, version=None):
    import io

    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, a, version, allow_pickle=True)
    return buffer.getvalue()


def _huge_npy(version):
    """A ``.npy`` file whose header claims 2**40 float64 over 24 bytes."""
    import io

    buffer = io.BytesIO()
    getattr(np.lib.format, "write_array_header_%d_0" % version)(
        buffer, {"descr": "<f8", "fortran_order": False,
                 "shape": (2 ** 40,)})
    return buffer.getvalue() + bytes(24)


@pytest.mark.parametrize("member, deflated, reason", [
    (_npy(np.eye(3))[:-8], False,
     "entries.npy: size does not fit its header"),
    (_npy(np.eye(3)) + bytes(8), False,
     "entries.npy: size does not fit its header"),
    (_npy(np.eye(3), (2, 0)) + bytes(8), False,
     "entries.npy: .npy version 2.0 is not read"),
    # a header that claims 8 TiB over a 24-byte payload is refused before
    # anything is allocated for it
    (_npy(np.zeros(3)).replace(b"(3,), }" + b" " * 12,
                               b"(%d,), }" % 2 ** 40), False,
     "entries.npy: size does not fit its header"),
    # refused by compression or .npy version, before the size check
    (_huge_npy(1), True, "entries.npy: is compressed by deflate"),
    (_huge_npy(2), False, "entries.npy: .npy version 2.0 is not read"),
    (_npy(np.array([None, 1], dtype=object)), False,
     "Object arrays cannot be loaded when allow_pickle=False")],
    ids=["short", "long", "long version 2.0", "huge shape",
         "huge shape compressed", "huge shape version 2.0", "object"])
def test_npz_member_that_does_not_fit_its_header_is_refused(tmp_path, member,
                                                            deflated, reason):
    path = tmp_path / "h.npz"
    _stored_npz(path, {"entries.npy": member,
                       "basis_labels.npy": _npy(np.array([]))}, deflated)
    with pytest.raises(ValueError, match=reason):
        ham.load_hamiltonian(path)


def test_deflated_member_that_cannot_inflate_to_its_header_is_refused(
        tmp_path):
    import zipfile

    # header and zip64 sizes agree on 8 TiB, which 24 deflated bytes
    # cannot hold: refused as deflated before anything is allocated
    path = tmp_path / "h.npz"
    member = _huge_npy(1)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("basis_labels.npy", _npy(np.array([])),
                         zipfile.ZIP_STORED)
        archive.writestr("entries.npy", member)
        archive.filelist[-1].file_size = len(member) - 24 + 8 * 2 ** 40
    with pytest.raises(ValueError, match="entries.npy: is compressed by "
                       "deflate; only stored, unencrypted members are read"):
        ham.load_hamiltonian(path)


def test_member_whose_data_starts_at_the_end_of_the_file_is_refused(
        tmp_path):
    import struct
    import zipfile

    path = tmp_path / "h.npz"
    _stored_npz(path, {"basis_labels.npy": _npy(np.array([])),
                       "entries.npy": _npy(np.eye(2))})
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        at = archive.getinfo("entries.npy").header_offset
    # a copy of the local header becomes the archive comment, the last
    # bytes of the file, and the central directory points at it
    local = raw[at:at + 30 + len("entries.npy")]
    central = raw.rindex(b"entries.npy") - 46
    end = raw.rindex(b"PK\x05\x06")
    struct.pack_into("<L", raw, central + 42, len(raw))
    struct.pack_into("<H", raw, end + 20, len(local))
    path.write_bytes(raw + local)
    with pytest.raises(ValueError,
                       match="entries.npy: size does not fit its header"):
        ham.load_hamiltonian(path)


@pytest.mark.parametrize("past", ["member size", "member offset"])
def test_archive_past_the_zip32_limit_is_refused_leaving_the_path_alone(
        tmp_path, monkeypatch, past):
    import zipfile

    path = tmp_path / "h.npz"
    ham.save_hamiltonian(ham.DenseHamiltonian(np.eye(3)), path)
    before = path.read_bytes()
    # 1000 bytes stand in for 2 GiB: one 3.2 kB matrix passes them, and
    # so do the members after a 0.8 kB one
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
    dense = ham.DenseHamiltonian(np.eye(20 if past == "member size" else 10))
    with pytest.raises(ValueError,
                       match="archive passes 2 GiB; zip64 is not written"):
        ham.save_hamiltonian(dense, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.npz"]
    assert path.read_bytes() == before


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
