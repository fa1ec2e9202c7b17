"""Runs every reproduction check and prints its verdict line."""

import numpy as np
import pytest

from qprep import acceptance
from qprep.hamiltonian import DenseHamiltonian
from qprep.spectra import broaden, default_grid, exact_spectral_measure

import oracles


@pytest.mark.parametrize("check", acceptance.CHECKS,
                         ids=[c.__name__.removeprefix("check_")
                              for c in acceptance.CHECKS])
def test_reproduction_check(check, capsys, acceptance_result):
    result = acceptance_result(check)
    with capsys.disabled():
        print()
        print(result.line())
    assert result.passed, result.detail


def test_checks_name_no_scipy_stats():
    # check 7 takes the normal density in closed form
    source = open(acceptance.__file__, encoding="utf-8").read()
    assert "scipy.stats" not in source


def test_check_lines_are_well_formed(acceptance_result):
    result = acceptance_result(acceptance.check_min_of_k)
    line = result.line()
    assert line.startswith("[PASS]") or line.startswith("[FAIL]")
    assert result.name in line and result.detail in line


def test_mps_circuit_check_detail_is_pinned(acceptance_result):
    # recorded while the check still multiplied against completed site
    # unitaries
    result = acceptance_result(acceptance.check_mps_circuit)
    assert result.detail == ("25 states, min fidelity 1-2.2e-16, "
                             "max reflection residual 8.9e-16")


@pytest.mark.parametrize("state", ["eigenvector", "random"])
def test_resolvent_curve_matches_broadened_measure(state, eigensolves):
    rng = np.random.default_rng(19)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    raw = DenseHamiltonian(4.0 * (a + a.conj().T))
    _, norm = oracles.normalize_spectrum(raw)
    evals, evecs = np.linalg.eigh(raw.entries)
    if state == "eigenvector":
        # one level: the curve is the Lorentzian at its normalized energy
        psi = evecs[:, 2]
        level = norm.apply(evals[2])
        grid = default_grid()
        expected = (0.05 / np.pi) / ((level - grid) ** 2 + 0.05 ** 2)
    else:
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        grid, expected = broaden(exact_spectral_measure(raw, psi), 0.05)
    eigensolves.clear()
    vals = acceptance._resolvent_curve(raw, psi, norm, 0.05, grid)
    assert eigensolves == []
    assert np.max(np.abs(vals - expected)) < 1e-10


def test_distribution_identities_take_one_eigensolve_per_trial(eigensolves):
    # the measure's eigensolve also gives the energy map the resolvent
    # solves use and the moments the series take
    result = acceptance.check_distribution_identities()
    assert result.passed, result.detail
    assert eigensolves == ["eigh"] * 20


def test_h6_protocol_needs_six_orbitals():
    with pytest.raises(ValueError, match="six-orbital"):
        acceptance.h6_protocol_report(acceptance.TWO_ORBITAL_FCIDUMP)


def test_h6_protocol_report_structure():
    # a synthetic six-orbital file with a gapped one-body spectrum: the
    # half-filled ground state is dominated by the lowest determinant and
    # correlation strictly lowers the energy
    diag = [-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]
    lines = ["&FCI NORB=6,NELEC=6,MS2=0,", "&END"]
    lines += [" 0.05 %d %d %d %d" % (p, p, p, p) for p in range(1, 7)]
    lines += [" %.1f %d %d 0 0" % (e, p + 1, p + 1)
              for p, e in enumerate(diag)]
    # (41|41) couples the leading determinant to its 1->4 double excitation
    lines += [" 0.02 2 1 1 1", " 0.1 4 1 4 1", " 0.0 0 0 0 0"]
    report = acceptance.h6_protocol_report("\n".join(lines) + "\n")
    assert set(report) == {
        "ground_energy", "lowest_diagonal", "correlation_lowers_energy",
        "dominant_weight", "dominant_label", "top_amplitudes",
        "pair_structure",
    }
    assert report["correlation_lowers_energy"]
    assert report["dominant_weight"] > 0.5
    assert report["ground_energy"] <= report["lowest_diagonal"]
    assert len(report["top_amplitudes"]) == 3
    assert abs(report["top_amplitudes"][0]) > 0.7
