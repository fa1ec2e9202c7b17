"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` (built from the run's
``--seed``) and writes plain files that ``qprep`` reads through its command
line.  Equal seeds give byte-identical files.
"""

import json
import math

import numpy as np

_EIGHTFOLD = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
              (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0))


def write_fcidump(rng, path, n_orb, n_elec, ms2):
    """Random 8-fold-symmetric integrals with a gapped one-body diagonal.

    Written through ``hamiltonian.dump_fcidump`` so the file is exactly what
    qprep itself would emit.
    """
    from qprep.hamiltonian import FciDump, dump_fcidump

    h = rng.normal(scale=0.05, size=(n_orb, n_orb))
    h = (h + h.T) / 2 + np.diag(-1.5 + 0.4 * np.arange(n_orb))
    g = rng.normal(scale=0.03, size=(n_orb,) * 4)
    g = sum(g.transpose(p) for p in _EIGHTFOLD) / len(_EIGHTFOLD)
    # Positive Coulomb-like diagonal keeps the spectrum physical-looking.
    for p in range(n_orb):
        g[p, p, p, p] += 0.6
    fd = FciDump(n_orb, n_elec, ms2, float(rng.uniform(-1.0, 1.0)), h, g)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_fcidump(fd))


def write_state_csv(rng, path, dim, complex_amps):
    """Trial state: a few heavy leading amplitudes over a random background."""
    amps = rng.normal(size=dim) * 0.2
    if complex_amps:
        amps = amps + 1j * rng.normal(size=dim) * 0.2
    amps[:4] += rng.uniform(1.0, 2.0, size=4)
    amps = amps / np.linalg.norm(amps)
    with open(path, "w", encoding="utf-8") as fh:
        for a in amps:
            if complex_amps:
                fh.write("%r,%r\n" % (float(a.real), float(a.imag)))
            else:
                fh.write("%r\n" % float(a.real))


def write_levels_csv(rng, path, n_levels, n_peaks):
    """Multi-peak discrete spectrum in the readout frame.

    Distinct energies spread over [lo, hi] inside (0, 1); weights follow a
    mixture of ``n_peaks`` Gaussians times a positive jitter.  Returns
    ``(lo, hi, peak_centres)`` so callers can place windows and targets
    inside the spectrum's own range.
    """
    lo = float(rng.uniform(0.04, 0.10))
    hi = float(rng.uniform(0.35, 0.60))
    energies = np.sort(rng.uniform(lo, hi, size=n_levels))
    centres = np.sort(rng.uniform(lo + 0.02, hi - 0.02, size=n_peaks))
    widths = rng.uniform(0.01, 0.04, size=n_peaks)
    heights = rng.uniform(0.3, 1.0, size=n_peaks)
    weights = np.zeros(n_levels)
    for c, w, a in zip(centres, widths, heights):
        weights += a * np.exp(-0.5 * ((energies - c) / w) ** 2)
    weights = (weights + 1e-6) * rng.uniform(0.5, 1.5, size=n_levels)
    weights /= weights.sum()
    with open(path, "w", encoding="utf-8") as fh:
        for e, p in zip(energies, weights):
            fh.write("%r,%r\n" % (float(e), float(p)))
    return float(energies[0]), float(energies[-1]), [float(c) for c in centres]


def write_determinants(rng, path, n_det, width):
    """``n_det`` distinct occupation bitstrings of ``width`` spin orbitals,
    each with a quarter of the orbitals occupied; returns the list."""
    n_occ = max(1, width // 4)
    seen, dets = set(), []
    while len(dets) < n_det:
        bits = ["0"] * width
        for s in rng.choice(width, size=n_occ, replace=False):
            bits[s] = "1"
        text = "".join(bits)
        if text not in seen:
            seen.add(text)
            dets.append(text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# %d determinants, %d spin orbitals\n" % (n_det, width))
        fh.write("\n".join(dets) + "\n")
    return dets


def write_sos_json(rng, path, n_spin_orbitals, n_det):
    """Sum-of-Slaters JSON state with half filling and complex amplitudes."""
    n_occ = n_spin_orbitals // 2
    if math.comb(n_spin_orbitals, n_occ) < n_det:
        raise ValueError("too many determinants for the orbital count")
    seen, terms = set(), []
    while len(terms) < n_det:
        occ = set(rng.choice(n_spin_orbitals, size=n_occ,
                             replace=False).tolist())
        text = "".join("1" if s in occ else "0"
                       for s in range(n_spin_orbitals))
        if text in seen:
            continue
        seen.add(text)
        amp = complex(rng.normal(), rng.normal())
        terms.append({"re": amp.real, "im": amp.imag, "occ": text})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n_spin_orbitals": n_spin_orbitals, "terms": terms}, fh,
                  indent=1)
