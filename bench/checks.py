"""Output validation for benchmark commands.

Every check runs after the batch, outside the timed region, and raises
:class:`CheckFailed` on the first problem.  Generic checks make sure each
CSV and JSON output parses and holds only finite numbers; reference checks
recompute a result independently of qprep with plain NumPy.
"""

import csv
import json
import math

import numpy as np


class CheckFailed(Exception):
    """An output failed to parse, was not finite, or missed its reference."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Parsing with finiteness
# ---------------------------------------------------------------------------

def _walk_numbers(obj, where="$"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        require(math.isfinite(obj), f"non-finite number at {where}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _walk_numbers(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _walk_numbers(value, f"{where}[{i}]")


def parse_json(text, what="output"):
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"{what}: not JSON ({exc})")
    _walk_numbers(obj)
    return obj


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh.read(), path)


def read_csv(path, header):
    """Rows of floats under the expected header; every value finite."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and tuple(rows[0]) == tuple(header),
            f"{path}: header {rows[:1]} is not {list(header)}")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path}: unparseable value ({exc})")
    require(data.ndim == 2 and data.shape[0] > 0
            and data.shape[1] == len(header), f"{path}: bad shape")
    require(bool(np.all(np.isfinite(data))), f"{path}: non-finite value")
    return data


def read_cost_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["param", "method", "toffoli",
                                 "clean_qubits", "dirty_qubits"],
            f"{path}: unexpected header")
    require(len(rows) > 1, f"{path}: no rows")
    for row in rows[1:]:
        try:
            nums = [float(x) for x in (row[0], row[2], row[3], row[4])]
        except (ValueError, IndexError):
            raise CheckFailed(f"{path}: unparseable row {row}")
        require(all(math.isfinite(v) and v >= 0 for v in nums),
                f"{path}: bad cost row {row}")


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def read_levels(path):
    """(energies, weights) of a levels CSV, merged and renormalized the way
    the qprep loader documents it."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    energies, inverse = np.unique(rows[:, 0], return_inverse=True)
    weights = np.zeros(energies.shape)
    np.add.at(weights, inverse, rows[:, 1])
    return energies, weights / weights.sum()


def fejer_mass(energies, k, bins):
    """Readout-kernel mass of each level on the given register values.

    F_k(E, x) = sin^2(pi 2^k E) / (2^2k sin^2(pi (E - x / 2^k))), which sums
    to one over all 2^k values of x.
    """
    m = 2 ** k
    e = np.asarray(energies, dtype=float)[:, None]
    x = np.asarray(bins, dtype=float)[None, :]
    num = np.sin(np.pi * m * e) ** 2
    den = np.sin(np.pi * (e - x / m)) ** 2
    return (num / den).sum(axis=1) / m ** 2


def leak_reference(energies, weights, k, epsilon, e0):
    """Leaked probability: counted levels against every window bin."""
    m = 2 ** k
    x_upper = math.ceil(m * (e0 - epsilon))
    bins = np.arange(-(2 ** (k - 1)), x_upper)
    keep = energies > e0 - epsilon
    total = 0.0
    for start in range(0, int(keep.sum()), 256):
        e = energies[keep][start:start + 256]
        w = weights[keep][start:start + 256]
        total += float(w @ fejer_mass(e, k, bins))
    return total


def expected_min_reference(energies, weights, reps):
    tail = np.minimum(np.cumsum(weights[::-1])[::-1], 1.0)
    hit = tail ** reps - np.append(tail[1:], 0.0) ** reps
    return float(energies @ hit)


def lorentzian_reference(npz_path, sidecar, grid_out, eta):
    """Lorentzian broadening of the exact measure of the uniform state.

    The resolvent curve of a Hermitian H at broadening eta equals
    sum_n p_n (eta/pi) / ((E_n - E)^2 + eta^2) in the normalized frame; the
    CLI reports it in original units through the sidecar's affine map.
    """
    with np.load(npz_path, allow_pickle=False) as data:
        h = np.array(data["entries"])
    evals, evecs = np.linalg.eigh(h)
    psi = np.full(h.shape[0], h.shape[0] ** -0.5)
    probs = np.abs(evecs.T @ psi) ** 2
    scale = sidecar["energy_map"]["scale"]
    shift = sidecar["energy_map"]["shift"]
    lo, hi = evals[0], evals[-1]
    require(math.isclose(scale, 0.8 / (hi - lo), rel_tol=1e-9),
            "sidecar scale does not map the spectrum onto [0.1, 0.9]")
    e_norm = scale * evals + shift
    grid = scale * np.asarray(grid_out) + shift
    curve = (eta / np.pi) * (probs[None, :]
                             / ((e_norm[None, :] - grid[:, None]) ** 2
                                + eta ** 2)).sum(axis=1)
    raw1 = float(probs @ evals)
    return curve * scale, raw1


def signature_check(dets, smap):
    """Distinct signatures of at most 2 ceil(log2 D) - 1 bits that the
    emitted u-vectors reproduce from the selected substrings."""
    n_det = len(dets)
    rows = smap["selected_rows"]
    us, sigs = smap["u_vectors"], smap["signatures"]
    width = len(us)
    require(len(sigs) == n_det, "one signature per determinant expected")
    require(width <= 2 * math.ceil(math.log2(n_det)) - 1,
            f"{width} signature bits exceed 2 ceil(log2 {n_det}) - 1")
    require(len(set(sigs)) == n_det, "signatures are not distinct")
    u_ints = [int(u, 16) if u else 0 for u in us]
    for det, sig in zip(dets, sigs):
        sub = int("".join(det[p] for p in rows), 2) if rows else 0
        bits = "".join(str(bin(u & sub).count("1") & 1) for u in u_ints)
        require(int(bits or "0", 2) == (int(sig, 16) if sig else 0),
                "a signature does not follow from the u-vectors")


def sos_overlap(a, b):
    """|<a|b>|^2 / (|a|^2 |b|^2) for two SOS JSON dicts."""
    amp_a = {t["occ"]: complex(t["re"], t["im"]) for t in a["terms"]}
    amp_b = {t["occ"]: complex(t["re"], t["im"]) for t in b["terms"]}
    inner = sum(amp_a[o].conjugate() * v for o, v in amp_b.items()
                if o in amp_a)
    na = sum(abs(v) ** 2 for v in amp_a.values())
    nb = sum(abs(v) ** 2 for v in amp_b.values())
    return abs(inner) ** 2 / (na * nb)
