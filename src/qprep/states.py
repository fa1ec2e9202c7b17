"""Wavefunction containers and conversions: sums of Slater determinants and
matrix product states.

Two interchangeable representations are provided:

* :class:`SosState` — a sum of Slater determinants ("SOS"), stored as
  ``(amplitude, occupation)`` pairs where the occupation is a bit string over
  spin orbitals (character ``s`` is spin orbital ``s``; spin orbitals are
  interleaved, ``2p`` = alpha and ``2p + 1`` = beta of spatial orbital ``p``).
* :class:`MpsState` — a matrix product state with one tensor per spatial
  orbital and local dimension 4 (empty / beta / alpha / doubly occupied).

The canonical form used throughout makes every tensor except the first an
isometry when summing over its physical and *right* bond index; this is the
orientation in which the site tensors embed directly into state-preparation
unitaries.  Conversions in both directions, truncation, overlaps, and dense
statevector export (for small systems) are included.

All functions are pure: inputs are never mutated.
"""

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import _pow2_scaled, npz_archive, save_npz

LEFT_ORTHO_TOL = 1e-10
STATEVECTOR_LIMIT = 65536  # largest dense vector the export will build
# Determinants sos_to_mps adds between two truncations of the running sum.
_COMPRESS_EVERY = 8
# Prefixes mps_to_sos expands at once, which bounds its memory.
_EXPAND_BLOCK = 1024

# physical index n = 2*n_alpha + n_beta; bits are written alpha-then-beta,
# as ASCII codes: _DIGIT_CHARS[n] spells digit n
_DIGIT_CHARS = np.frombuffer(b"00011011", dtype=np.uint8).reshape(4, 2)
_SPATIAL_CHARS = {"0": "00", "b": "01", "a": "10", "2": "11"}


class TermBudgetExceeded(RuntimeError):
    """A determinant expansion produced more terms than the configured cap."""


def occupation_from_spatial(spatial):
    """Spell out a spatial-orbital occupation pattern as a spin-orbital string.

    ``spatial`` is a string over ``{"0", "a", "b", "2"}`` (empty, spin-up,
    spin-down, doubly occupied), one character per spatial orbital.  Each
    character expands to two adjacent spin-orbital bits, alpha first, e.g.
    ``"2a0"`` -> ``"111000"``.
    """
    try:
        return "".join(_SPATIAL_CHARS[c] for c in spatial.lower())
    except KeyError as exc:
        raise ValueError(f"unknown spatial occupation character {exc}") from None


@dataclass
class SosState:
    """A wavefunction given as a list of weighted Slater determinants.

    ``terms`` holds ``(amplitude, occupation)`` pairs with finite
    amplitudes and mutually distinct occupation strings of length
    ``n_spin_orbitals``.
    """

    n_spin_orbitals: int
    terms: list

    def __post_init__(self):
        if self.n_spin_orbitals < 1:
            raise ValueError("n_spin_orbitals must be positive")
        clean = []
        for amp, occ in self.terms:
            if (not isinstance(occ, str) or len(occ) != self.n_spin_orbitals
                    or set(occ) - {"0", "1"}):
                raise ValueError(f"bad occupation string {occ!r}")
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude of {occ} is not finite")
            clean.append((amp, occ))
        if len({occ for _, occ in clean}) != len(clean):
            raise ValueError("occupation strings must be distinct")
        self.terms = clean

    def _scaled(self):
        """``(amplitudes / 2^e, their norm, e)``, by :func:`_pow2_scaled`,
        so no square of an amplitude over- or underflows whatever its size.
        """
        amps, e = _pow2_scaled(np.array([a for a, _ in self.terms],
                                        dtype=complex))
        amps = amps.tolist()
        return amps, math.sqrt(sum(abs(a) ** 2 for a in amps)), e

    def norm(self):
        _, n, e = self._scaled()
        return math.ldexp(n, e)

    def normalize(self):
        """Return a unit-norm copy (ValueError on the zero state)."""
        amps, n, _ = self._scaled()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SosState(self.n_spin_orbitals, [
            (a / n, occ) for a, (_, occ) in zip(amps, self.terms)])

    def to_json_dict(self):
        return {
            "n_spin_orbitals": self.n_spin_orbitals,
            "terms": [{"re": a.real, "im": a.imag, "occ": occ}
                      for a, occ in self.terms],
        }

    @classmethod
    def from_json_dict(cls, obj):
        """Inverse of :meth:`to_json_dict`; a missing key or a value of the
        wrong type is a ValueError."""
        try:
            terms = [(complex(t["re"], t["im"]), t["occ"])
                     for t in obj["terms"]]
            n_spin_orbitals = int(obj["n_spin_orbitals"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not an SOS state ({type(exc).__name__}: "
                             f"{exc})") from None
        return cls(n_spin_orbitals, terms)


def _left_ortho_residual(tensor):
    mat = tensor.reshape(tensor.shape[0], -1)
    gram = mat @ mat.conj().T
    return float(np.max(np.abs(gram - np.eye(mat.shape[0]))))


@dataclass
class MpsState:
    """A matrix product state: ``tensors[j]`` has shape (chi_{j-1}, d, chi_j).

    Entries must be finite and boundary bond dimensions 1.
    ``canonical_form`` is ``None`` or ``"left"``; in the latter case every
    tensor after the first must satisfy the row-isometry condition
    (physical and right bond indices summed) to within 1e-10 — the first
    tensor carries the norm.
    """

    tensors: list
    local_dim: int = None
    canonical_form: str = None

    def __post_init__(self):
        if not self.tensors:
            raise ValueError("an MPS needs at least one site")
        tensors = [np.asarray(t, dtype=complex) for t in self.tensors]
        for j, t in enumerate(tensors):
            if t.ndim != 3:
                raise ValueError("site tensors must be rank 3")
            if not np.isfinite(t).all():
                raise ValueError(f"site tensor {j} is not finite")
        d = tensors[0].shape[1]
        if self.local_dim is None:
            self.local_dim = d
        elif self.local_dim != d:
            raise ValueError("local_dim does not match tensor shapes")
        for j, t in enumerate(tensors):
            if t.shape[1] != d:
                raise ValueError("inconsistent physical dimensions")
            if j and tensors[j - 1].shape[2] != t.shape[0]:
                raise ValueError(f"bond dimension mismatch at site {j}")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        if self.canonical_form not in (None, "left"):
            raise ValueError("canonical_form must be None or 'left'")
        if self.canonical_form == "left":
            for j, t in enumerate(tensors[1:], start=1):
                res = _left_ortho_residual(t)
                if res > LEFT_ORTHO_TOL:
                    raise ValueError(
                        f"site {j} violates the isometry condition "
                        f"(residual {res:.2e})")
        self.tensors = tensors

    @property
    def n_sites(self):
        return len(self.tensors)

    @property
    def bond_dims(self):
        """Bond dimensions chi_0 .. chi_N (boundaries included)."""
        return [self.tensors[0].shape[0]] + [t.shape[2] for t in self.tensors]

    def norm(self):
        """sqrt <self|self>, contracted with each site tensor divided by
        the power of two of :func:`_pow2_scaled` and multiplied back by
        their product at the end: exact scalings, so a norm that neither
        over- nor underflows on the way keeps its bits, and entries near
        either end of the float range give theirs without a warning (a
        norm past the float range is inf)."""
        scaled = [_pow2_scaled(t) for t in self.tensors]
        tensors = [t for t, _ in scaled]
        inner = _transfer_contraction(tensors, tensors).real
        with np.errstate(over="ignore"):
            return float(np.ldexp(math.sqrt(max(inner, 0.0)),
                                  sum(e for _, e in scaled)))


# ---------------------------------------------------------------------------
# Dense statevector export
# ---------------------------------------------------------------------------

def mps_to_statevector(state):
    """Dense vector of dimension d**n_sites, site 0 most significant.

    For local dimension 4 the amplitude of occupation string ``occ`` sits
    at index ``int(occ, 2)``.
    """
    dim = state.local_dim ** state.n_sites
    if dim > STATEVECTOR_LIMIT:
        raise ValueError(f"statevector would have {dim} entries "
                         f"(limit {STATEVECTOR_LIMIT})")
    vec = np.ones((1, 1), dtype=complex)
    for t in state.tensors:
        vec = np.tensordot(vec, t, axes=(1, 0))
        vec = vec.reshape(-1, t.shape[2])
    return vec[:, 0]


# ---------------------------------------------------------------------------
# Canonical form and truncation
# ---------------------------------------------------------------------------

def _sweep_to_left_form(tensors, chi_max=None):
    """Right-to-left SVD sweep making sites 1..N-1 row isometries; returns
    ``(tensors, fidelity)``.

    Without ``chi_max`` the represented vector is preserved exactly and the
    fidelity is 1; the norm (and any global phase) accumulates in the
    site-0 tensor, and exact rank deficiencies shrink the bonds.  With it,
    each bond keeps at most ``chi_max`` singular values, rescaled to keep
    the norm, and the fidelity is the product of the retained weight
    fractions.  Those are Schmidt weights only if sites 0..N-2 enter as
    column isometries (physical and left bond indices summed).
    """
    ts = [t.copy() for t in tensors]
    fidelity = 1.0
    for j in range(len(ts) - 1, 0, -1):
        chi_l, d, chi_r = ts[j].shape
        u, s, vh = np.linalg.svd(ts[j].reshape(chi_l, d * chi_r),
                                 full_matrices=False)
        kept = s[:chi_max]
        # a ratio of squares: of the scaled values, it keeps its bits
        w = _pow2_scaled(s)[0] ** 2
        frac = float(np.sum(w[:chi_max])) / float(np.sum(w)) if s[0] else 1.0
        fidelity *= frac
        ts[j] = vh[:chi_max].reshape(-1, d, chi_r)
        ts[j - 1] = np.tensordot(ts[j - 1],
                                 u[:, :chi_max] * (kept / np.sqrt(frac)),
                                 axes=(2, 0))
    return ts, fidelity


def left_canonicalize(state):
    """Return an equivalent MPS in the left-canonical form.

    The statevector is unchanged (up to floating-point roundoff — no gauge
    phase is introduced beyond what the SVD fixes internally).
    """
    return MpsState(_sweep_to_left_form(state.tensors)[0],
                    state.local_dim, canonical_form="left")


def compress_mps(state, chi_max):
    """Truncate bond dimensions; returns ``(compressed, fidelity)``.

    A left-to-right QR sweep makes sites 0..N-2 column isometries, so the
    one truncating right-to-left SVD sweep cuts genuine Schmidt spectra of
    the current state and the reported fidelity |<out|in>|^2
    (norm-independent) is exactly the product over bonds of the retained
    Schmidt weight fractions.  Keeps at most ``chi_max`` values per bond.
    The output is renormalized to the input norm and returned in
    left-canonical form.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be at least 1")
    ts = list(state.tensors)
    for j in range(len(ts) - 1):
        chi_l, d, chi_r = ts[j].shape
        q, r = np.linalg.qr(ts[j].reshape(chi_l * d, chi_r))
        ts[j] = q.reshape(chi_l, d, -1)
        ts[j + 1] = np.tensordot(r, ts[j + 1], axes=(1, 0))
    ts, fidelity = _sweep_to_left_form(ts, chi_max)
    return MpsState(ts, state.local_dim, canonical_form="left"), fidelity


# ---------------------------------------------------------------------------
# SOS <-> MPS conversions
# ---------------------------------------------------------------------------

def mps_to_sos(state, threshold, term_budget=1_000_000):
    """Expand an MPS into determinants, dropping weight below ``threshold``.

    The expansion runs level by level over the sites, keeping for every
    surviving prefix of physical digits its partial coefficient row; a
    prefix of one digit or more is pruned as soon as the squared norm of
    that row drops to ``threshold`` or below.  In the left-canonical form that norm bounds
    every completion's |coefficient|^2, so every determinant with squared
    amplitude strictly above ``threshold`` is guaranteed to appear.  The
    norms are taken with site 0 divided by the power of two of
    :func:`_pow2_scaled` and the threshold scaled alike, so they neither
    over- nor underflow, and each amplitude is multiplied back exactly.  At
    each site a block of at most ``_EXPAND_BLOCK`` prefixes takes its four
    children from one stacked product, which runs the same vector-matrix
    product per row as a single row would, so every amplitude has the bits
    of the row-by-row product.  Blocks are expanded depth first, so at most
    four blocks per site wait at any time and the prefixes take
    O(n_sites * block * (chi + n_sites)) memory whatever the threshold.
    Raises :class:`TermBudgetExceeded` as soon as more than ``term_budget``
    determinants survive, so the output is bounded too.
    """
    if state.local_dim != 4:
        raise ValueError("determinant expansion requires local_dim 4")
    if not 0.0 <= threshold < np.inf:
        raise ValueError("threshold must be finite and nonnegative")
    ts = (state.tensors if state.canonical_form == "left"
          else _sweep_to_left_form(state.tensors)[0])
    n = len(ts)
    leaves = [(np.empty(0, dtype=complex), np.empty((0, n), dtype=np.uint8))]
    n_found = 0
    # The norm sits in site 0, the rest are isometries: site 0 divided by
    # 2^e (exact, and after the sweep, whose SVDs would not scale alike)
    # keeps every squared norm in range, the threshold takes 2^-2e and the
    # amplitudes get 2^e back.
    site0, e = _pow2_scaled(ts[0])
    ts = [site0, *ts[1:]]
    # blocks of prefixes still to prune and expand: (site, coefficient
    # rows, digit rows), from the rows of site 0
    stack = [(1, site0[0], np.arange(4, dtype=np.uint8)[:, None])]
    with np.errstate(over="ignore"):
        threshold = np.ldexp(threshold, -2 * e)
    while stack:
        j, coeffs, digits = stack.pop()
        # each row's squared norm, by the dot product np.vdot runs on it
        keep = (coeffs.conj()[:, None, :] @ coeffs[:, :, None])[:, 0, 0] \
            .real > threshold
        coeffs, digits = coeffs[keep], digits[keep]
        if j == n:
            n_found += len(coeffs)
            if n_found > term_budget:
                raise TermBudgetExceeded(
                    f"more than {term_budget} determinants above threshold")
            leaves.append((coeffs[:, 0], digits))
            continue
        # row r's child for digit d sits at 4 r + d
        kids = (coeffs[:, None, None, :] @ ts[j].transpose(1, 0, 2)) \
            .reshape(-1, ts[j].shape[2])
        kid_digits = np.empty((len(digits), 4, j + 1), dtype=np.uint8)
        kid_digits[:, :, :j] = digits[:, None, :]
        kid_digits[:, :, j] = np.arange(4)
        kid_digits = kid_digits.reshape(-1, j + 1)
        for start in range(0, len(kids), _EXPAND_BLOCK):
            stop = start + _EXPAND_BLOCK
            stack.append((j + 1, kids[start:stop], kid_digits[start:stop]))
    amps = np.ldexp(np.concatenate([a for a, _ in leaves]).view(float), e) \
        .view(complex).tolist()
    text = _DIGIT_CHARS[np.concatenate([d for _, d in leaves])] \
        .tobytes().decode("ascii")
    found = sorted(zip(amps, (text[i:i + 2 * n]
                              for i in range(0, len(text), 2 * n))),
                   key=lambda t: (-abs(t[0]), t[1]))
    return SosState(2 * n, found)


def _term_digits(terms, n_sites):
    """``digits[t, j]``, the physical digit 2 * n_alpha + n_beta of term t's
    occupation at site j."""
    bits = np.frombuffer("".join(occ for _, occ in terms).encode("ascii"),
                         dtype=np.uint8) - np.uint8(ord("0"))
    return (bits.reshape(len(terms), n_sites, 2)
            @ np.array([2, 1], dtype=np.uint8))


def _add_terms(tensors, amps, digits):
    """Tensors of an MPS plus a block of weighted determinants.

    ``digits[t, j]`` is the physical digit of determinant t at site j.
    Every determinant enters as its own diagonal block of bond dimension 1
    (its amplitude on site 0), so interior bonds grow by ``len(amps)``;
    the entries are those of adding the determinants one at a time.
    """
    n = len(tensors)
    k = len(amps)
    out = []
    for j, a in enumerate(tensors):
        chi_l, d, chi_r = a.shape
        left = np.zeros(k, dtype=int) if j == 0 else chi_l + np.arange(k)
        right = np.zeros(k, dtype=int) if j == n - 1 else chi_r + np.arange(k)
        t = np.zeros((chi_l + k * (j > 0), d, chi_r + k * (j < n - 1)),
                     dtype=complex)
        t[:chi_l, :, :chi_r] = a
        t[left, digits[:, j], right] += amps if j == 0 else 1.0
        out.append(t)
    return out


def sos_to_mps(state, chi_max):
    """Build an MPS from a determinant expansion; returns ``(mps, fidelity)``.

    Terms are added largest-|amplitude| first, ``_COMPRESS_EVERY`` at a
    time.  After each full block the running sum is truncated back to
    ``chi_max``, unless no bond exceeds ``chi_max``: such a compression
    would keep every singular value and leave the state as it is, so it is
    skipped.  One compression at the end always runs and returns the
    left-canonical form.  The reported fidelity is |<mps|state>|^2 with both
    sides normalized, evaluated against the exact input expansion.  The
    amplitudes are first divided by the power of two 2^e of
    :meth:`SosState._scaled`, so no square over- or underflows, and site 0,
    which carries the norm, is multiplied back by 2^e at the end.
    """
    if state.n_spin_orbitals % 2:
        raise ValueError("need an even number of spin orbitals")
    if not state.terms:
        raise ValueError("cannot build an MPS from an empty expansion")
    scaled, _, e = state._scaled()
    state = SosState(state.n_spin_orbitals,
                     [(a, occ) for a, (_, occ) in zip(scaled, state.terms)])
    n = state.n_spin_orbitals // 2
    order = sorted(state.terms, key=lambda t: (-abs(t[0]), t[1]))
    amps = np.array([amp for amp, _ in order], dtype=complex)
    digits = _term_digits(order, n)
    # the empty sum: bond dimension 0 between sites
    acc = [np.zeros((int(j == 0), 4, int(j == n - 1)), dtype=complex)
           for j in range(n)]
    for start in range(0, len(order), _COMPRESS_EVERY):
        stop = start + _COMPRESS_EVERY
        acc = _add_terms(acc, amps[start:stop], digits[start:stop])
        if stop <= len(order) and max(t.shape[2] for t in acc) > chi_max:
            acc = compress_mps(MpsState(acc), chi_max=chi_max)[0].tensors
    mps, _ = compress_mps(MpsState(acc), chi_max=chi_max)
    nm, ns = mps.norm(), state.norm()
    fidelity = (abs(overlap(mps, state)) ** 2 / (nm * nm * ns * ns)
                if nm and ns else 0.0)
    with np.errstate(over="ignore"):    # a norm past the float range
        site0 = np.ldexp(mps.tensors[0].view(float), e).view(complex)
    return (MpsState([site0, *mps.tensors[1:]], canonical_form="left"),
            float(fidelity))


# ---------------------------------------------------------------------------
# Overlaps
# ---------------------------------------------------------------------------

def _transfer_contraction(bra, ket):
    """<bra|ket> of two MPS given by their site tensors, contracted by
    transfer matrices from the left."""
    env = np.ones((1, 1), dtype=complex)
    for ta, tb in zip(bra, ket):
        tmp = np.tensordot(env, tb, axes=(1, 0))
        env = np.tensordot(ta.conj(), tmp, axes=([0, 1], [0, 1]))
    return complex(env[0, 0])


def overlap(a, b):
    """Inner product <a|b> of two MPS or of an SOS and an MPS state.

    Evaluated without dense statevectors: transfer-matrix contraction for
    MPS-MPS, and for the mixed case all determinants' amplitudes at once,
    site by site.
    """
    if isinstance(a, MpsState) and isinstance(b, MpsState):
        if a.n_sites != b.n_sites or a.local_dim != b.local_dim:
            raise ValueError("MPS shapes are incompatible")
        return _transfer_contraction(a.tensors, b.tensors)
    if isinstance(a, SosState) and isinstance(b, MpsState):
        if b.local_dim != 4 or 2 * b.n_sites != a.n_spin_orbitals:
            raise ValueError("MPS does not match the spin-orbital count")
        # each determinant carries its row vector conj(amp) A_0[d_0] ...
        # A_j[d_j] from site to site; the determinants with one digit share
        # one matrix product, and the rows take terms x bond memory
        digits = _term_digits(a.terms, b.n_sites)
        rows = np.conj([amp for amp, _ in a.terms])[:, None]
        for j, t in enumerate(b.tensors):
            out = np.empty((len(rows), t.shape[2]), dtype=complex)
            for d in range(4):
                sel = digits[:, j] == d
                out[sel] = rows[sel] @ t[:, d, :]
            rows = out
        return complex(rows.sum())
    if isinstance(a, MpsState) and isinstance(b, SosState):
        return complex(np.conj(overlap(b, a)))
    raise TypeError("overlap expects two MpsState arguments or one SosState "
                    "and one MpsState")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_sos(state, path):
    """Write an SOS state as JSON, in one write: ``json.dump`` would write
    each of its chunks, a few per term, on its own."""
    text = json.dumps(state.to_json_dict(), indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_sos(path):
    with open(path, "r", encoding="utf-8") as fh:
        return SosState.from_json_dict(json.load(fh))


def save_mps(state, path):
    """Write an MPS to a binary container (one shape-tagged array per site)."""
    arrays = {f"tensor_{j}": t for j, t in enumerate(state.tensors)}
    save_npz(path, {"local_dim": np.array(state.local_dim),
                    "canonical": np.array(state.canonical_form or ""),
                    **arrays})


def load_mps(path):
    """Inverse of :func:`save_mps`.  An archive that lacks ``local_dim``,
    ``canonical`` or one of ``tensor_0`` .. ``tensor_<n-1>`` (n the number
    of ``tensor_`` members), or whose ``local_dim`` or ``canonical`` is not
    a single value, is refused with ``ValueError``."""
    data = npz_archive(path)
    n = len([k for k in data if k.startswith("tensor_")])
    missing = {"local_dim", "canonical",
               *(f"tensor_{j}" for j in range(n))} - set(data)
    if missing:
        raise ValueError("archive has no %s" % " or ".join(sorted(missing)))
    for name in ("local_dim", "canonical"):
        if data[name].ndim:
            raise ValueError(f"{name} is not a single value")
    tensors = [data[f"tensor_{j}"] for j in range(n)]
    canonical = str(data["canonical"]) or None
    return MpsState(tensors, int(data["local_dim"]), canonical)
