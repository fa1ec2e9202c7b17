"""Desk-scale Hamiltonians: FCIDUMP parsing and determinant-basis CI matrices.

The FCIDUMP reader/writer round-trips integrals bit-exactly (17 significant
digits).  CI matrices are assembled over (n_alpha, n_beta) sectors from the
one-body generators on each spin's occupation strings (the spin-factorized
form of the Slater-Condon rules); spin-orbitals interleave as 2p (alpha) /
2p+1 (beta), and determinants are ordered lexicographically by (alpha, beta)
occupation.
Everything is real-integral; complex Hamiltonians enter via direct dense
ingestion.
"""

from __future__ import annotations

import io
import math
import zipfile
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = [
    "ParseError",
    "InconsistentHeader",
    "DimensionCapExceeded",
    "FciDump",
    "DenseHamiltonian",
    "AffineNormalizer",
    "parse_fcidump",
    "dump_fcidump",
    "build_ci_matrix",
    "spectrum_normalizer",
    "save_hamiltonian",
    "load_hamiltonian",
]

HERMITICITY_TOL = 1e-12    # relative to max(1, max |H_ij|)
EIGEN_PROBE_TOL = 1e-10    # residuals of a stored eigensystem's probe
DEFAULT_DIM_CAP = 4096
SPECTRUM_MARGIN = 0.1      # normalized spectra fill [0.1, 0.9]
_TILE = 128                # tile edge of the Hermiticity pass


class ParseError(ValueError):
    """A malformed FCIDUMP line; carries the 1-based line number."""

    def __init__(self, line_no, reason):
        self.line_no = line_no
        self.reason = reason
        super().__init__("line %d: %s" % (line_no, reason))


class InconsistentHeader(ParseError):
    """An orbital index exceeds the NORB declared in the header."""


class DimensionCapExceeded(ValueError):
    """The requested CI sector is larger than the configured cap."""


@dataclass
class FciDump:
    """Parsed electron-integral file; two_body is stored fully expanded."""

    n_orb: int
    n_elec: int
    ms2: int
    core_energy: float
    one_body: np.ndarray      # (n, n), symmetric
    two_body: np.ndarray      # (n, n, n, n), chemist (pq|rs), 8-fold symmetric

    def __post_init__(self):
        self.one_body = np.asarray(self.one_body, dtype=float)
        self.two_body = np.asarray(self.two_body, dtype=float)
        n = self.n_orb
        if self.one_body.shape != (n, n):
            raise ValueError("one_body must be (n_orb, n_orb)")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError("two_body must be (n_orb,)*4")
        if not np.allclose(self.one_body, self.one_body.T, atol=1e-12):
            raise ValueError("one-body integrals must be symmetric")
        g = self.two_body
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if not np.allclose(g, g.transpose(perm), atol=1e-12):
                raise ValueError("two-body integrals must be 8-fold symmetric")


def _set_two_body(g, p, q, r, s, value):
    for a, b in ((p, q), (q, p)):
        for c, d in ((r, s), (s, r)):
            g[a, b, c, d] = value
            g[c, d, a, b] = value


def _parse_header(lines):
    """Extract NORB/NELEC/MS2 from the leading namelist; return end line."""
    joined = []
    end = None
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        joined.append(stripped)
        token = stripped.upper().replace(" ", "")
        if token.endswith("&END") or token.endswith("/"):
            end = i
            break
    if end is None:
        raise ParseError(1, "header namelist is never terminated")
    text = " ".join(joined)
    text = text.upper()
    for t in ("&FCI", "&END", "/"):
        text = text.replace(t, " ")
    fields = {}
    key = None
    for chunk in text.replace(",", " ").split():
        if "=" in chunk:
            key, _, val = chunk.partition("=")
            fields[key] = [val] if val else []
        elif key is not None:
            fields[key].append(chunk)
    def intval(name, default=None):
        if name not in fields or not fields[name]:
            if default is None:
                raise ParseError(1, "header is missing %s" % name)
            return default
        try:
            return int(fields[name][0])
        except ValueError:
            raise ParseError(1, "header %s is not an integer" % name) from None
    n_orb = intval("NORB")
    n_elec = intval("NELEC", 0)
    ms2 = intval("MS2", 0)
    return n_orb, n_elec, ms2, end


def parse_fcidump(text):
    """Parse FCIDUMP text into an :class:`FciDump`.

    Header keys other than NORB/NELEC/MS2 (ORBSYM, ISYM, ...) are accepted
    and ignored.  Data lines are ``value i j k l`` with the usual
    conventions: all-zero indices give the core energy, k=l=0 a one-body
    element, otherwise a chemist-notation two-body element stored under all
    eight index permutations.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip().upper().startswith("&FCI"):
        raise ParseError(1, "file does not start with an &FCI namelist")
    n_orb, n_elec, ms2, header_end = _parse_header(lines)
    if n_orb < 1:
        raise ParseError(1, "NORB must be positive")
    h = np.zeros((n_orb, n_orb))
    g = np.zeros((n_orb, n_orb, n_orb, n_orb))
    core = 0.0
    for line_no0 in range(header_end + 1, len(lines)):
        line = lines[line_no0].strip()
        no = line_no0 + 1
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(no, "expected `value i j k l`, got %d tokens"
                             % len(tokens))
        try:
            value = float(tokens[0].upper().replace("D", "E"))
        except ValueError:
            raise ParseError(no, "bad numeric value %r" % tokens[0]) from None
        try:
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(no, "indices must be integers") from None
        if min(i, j, k, l) < 0:
            raise ParseError(no, "negative orbital index")
        if max(i, j, k, l) > n_orb:
            raise InconsistentHeader(no, "orbital index %d exceeds NORB=%d"
                                     % (max(i, j, k, l), n_orb))
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ParseError(no, "one-body line needs two orbital indices")
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        elif min(i, j, k, l) == 0:
            raise ParseError(no, "two-body line has a zero orbital index")
        else:
            _set_two_body(g, i - 1, j - 1, k - 1, l - 1, value)
    return FciDump(n_orb, n_elec, ms2, core, h, g)


def dump_fcidump(fd):
    """Serialize to FCIDUMP text; numeric echo is bit-exact on re-parse."""
    out = io.StringIO()
    out.write("&FCI NORB=%d,NELEC=%d,MS2=%d,\n&END\n" %
              (fd.n_orb, fd.n_elec, fd.ms2))
    n = fd.n_orb

    def emit(value, i, j, k, l):
        out.write(" %.16E %3d %3d %3d %3d\n" % (value, i, j, k, l))

    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                s_top = q if r == p else r
                for s in range(s_top + 1):
                    v = fd.two_body[p, q, r, s]
                    if v != 0.0:
                        emit(v, p + 1, q + 1, r + 1, s + 1)
    for p in range(n):
        for q in range(p + 1):
            if fd.one_body[p, q] != 0.0:
                emit(fd.one_body[p, q], p + 1, q + 1, 0, 0)
    emit(fd.core_energy, 0, 0, 0, 0)
    return out.getvalue()


@dataclass
class DenseHamiltonian:
    """Hermitian matrix plus optional determinant labels for its basis.

    ``entries`` is kept as a read-only view, so the eigensystem, computed on
    first use or handed in as ``eigen = (eigenvalues, eigenvectors)`` and
    checked by :func:`_check_eigensystem`, always belongs to the matrix.
    """

    entries: np.ndarray
    basis_labels: list | None = None
    eigen: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.entries = _read_only(self.entries)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        # max |H_ij| also scales the eigensystem probe and the spin-flip test
        dev, self._size = _deviation_and_size(self.entries)
        if not np.isfinite(self._size):
            raise ValueError("non-finite matrix entry")
        # relative to the largest entry, so the test reads the same in
        # Hartree and in the normalized frame
        if dev >= HERMITICITY_TOL * max(1.0, self._size):
            raise ValueError("matrix is not Hermitian (max deviation %.3g)"
                             % dev)
        if self.basis_labels is not None:
            self.basis_labels = list(self.basis_labels)
            if len(self.basis_labels) != self.entries.shape[0]:
                raise ValueError("need one basis label per row")
        if self.eigen is not None:
            evals, evecs = (_read_only(a) for a in self.eigen)
            _check_eigensystem(self.entries, evals, evecs, self._size)
            self.eigen = (evals, evecs)

    @property
    def dim(self):
        return self.entries.shape[0]

    def eigensystem(self):
        """Ascending eigenvalues and the matching eigenvector columns,
        solved once per object, on first use, unless they were handed in.

        A real matrix that commutes with the spin flip of its labels (every
        n_alpha = n_beta sector of a spin-free Hamiltonian) is solved as its
        even and odd block, one ``eigh`` each; any other as one block, by
        one ``eigh`` of ``entries``.
        """
        if self.eigen is None:
            eigen = _flip_blocked_eigh(self.entries, self.basis_labels,
                                       self._size)
            if eigen is None:
                eigen = np.linalg.eigh(self.entries)
            self.eigen = tuple(_read_only(a) for a in eigen)
        return self.eigen


def _spin_flip(labels):
    """The spin flip P on a basis of occupation-string labels.

    P swaps the alpha (2p) and beta (2p+1) bit of each orbital.  Putting the
    creators back into the interleaved order of :func:`build_ci_matrix`
    swaps one pair per doubly occupied orbital, so P e_i = sign_i
    e_partner_i with sign_i = (-1)^(doubly occupied orbitals of i).
    Returns ``(partner, sign)``, or None unless the labels are distinct
    0/1 strings of one even length, closed under the flip.
    """
    if not labels:
        return None
    codes = np.asarray(labels, dtype=str)
    n, width = codes.shape[0], codes.dtype.itemsize // 4
    chars = codes.view(np.uint32).reshape(n, width)
    if width % 2 or not np.all((chars == ord("0")) | (chars == ord("1"))):
        return None
    flipped = chars.reshape(n, -1, 2)[:, :, ::-1].reshape(n, width)
    flipped = np.ascontiguousarray(flipped).view(codes.dtype).ravel()
    order = np.argsort(codes)
    partner = order[np.searchsorted(codes, flipped, sorter=order)
                    .clip(max=n - 1)]
    ranked = codes[order]
    if np.any(ranked[1:] == ranked[:-1]) or \
            not np.array_equal(codes[partner], flipped):
        return None
    bits = chars - ord("0")
    doubles = np.sum(bits[:, 0::2] & bits[:, 1::2], axis=1)
    return partner, np.where(doubles & 1, -1.0, 1.0)


def _flip_blocked_eigh(entries, labels, size):
    """``eigh`` of a real ``entries`` as the even and odd block of the spin
    flip P of ``labels``, or None (one block) unless max |P H P^T - H| <=
    ``HERMITICITY_TOL`` max(1, ``size``), ``size`` being max |H_ij|, and
    both blocks are non-empty.

    Each orbit of P gives one basis vector per parity it supports: a pair
    i < j = partner_i gives (e_i +- sign_i e_j) / sqrt 2, a fixed point e_i
    to the block of parity sign_i.  The representatives ``a`` list the even
    fixed points, the pairs, then the odd fixed points, so the even block is
    the leading and the odd block the trailing rows and columns.  The
    levels are merged in ascending order (a tie puts the even level first).
    """
    flip = _spin_flip(labels) if entries.dtype.kind == "f" else None
    if flip is None:
        return None
    partner, sign = flip
    n = entries.shape[0]
    idx = np.arange(n)
    fixed = partner == idx
    even_fixed, pairs = idx[fixed & (sign > 0)], idx[idx < partner]
    a = np.concatenate((even_fixed, pairs, idx[fixed & (sign < 0)]))
    b, s = partner[a], sign[a]
    m, lo, hi = len(a), len(even_fixed), len(even_fixed) + len(pairs)
    if hi == 0 or lo == m:
        return None
    # The four quadrants cover every entry.  With S = diag(s) (exact
    # products, s is +-1) the deviation P H P^T - H reads S H_bb S - H_aa
    # and S H_ba S - H_ab there.
    # The indices are all in range, so ``mode="clip"`` changes nothing but
    # lets ``take`` write into ``out`` directly ("raise" goes via a copy).
    rows = np.take(entries, a, axis=0)
    h_aa, h_ab = np.take(rows, a, axis=1), np.take(rows, b, axis=1)
    np.take(entries, b, axis=0, out=rows, mode="clip")
    h_ba, h_bb = np.take(rows, a, axis=1), np.take(rows, b, axis=1)
    del rows
    h_bb *= np.outer(s, s)
    h_ab *= s
    h_ba *= s[:, None]
    work = h_bb - h_aa
    dev = np.max(np.abs(work, out=work))
    np.subtract(h_ba, h_ab, out=work)
    dev = max(dev, np.max(np.abs(work, out=work)))
    if not dev <= HERMITICITY_TOL * max(1.0, size):
        return None
    # U^T H U over the orbit vectors (e_a + pi S e_b) / sqrt 2 of parity pi
    # is 1/2 (H_aa + S H_bb S + pi (H_ab S + S H_ba)) between pairs; a
    # fixed point's vector is e_a, half of e_a + e_b, so its rows and
    # columns take another 1/sqrt 2.
    h_aa += h_bb
    h_ab += h_ba
    del h_bb, h_ba
    even = np.add(h_aa[:hi, :hi], h_ab[:hi, :hi], out=work[:hi, :hi])
    odd = np.subtract(h_aa[lo:, lo:], h_ab[lo:, lo:], out=h_aa[lo:, lo:])
    del h_ab
    solved = []
    for block, own in ((even, slice(0, lo)), (odd, slice(hi - lo, m - lo))):
        # ``own``: the block's rows and columns of fixed points
        block *= 0.5
        block[own] *= math.sqrt(0.5)
        block[:, own] *= math.sqrt(0.5)
        solved.append(np.linalg.eigh(block))
    del work, h_aa, even, odd, block
    (even_vals, even_vecs), (odd_vals, odd_vecs) = solved
    # x = U y: e_a takes y for a fixed point and y / sqrt 2 for a pair,
    # whose partner e_b takes parity s y / sqrt 2.  Each row group is one
    # row-indexed write, with the even levels in the leading and the odd
    # levels in the trailing columns; the columns then go into level order
    # a tile of rows at a time.
    evecs = np.empty((n, n), dtype=even_vecs.dtype)
    evecs[a[:lo], :hi] = even_vecs[:lo]
    evecs[a[:lo], hi:] = 0.0
    evecs[a[hi:], :hi] = 0.0
    evecs[a[hi:], hi:] = odd_vecs[hi - lo:]
    for parity, pair, cols in ((1.0, even_vecs[lo:hi], slice(0, hi)),
                               (-1.0, odd_vecs[:hi - lo], slice(hi, n))):
        evecs[a[lo:hi], cols] = pair * math.sqrt(0.5)
        evecs[b[lo:hi], cols] = pair \
            * (parity * math.sqrt(0.5) * s[lo:hi])[:, None]
    levels = np.concatenate((even_vals, odd_vals))
    order = np.argsort(levels, kind="stable")
    tile = np.empty((_TILE, n), dtype=evecs.dtype)
    for r in range(0, n, _TILE):
        band = evecs[r:r + _TILE]
        band[...] = np.take(band, order, axis=1, out=tile[:len(band)],
                            mode="clip")
    return levels[order], evecs


def _deviation_and_size(a):
    """``(max |A - A^H|, max |A|)`` of a square ``a`` in one pass over the
    ``_TILE`` x ``_TILE`` tile pairs (i, j), i <= j, with no temporary
    larger than a tile.  Tile (i, j) less the adjoint of tile (j, i) holds
    the entries of A - A^H there and, up to an adjoint that leaves |.| as
    it is, at (j, i), so both values are the whole-matrix maxima exactly.
    A non-finite entry makes ``max |A|`` NaN or inf.
    """
    n = a.shape[0]
    dev, size = [0.0], [0.0]
    with np.errstate(invalid="ignore"):   # inf - inf is a non-finite entry
        for i in range(0, n, _TILE):
            for j in range(i, n, _TILE):
                tile = a[i:i + _TILE, j:j + _TILE]
                mirror = a[j:j + _TILE, i:i + _TILE]
                dev.append(np.max(np.abs(tile - _adjoint(mirror))))
                size.append(np.max(np.abs(tile)))
                if j > i:
                    size.append(np.max(np.abs(mirror)))
    return np.max(dev), np.max(size)


def _adjoint(a):
    """a^H: a view of a real ``a``, whose conj() would be a full copy."""
    return a.T.conj() if np.iscomplexobj(a) else a.T


def _read_only(a):
    """A read-only view of ``a`` as an array (no copy of an array)."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _check_eigensystem(entries, evals, evecs, size):
    """Refuse an eigensystem that does not belong to ``entries``, whose
    largest |H_ij| is ``size``.

    Shapes, dtypes, finiteness and ascending order are checked exactly, the
    pairs by two O(n^2) probes with a fixed random x: |H(Vx) - V(Lx)|
    relative to max(1, ``size``) |x|, and |V^H(Vx) - x| relative to |x|.
    A non-finite entry of V makes Vx non-finite (no x_j is 0), so V is
    scanned for one only then.
    """
    n = entries.shape[0]
    if evals.shape != (n,) or evecs.shape != (n, n):
        raise ValueError("eigensystem shapes %s and %s do not fit a %d x %d "
                         "matrix" % (evals.shape, evecs.shape, n, n))
    if evals.dtype.kind != "f" or evecs.dtype.kind not in "fc":
        raise ValueError("eigenvalues must be real and eigenvectors "
                         "floating point")
    x = np.random.default_rng(0).standard_normal(n)
    vx = evecs @ x
    if not (np.all(np.isfinite(evals)) and (np.all(np.isfinite(vx))
                                            or np.all(np.isfinite(evecs)))):
        raise ValueError("non-finite eigensystem value")
    if np.any(evals[1:] < evals[:-1]):
        raise ValueError("eigenvalues are not ascending")
    if n == 0:
        return
    norm_x = np.linalg.norm(x)
    pair_res = np.linalg.norm(entries @ vx - evecs @ (evals * x)) \
        / (max(1.0, size) * norm_x)
    basis_res = np.linalg.norm(_adjoint(evecs) @ vx - x) / norm_x
    if not max(pair_res, basis_res) <= EIGEN_PROBE_TOL:
        raise ValueError("eigensystem does not match the matrix (probe "
                         "residuals %.3g, %.3g)" % (pair_res, basis_res))


@dataclass
class AffineNormalizer:
    """Invertible energy map E -> scale * E + shift."""

    scale: float
    shift: float

    def apply(self, energy):
        return self.scale * np.asarray(energy) + self.shift

    def invert(self, energy):
        return (np.asarray(energy) - self.shift) / self.scale

    def apply_matrix(self, h: DenseHamiltonian) -> DenseHamiltonian:
        ent = self.scale * h.entries + self.shift * np.eye(h.dim)
        return DenseHamiltonian(ent, h.basis_labels)


def spectrum_normalizer(lo, hi, margin=SPECTRUM_MARGIN):
    """The affine map taking the spectrum bounds [lo, hi] onto
    [margin, 1 - margin]; a spectrum of one point goes to 1/2."""
    if not 0 <= margin < 0.5:
        raise ValueError("margin must lie in [0, 0.5)")
    lo, hi = float(lo), float(hi)
    if hi - lo < 1e-300:
        return AffineNormalizer(1.0, 0.5 - lo)
    scale = (1 - 2 * margin) / (hi - lo)
    return AffineNormalizer(scale, margin - scale * lo)


def _string_excitations(n_orb, n_el):
    """One-spin occupation strings and their one-body generators.

    The strings are the ``n_el``-subsets of the orbitals in lexicographic
    order.  Returns the (n_strings, n_orb) 0/1 occupation matrix and four
    (n_strings, L) arrays ``src``, ``dst``, ``pq``, ``sign`` listing, for
    every string J = src, the L = n_el (n_orb - n_el + 1) generators that
    do not annihilate it: e_pq |J> = a+_p a_q |J> = sign |dst>, with
    pq = p n_orb + q.
    """
    strings = list(combinations(range(n_orb), n_el))
    index = {occ: i for i, occ in enumerate(strings)}
    dst, pq, sign = [], [], []
    for occ in strings:
        for iq, q in enumerate(occ):
            rest = occ[:iq] + occ[iq + 1:]
            for p in range(n_orb):
                ip = bisect_left(rest, p)
                if ip < len(rest) and rest[ip] == p:
                    continue
                dst.append(index[rest[:ip] + (p,) + rest[ip:]])
                pq.append(p * n_orb + q)
                # a_q passes iq creators, a+_p lands after ip of the rest
                sign.append(-1.0 if (iq + ip) & 1 else 1.0)
    occupation = np.zeros((len(strings), n_orb), dtype=np.int64)
    for i, occ in enumerate(strings):
        occupation[i, list(occ)] = 1
    shape = (len(strings), -1)
    dst = np.array(dst, dtype=np.int64).reshape(shape)
    src = np.broadcast_to(np.arange(len(strings))[:, None], dst.shape)
    return (occupation, src, dst, np.array(pq, dtype=np.int64).reshape(shape),
            np.array(sign, dtype=float).reshape(shape))


def _scatter(at, weights, size):
    """Sum ``weights`` into a flat float array by index ``at``."""
    # bincount returns integers when there are no weights at all
    return np.bincount(at.ravel(), weights.ravel(),
                       minlength=size).astype(float, copy=False)


def _one_spin_block(src, dst, pq, sign, k, g):
    """H_s = sum k_pq e_pq + 1/2 sum (pq|rs) e_pq e_rs on one spin's strings.

    The product runs through each intermediate string K:
    (e_pq e_rs)[I, J] = e_pq[I, K] e_sr[J, K], and both factors are
    generators of K, so every pair of K's generators adds one entry.
    """
    d = dst.shape[0]
    block = _scatter(dst * d + src, k[pq] * sign, d * d)
    # d L^2 generator pairs: two temporaries of that size
    pair_w = g[pq[:, :, None], pq[:, None, :]]
    pair_w *= sign[:, :, None]
    pair_w *= 0.5 * sign[:, None, :]
    block += _scatter(dst[:, :, None] * d + dst[:, None, :], pair_w, d * d)
    return block.reshape(d, d)


def build_ci_matrix(fd, n_alpha, n_beta, dim_cap=DEFAULT_DIM_CAP):
    """Full CI matrix of the (n_alpha, n_beta) sector, factorized by spin.

    With e^s_pq the one-body generators on the occupation strings of spin s
    (Knowles & Handy, CPL 111, 315 (1984); Olsen et al., JCP 89, 2185
    (1988)),

        H = H_a x 1 + 1 x H_b + sum (pq|rs) e^a_pq x e^b_rs + core,
        H_s = sum k_pq e^s_pq + 1/2 sum (pq|rs) e^s_pq e^s_rs,
        k_pq = h_pq - 1/2 sum_r (pr|rq).

    Each term is scattered into the matrix from the few generators that
    act on each string, so the cost follows the nonzero entries, not the
    determinant pairs.  Determinants are ordered lexicographically by
    (alpha, beta) occupation and labelled by 2*n_orb-bit occupation strings
    (alpha bit first in each spin-orbital pair).  Their interleaved creation
    order 2p (alpha) / 2p+1 (beta) differs from the alpha-then-beta product
    by (-1)^(beta electrons below each alpha electron), applied per
    determinant.  The result is exactly symmetric.
    """
    n = fd.n_orb
    if not 0 <= n_alpha <= n or not 0 <= n_beta <= n:
        raise ValueError("electron counts must lie in [0, n_orb]")
    dim = math.comb(n, n_alpha) * math.comb(n, n_beta)
    if dim > dim_cap:
        raise DimensionCapExceeded("sector dimension %d exceeds cap %d"
                                   % (dim, dim_cap))
    g = fd.two_body.reshape(n * n, n * n)
    k = (fd.one_body - 0.5 * np.einsum("prrq->pq", fd.two_body)).ravel()
    occ_a, *gen_a = _string_excitations(n, n_alpha)
    occ_b, *gen_b = _string_excitations(n, n_beta)
    src_a, dst_a, pq_a, sign_a = gen_a
    src_b, dst_b, pq_b, sign_b = gen_b
    d_a, d_b = len(occ_a), len(occ_b)

    h_a = _one_spin_block(*gen_a, k, g)
    h_b = _one_spin_block(*gen_b, k, g)

    # alpha-beta term: one entry per (alpha generator, beta generator) pair
    row = dst_a.reshape(-1, 1) * d_b + dst_b.reshape(1, -1)
    col = src_a.reshape(-1, 1) * d_b + src_b.reshape(1, -1)
    weight = g[pq_a.reshape(-1, 1), pq_b.reshape(1, -1)] \
        * np.outer(sign_a, sign_b)
    H = _scatter(row * dim + col, weight, dim * dim).reshape(dim, dim)
    del row, col, weight

    quad = H.reshape(d_a, d_b, d_a, d_b)
    quad[:, np.arange(d_b), :, np.arange(d_b)] += h_a
    quad[np.arange(d_a), :, np.arange(d_a), :] += h_b
    H.flat[::dim + 1] += fd.core_energy
    beta_below = np.cumsum(occ_b, axis=1) - occ_b
    sign = np.where(((occ_a @ beta_below.T) & 1).ravel(), -1.0, 1.0)
    H *= sign[:, None]
    H *= sign[None, :]
    H += H.T
    H *= 0.5

    chars = np.empty((d_a, d_b, n, 2), dtype=np.uint8)
    chars[..., 0] = occ_a[:, None, :] + ord("0")
    chars[..., 1] = occ_b[None, :, :] + ord("0")
    labels = chars.reshape(dim, 2 * n).view("S%d" % (2 * n)).ravel()
    return DenseHamiltonian(H, labels.astype(str).tolist())


def save_hamiltonian(h, path):
    """Write the matrix to ``path``: CSV if it ends in .csv, else an npz
    holding the labels and the eigensystem too (diagonalized here unless
    ``h`` has it already), so loaders skip their own eigensolve."""
    if str(path).endswith(".csv"):
        np.savetxt(path, h.entries, delimiter=",")
        return
    evals, evecs = h.eigensystem()
    with open(path, "wb") as f:
        labels = np.array(h.basis_labels if h.basis_labels is not None else [])
        np.savez(f, entries=h.entries, basis_labels=labels,
                 eigenvalues=evals, eigenvectors=evecs)


def load_hamiltonian(path):
    """Inverse of :func:`save_hamiltonian`.  A CSV stays real unless an
    entry has a nonzero imaginary part.  An npz without the eigensystem
    arrays (an older file) is diagonalized on first use.  A file that is
    not a zip archive, lacks the matrix or its labels, fails a member's
    CRC-32 or whose stored eigensystem does not fit the matrix is refused,
    naming the file."""
    try:
        if str(path).endswith(".csv"):
            entries = np.loadtxt(path, delimiter=",", dtype=complex)
            if not entries.imag.any():
                entries = np.ascontiguousarray(entries.real)
            return DenseHamiltonian(entries)
        with open(path, "rb") as f:
            if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise ValueError("not an npz archive")
            f.seek(0)
            data = np.load(f, allow_pickle=False)
            missing = {"entries", "basis_labels"} - set(data.files)
            if missing:
                raise ValueError("archive has no %s" % " or ".join(
                    sorted(missing)))
            labels = data["basis_labels"].tolist() or None
            stored = [name for name in ("eigenvalues", "eigenvectors")
                      if name in data.files]
            if len(stored) == 1:
                raise ValueError("%s stored without the other half of the "
                                 "eigensystem" % stored[0])
            eigen = tuple(data[name] for name in stored) or None
            return DenseHamiltonian(data["entries"], labels, eigen)
    except (ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
