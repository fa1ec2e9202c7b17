"""Desk-scale Hamiltonians: FCIDUMP parsing and determinant-basis CI matrices.

The FCIDUMP reader/writer round-trips integrals bit-exactly (17 significant
digits).  CI matrices are assembled over (n_alpha, n_beta) sectors from the
one-body generators on each spin's occupation strings (the spin-factorized
form of the Slater-Condon rules); spin-orbitals interleave as 2p (alpha) /
2p+1 (beta), and determinants are ordered lexicographically by (alpha, beta)
occupation.
Everything is real-integral; complex Hamiltonians enter via direct dense
ingestion.  Every eigensystem is a :class:`FlipBlocks`, from the eigensolve
to the archive and the measure.  A sector with as many alpha as beta
electrons commutes with its spin flip and keeps the flip's even and odd
blocks; any other matrix is one block of the identity flip
(:meth:`FlipBlocks.one_block`).  The archive layouts are those of the two
cases: the block members, or the dense ``eigenvalues`` and
``eigenvectors``.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
import struct
import warnings
import zipfile
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import blas

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
    "csv_rows",
    "load_hamiltonian",
    "FlipBlocks",
]

HERMITICITY_TOL = 1e-12    # relative to max(1, max |H_ij|)
EIGEN_PROBE_TOL = 1e-10    # residuals of a stored eigensystem's probe
DEFAULT_DIM_CAP = 4096
SPECTRUM_MARGIN = 0.1      # normalized spectra fill [0.1, 0.9]
_TILE = 128                # tile edge of the Hermiticity pass
# Order from which a one-block eigh runs on the command's full BLAS pool.
# On a 2-core Xeon, 1 thread against 2: 7.3 vs 7.1 ms at order 256, 22.9 vs
# 19.0 ms at 392, 0.95 vs 0.56 s at 1600; the pool's workers are parked
# after it.
_EIGH_PARALLEL_MIN = 320
# Order of the smaller spin-flip block from which a command at full width 2
# or more solves the two blocks side by side, one BLAS thread each
# (blas.beside).  On the same box, one after the other against side
# by side: 9.3 vs 5.4 ms at order 200 and 44 vs 24 ms at 400 with both
# cores free; with the host holding one core the pair lost up to 13 % below
# order 250 and broke even at 400.  Below 200 a pair saves about 1 ms.
_EIGH_PAIR_MIN = 200
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")   # a local header; empty zip
# A zip member's local header is 30 bytes, then its name and extra field,
# whose lengths are the two 16-bit words at its byte 26.  save_npz has
# zipfile write each member with a zipalign extra field (id 0xD935, its
# length and the alignment as three 16-bit words, then zeros) sized so that
# the array data starts at a multiple of _ALIGN bytes; npz_archive views
# such a member in place and reads an unaligned one (np.savez's) with one
# read.  Only stored, unencrypted members with v1.0 .npy headers are read.
_ZIP_LOCAL_SIZE = 30
_ALIGN = 64                # file offset of every array save_npz writes


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


# The index orders under which a one-body (pq) and a two-body (pq|rs) line
# is stored.
_ONE_BODY_ORDERS = ((0, 1), (1, 0))
_TWO_BODY_ORDERS = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                    (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0))


def _assign_last(n, at, values, orders):
    """The array of shape (n,) * rank that is zero except where the lines
    (``at``: their rank 0-based indices, ``values``) put their value, at
    each of the index ``orders``; where lines meet, the later one wins."""
    rank = len(orders[0])
    out = np.zeros(n ** rank)
    if at:
        flat = np.array(at)[:, orders] @ n ** np.arange(rank - 1, -1, -1)
        # first occurrences in the reversed writes are the last ones
        cells, last = np.unique(flat.ravel()[::-1], return_index=True)
        out[cells] = np.repeat(values, len(orders))[::-1][last]
    return out.reshape((n,) * rank)


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
    # each line's indices and value, in file order
    one_at, one_values, two_at, two_values = [], [], [], []
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
            one_at.append((i - 1, j - 1))
            one_values.append(value)
        elif min(i, j, k, l) == 0:
            raise ParseError(no, "two-body line has a zero orbital index")
        else:
            two_at.append((i - 1, j - 1, k - 1, l - 1))
            two_values.append(value)
    h = _assign_last(n_orb, one_at, one_values, _ONE_BODY_ORDERS)
    g = _assign_last(n_orb, two_at, two_values, _TWO_BODY_ORDERS)
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
    first use or handed in, always belongs to the matrix.  It is ``blocks``,
    a :class:`FlipBlocks` checked by :func:`_check_blocks`: a spin-flip
    sector's two blocks, or one block of the identity flip for any other
    matrix (:meth:`FlipBlocks.one_block`).
    """

    entries: np.ndarray
    basis_labels: list | None = None
    blocks: FlipBlocks | None = field(default=None, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.entries = _read_only(self.entries)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        # max |H_ij| also scales the eigensystem probe and the spin-flip test
        dev, self._size = _deviation_and_size(self.entries)
        self._flip = None          # (partner, sign), set by build_ci_matrix
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
        if self.blocks is not None:
            _check_blocks(self.entries, self.blocks, self._size)

    @property
    def dim(self):
        return self.entries.shape[0]

    def eigensystem(self):
        """The eigensystem as a :class:`FlipBlocks`, solved on first use,
        unless it was handed in.

        An n_alpha = n_beta sector that :func:`build_ci_matrix` made knows
        its spin flip P, and unless P H P^T = H fails (see
        :func:`_flip_blocked_eigh`) it is solved as P's even and odd block,
        one ``eigh`` each, on one BLAS thread each; inside a CLI command
        with a full width of 2 or more, blocks of order ``_EIGH_PAIR_MIN``
        and up are solved at the same time (see :func:`qprep.blas.beside`).
        Any other matrix (a load without a stored eigensystem, or one made
        by hand) is solved by one ``eigh`` of ``entries``, on the command's
        full pool from order ``_EIGH_PARALLEL_MIN``, and held as one block
        of the identity flip (:meth:`FlipBlocks.one_block`).  Outside a
        command every solve runs at the BLAS width as found.  A solve whose
        levels or vectors are not all finite (levels beyond the float
        range, from entries near it) is refused with ``LinAlgError``.
        """
        if self.blocks is None:
            blocks = None if self._flip is None else _flip_blocked_eigh(
                self.entries, self._flip, self._size)
            if blocks is None:
                blocks = FlipBlocks.one_block(*_eigh(self.entries))
            if not all(np.isfinite(a).all()
                       for a in (*blocks.even, *blocks.odd)):
                raise np.linalg.LinAlgError(
                    "solved levels or eigenvectors are not finite")
            self.blocks = blocks
        return self.blocks


def _eigh(matrix):
    """``np.linalg.eigh`` of a one-block ``matrix``, on the running
    command's full BLAS pool from order ``_EIGH_PARALLEL_MIN`` and on the
    pool as found below it."""
    if matrix.shape[0] < _EIGH_PARALLEL_MIN:
        return np.linalg.eigh(matrix)
    with blas.full_pool():
        return np.linalg.eigh(matrix)


# the archive members of a FlipBlocks, in its field order
_BLOCK_MEMBERS = ("partner", "sign", "even_eigenvalues", "even_eigenvectors",
                  "odd_eigenvalues", "odd_eigenvectors")


@dataclass(eq=False)
class FlipBlocks:
    """The eigensystem of a matrix H that commutes with a spin flip P,
    P e_i = ``sign``_i e_``partner``_i, kept as P's even and odd block.

    Each orbit of P gives one basis vector per parity it supports: a pair
    i < j = partner_i gives (e_i +- sign_i e_j) / sqrt 2, a fixed point e_i
    one of parity sign_i.  These orbit vectors are the columns of an
    orthogonal U.  Its representatives ``a`` list the even fixed points,
    the pairs, then the odd fixed points, so the even block is U^T H U's
    leading ``hi`` rows and columns and the odd block its trailing ones.
    ``even`` and ``odd`` are each block's ascending levels and real or
    complex eigenvector columns.  A matrix without a flip is one block of
    the identity flip (:meth:`one_block`): U = I, the even block is the
    whole matrix and the odd block is empty.  A flip that is not an
    involution with signs +-1, or blocks whose shapes do not fit its
    orbits, are refused with ``ValueError``; the arrays are kept as
    read-only views.
    """

    partner: np.ndarray
    sign: np.ndarray
    even: tuple
    odd: tuple

    def __post_init__(self):
        partner, sign = (_read_only(a) for a in (self.partner, self.sign))
        n = partner.shape[0] if partner.ndim == 1 else -1
        if partner.dtype.kind not in "iu" or sign.dtype.kind not in "if" \
                or sign.shape != (n,):
            raise ValueError("the flip needs an integer partner and a real "
                             "sign per basis state")
        # the stored shapes first, so that a flip longer than its blocks
        # is refused before the checks below allocate for it
        shapes = [np.shape(x) for block in (self.even, self.odd)
                  for x in block]
        k, m = (np.size(vals) for vals, _ in (self.even, self.odd))
        if k + m != n or shapes != [(k,), (k, k), (m,), (m, m)]:
            raise ValueError("block shapes %s do not fit a flip of %d basis "
                             "states" % (", ".join(map(str, shapes)), n))
        idx = np.arange(n)
        if not (np.all((partner >= 0) & (partner < n))
                and np.array_equal(partner[partner], idx)):
            raise ValueError("the flip's partner is not an involution")
        if not (np.all(np.abs(sign) == 1)
                and np.array_equal(sign[partner], sign)):
            raise ValueError("the flip's signs are not all +-1 on each "
                             "orbit")
        a, lo, hi = _orbits(partner, sign)
        for name, (vals, vecs), order in (("even", self.even, hi),
                                          ("odd", self.odd, len(a) - lo)):
            vals, vecs = np.asarray(vals), np.asarray(vecs)
            if len(vals) != order:
                raise ValueError(
                    "%s block shapes %s and %s do not fit the flip's %d "
                    "%s orbit vectors" % (name, vals.shape, vecs.shape,
                                          order, name))
            if vals.dtype.kind != "f" or vecs.dtype.kind not in "fc":
                raise ValueError("eigenvalues must be real and eigenvectors "
                                 "floating point")
        self.partner, self.sign = partner, sign
        self.even, self.odd = (tuple(_read_only(x) for x in block)
                               for block in (self.even, self.odd))
        self._a, self._b, self._s = a, partner[a], sign[a]
        self._lo, self._hi = lo, hi

    @classmethod
    def one_block(cls, levels, vectors):
        """The eigensystem ``levels``, ``vectors`` of a matrix solved as one
        block: the blocks of the identity flip (partner i, sign +1), whose
        basis states are all even fixed points, so U = I.  Shapes that do
        not fit one block are refused before the flip is made, so stored
        levels claim no memory beyond their own."""
        n = np.size(levels)
        if np.shape(levels) != (n,) or np.shape(vectors) != (n, n):
            raise ValueError("eigensystem shapes %s and %s do not fit one "
                             "block" % (np.shape(levels), np.shape(vectors)))
        return cls(np.arange(n), np.ones(n), (levels, vectors),
                   (np.empty(0), np.empty((0, 0))))

    @property
    def dim(self):
        return len(self.partner)

    def members(self):
        """``{archive member name: array}``, as :func:`save_hamiltonian`
        writes them: one block in the dense layout, ``eigenvalues`` and
        ``eigenvectors``, and any other flip in the block layout."""
        if self._lo == self.dim:
            return dict(zip(("eigenvalues", "eigenvectors"), self.even))
        return dict(zip(_BLOCK_MEMBERS, (self.partner, self.sign, *self.even,
                                         *self.odd)))

    def levels(self):
        """``(levels, order)``: the levels of both blocks, even then odd,
        merged in ascending order (a tie puts the even level first), and the
        index of each in that concatenation."""
        levels = np.concatenate((self.even[0], self.odd[0]))
        order = np.argsort(levels, kind="stable")
        return levels[order], order

    def project(self, psi):
        """``(U^T psi)`` split into its even and its odd part."""
        a, b, lo, hi = self._a, self._b, self._lo, self._hi
        pair_a, pair_b = psi[a[lo:hi]], self._s[lo:hi] * psi[b[lo:hi]]
        root = math.sqrt(0.5)
        return (np.concatenate((psi[a[:lo]], (pair_a + pair_b) * root)),
                np.concatenate(((pair_a - pair_b) * root, psi[a[hi:]])))

    def lift(self, even, odd):
        """U y for y the even part ``even`` and the odd part ``odd``."""
        a, b, lo, hi = self._a, self._b, self._lo, self._hi
        dtype = np.result_type(even, odd)
        out = np.empty(self.dim, dtype)
        out[a[:lo]] = even[:lo]
        out[a[hi:]] = odd[hi - lo:]
        root = math.sqrt(0.5)
        out[a[lo:hi]] = (even[lo:hi] + odd[:hi - lo]) * root
        out[b[lo:hi]] = self._s[lo:hi] * ((even[lo:hi] - odd[:hi - lo])
                                          * root)
        return out

    def apply(self, y):
        """V y = U diag(V_even, V_odd) y, for y in the blocks' level order,
        even then odd (the concatenation that :meth:`levels` sorts)."""
        hi = len(self.even[0])
        return self.lift(self.even[1] @ y[:hi], self.odd[1] @ y[hi:])


def _orbits(partner, sign):
    """``(a, lo, hi)``: the representatives of the flip's orbits, the even
    fixed points (``a[:lo]``), the lesser index of each pair
    (``a[lo:hi]``), then the odd fixed points (``a[hi:]``)."""
    idx = np.arange(len(partner))
    fixed = partner == idx
    even_fixed, pairs = idx[fixed & (sign > 0)], idx[idx < partner]
    a = np.concatenate((even_fixed, pairs, idx[fixed & (sign < 0)]))
    return a, len(even_fixed), len(even_fixed) + len(pairs)


def _flip_blocked_eigh(entries, flip, size):
    """The :class:`FlipBlocks` of the real ``entries`` under the spin flip
    ``flip = (partner, sign)``, P e_i = sign_i e_partner_i, as
    :func:`build_ci_matrix` hands it over, or None (one block) unless
    max |P H P^T - H| <= ``HERMITICITY_TOL`` max(1, ``size``), ``size``
    being max |H_ij|, and both blocks are non-empty.

    The even and odd block of U^T H U (U the orbit vectors of
    :class:`FlipBlocks`) are gathered from four quadrants of ``entries``
    and solved by one ``eigh`` each; no n x n eigenvector array is made.
    """
    partner, sign = flip
    a, lo, hi = _orbits(partner, sign)
    b, s, m = partner[a], sign[a], len(a)
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
    for block, own in ((even, slice(0, lo)), (odd, slice(hi - lo, m - lo))):
        # ``own``: the block's rows and columns of fixed points
        block *= 0.5
        block[own] *= math.sqrt(0.5)
        block[:, own] *= math.sqrt(0.5)
    # never on the widened pool: inside a command each block solves on
    # one BLAS thread, so the bytes do not depend on the command's width
    if min(hi, m - lo) < _EIGH_PAIR_MIN:
        solved = np.linalg.eigh(even), np.linalg.eigh(odd)
    else:
        # the odd block beside, the even one here; waited for either way
        wait = blas.beside(lambda: np.linalg.eigh(odd))
        try:
            even_solved = np.linalg.eigh(even)
        finally:
            odd_solved = wait()
        solved = even_solved, odd_solved
    del work, h_aa, even, odd, block
    return FlipBlocks(partner, sign, *solved)


def _deviation_and_size(a):
    """``(max |A - A^H|, max |A|)`` of a square ``a`` in one sweep over
    its bands of ``_TILE`` rows, with no temporary larger than a tile.
    Band i's tile pairs (i, j), j >= i, give the deviation: tile (i, j)
    less the adjoint of tile (j, i) holds the entries of A - A^H there
    and, up to an adjoint that leaves |.| as it is, at (j, i), so both
    values are the whole-matrix maxima exactly.  A real ``a`` reuses one
    tile for the differences and takes max |x| of a band or a difference
    as max(max x, -min x), with no |x| temporary; a complex one takes
    |x| of each tile.  A non-finite entry makes ``max |A|`` NaN or inf.
    """
    n = a.shape[0]
    real = not np.iscomplexobj(a)
    work = np.empty(min(n, _TILE) ** 2, a.dtype) if real else None
    dev, size = [0.0], [0.0]
    with np.errstate(invalid="ignore"):   # inf - inf is a non-finite entry
        for i in range(0, n, _TILE):
            band = a[i:i + _TILE]
            if real:
                size += band.max(), -band.min()
            for j in range(i, n, _TILE):
                tile = band[:, j:j + _TILE]
                mirror = a[j:j + _TILE, i:i + _TILE]
                if real:
                    diff = np.subtract(tile, mirror.T, out=work[:tile.size]
                                       .reshape(tile.shape))
                    dev += diff.max(), -diff.min()
                else:
                    dev.append(np.max(np.abs(tile - _adjoint(mirror))))
                    size.append(np.max(np.abs(tile)))
                    if j > i:
                        size.append(np.max(np.abs(mirror)))
    # np.max keeps a NaN, which max() may drop; abs turns the -0.0 that
    # -min x gives for an all-zero real matrix into 0.0
    return abs(np.max(dev)), abs(np.max(size))


def _adjoint(a):
    """a^H: a view of a real ``a``, whose conj() would be a full copy."""
    return a.T.conj() if np.iscomplexobj(a) else a.T


def _read_only(a):
    """A read-only view of ``a`` as an array (no copy of an array)."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _check_blocks(entries, blocks, size):
    """Refuse the :class:`FlipBlocks` ``blocks`` unless they are an
    eigensystem V, Lambda of ``entries``, whose largest |H_ij| is ``size``:
    a flip of the matrix's order, then finite values, each block's levels
    ascending, and two O(n^2) probes with a fixed random x: |H(Vx) - V(Lx)|
    relative to max(1, ``size``) |x|, and |V^H(Vx) - x| relative to |x|.
    V = U diag(V_even, V_odd) and L holds the blocks' levels in that order;
    U acts through the orbit transform, O(n) work, so no n x n array is
    made.

    A non-finite entry of V makes Vx non-finite (no x_j is 0), so V is
    scanned for one only then.  The first probe runs on cx, c the largest
    power of two up to 1 that brings c max(1, ``size``) below 2^512, the
    middle of the float range.  No product of a finite matrix and its own
    eigensystem then overflows; below max |H_ij| = 2^512 the probe runs
    unscaled, and above it a product can only round otherwise where it
    falls below 2^-510.
    """
    n = entries.shape[0]
    if blocks.dim != n:
        raise ValueError("a flip of %d basis states does not fit a %d x %d "
                         "matrix" % (blocks.dim, n, n))
    levels, vectors = zip(blocks.even, blocks.odd)
    x = np.random.default_rng(0).standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):
        vx = blocks.apply(x)
    if not (all(np.all(np.isfinite(e)) for e in levels)
            and (np.all(np.isfinite(vx))
                 or all(np.all(np.isfinite(v)) for v in vectors))):
        raise ValueError("non-finite eigensystem value")
    if any(np.any(e[1:] < e[:-1]) for e in levels):
        raise ValueError("eigenvalues are not ascending")
    if n == 0:
        return
    evals = np.concatenate(levels)
    norm_x = np.linalg.norm(x)
    scale = max(1.0, size)
    # not _pow2_scaled: c = 1 below 2^512 keeps a usual probe unscaled
    c = math.ldexp(1.0, min(0, 512 - math.frexp(scale)[1]))
    # scaled back before the norm squares it; a mismatching eigensystem may
    # still overflow, and is refused below without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        pair = entries @ (vx * c) - blocks.apply(evals * (x * c))
        pair_res = np.linalg.norm(pair / (scale * c)) / norm_x
        back = np.concatenate([_adjoint(v) @ part for v, part
                               in zip(vectors, blocks.project(vx))])
        basis_res = np.linalg.norm(back - x) / norm_x
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


def spectrum_normalizer(lo, hi):
    """The affine map taking the spectrum bounds [lo, hi] onto [m, 1 - m],
    m = ``SPECTRUM_MARGIN``; a spectrum of one point goes to 1/2.  Bounds
    whose spread hi - lo overflows the float range are refused with
    ``LinAlgError``, as no scale maps them."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(hi - lo):
        raise np.linalg.LinAlgError(
            "the levels span [%.6g, %.6g], a spread beyond the float range"
            % (lo, hi))
    if hi - lo < 1e-300:
        return AffineNormalizer(1.0, 0.5 - lo)
    scale = (1 - 2 * SPECTRUM_MARGIN) / (hi - lo)
    return AffineNormalizer(scale, SPECTRUM_MARGIN - scale * lo)


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
    determinant.  The result is exactly symmetric.  For n_alpha = n_beta
    the result carries the spin flip P, e_(I_a, I_b) -> (-1)^|I_a & I_b|
    e_(I_b, I_a), which its eigensolve splits by.
    """
    n = fd.n_orb
    if not 0 <= n_alpha <= n or not 0 <= n_beta <= n:
        raise ValueError("electron counts must lie in [0, n_orb]")
    dim = math.comb(n, n_alpha) * math.comb(n, n_beta)
    if dim > dim_cap:
        raise DimensionCapExceeded("sector dimension %d exceeds cap %d"
                                   % (dim, dim_cap))
    _check_integral_sizes(fd, n_alpha, n_beta, dim)
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
    _symmetrize(H)

    chars = np.empty((d_a, d_b, n, 2), dtype=np.uint8)
    chars[..., 0] = occ_a[:, None, :] + ord("0")
    chars[..., 1] = occ_b[None, :, :] + ord("0")
    labels = chars.reshape(dim, 2 * n).view("S%d" % (2 * n)).ravel()
    dense = DenseHamiltonian(H, labels.astype(str).tolist())
    if n_alpha == n_beta:
        # P swaps each orbital's alpha and beta bit: (I_a, I_b) -> (I_b,
        # I_a).  Putting the creators back into the interleaved order swaps
        # one pair per doubly occupied orbital, |I_a & I_b| of them.
        dense._flip = (np.arange(dim).reshape(d_a, d_a).T.ravel(),
                       np.where((occ_a @ occ_a.T).ravel() & 1, -1.0, 1.0))
    return dense


def _check_integral_sizes(fd, n_alpha, n_beta, dim):
    """Refuse integrals whose sector matrix could overflow, before any of
    it is allocated.

    Every entry of :func:`build_ci_matrix`'s H, and every partial sum on the
    way, is at most

        E = |core| + (n_a + n_b) max |h|
            + ((n_a + n_b) (n_orb + 1/2) + max(n_a, 1) max(n_b, 1)) max |g|

    in size: a one-spin entry takes at most n_s terms k_pq, each within
    max |h| + n_orb max |g| / 2, and at most n_s (n_orb + 1) two-body
    terms of half an integral; an alpha-beta entry at most
    max(n_a, 1) max(n_b, 1) integrals.  The symmetrization adds two
    entries, and the levels lie within dim E (Gershgorin), so their spread
    is at most 2 dim E, which must be finite.
    """
    n_el = n_alpha + n_beta
    count_g = n_el * (fd.n_orb + 0.5) + max(n_alpha, 1) * max(n_beta, 1)
    sizes = (abs(float(fd.core_energy)),
             float(np.abs(fd.one_body).max()),
             float(np.abs(fd.two_body).max()))
    bound = sizes[0] + n_el * sizes[1] + count_g * sizes[2]
    if not 2.0 * dim * bound < math.inf:
        raise ValueError(
            "integrals too large for the (%d, %d) sector: |core| %.3g, "
            "max |h| %.3g and max |g| %.3g could overflow its matrix"
            % (n_alpha, n_beta, *sizes))


def _symmetrize(a):
    """Overwrite the square ``a`` with (A + A^T) / 2, bit for bit, one
    ``_TILE`` x ``_TILE`` tile pair (i, j), i <= j, at a time: ``a += a.T``
    would copy all of ``a`` first, its operands overlapping."""
    n = a.shape[0]
    work = np.empty((_TILE, _TILE), dtype=a.dtype)
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            tile = a[i:i + _TILE, j:j + _TILE]
            mirror = a[j:j + _TILE, i:i + _TILE]
            mean = np.add(tile, mirror.T,
                          out=work[:tile.shape[0], :tile.shape[1]])
            mean *= 0.5
            tile[...] = mean
            mirror[...] = mean.T


def save_hamiltonian(h, path):
    """Write the matrix to ``path``: CSV if it ends in .csv, else an npz
    holding the labels and the eigensystem too (solved here unless ``h``
    has it already), so loaders skip their own eigensolve: the members of
    :meth:`FlipBlocks.members` of :meth:`DenseHamiltonian.eigensystem`, so
    a sector held as spin-flip blocks is written in the block layout and
    one block in the dense one, ``eigenvalues`` and ``eigenvectors``."""
    if str(path).endswith(".csv"):
        np.savetxt(path, h.entries, delimiter=",")
        return
    labels = np.array(h.basis_labels if h.basis_labels is not None else [])
    arrays = {"entries": h.entries, "basis_labels": labels}
    arrays.update(h.eigensystem().members())
    save_npz(path, arrays)


def _pow2_scaled(a):
    """``(a / 2^e, e)`` for the real or complex array ``a``, as a float or
    a complex array (a real ``a`` stays real): e is the ``math.frexp``
    exponent of its largest real or imaginary part, 0 for an all-zero or
    empty ``a`` or one holding a NaN or an infinity, which is left as it
    is.  The one scaling of amplitudes and weights: dividing by a power of
    two is exact, and it brings the largest part into [0.5, 1), so neither
    a square of a part nor a sum of squares overflows, and the largest
    squares do not underflow."""
    a = np.ascontiguousarray(a, complex if np.iscomplexobj(a) else float)
    parts = a.view(a.real.dtype)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    return np.ldexp(parts, -e).view(a.dtype), e


def csv_rows(path, dtype=float):
    """The rows of the comma-separated file at ``path`` as a 2-D ``dtype``
    array (one number is a 1 x 1 one), after one optional header line with
    no number among its fields: the line qprep's own CSV outputs start
    with.  A complex cell such as ``(1+2j)``, as ``np.savetxt`` writes one,
    counts as a number.  A file without rows is refused."""
    with open(path, encoding="utf-8") as fh:
        if any(map(_is_number, fh.readline().split(","))):
            fh.seek(0)
        with warnings.catch_warnings():
            # numpy warns of an empty file; it is refused below instead
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)
    if rows.size == 0:
        raise ValueError("file holds no rows")
    return rows


def _is_number(field):
    try:
        complex(field)
    except ValueError:
        return False
    return True


def save_npz(path, arrays):
    """Write ``arrays`` (name -> array) to ``path`` as an npz archive that
    ``np.load`` reads and :func:`npz_archive` maps in place.

    Each member is stored (not compressed) by ``zipfile`` as
    ``<name>.npy`` with a version 1.0 header, and a zipalign extra field
    pads its local header so that its array data starts at a multiple of
    ``_ALIGN`` bytes.  Members are dated 1980-01-01, so equal arrays give
    equal bytes, and each is written from its own buffer (a copy only for
    an array in neither C nor Fortran order).  The archive is written
    beside ``path`` and then moved over it, so arrays still mapping an
    earlier file at ``path`` stay intact; an archive that would need zip64
    records is refused and leaves ``path`` as it was.
    """
    path = os.fspath(path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as f, \
                zipfile.ZipFile(f, "w", allowZip64=False) as archive:
            for key, a in arrays.items():
                a = np.asarray(a)
                if a.dtype.hasobject:
                    raise ValueError("%s: object arrays are not stored" % key)
                header = io.BytesIO()
                np.lib.format.write_array_header_1_0(
                    header, np.lib.format.header_data_from_array_1_0(a))
                header = header.getvalue()
                # the order the header names, as one C-contiguous buffer
                stored = a.T if a.flags.f_contiguous \
                    and not a.flags.c_contiguous else np.require(a, None, "C")
                info = zipfile.ZipInfo(key + ".npy", (1980, 1, 1, 0, 0, 0))
                info.file_size = len(header) + stored.nbytes
                pad = -(f.tell() + _ZIP_LOCAL_SIZE + len(info.filename) + 6) \
                    % _ALIGN
                info.extra = struct.pack("<3H", 0xD935, 2 + pad, _ALIGN) \
                    + bytes(pad)
                with archive.open(info, "w") as member:
                    member.write(header)
                    member.write(stored)
                # the central directory entry goes without the padding
                info.extra = b""
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, zipfile.LargeZipFile):
            raise ValueError("archive passes 2 GiB; zip64 is not written") \
                from None
        raise


def npz_archive(path):
    """The arrays of the npz archive at ``path`` by member name (``.npy``
    dropped), read without pickles.

    One kind of member is read: stored, unencrypted, with a version 1.0
    ``.npy`` header, as :func:`save_npz` and ``np.savez`` write them.  A
    file that does not start like a zip archive, any other member (deflated,
    LZMA, bzip2, encrypted or version 2.0), and a member that does not fit
    its header or fails its CRC-32 raise ``ValueError`` naming the member;
    every member is checked against its header before any CRC-32 is.  The
    file is mapped read-only: a member whose array data starts at a
    multiple of ``_ALIGN`` bytes (each one save_npz writes) comes back as a
    read-only view of the map, and any other (np.savez writes them
    unaligned) is read into a new array.
    """
    members = _npz_members(path)
    _check_crcs(members)
    return {name: array for name, (array, _) in members.items()}


def _npz_members(path):
    """``{name: (array, crc_check)}`` of the npz archive at ``path``, as
    :func:`npz_archive` reads it but with no CRC-32 checked yet: calling
    ``crc_check()`` checks the member's."""
    with open(path, "rb") as f:
        if f.read(4) not in _ZIP_MAGIC:
            raise ValueError("not an npz archive")
        try:
            with zipfile.ZipFile(f) as archive:
                view = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                return {info.filename.removesuffix(".npy"):
                        _read_member(f, view, info)
                        for info in archive.infolist()}
        except zipfile.BadZipFile as exc:
            raise ValueError(str(exc)) from None


def _check_crcs(members):
    """Check the CRC-32 of each of :func:`_npz_members`' ``members``."""
    for _, crc_check in members.values():
        crc_check()


def _read_member(f, view, info):
    """``(array, crc_check)`` of one ``.npy`` member of the archive open as
    ``f`` and mapped as ``view``.  A member that is not stored, or is
    encrypted, is refused first.  Then its local header is checked, its
    ``.npy`` header (version 1.0 only) is parsed off the map, and header
    plus data are checked against the member's size and the end of the
    file, all before anything is allocated.  The data is a view of the map
    if it starts at a multiple of ``_ALIGN`` bytes, else one read from
    ``f`` into a new array; either way ``crc_check()`` checks the CRC-32
    over header bytes and data, which is left to the caller."""
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:
        how = "is encrypted" if info.flag_bits & 1 else "is compressed by " \
            + zipfile.compressor_names.get(info.compress_type, "method %d"
                                           % info.compress_type)
        raise ValueError("%s: %s; only stored, unencrypted members are read"
                         % (info.filename, how))
    local = view[info.header_offset:info.header_offset + _ZIP_LOCAL_SIZE]
    if len(local) != _ZIP_LOCAL_SIZE or local[:4] != b"PK\x03\x04":
        raise ValueError("Bad magic number for file header")
    start = info.header_offset + _ZIP_LOCAL_SIZE \
        + sum(struct.unpack_from("<2H", local, 26))
    end = start + info.file_size
    if end > len(view) or info.compress_size != info.file_size:
        raise _misfit(info)
    # a v1.0 header's length is the 16-bit word after its 8-byte magic
    header = view[start:start + 10 + int.from_bytes(view[start + 8:start + 10],
                                                   "little")]
    fp = io.BytesIO(header)
    version = np.lib.format.read_magic(fp)
    if version != (1, 0):
        raise ValueError("%s: .npy version %d.%d is not read"
                         % (info.filename, *version))
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when "
                         "allow_pickle=False")
    # checked before the array is made, so no header can claim more
    # memory than the member holds
    count = math.prod(shape)
    payload = start + len(header)
    if payload + count * dtype.itemsize != end:
        raise _misfit(info)
    if payload % _ALIGN:
        data = np.empty(count, dtype)
        f.seek(payload)
        if f.readinto(data.view(np.uint8)) != end - payload:
            raise _misfit(info)
    else:
        data = np.frombuffer(view, dtype, count, payload)

    def crc_check():
        if zlib.crc32(data.view(np.uint8), zlib.crc32(header)) != info.CRC:
            raise ValueError("Bad CRC-32 for file %r" % info.filename)

    # the stored order is C order over the reversed shape for Fortran
    return (data.reshape(shape[::-1]).T if fortran_order
            else data.reshape(shape)), crc_check


def _misfit(info):
    return ValueError("%s: size does not fit its header" % info.filename)


def load_hamiltonian(path):
    """Inverse of :func:`save_hamiltonian`: the :class:`DenseHamiltonian`
    at ``path``.  A CSV stays real unless an entry has a nonzero imaginary
    part, and is read by :func:`csv_rows`.  An npz may hold the eigensystem
    in the dense layout (``eigenvalues``, ``eigenvectors``, read as
    :meth:`FlipBlocks.one_block`), in the block layout or not at all (an
    older file, diagonalized on first use as one block); ``np.savez``
    archives load like :func:`save_npz` ones, read as :func:`npz_archive`
    reads them.  A file that is not a zip archive, holds a member
    npz_archive does not read (deflated, LZMA, bzip2, encrypted or with a
    version 2.0 header), fails a member's CRC-32, lacks the matrix or its
    labels, holds half an eigensystem or both layouts, or whose flip,
    matrix or stored eigensystem fails its checks is refused with
    ``ValueError``; a bad CRC-32 is the refusal reported, as if it had
    been checked first (see :func:`_load_beside_crcs`).
    """
    h, crcs_passed = _load_beside_crcs(path)
    crcs_passed()
    return h


def _load_beside_crcs(path):
    """``(h, crcs_passed)``: :func:`load_hamiltonian`'s ``h`` before its
    archive's CRC-32s are known to pass, and the call that waits for them
    and raises ``ValueError`` if one fails.  It must be called before
    anything computed from ``h`` is used (for a CSV, which has none, it
    does nothing).

    Once every member fits its header, the CRC-32s run on a helper thread
    inside a command of full width 2 or more (see :func:`qprep.blas.beside`;
    ``zlib.crc32`` releases the GIL and makes no BLAS call), beside the
    checks made here and whatever the caller does before
    ``crcs_passed()`` (``cli`` reads the ``--state`` and takes the
    measure); in any other case they run first.  A refusal of the checks
    made here is raised only after the CRC-32s pass, so either way a bad
    CRC-32 is the refusal reported.
    """
    if str(path).endswith(".csv"):
        entries = csv_rows(path, complex)
        if not entries.imag.any():
            entries = np.ascontiguousarray(entries.real)
        return DenseHamiltonian(entries), lambda: None
    members = _npz_members(path)
    crcs_passed = blas.beside(lambda: _check_crcs(members))
    try:
        return _hamiltonian_of(members), crcs_passed
    except BaseException:
        crcs_passed()
        raise


def _hamiltonian_of(members):
    """The :class:`DenseHamiltonian` of :func:`_npz_members`' ``members``,
    checked but for their CRC-32s."""
    data = {name: array for name, (array, _) in members.items()}
    missing = {"entries", "basis_labels"} - set(data)
    if missing:
        raise ValueError("archive has no %s" % " or ".join(sorted(missing)))
    labels = data["basis_labels"].tolist() or None
    stored = [name for name in ("eigenvalues", "eigenvectors") if name in data]
    if len(stored) == 1:
        raise ValueError("%s stored without the other half of the "
                         "eigensystem" % stored[0])
    blocks = None
    if any(name in data for name in _BLOCK_MEMBERS):
        missing = set(_BLOCK_MEMBERS) - set(data)
        if missing:
            raise ValueError("block layout archive has no %s"
                             % " or ".join(sorted(missing)))
        if stored:
            raise ValueError("archive holds both a dense and a block "
                             "eigensystem")
        partner, sign, *halves = (data[name] for name in _BLOCK_MEMBERS)
        blocks = FlipBlocks(partner, sign, halves[:2], halves[2:])
    elif stored:
        blocks = FlipBlocks.one_block(*(data[name] for name in stored))
    return DenseHamiltonian(data["entries"], labels, blocks)
