"""GF(2) linear algebra and lossless compression of determinant bitstrings.

D distinct occupation bitstrings of length 2N are mapped to mutually
distinct signatures of 2*ceil(log2 D) - 1 bits in two stages: first every
string is restricted to a row basis of the (2N x D) position-by-string bit
matrix (substring selection), then signature vectors u_k are constructed
whose GF(2) dot products with the substrings give the signature bits.
Gaussian elimination for the row basis works on rows packed into Python
integers.

The signature-vector search peels one dimension per level.  It keeps the D
vectors packed into rows of uint64 words (bit k in word k // 64), splits
them into the half M without the level's top bit and the half N with it
removed, and takes as candidate the mex, the least integer outside
{0} | M | N | {m ^ n}.  At most K = 1 + |M| + |N| + |M||N| values are
forbidden, so the mex is at most K: the pairwise XORs are formed in blocks
of M rows, and only values <= K are marked, in a boolean array of K + 1
entries.

The optional check relies on reduction against the collected w vectors
being linear, since each w's leading bit is its highest bit and no two
leading bits are equal.  The span then contains v_i ^ v_j exactly when v_i
and v_j reduce to the same residue, and a nonzero v exactly when v reduces
to 0.  So each level costs one reduction of all D vectors and one
distinctness test, not D**2/2 span tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DuplicateDeterminant",
    "SignatureMap",
    "rank_and_row_basis",
    "select_substrings",
    "find_signature_vectors",
    "compress",
    "signature_length",
]


class DuplicateDeterminant(ValueError):
    """The input bitstrings were expected to be pairwise distinct but are not."""


def signature_length(n_det):
    """Number of signature bits, 2*ceil(log2 D) - 1, for D >= 2 (0 for D=1)."""
    if n_det < 1:
        raise ValueError("need at least one determinant")
    if n_det == 1:
        return 0
    return 2 * math.ceil(math.log2(n_det)) - 1


def _as_bits(m):
    return np.asarray(m, dtype=np.uint8) & 1


def _strings_to_array(strings):
    """Parse equal-length '0'/'1' strings into a (count, width) uint8 array.

    Raises ValueError naming the first string whose length differs from
    the first one's or that holds a character other than '0' and '1'.
    """
    strings = list(strings)
    width = len(strings[0]) if strings else 0
    for i, s in enumerate(strings):
        if len(s) != width:
            raise ValueError("bitstring %d (%r) has %d characters, expected %d"
                             % (i + 1, s, len(s), width))
    text = "".join(strings).encode("ascii", "replace")
    bits = np.frombuffer(text, dtype=np.uint8).reshape(len(strings), width)
    bits = bits - np.uint8(ord("0"))
    bad = np.flatnonzero((bits > 1).any(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError("bitstring %d (%r) has a character other than 0/1"
                         % (i + 1, strings[i]))
    return bits


def _array_to_strings(bits):
    """Rows of a 0/1 array as '0'/'1' strings."""
    bits = np.asarray(bits, dtype=np.uint8)
    width = bits.shape[1]
    text = (bits + np.uint8(ord("0"))).tobytes().decode("ascii")
    return [text[i * width:(i + 1) * width] for i in range(bits.shape[0])]


def _pack_rows(bits):
    """(n, r) 0/1 array as (n, ceil(r/64)) uint64 words, bit k in word k//64."""
    n, r = bits.shape
    packed = np.zeros((n, 8 * -(-r // 64)), dtype=np.uint8)
    packed[:, :-(-r // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _unpack_rows(words, r):
    """Inverse of :func:`_pack_rows`: the low r bits of each row of words."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :r]


def _distinct_rows(a):
    """True iff the rows of the 2-d array ``a`` are pairwise distinct."""
    a = a[np.lexsort(a.T)]
    return not (a[1:] == a[:-1]).all(axis=1).any()


def rank_and_row_basis(m):
    """Rank and a row basis over GF(2), by Gaussian elimination.

    Returns ``(rank, basis_rows)`` where ``basis_rows`` is the
    lowest-index-first list of input rows that are linearly independent and
    span the row space.  Each row is packed into one Python integer (bit k
    = column k).  Each basis vector is keyed by its lowest set bit, its
    lead, and no two leads are equal; a row is reduced by XORing in the
    vector of its lowest lead bit until it holds no lead bit.
    """
    bits = _as_bits(m)
    n, cols = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="little")
    basis = {}                             # lead bit -> basis vector
    leads = 0                              # the OR of all lead bits
    basis_rows = []
    for i in range(n):
        if len(basis_rows) == cols:
            break                          # full column rank: nothing new
        row = int.from_bytes(packed[i].tobytes(), "little")
        hit = row & leads
        while hit:
            row ^= basis[hit & -hit]
            hit = row & leads
        if row:
            lead = row & -row
            basis[lead] = row
            leads |= lead
            basis_rows.append(i)
    return len(basis_rows), basis_rows


def _gf2_inverse(a):
    """Inverse of a square GF(2) matrix (raises if singular)."""
    a = _as_bits(a)
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        piv = col + int(np.argmax(aug[col:, col]))
        if not aug[piv, col]:
            raise ValueError("matrix is singular over GF(2)")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        hits = np.flatnonzero(aug[:, col])
        hits = hits[hits != col]
        aug[hits] ^= aug[col]
    return aug[:, n:]


def _gf2_nullspace(a):
    """Rows form a basis of the right nullspace {x : a x = 0 over GF(2)}."""
    a = _as_bits(a).copy()
    rows, cols = a.shape
    pivot_cols = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        piv = row + int(np.argmax(a[row:, col]))
        if not a[piv, col]:
            continue
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        hits = np.flatnonzero(a[:, col])
        hits = hits[hits != row]
        a[hits] ^= a[row]
        pivot_cols.append(col)
        row += 1
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for k, f in enumerate(free_cols):
        x = basis[k]
        x[f] = 1
        for rr in range(len(pivot_cols) - 1, -1, -1):
            x[pivot_cols[rr]] = np.dot(a[rr], x) & 1
    return basis


def select_substrings(nus):
    """Restrict bitstrings to a row basis of the position-by-string matrix.

    Every position (row of the 2N x D matrix) is a GF(2) combination of the
    basis rows, so strings that agree on the selected positions agree
    everywhere; distinctness survives the restriction.

    Parameters
    ----------
    nus : iterable of '0'/'1' strings, all the same length, pairwise distinct.

    Returns
    -------
    (selected_rows, tilde_nus) : positions kept (lowest-index-first) and the
        restricted substrings, in input order.
    """
    nus = list(nus)
    if len(nus) < 2:
        raise ValueError("substring selection needs at least two bitstrings")
    if len(set(nus)) != len(nus):
        raise DuplicateDeterminant("input bitstrings are not pairwise distinct")
    mat = _strings_to_array(nus)          # D x 2N
    _, selected = rank_and_row_basis(mat.T)
    return selected, _array_to_strings(mat[:, selected])


_BLOCK_WORDS = 1 << 20      # words per temporary of the pairwise XOR


def _mark_small(seen, vals):
    """Set ``seen[v]`` for each packed value v (last axis) below len(seen)."""
    low = vals[..., 0]
    keep = low < len(seen)
    if vals.shape[-1] > 1:
        keep &= ~vals[..., 1:].any(axis=-1)
    seen[low[keep]] = True


def _forbidden_mex(M, N):
    """Least integer outside {0} | M | N | {m ^ n}, for packed row sets.

    At most K = 1 + |M| + |N| + |M||N| values are forbidden, so the mex is
    at most K and only values <= K need marking.
    """
    K = 1 + len(M) + len(N) + len(M) * len(N)
    seen = np.zeros(K + 1, dtype=bool)
    seen[0] = True
    _mark_small(seen, M)
    _mark_small(seen, N)
    step = max(1, _BLOCK_WORDS // max(1, N.size))
    for i in range(0, len(M), step):
        _mark_small(seen, M[i:i + step, None, :] ^ N[None, :, :])
    return int(np.argmin(seen))


def _check_kernel_avoidance(snapshots, echelon):
    """Assert that the span of the w's avoids each level's substrings.

    ``snapshots`` holds each level's packed (D, W) vectors, top level first;
    ``echelon`` holds ``(lead, packed w)`` pairs, lowest lead first, with
    distinct leads, each the highest set bit of its w.  The i-th snapshot
    from the bottom is checked against the span of the first i + 1 w's,
    which must avoid every nonzero vector and every pairwise difference.
    Reduction in decreasing lead order is linear, so all D vectors of all
    levels are reduced together, and a difference lies in the span iff two
    residues are equal.
    """
    if not snapshots:
        return
    vecs = np.stack(snapshots[::-1])       # bottom level first
    res = vecs.copy()
    for pos in range(len(echelon) - 1, -1, -1):
        lead, w = echelon[pos]
        word, bit = divmod(lead, 64)
        part = res[pos:]                   # the levels whose span holds w
        hit = (part[..., word] >> np.uint64(bit)) & np.uint64(1)
        part ^= hit[..., None] * w
    for v, rv in zip(vecs, res):
        if (v.any(axis=1) & ~rv.any(axis=1)).any():
            raise AssertionError("kernel contains a substring")
        if not _distinct_rows(rv):
            raise AssertionError("kernel contains a difference")


def find_signature_vectors(tilde_nus, check=False, stats=None):
    """Signature vectors u_k that give the substrings distinct GF(2) images.

    For D distinct substrings of length r this returns min(r, 2*ceil(log2 D)-1)
    vectors of length r (as '0'/'1' strings).  Stacked into a matrix U, the map
    v -> U v over GF(2) sends the substrings to mutually distinct signatures;
    its kernel avoids every pairwise difference and (except for D=2 with r=2,
    where that is impossible by counting) every nonzero substring.

    When ``check`` is true, the kernel-avoidance properties are asserted at
    every step of the inductive construction.  ``stats``, if given a dict,
    receives per-step candidate-scan counts under ``"search_counts"``.
    """
    tilde_nus = list(tilde_nus)
    D = len(tilde_nus)
    if D < 2:
        raise ValueError("need at least two substrings")
    if len(set(tilde_nus)) != D:
        raise DuplicateDeterminant("substrings are not pairwise distinct")
    T = _strings_to_array(tilde_nus)      # D x r
    r = T.shape[1]
    m = signature_length(D)

    if r <= m:
        # The substrings already fit in the signature budget: identity map.
        return _array_to_strings(np.eye(r, dtype=np.uint8))

    if D == 2:
        # Counting makes the full kernel property unsatisfiable here (the
        # forbidden set covers all of F_2^r); one differing bit is enough
        # for distinctness, which is all the single signature bit needs.
        u = np.zeros((1, r), dtype=np.uint8)
        u[0, np.flatnonzero(T[0] ^ T[1])[0]] = 1
        return _array_to_strings(u)

    rank, gen_rows = rank_and_row_basis(T)
    if rank != r:
        raise ValueError("substrings must span their full bit space "
                         "(got rank %d < %d); run select_substrings first"
                         % (rank, r))
    P = T[gen_rows].T                      # columns are the generators
    P_inv = _gf2_inverse(P)

    # Work in coordinates where generator k becomes the unit vector e_k;
    # each vector is a row of uint64 words with bit k = coordinate k.
    cur = _pack_rows(((P_inv @ T.T) & 1).T)
    if not _distinct_rows(cur):
        raise AssertionError("coordinate map lost distinctness")

    search_counts = []
    w_echelon = []                         # (leading bit, w) pairs, low first
    snapshots = []                         # each level's vectors, for check
    for level in range(r, m, -1):
        word, bit = divmod(level - 1, 64)
        top = np.uint64(1) << np.uint64(bit)
        rest = cur[:, :word + 1].copy()    # higher words are zero by now
        has_top = (rest[:, word] & top) != 0
        rest[:, word] &= ~top              # the vectors with top cleared
        is_top = has_top & ~rest.any(axis=1)
        if not is_top.any():
            raise AssertionError("generator e_%d missing at level %d"
                                 % (level - 1, level))
        cand = _forbidden_mex(rest[~has_top], rest[has_top & ~is_top])
        if cand >= 1 << (level - 1):
            raise AssertionError("candidate search exhausted at level %d" % level)
        search_counts.append(cand + 1)
        if check:
            snapshots.append(cur.copy())
        w = np.zeros(cur.shape[1], dtype=np.uint64)
        w[word] = top
        w[0] |= np.uint64(cand)
        w_echelon.insert(0, (level - 1, w))
        cur[has_top] ^= w                  # top -> cand, top ^ n -> cand ^ n
        if not _distinct_rows(cur):
            raise AssertionError("replacement collapsed the vector set")

    if check:
        _check_kernel_avoidance(snapshots, w_echelon)

    if stats is not None:
        stats["search_counts"] = search_counts

    # u-vectors: nullspace of the w's in coordinates, mapped back through P.
    W = _unpack_rows(np.array([w for _, w in w_echelon]), r)
    U_coord = _gf2_nullspace(W)            # m x r
    if U_coord.shape[0] != m:
        raise AssertionError("nullspace dimension %d != %d"
                             % (U_coord.shape[0], m))
    U = (P_inv.T @ U_coord.T).T & 1        # back to bit-position axes
    return _array_to_strings(U)


@dataclass
class SignatureMap:
    """Output of :func:`compress`: positions kept, u-vectors, signatures.

    ``signatures[i]`` equals the GF(2) product of the stacked u-vectors with
    the i-th substring; all signatures are mutually distinct.
    """

    selected_rows: list = field(default_factory=list)
    u_vectors: list = field(default_factory=list)
    signatures: list = field(default_factory=list)

    @property
    def signature_bits(self):
        return len(self.u_vectors)

    def to_json(self):
        """Serialize; bit vectors go out as hex strings."""
        return json.dumps({
            "selected_rows": list(self.selected_rows),
            "u_vectors": [_bits_to_hex(u) for u in self.u_vectors],
            "signatures": [_bits_to_hex(b) for b in self.signatures],
        })


def _bits_to_hex(bits):
    return format(int(bits, 2), "x") if bits else ""


def compress(nus, check=False):
    """Full compression: substring selection plus signature construction.

    Maps D distinct bitstrings to distinct signatures of
    ``min(r, 2*ceil(log2 D) - 1)`` bits, r being the selected substring
    length.  D=1 needs no compression and returns an empty map.  A
    bitstring of the wrong length or with a character other than 0/1 raises
    ValueError naming it.
    """
    nus = list(nus)
    if not nus:
        raise ValueError("need at least one bitstring")
    if len(set(nus)) != len(nus):
        raise DuplicateDeterminant("input bitstrings are not pairwise distinct")
    if len(nus) == 1:
        _strings_to_array(nus)             # refuses a malformed bitstring
        return SignatureMap([], [], [""])
    selected, tilde = select_substrings(nus)
    us = find_signature_vectors(tilde, check=check)
    U = _strings_to_array(us)
    T = _strings_to_array(tilde)
    B = (T @ U.T) & 1
    sigs = _array_to_strings(B)
    if len(set(sigs)) != len(sigs):
        raise AssertionError("signature construction failed to separate inputs")
    return SignatureMap(selected, us, sigs)
