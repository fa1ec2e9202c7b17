"""GF(2) linear algebra and lossless compression of determinant bitstrings.

D distinct occupation bitstrings of length 2N are mapped to mutually
distinct signatures of 2*ceil(log2 D) - 1 bits in two stages: first every
string is restricted to a row basis of the (2N x D) position-by-string bit
matrix (substring selection), then signature vectors u_k are constructed
whose GF(2) dot products with the substrings give the signature bits.

The strings are parsed once into Python integers and eliminated once, one
string at a time, against a fully reduced basis keyed by lowest set bit.
The strings that stay independent are the generators, and each basis
vector carries a tag naming the generators it sums.  Row operations keep
column relations, so this one pass gives the whole first stage: the leads
of the basis are the positions kept, the tag a string collects on its way
to 0 holds its coordinates over the generators, and the tags in lead order
form the inverse of the generator matrix.  The second stage works in these
coordinates, where generator k is the unit vector e_k, and the inverse
carries its u-vectors back to positions.  The nullspace of the collected
w's (below) comes from the same elimination.

The signature-vector search peels one dimension per level.  It keeps the D
vectors as columns of uint64 words (bit k in word k // 64), sorted
lexicographically with the top word first.  The vectors with the level's
top bit are then a tail that starts at the generator, found by one binary
search on the top word; with the bit cleared the tail is the half N, the
rest the half M.  The candidate is the mex, the least integer outside
{0} | M | N | {m ^ n}, and XORing top | candidate into the tail and one
sort restore the order; the sort's neighbour compare asserts that the
vectors stay distinct.  The mex is small next to |M||N| (below 128 for
the 256 x 120 and 512 x 80 inputs of the benchmark), so it is sought in a
window [0, 2**b), b = 7 at first, that doubles while it is full.  A XOR
m ^ n lands in the window only if m and n agree on every bit from b up, so
those pairs are joined on a key of these bits: a hash of the words above
word 0, XORed with word 0 >> b.  A window forms at most 2**b pairs per
column of the smaller half, and the search needs memory linear in D, not
the |M| x |N| table of all pairwise XORs.

Each level clears its top bit, so once the levels above bit 63 are peeled
every vector lies in word 0, and the levels from bit 63 down run on that
one sorted word.  There the window's pairs are those of a range search
on M, sorted once, and when the halves give at most 8192 XORs (with the
zeros added) the mex forms all of them in one broadcast instead: there
the table is small and costs less than the window's searches.

The optional check relies on reduction against the collected w vectors
being linear, since each w's leading bit is its highest bit and no two
leading bits are equal.  The span then contains v_i ^ v_j exactly when v_i
and v_j reduce to the same residue, and a nonzero v exactly when v reduces
to 0.  So each level costs one reduction of all D vectors and one
distinctness test, not D**2/2 span tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DuplicateDeterminant",
    "SignatureMap",
    "select_substrings",
    "find_signature_vectors",
    "compress",
    "signature_length",
]


class DuplicateDeterminant(ValueError):
    """The input bitstrings were expected to be pairwise distinct but are not."""


def signature_length(n_det):
    """Number of signature bits, 2*ceil(log2 D) - 1, for D >= 2 (0 for D=1),
    exact for any D: ceil(log2 D) is ``(D - 1).bit_length()``."""
    if n_det < 1:
        raise ValueError("need at least one determinant")
    if n_det == 1:
        return 0
    return 2 * (n_det - 1).bit_length() - 1


def _parse_bitstrings(strings):
    """Equal-length '0'/'1' strings as integers, bit k = character k.

    Raises ValueError naming the first string whose length differs from
    the first one's or, if there is none, the first that holds a character
    other than '0' and '1'.
    """
    width = len(strings[0])
    for i, s in enumerate(strings):
        if len(s) != width:
            raise ValueError("bitstring %d (%r) has %d characters, expected %d"
                             % (i + 1, s, len(s), width))
    for i, s in enumerate(strings):
        if s.encode("ascii", "replace").translate(None, b"01"):
            raise ValueError("bitstring %d (%r) has a character other than 0/1"
                             % (i + 1, s))
    return [int(s[::-1] or "0", 2) for s in strings]


def _array_to_strings(bits):
    """Rows of a 0/1 array as '0'/'1' strings."""
    width = bits.shape[1]
    text = (bits + np.uint8(ord("0"))).tobytes().decode("ascii")
    return [text[i * width:(i + 1) * width] for i in range(bits.shape[0])]


_WORD = (1 << 64) - 1


def _pack_rows(ints, width):
    """``width``-bit integers as rows of uint64 words, bit k in word k // 64."""
    words = np.empty((len(ints), -(-width // 64)), dtype=np.uint64)
    for k in range(words.shape[1]):
        words[:, k] = np.fromiter((v >> 64 * k & _WORD for v in ints),
                                  np.uint64, len(ints))
    return words


def _eliminate(rows):
    """Gauss-Jordan elimination of integer rows, one row at a time.

    The basis is kept fully reduced: each vector holds its own lead, its
    lowest set bit, and no other vector's lead.  A row is reduced by XORing
    in the vector of every lead bit it holds.  A row left nonzero is
    generator k, k counting the generators before it; its lowest bit
    becomes a new lead, cleared from the older vectors.  Each vector keeps
    a tag, the generators (bit k = generator k) that sum to it, so a row
    that reduces to 0 is the sum of the generators in its tag.

    Returns ``(basis, coords)``: ``basis`` maps each lead bit to
    ``[vector, tag]``, and ``coords[i]`` is the set of generators that sum
    to row i (only ``1 << k`` for generator k itself).
    """
    basis = {}
    leads = 0                              # the OR of all lead bits
    coords = []
    for row in rows:
        tag = 0
        hit = row & leads
        while hit:
            lead = hit & -hit
            vec, vec_tag = basis[lead]
            row ^= vec
            tag ^= vec_tag
            hit ^= lead
        if not row:
            coords.append(tag)
            continue
        coord = 1 << len(basis)
        tag ^= coord
        lead = row & -row
        for entry in basis.values():
            if entry[0] & lead:
                entry[0] ^= row
                entry[1] ^= tag
        basis[lead] = [row, tag]
        leads |= lead
        coords.append(coord)
    return basis, coords


def _nullspace(rows, width):
    """Basis of {x : x . row = 0 over GF(2) for every row}, as integers.

    In the fully reduced basis of :func:`_eliminate` each vector has a 1 in
    its own lead and 0 in every other lead.  So the basis vector of free
    bit f has bit f set, 0 in the other free bits, and each lead bit set
    where that lead's vector has bit f.  Free bits come lowest first.
    """
    basis, _ = _eliminate(rows)
    return [1 << f | sum(lead for lead, (vec, _) in basis.items()
                         if vec >> f & 1)
            for f in range(width) if 1 << f not in basis]


def select_substrings(rows):
    """Positions to keep, the generators' inverse and the coordinates.

    ``rows`` are D distinct bitstrings as integers, bit k = position k.  The
    leads of their :func:`_eliminate` basis are the lowest-index-first row
    basis of the (2N x D) position-by-string matrix.  Every position is a
    GF(2) combination of these, so strings that agree on them agree
    everywhere, and distinctness survives the restriction.  Restricted to
    the leads, the fully reduced basis is the identity; so its tags in
    lead order are the rows of G^-1, where row k of G is generator k
    restricted to the positions kept.

    Returns ``(selected, inverse, coords)``: the positions kept, lowest
    first; G^-1 as one integer per position kept (bit k = column k); and
    the strings' coordinates (bit k = generator k) as packed rows.  Raises
    DuplicateDeterminant if two rows are equal.
    """
    if len(set(rows)) != len(rows):
        raise DuplicateDeterminant("input bitstrings are not pairwise distinct")
    basis, coords = _eliminate(rows)
    leads = sorted(basis)
    return ([lead.bit_length() - 1 for lead in leads],
            [basis[lead][1] for lead in leads], _pack_rows(coords, len(leads)))


_WINDOW_BITS = 7    # first window [0, 2**7): holds the bench-size mexes
_ALL_PAIRS = 8192   # the flat mex forms up to this many XORs at once
_MIX = np.uint64(0x9E3779B97F4A7C15)
_ZERO = np.zeros(1, dtype=np.uint64)


def _high_keys(cols):
    """One uint64 per column of ``cols`` (word k in row k), a hash of its
    words from 1 up.

    Each of those words is XORed into the key, which is then mixed
    bijectively (multiply by an odd constant, xorshift).  So the key of a
    two-word column is a bijection of word 1, and columns of more words
    that differ above word 1 may share a key by chance.
    """
    key = np.uint64(0)
    for word in cols[1:]:
        key = (key ^ word) * _MIX
        key ^= key >> np.uint64(32)
    return key


def _sort_columns(c):
    """The columns of ``c`` (word k in row k) in lexicographic order, top
    word first, and whether they are pairwise distinct."""
    c = c.take(np.lexsort(c), axis=1)
    same = c[0, 1:] == c[0, :-1]           # neighbours equal so far
    for row in c[1:]:
        same &= row[1:] == row[:-1]
    return c, not same.any()


def _distinct_rows(a):
    """True iff the packed rows of ``a`` are pairwise distinct."""
    return _sort_columns(a.T)[1]


def _window_pairs(keys, first, last):
    """Index pairs (i, j) with first[j] <= keys[i] <= last[j], keys sorted."""
    lo = keys.searchsorted(first, "left")
    count = keys.searchsorted(last, "right") - lo
    j = np.arange(len(first)).repeat(count)
    i = np.arange(len(j)) + (lo - count.cumsum() + count)[j]
    return i, j


def _window_mex(x, size):
    """Least integer in [0, size) outside ``x``, or None if there is none."""
    seen = np.zeros(size, dtype=bool)
    seen[x] = True
    mex = int(seen.argmin())
    return None if seen[mex] else mex


def _flat_mex(M, N):
    """Least integer outside {0} | M | N | {m ^ n}, for uint64 vectors.

    With a zero added to M and to N, that set is {m ^ n} alone.  When those
    XORs number at most ``_ALL_PAIRS``, all are formed in one broadcast:
    they take at most that many values, so the mex is at most their count
    and a window one longer holds it.  Larger halves take the doubling
    window that :func:`_word_mex` describes, with M, sorted once, as its
    keys: the pairs of n in window [0, 2**b) are the m in
    [n & ~(2**b - 1), n | (2**b - 1)].
    """
    M = np.concatenate([_ZERO, M])
    N = np.concatenate([_ZERO, N])
    pairs = len(M) * len(N)
    if pairs <= _ALL_PAIRS:
        x = np.minimum(M[:, None] ^ N, np.uint64(pairs + 1))
        return _window_mex(x.ravel(), pairs + 2)
    M.sort()
    b = _WINDOW_BITS
    while True:
        low = np.uint64((1 << b) - 1)
        i, j = _window_pairs(M, N & ~low, N | low)
        mex = _window_mex(M[i] ^ N[j], 1 << b)
        if mex is not None:
            return mex
        b += 1


def _word_mex(M, N):
    """Least integer outside {0} | M | N | {m ^ n}, for vectors of two or
    more uint64 words held as columns (word k in row k).

    With a zero column added to M and to N, that set is {m ^ n} alone.  The
    mex is searched in a window [0, 2**b) that doubles while it is full.
    m ^ n lies in the window exactly when m and n agree on their words from
    1 up and on word 0 from bit b up, so only those pairs are formed: they
    are joined on the key ``_high_keys ^ (word 0 >> b)``, M's keys sorted
    and searched for each key of N.  The higher words' keys are the same
    in every window and are mixed once.  For a fixed v each m has at most
    one partner n = m ^ v, so a window forms at most 2**b * (1 + min(|M|,
    |N|)) pairs, not (1 + |M|)(1 + |N|).  A pair that a chance collision of
    the higher words' keys joined differs in a higher word and is dropped.
    """
    zero = np.zeros((len(M), 1), dtype=np.uint64)
    both = np.concatenate([zero, M, zero, N], axis=1)
    k = M.shape[1] + 1                     # M's columns come first
    high = _high_keys(both)
    b = _WINDOW_BITS
    while True:
        keys = high ^ (both[0] >> np.uint64(b))
        order = keys[:k].argsort()
        i, j = _window_pairs(keys[order], keys[k:], keys[k:])
        i, j = order[i], j + k
        x = both.take(i, axis=1) ^ both.take(j, axis=1)
        mex = _window_mex(x[0, ~x[1:].any(axis=0)], 1 << b)
        if mex is not None:
            return mex
        b += 1


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


def find_signature_vectors(cur, r, check, stats):
    """Signature vectors that give D vectors distinct GF(2) images.

    ``cur`` holds D >= 3 distinct vectors of r > m = 2*ceil(log2 D) - 1
    bits, among them every unit vector e_k, packed into rows of uint64
    words (bit k in word k // 64).  Returns m vectors of r bits as
    integers.  Stacked into a matrix U, the map v -> U v over GF(2) sends
    the D vectors to mutually distinct signatures; its kernel avoids every
    pairwise difference and every nonzero vector.

    When ``check`` is true, the kernel-avoidance properties are asserted at
    every step of the inductive construction.  ``stats``, if a dict,
    receives per-step candidate-scan counts under ``"search_counts"``.
    """
    m = signature_length(len(cur))
    # The vectors as columns, word k in row k, kept in lexicographic order,
    # top word first.  The vectors with a level's top bit are then a tail
    # that starts at the generator, whose cleared copy 0 stays in N, and
    # the sort that asserts distinctness after the replacement restores
    # the order.
    c, distinct = _sort_columns(cur.T)
    if not distinct:
        raise AssertionError("coordinate map lost distinctness")

    search_counts = []
    ws = []                                # w = top | cand, top level first
    snapshots = []                         # each level's vectors, for check
    for level in range(r, max(m, 64), -1):
        word, bit = divmod(level - 1, 64)
        a = c[:word + 1]                   # higher words are zero by now
        top = np.uint64(1) << np.uint64(bit)
        k = int(a[word].searchsorted(top))
        if k == len(cur) or a[word, k] != top or a[:word, k].any():
            raise AssertionError("generator e_%d missing at level %d"
                                 % (level - 1, level))
        if check:
            snapshots.append(c.T.copy())
        tail = a[:, k:]
        tail[word] ^= top                  # N, the tail with top cleared
        cand = _word_mex(a[:, :k], tail)
        if cand >= 1 << (level - 1):
            raise AssertionError("candidate search exhausted at level %d" % level)
        search_counts.append(cand + 1)
        ws.append(1 << (level - 1) | cand)
        tail[0] ^= np.uint64(cand)         # top -> cand, top ^ n -> cand ^ n
        a[:], distinct = _sort_columns(a)
        if not distinct:
            raise AssertionError("replacement collapsed the vector set at "
                                 "level %d" % level)

    # From bit 63 down every vector lies in word 0: the same steps on that
    # one word, already in order.  A loop of its own, as folding it into the
    # word-column loop made compress 4-17 % slower at every bench size.
    v = c[0]
    for level in range(min(r, 64), m, -1):
        top = np.uint64(1 << (level - 1))
        k = int(v.searchsorted(top))
        if k == len(v) or v[k] != top:
            raise AssertionError("generator e_%d missing at level %d"
                                 % (level - 1, level))
        cand = _flat_mex(v[:k], v[k:] ^ top)
        if cand >= 1 << (level - 1):
            raise AssertionError("candidate search exhausted at level %d" % level)
        search_counts.append(cand + 1)
        if check:
            snapshots.append(c.T.copy())
        ws.append(1 << (level - 1) | cand)
        v[k:] ^= top | np.uint64(cand)
        v.sort()
        if (v[1:] == v[:-1]).any():
            raise AssertionError("replacement collapsed the vector set at "
                                 "level %d" % level)

    ws.reverse()                           # lowest lead first
    if check:
        _check_kernel_avoidance(snapshots, list(zip(
            (w.bit_length() - 1 for w in ws), _pack_rows(ws, r))))

    if stats is not None:
        stats["search_counts"] = search_counts

    # The u-vectors span the nullspace of the w's.
    U = _nullspace(ws, r)
    if len(U) != m:
        raise AssertionError("nullspace dimension %d != %d" % (len(U), m))
    return U


@dataclass
class SignatureMap:
    """Output of :func:`compress`: positions kept, u-vectors, signatures.

    ``signatures[i]`` equals the GF(2) product of the stacked u-vectors with
    the i-th substring; all signatures are mutually distinct.
    """

    selected_rows: list
    u_vectors: list
    signatures: list

    @property
    def signature_bits(self):
        return len(self.u_vectors)

    def as_dict(self):
        """JSON-ready fields; bit vectors go out as hex strings."""
        return {
            "selected_rows": list(self.selected_rows),
            "u_vectors": [_bits_to_hex(u) for u in self.u_vectors],
            "signatures": [_bits_to_hex(b) for b in self.signatures],
        }


def _bits_to_hex(bits):
    return format(int(bits, 2), "x") if bits else ""


def compress(nus, check=False, stats=None):
    """Full compression: substring selection plus signature construction.

    Maps D distinct bitstrings to distinct signatures of
    ``min(r, 2*ceil(log2 D) - 1)`` bits, r being the selected substring
    length.  D=1 needs no compression and returns an empty map.  A
    bitstring of the wrong length or with a character other than 0/1 raises
    ValueError naming it; two equal ones raise DuplicateDeterminant.
    ``check`` and ``stats`` go to
    :func:`find_signature_vectors`, which runs only when D > 2 and r
    exceeds the signature length.
    """
    nus = list(nus)
    if not nus:
        raise ValueError("need at least one bitstring")
    rows = _parse_bitstrings(nus)
    D, width = len(rows), len(nus[0])
    if D == 1:
        return SignatureMap([], [], [""])
    selected, inverse, coords = select_substrings(rows)
    r, m = len(selected), signature_length(D)
    # Each u-vector as a mask over all positions, set only where kept.
    if r <= m:
        # The substrings already fit in the signature budget: identity map.
        masks = [1 << pos for pos in selected]
    elif D == 2:
        # Counting makes the full kernel property unsatisfiable here (the
        # forbidden set covers all of F_2^r); one differing bit is enough
        # for distinctness, which is all the single signature bit needs.
        diff = rows[0] ^ rows[1]
        masks = [1 << next(pos for pos in selected if diff >> pos & 1)]
    else:
        # Found in coordinates c, where a substring is G^T c: u . c equals
        # (G^-1 u) . (G^T c), and bit p of G^-1 u is u . (row p of G^-1).
        us = find_signature_vectors(coords, r, check, stats)
        masks = [sum(((u & row).bit_count() & 1) << pos
                     for pos, row in zip(selected, inverse)) for u in us]
    words = _pack_rows(rows, width)
    bits = np.empty((D, len(masks)), dtype=np.uint8)
    keys = np.zeros((D, 1), dtype=np.uint64)   # each signature in one word
    for a, mask in enumerate(_pack_rows(masks, width)):
        bit = np.bitwise_count(words & mask).sum(axis=1) & 1
        bits[:, a] = bit
        keys[:, 0] |= bit << np.uint64(a)
    if not _distinct_rows(keys):
        raise AssertionError("signature construction failed to separate inputs")
    return SignatureMap(selected,
                        ["".join("01"[mask >> pos & 1] for pos in selected)
                         for mask in masks], _array_to_strings(bits))
