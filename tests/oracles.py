"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: enumeration, dense linear algebra,
random search.  The point is to have implementations whose correctness is
obvious, against which the package's actual algorithms are compared.
"""

import itertools
import math

import numpy as np

from qprep import gf2, hamiltonian, spectra, states

SPIKE_TOL = 1e-12


def gf2_span(rows_as_ints):
    """The full GF(2) span of integer-encoded rows, built by doubling."""
    span = {0}
    for row in rows_as_ints:
        span |= {s ^ row for s in span}
    return span


def gf2_rank_bruteforce(bits):
    """Rank over GF(2) via the size of the row span (2**rank elements)."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    ints = [int("".join(str(b) for b in row), 2) if row.size else 0
            for row in bits]
    size = len(gf2_span(ints))
    return size.bit_length() - 1


def rank_and_row_basis_loop(m):
    """Rank and lowest-index-first row basis over GF(2), eliminating one
    uint8 row at a time against the basis collected so far."""
    bits = np.asarray(m, dtype=np.uint8) & 1
    basis = []
    leads = []
    basis_rows = []
    for i in range(bits.shape[0]):
        row = bits[i].copy()
        for b, lead in zip(basis, leads):
            if row[lead]:
                row ^= b
        nz = np.flatnonzero(row)
        if nz.size:
            basis.append(row)
            leads.append(nz[0])
            basis_rows.append(i)
    return len(basis_rows), basis_rows


def gf2_inverse_rowops(a):
    """Inverse of a square GF(2) matrix by row operations on uint8 [a | I]
    (raises if singular)."""
    a = np.asarray(a, dtype=np.uint8) & 1
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


def gf2_nullspace_backsub(a):
    """Rows form a basis of {x : a x = 0 over GF(2)}: uint8 elimination,
    then one back-substitution per free column."""
    a = (np.asarray(a, dtype=np.uint8) & 1).copy()
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


def random_signature_matrix(tilde_nus, n_bits, rng, max_tries=2000):
    """Sample random GF(2) matrices until one separates the substrings.

    Returns (matrix, tries) on success, (None, max_tries) otherwise.  Used
    as an existence oracle for signature maps of a given bit budget.
    """
    T = np.array([[int(c) for c in s] for s in tilde_nus], dtype=np.uint8)
    for tries in range(1, max_tries + 1):
        U = rng.integers(0, 2, size=(n_bits, T.shape[1]), dtype=np.uint8)
        sigs = [tuple(row) for row in (T @ U.T) & 1]
        if len(set(sigs)) == len(sigs):
            return U, tries
    return None, max_tries


def random_distinct_bitstrings(rng, count, n_bits):
    """Uniformly random pairwise-distinct '0'/'1' strings."""
    if count > 2 ** n_bits:
        raise ValueError("cannot draw %d distinct %d-bit strings" % (count, n_bits))
    seen = []
    while len(seen) < count:
        s = "".join(str(b) for b in rng.integers(0, 2, size=n_bits))
        if s not in seen:
            seen.append(s)
    return seen


def _span_residue(echelon, v):
    """Reduce int v against ints with distinct leading bits; 0 iff in span."""
    for lead, w in sorted(echelon, reverse=True):
        if (v >> lead) & 1:
            v ^= w
    return v


def kernel_check_pairwise(snapshots, w_echelon):
    """The pairwise kernel-avoidance check, one span reduction per pair.

    ``snapshots`` are the ``(level, set of ints)`` pairs of the search, top
    level first; ``w_echelon`` holds ``(lead, int)`` pairs, lowest lead
    first, and the i-th snapshot from the bottom is checked against its
    first i + 1 entries.
    """
    # Walking back up, the span of the w's collected so far must avoid
    # every nonzero vector of that level's set and every pairwise sum.
    for idx, (level, vec_set) in enumerate(reversed(snapshots)):
        ech = w_echelon[: idx + 1]
        vecs = sorted(vec_set)
        for v in vecs:
            if v and _span_residue(ech, v) == 0:
                raise AssertionError("kernel contains a substring")
        for i, vi in enumerate(vecs):
            for vj in vecs[i + 1:]:
                if _span_residue(ech, vi ^ vj) == 0:
                    raise AssertionError("kernel contains a difference")


def _strings_to_bits(strings):
    """'0'/'1' strings as a (count, width) uint8 array, one char at a time."""
    return np.array([[int(c) for c in s] for s in strings],
                    dtype=np.uint8).reshape(len(strings), -1)


def _array_to_string(row):
    return "".join("1" if b else "0" for b in row)


def find_signature_vectors_sets(tilde_nus, check=False, stats=None):
    """Signature search on Python-int sets: the mex found by counting up.

    Takes D distinct substrings of full rank and returns the u-vectors as
    '0'/'1' strings.  The forbidden set of each level is built explicitly,
    O(D**2) ints, and ``check`` runs :func:`kernel_check_pairwise`.
    """
    tilde_nus = list(tilde_nus)
    D = len(tilde_nus)
    if D < 2:
        raise ValueError("need at least two substrings")
    if len(set(tilde_nus)) != D:
        raise gf2.DuplicateDeterminant("substrings are not pairwise distinct")
    r = len(tilde_nus[0])
    m = gf2.signature_length(D)

    if r <= m:
        # The substrings already fit in the signature budget: identity map.
        eye = np.eye(r, dtype=np.uint8)
        return [_array_to_string(row) for row in eye]

    if D == 2:
        # Counting makes the full kernel property unsatisfiable here (the
        # forbidden set covers all of F_2^r); one differing bit is enough
        # for distinctness, which is all the single signature bit needs.
        arr = _strings_to_bits(tilde_nus)
        j = int(np.flatnonzero(arr[0] ^ arr[1])[0])
        u = np.zeros(r, dtype=np.uint8)
        u[j] = 1
        return [_array_to_string(u)]

    T = _strings_to_bits(tilde_nus)           # D x r, full column rank
    rank, gen_rows = rank_and_row_basis_loop(T)
    if rank != r:
        raise ValueError("substrings must span their full bit space "
                         "(got rank %d < %d); run select_substrings first"
                         % (rank, r))
    P = T[gen_rows].T                      # columns are the generators
    P_inv = gf2_inverse_rowops(P)

    # Work in coordinates where generator k becomes the unit vector e_k;
    # vectors live in Python ints with bit k = coordinate k.
    coords = (P_inv @ T.T) & 1             # r x D
    weights = (1 << np.arange(r, dtype=object))
    cur = {int(np.dot(weights, coords[:, i])) for i in range(D)}
    if len(cur) != D:
        raise AssertionError("coordinate map lost distinctness")

    search_counts = []
    w_echelon = []                         # (leading bit, vector) pairs, high first
    snapshots = []                         # (level, original set) for check
    for level in range(r, m, -1):
        top = 1 << (level - 1)
        if top not in cur:
            raise AssertionError("generator e_%d missing at level %d"
                                 % (level - 1, level))
        M = [v for v in cur if not v & top]
        N_red = [v ^ top for v in cur if v & top and v != top]
        forbidden = {0}
        forbidden.update(N_red)
        forbidden.update(M)
        forbidden.update(mj ^ mi for mj in M for mi in N_red)
        cand = 0
        while cand in forbidden:
            cand += 1
        if cand >= top:
            raise AssertionError("candidate search exhausted at level %d" % level)
        search_counts.append(cand + 1)
        if check:
            snapshots.append((level, set(cur)))
        w_echelon.insert(0, (level - 1, top ^ cand))
        cur = set(M)
        cur.add(cand)
        cur.update(cand ^ mi for mi in N_red)
        if len(cur) != D:
            raise AssertionError("replacement collapsed the vector set")

    if check:
        kernel_check_pairwise(snapshots, w_echelon)

    if stats is not None:
        stats["search_counts"] = search_counts

    # u-vectors: nullspace of the w's in coordinates, mapped back through P.
    W = np.zeros((len(w_echelon), r), dtype=np.uint8)
    for a, (_, w) in enumerate(w_echelon):
        for k in range(r):
            W[a, k] = (w >> k) & 1
    U_coord = gf2_nullspace_backsub(W)         # m x r
    if U_coord.shape[0] != m:
        raise AssertionError("nullspace dimension %d != %d"
                             % (U_coord.shape[0], m))
    U = (P_inv.T @ U_coord.T).T & 1        # back to bit-position axes
    return [_array_to_string(row) for row in U]


def compress_reference(nus, check=False, stats=None):
    """``gf2.compress`` from the loop row basis of the position-by-string
    matrix, :func:`find_signature_vectors_sets` and uint8 signatures."""
    nus = list(nus)
    if len(set(nus)) != len(nus):
        raise gf2.DuplicateDeterminant("input bitstrings are not pairwise distinct")
    if len(nus) == 1:
        return gf2.SignatureMap([], [], [""])
    mat = _strings_to_bits(nus)               # D x 2N
    _, selected = rank_and_row_basis_loop(mat.T)
    T = mat[:, selected]
    us = find_signature_vectors_sets([_array_to_string(row) for row in T],
                                     check=check, stats=stats)
    B = (T @ _strings_to_bits(us).T) & 1
    return gf2.SignatureMap(selected, us, [_array_to_string(row) for row in B])


def _phase_apply(mask, ops):
    """Apply a string of ladder operators (leftmost acts last) to ``mask``.

    ops is a sequence of ("c"|"a", spin_orbital).  Returns (phase, mask)
    with phase 0 when the string annihilates the state.
    """
    phase = 1
    for kind, s in reversed(ops):
        bit = 1 << s
        occupied = bool(mask & bit)
        if (kind == "a") != occupied:
            return 0, None
        if (mask & (bit - 1)).bit_count() & 1:
            phase = -phase
        mask ^= bit
    return phase, mask


def _g_so(g, a, b, c, d):
    if (a ^ b) & 1 or (c ^ d) & 1:
        return 0.0
    return g[a >> 1, b >> 1, c >> 1, d >> 1]


def _sector_determinants(n_orb, n_alpha, n_beta):
    dets = []
    for occ_a in itertools.combinations(range(n_orb), n_alpha):
        for occ_b in itertools.combinations(range(n_orb), n_beta):
            so = sorted([2 * p for p in occ_a] + [2 * p + 1 for p in occ_b])
            mask = 0
            for s in so:
                mask |= 1 << s
            dets.append((mask, tuple(so)))
    return dets


def ci_matrix_loop(fd, n_alpha, n_beta):
    """Sector CI matrix and labels by a loop over determinant pairs.

    Matrix elements are evaluated through explicit second-quantized
    operator strings, so fermionic signs need no case analysis.  The basis
    is labelled by 2*n_orb-bit occupation strings (alpha bit first in each
    spin-orbital pair), ordered lexicographically by (alpha, beta)
    occupation.  The reference for the spin-factorized builder.
    """
    n = fd.n_orb
    dim = math.comb(n, n_alpha) * math.comb(n, n_beta)
    dets = _sector_determinants(n, n_alpha, n_beta)
    h1, g = fd.one_body, fd.two_body
    n_so = 2 * n
    H = np.zeros((dim, dim))
    for j, (mask_j, occ_j) in enumerate(dets):
        # diagonal
        e = fd.core_energy
        for p_ in occ_j:
            e += h1[p_ >> 1, p_ >> 1]
        for p_ in occ_j:
            for q_ in occ_j:
                e += 0.5 * (_g_so(g, p_, p_, q_, q_) - _g_so(g, p_, q_, q_, p_))
        H[j, j] = e
        # off-diagonal upper triangle
        for i in range(j + 1, dim):
            mask_i, occ_i = dets[i]
            diff = mask_i ^ mask_j
            nd = diff.bit_count()
            if nd > 4:
                continue
            if nd == 2:
                ann = (diff & mask_j).bit_length() - 1
                cre = (diff & mask_i).bit_length() - 1
                val = 0.0
                phase, _ = _phase_apply(mask_j, [("c", cre), ("a", ann)])
                val += phase * (h1[cre >> 1, ann >> 1] if not (cre ^ ann) & 1
                                else 0.0)
                for spec in occ_j:
                    for a_, b_, c_, d_ in ((cre, ann, spec, spec),
                                           (spec, spec, cre, ann),
                                           (cre, spec, spec, ann),
                                           (spec, ann, cre, spec)):
                        gv = _g_so(g, a_, b_, c_, d_)
                        if gv == 0.0:
                            continue
                        ph, out = _phase_apply(
                            mask_j, [("c", a_), ("c", c_), ("a", d_), ("a", b_)])
                        if ph and out == mask_i:
                            val += 0.5 * gv * ph
                H[i, j] = H[j, i] = val
            elif nd == 4:
                rem = diff & mask_j
                add = diff & mask_i
                a1 = rem.bit_length() - 1
                a2 = (rem ^ (1 << a1)).bit_length() - 1
                c1 = add.bit_length() - 1
                c2 = (add ^ (1 << c1)).bit_length() - 1
                val = 0.0
                for b_, d_ in ((a1, a2), (a2, a1)):
                    for a_, c_ in ((c1, c2), (c2, c1)):
                        gv = _g_so(g, a_, b_, c_, d_)
                        if gv == 0.0:
                            continue
                        ph, out = _phase_apply(
                            mask_j, [("c", a_), ("c", c_), ("a", d_), ("a", b_)])
                        if ph and out == mask_i:
                            val += 0.5 * gv * ph
                H[i, j] = H[j, i] = val
    labels = ["".join("1" if m & (1 << s) else "0" for s in range(n_so))
              for m, _ in dets]
    return H, labels


def jw_sector_block(h_full, labels):
    """Extract the block of a full JW matrix matching determinant labels."""
    states = [int(lbl[::-1], 2) for lbl in labels]
    return h_full[np.ix_(states, states)]


# ---------------------------------------------------------------------------
# Tensor-network oracles
# ---------------------------------------------------------------------------

def mps_contract_bruteforce(tensors):
    """Statevector of an MPS by explicit matrix products, one basis state
    at a time.  Deliberately naive: O(d^N) matrix chains."""
    d = tensors[0].shape[1]
    n = len(tensors)
    out = np.zeros(d**n, dtype=complex)
    for idx, digits in enumerate(itertools.product(range(d), repeat=n)):
        mat = np.eye(1, dtype=complex)
        for j, nj in enumerate(digits):
            mat = mat @ tensors[j][:, nj, :]
        out[idx] = mat[0, 0]
    return out


def mps_overlap_einsum(a, b):
    """<a|b> of two MPSs, one unoptimized einsum per site."""
    env = np.ones((1, 1), dtype=complex)
    for ta, tb in zip(a.tensors, b.tensors):
        env = np.einsum("ab,anc,bnd->cd", env, np.conj(ta), tb)
    return complex(env[0, 0])


def _determinant_tensors(amp, occ):
    """Bond-dimension-1 tensors for a single weighted determinant."""
    n = len(occ) // 2
    ts = []
    for j in range(n):
        t = np.zeros((1, 4, 1), dtype=complex)
        t[0, int(occ[2 * j:2 * j + 2], 2), 0] = amp if j == 0 else 1.0
        ts.append(t)
    return ts


def _direct_sum(ta, tb):
    """Tensors of the sum of two MPS (bond dimensions add)."""
    n = len(ta)
    if n == 1:
        return [ta[0] + tb[0]]
    out = []
    for j in range(n):
        a, b = ta[j], tb[j]
        if j == 0:
            out.append(np.concatenate([a, b], axis=2))
        elif j == n - 1:
            out.append(np.concatenate([a, b], axis=0))
        else:
            t = np.zeros((a.shape[0] + b.shape[0], a.shape[1],
                          a.shape[2] + b.shape[2]), dtype=complex)
            t[:a.shape[0], :, :a.shape[2]] = a
            t[a.shape[0]:, :, a.shape[2]:] = b
            out.append(t)
    return out


def sos_to_mps_pairwise(state, chi_max, compress_every=8):
    """SOS -> MPS by pairwise direct sums, compressing at every cadence
    point whether or not a bond exceeds ``chi_max``; fidelity by the
    einsum overlap."""
    order = sorted(state.terms, key=lambda t: (-abs(t[0]), t[1]))
    acc = _determinant_tensors(*order[0])
    for count, (amp, occ) in enumerate(order[1:], start=2):
        acc = _direct_sum(acc, _determinant_tensors(amp, occ))
        if count % compress_every == 0:
            acc = states.compress_mps(states.MpsState(acc),
                                      chi_max=chi_max)[0].tensors
    mps, _ = states.compress_mps(states.MpsState(acc), chi_max=chi_max)
    nm2, ns = mps_overlap_einsum(mps, mps).real, state.norm()
    fidelity = abs(states.overlap(mps, state)) ** 2 / (nm2 * ns * ns)
    return mps, float(fidelity)


def schmidt_weights(vec, left_dim):
    """Squared singular values of the bipartition (left_dim, rest)."""
    mat = np.asarray(vec, dtype=complex).reshape(left_dim, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return s**2


def best_product_fidelity(vec, dims, rng, n_restarts=40, n_iters=80):
    """Best |<p1 x p2 x ... |psi>|^2 over normalized product states, found by
    alternating optimization with random restarts."""
    vec = np.asarray(vec, dtype=complex)
    psi = vec / np.linalg.norm(vec)
    tensor = psi.reshape(dims)
    best = 0.0
    n = len(dims)
    for _ in range(n_restarts):
        factors = []
        for d in dims:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            factors.append(v / np.linalg.norm(v))
        for _ in range(n_iters):
            for k in range(n):
                env = tensor
                for j in range(n):
                    if j == k:
                        continue
                    env = np.tensordot(np.conj(factors[j]), env,
                                       axes=(0, 1 if j > k else 0))
                # env is the overlap gradient w.r.t. conj(factors[k])
                nrm = np.linalg.norm(env)
                if nrm == 0.0:
                    break
                factors[k] = env / nrm
        val = tensor
        for j in range(n):
            val = np.tensordot(np.conj(factors[j]), val, axes=(0, 0))
        best = max(best, abs(complex(val)) ** 2)
    return best


def apply_mcx(vec, controls, target):
    """Generic multi-controlled-X on a dense statevector.

    ``controls`` maps qubit index -> required bit value; the ``target``
    qubit is flipped on every basis state whose controls are satisfied.
    """
    idx = np.arange(len(vec))
    mask = np.ones(len(vec), dtype=bool)
    for q, bit in controls.items():
        mask &= ((idx >> q) & 1) == bit
    out = vec.copy()
    out[idx[mask]] = vec[idx[mask] ^ (1 << target)]
    return out


def dense_sos_encoding(terms, smap):
    """Gate-by-gate dense run of the determinant-superposition encoder.

    Registers: system qubits low (qubit s <-> occupation character s), then
    enumeration, then identification.  Every step after the amplitude load
    is applied through individual multi-controlled-X gates on the full
    2**n vector, so this is a mechanically independent reference for the
    sparse simulator.
    """
    n_sys = len(terms[0][1])
    n_det = len(terms)
    n_enum = (n_det - 1).bit_length()
    n_id = len(smap.u_vectors)
    n = n_sys + n_enum + n_id
    vec = np.zeros(2 ** n, dtype=complex)
    for i, (amp, _) in enumerate(terms):
        vec[i << n_sys] = amp
    # write determinant i into the system register, controlled on enum == i
    for i, (_, occ) in enumerate(terms):
        controls = {n_sys + b: (i >> b) & 1 for b in range(n_enum)}
        for s, ch in enumerate(occ):
            if ch == "1":
                vec = apply_mcx(vec, controls, s)

    def signature_pass(vec):
        for k, u in enumerate(smap.u_vectors):
            for j, bit in enumerate(u):
                if bit == "1":
                    vec = apply_mcx(vec, {smap.selected_rows[j]: 1},
                                    n_sys + n_enum + k)
        return vec

    vec = signature_pass(vec)
    # clear the enumeration register, conditioned on each signature pattern
    for i, pattern in enumerate(smap.signatures):
        controls = {n_sys + n_enum + k: int(c)
                    for k, c in enumerate(pattern)}
        for b in range(n_enum):
            if (i >> b) & 1:
                vec = apply_mcx(vec, controls, n_sys + b)
    return signature_pass(vec)


def normalize_spectrum(h):
    """``h`` affinely mapped so its spectrum fills [m, 1 - m], m =
    ``SPECTRUM_MARGIN``, and the map; the bounds come from an ``eigvalsh``
    of their own, not from the eigensystem a measure is taken in."""
    evals = np.linalg.eigvalsh(h.entries)
    norm = hamiltonian.spectrum_normalizer(evals[0], evals[-1])
    return norm.apply_matrix(h), norm


def measure_power_moment(energies, probs, n):
    """Direct power sum <E^n> of a discrete spectral measure."""
    return float(np.sum(np.asarray(probs) * np.asarray(energies) ** n))


def hermite_projection_coefficient(density_fn, n, lo, hi):
    """Series coefficient of a smooth density by direct quadrature.

    Evaluates ((-1)^n / n!) * integral of density * He_n using numpy's
    HermiteE evaluator, independent of any closed-form moment formulas.
    """
    import math

    from numpy.polynomial import hermite_e
    from scipy.integrate import quad

    unit = [0.0] * n + [1.0]
    val, _ = quad(lambda x: density_fn(x) * hermite_e.hermeval(x, unit),
                  lo, hi, limit=200)
    return (-1) ** n * val / math.factorial(n)


def sample_qpe_outcomes(energies, probs, k, shots, rng):
    """Monte Carlo k-digit readouts: pick a level, then an outcome bin.

    The per-level bin law is recomputed here from scratch as the normalized
    ratio sin^2(pi M E) / sin^2(pi (E - x/M)), with a delta when M*E is an
    integer, so the aggregation in the package is checked against an
    independent two-stage sampler.
    """
    m = 2 ** k
    out = np.empty(shots, dtype=np.int64)
    picks = rng.choice(len(probs), size=shots, p=np.asarray(probs))
    for n in np.unique(picks):
        e = energies[n]
        me = m * e
        if abs(me - round(me)) < 1e-12:
            bins = np.zeros(m)
            bins[round(me) % m] = 1.0
        else:
            x = np.arange(m)
            bins = np.sin(np.pi * me) ** 2 \
                / np.sin(np.pi * (e - x / m)) ** 2
            bins /= bins.sum()
        where = picks == n
        out[where] = rng.choice(m, size=int(where.sum()), p=bins)
    return out


def exhaustive_min_mean(levels, n_reps):
    """Mean of the minimum of n_reps iid draws, by full enumeration."""
    total = 0.0
    for combo in itertools.product(levels, repeat=n_reps):
        weight = 1.0
        for _, p in combo:
            weight *= p
        total += weight * min(e for e, _ in combo)
    return total


# ---------------------------------------------------------------------------
# Per-level readout-kernel loops
#
# These are the package's former readout implementations, one Python
# iteration per level (or per shot), kept verbatim apart from taking plain
# arrays.  They evaluate sin(pi (E - x/2^k)) directly, so they lose relative
# accuracy where E - x/2^k sits near a whole period: at the peak of a level
# outside [0, 1), at the aliased peak of a level above 1/2 inside the
# centred leakage window, and at the register ends for a level within a few
# register values of a multiple of 1/2 (up to 6e-13 absolute at k = 13).
# Tests hand them an exactly shifted copy of such levels and compare levels
# near a multiple of 1/2 against readout_kernel_reduced instead.
# ---------------------------------------------------------------------------

def readout_kernel_reduced(energy, k, bins):
    """F_k(E - x/2^k) of one level on register values ``bins``.

    2^k E - x is reduced modulo 2^k into [-2^(k-1), 2^(k-1)) in exact
    integer arithmetic before the sine is taken, so every value keeps full
    relative precision wherever the level sits.
    """
    m = 2 ** k
    scaled = m * float(energy)
    near = round(scaled)
    d = scaled - near
    bins = np.asarray(bins, dtype=np.int64)
    if abs(d) < SPIKE_TOL:
        return ((near - bins) % m == 0).astype(float)
    j = (near - bins) % m
    j = np.where(j >= m // 2, j - m, j)
    return np.sin(np.pi * d) ** 2 / (m ** 2
                                     * np.sin(np.pi * (j + d) / m) ** 2)


def qpe_kernel_probs_loop(energy, k):
    """Normalized k-digit outcome law of one sharp energy."""
    m = 2 ** k
    me = m * float(energy)
    probs = np.zeros(m)
    if abs(me - round(me)) < SPIKE_TOL:
        probs[int(round(me)) % m] = 1.0
        return probs
    xs = np.arange(m)
    probs = (np.sin(np.pi * me) ** 2
             / np.sin(np.pi * (energy - xs / m)) ** 2) / m ** 2
    return probs / probs.sum()


def outcome_law_loop(energies, probs, k):
    """Outcome law as a weighted sum of per-level kernels."""
    out = np.zeros(2 ** k)
    for energy, weight in zip(energies, probs):
        out += weight * qpe_kernel_probs_loop(energy, k)
    return out


def leak_prob_loop(energies, probs, setup, cut):
    """Leaked probability: every level above ``cut`` against every bin of
    the centred window [window_low, x_upper); an on-grid level adds its
    weight once per window bin congruent to its register value."""
    xs = np.arange(setup.window_low, setup.x_upper, dtype=float)
    if xs.size == 0:
        return 0.0
    size = setup.size
    total = 0.0
    for energy, weight in zip(energies, probs):
        if energy <= cut:
            continue
        scaled = size * energy
        delta = scaled - math.floor(scaled)
        if delta < SPIKE_TOL or 1.0 - delta < SPIKE_TOL:
            hits = np.count_nonzero((round(scaled) - xs) % size == 0)
            total += weight * hits
            continue
        terms = math.sin(math.pi * delta) ** 2 \
            / np.sin(np.pi * (scaled - xs) / size) ** 2
        total += weight * terms.sum() / size ** 2
    return float(total)


def leak_prob_approx_loop(energies, probs, setup, cut):
    """One-term leakage estimate, one level at a time: each level above
    ``cut``, off the grid and above the boundary adds its weight times
    sin^2(pi delta) / (pi^2 (x_n - x_upper + delta))."""
    size = setup.size
    total = 0.0
    for energy, weight in zip(energies, probs):
        if energy <= cut:
            continue
        scaled = size * energy
        x_n = math.floor(scaled)
        delta = scaled - x_n
        if delta < SPIKE_TOL or 1.0 - delta < SPIKE_TOL:
            continue
        gap = x_n - setup.x_upper + delta
        if gap > 0:
            total += weight * math.sin(math.pi * delta) ** 2 \
                / (math.pi ** 2 * gap)
    return total


def postselect_gain_loop(energies, k, accepted):
    """Kernel mass each level places on the accepted register values."""
    size = 2 ** k
    kept = np.asarray(sorted({int(x) % size for x in accepted}))
    return np.array([qpe_kernel_probs_loop(energy, k)[kept].sum()
                     for energy in energies])


def coarse_qpe_sample_loop(energies, probs, k, shots, seed):
    """Shifted coarse readouts, every shot drawn from one seeded stream."""
    m = 2 ** k
    probs = np.asarray(probs, dtype=float)
    probs = probs / probs.sum()
    out = np.empty(shots)
    rng = np.random.default_rng(seed)
    for shot in range(shots):
        c = rng.uniform(0.0, 1.0 / m)
        n = rng.choice(len(probs), p=probs)
        x = rng.choice(m, p=qpe_kernel_probs_loop(energies[n] + c, k))
        out[shot] = x / m - c
    return out


def leak_prob_integral_unblocked(density_fn, setup, e_max=1.0,
                                 nodes_per_panel=10):
    """Panel-quadrature leakage with every panel in one array (no blocks)."""
    size = 2 ** setup.k
    lower = setup.e0 + setup.epsilon
    if e_max <= lower:
        return 0.0
    center = setup.x_upper / size
    n_panels = max(8, 2 * math.ceil((e_max - lower) * size))
    edges = np.linspace(lower, e_max, n_panels + 1)
    nodes, node_weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = density_fn(pts) * np.sin(np.pi * size * pts) ** 2 / (pts - center)
    total = float(np.sum(vals * (half[:, None] * node_weights[None, :])))
    return total / (math.pi ** 2 * size)


# ---------------------------------------------------------------------------
# Dense forms of spectra.characteristic_function and spectra.kde
# ---------------------------------------------------------------------------

def _phasors(near, offset, mults, scale):
    """exp(2 pi i l E) for levels scale E = near + offset (rows) and
    integers l in ``mults`` (columns).  l E is reduced modulo 1 in integers
    before rounding, so the phase error stays near machine epsilon for
    every l < scale."""
    angle = ((near[:, None] * mults) & (scale - 1)) + offset[:, None] * mults
    angle *= 2 * np.pi / scale
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def characteristic_function_gemm(energies, weights, n_terms):
    """phi(l) = sum_n w_n exp(2 pi i l E_n) for l = 0 .. n_terms - 1.

    A blocked complex matrix product: with l = a B + b, B = 2^ceil(bits/2),
    phi(a B + b) = sum_n exp(2 pi i a B E_n) [w_n exp(2 pi i b E_n)], so
    each level needs A + B phasors (A = ceil(n_terms / B)), not n_terms.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    bits = (n_terms - 1).bit_length()
    scale = spectra.register_size(bits)
    b_size = 1 << ((bits + 1) // 2)
    a_size = -(-n_terms // b_size)
    near, offset = spectra._split_register(energies, scale)
    weights = np.asarray(weights, dtype=float)
    low = np.arange(b_size, dtype=np.int64)
    high = np.arange(a_size, dtype=np.int64) * b_size
    out = np.zeros((a_size, b_size), dtype=complex)
    rows = max(1, spectra._BLOCK // (a_size + b_size))
    for r0 in range(0, near.size, rows):
        sl = slice(r0, r0 + rows)
        right = _phasors(near[sl], offset[sl], low, scale)
        right *= weights[sl, None]
        out += _phasors(near[sl], offset[sl], high, scale).T @ right
    return out.ravel()[:n_terms]


def kde_dense(samples, bandwidth, grid):
    """Gaussian KDE with exp taken over every (grid point, sample) pair,
    4096 samples at a time."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    norm = samples.size * bandwidth * np.sqrt(2 * np.pi)
    out = np.zeros(grid.shape)
    for start in range(0, samples.size, 4096):
        block = samples[start:start + 4096]
        z = (grid[:, None] - block[None, :]) / bandwidth
        out += np.exp(-0.5 * z ** 2).sum(axis=1)
    return out / norm


def flip_blocked_eigh_quadrants(entries, labels):
    """The spin-flip blocked ``eigh`` as four ``np.ix_`` quadrant gathers of
    the full matrix and four ``np.ix_`` scatters of the block vectors into
    a zeroed n x n array: the same block matrices, so the same bytes, as
    ``hamiltonian._flip_blocked_eigh`` (None where it takes one block)."""
    from qprep.hamiltonian import HERMITICITY_TOL, _spin_flip

    flip = _spin_flip(labels)
    if flip is None:
        return None
    partner, sign = flip
    idx = np.arange(entries.shape[0])
    fixed = partner == idx
    even_fixed, pairs = idx[fixed & (sign > 0)], idx[idx < partner]
    a = np.concatenate((even_fixed, pairs, idx[fixed & (sign < 0)]))
    b, s = partner[a], sign[a]
    lo, hi = len(even_fixed), len(even_fixed) + len(pairs)
    if hi == 0 or lo == len(a):
        return None
    h_aa = entries[np.ix_(a, a)]
    h_bb = entries[np.ix_(b, b)] * np.outer(s, s)
    h_ab = entries[np.ix_(a, b)] * s
    h_ba = s[:, None] * entries[np.ix_(b, a)]
    size = max(np.max(np.abs(q)) for q in (h_aa, h_bb, h_ab, h_ba))
    dev = max(np.max(np.abs(h_bb - h_aa)), np.max(np.abs(h_ba - h_ab)))
    if not dev <= HERMITICITY_TOL * max(1.0, size):
        return None
    even = (h_aa + h_bb) + (h_ab + h_ba)
    odd = (h_aa + h_bb) - (h_ab + h_ba)
    scale = np.full(len(a), math.sqrt(0.5))
    scale[lo:hi] = 1.0
    solved = []
    for parity, mat, first, last in ((1.0, even, 0, hi),
                                     (-1.0, odd, lo, len(a))):
        block = mat[first:last, first:last]
        block *= 0.5
        block *= scale[first:last, None]
        block *= scale[first:last]
        solved.append((parity, first) + tuple(np.linalg.eigh(block)))
    levels = np.concatenate([evals for _, _, evals, _ in solved])
    order = np.argsort(levels, kind="stable")
    dest = np.empty(len(levels), dtype=np.intp)
    dest[order] = np.arange(len(levels))
    evecs = np.zeros((len(levels),) * 2)
    done = 0
    for parity, first, evals, vecs in solved:
        cols = dest[done:done + len(evals)]
        done += len(evals)
        rows = slice(first, first + len(evals))
        evecs[np.ix_(a[rows], cols)] = \
            vecs * (math.sqrt(0.5) / scale[rows])[:, None]
        evecs[np.ix_(b[lo:hi], cols)] = vecs[lo - first:hi - first] \
            * (parity * math.sqrt(0.5) * s[lo:hi])[:, None]
    return levels[order], evecs
