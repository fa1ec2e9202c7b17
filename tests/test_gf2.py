import json
import math
from collections import Counter

import numpy as np
import pytest

from qprep import gf2

import oracles


def test_rank_identity():
    rank, rows = gf2.rank_and_row_basis(np.eye(3, dtype=np.uint8))
    assert rank == 3
    assert rows == [0, 1, 2]


def test_rank_all_zero():
    rank, rows = gf2.rank_and_row_basis(np.zeros((4, 4), dtype=np.uint8))
    assert rank == 0
    assert rows == []


def test_rank_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(40):
        bits = rng.integers(0, 2, size=(20, 12), dtype=np.uint8)
        rank, rows = gf2.rank_and_row_basis(bits)
        assert rank == oracles.gf2_rank_bruteforce(bits)
        # the reported rows really are independent and span the row space
        ints = [int("".join(str(b) for b in r), 2) for r in bits]
        basis_span = oracles.gf2_span([ints[i] for i in rows])
        assert len(basis_span) == 2 ** rank
        assert all(v in basis_span for v in ints)


@pytest.mark.parametrize("cols", [1, 17, 64, 65, 128, 129, 192])
def test_rank_matches_row_loop_oracle(cols):
    # widths of one to three 64-bit words; tall, square and wide; full
    # rank and rank deficient
    rng = np.random.default_rng(cols)
    ranks = set()
    for n in (1, cols // 2 + 1, cols, cols + 9):
        k = max(1, min(n, cols) // 3)
        low = (rng.integers(0, 2, size=(n, k))
               @ rng.integers(0, 2, size=(k, cols))) & 1
        inputs = [rng.integers(0, 2, size=(n, cols), dtype=np.uint8),
                  low.astype(np.uint8),
                  (rng.random((n, cols)) < 0.05).astype(np.uint8),
                  np.repeat(rng.integers(0, 2, size=(1, cols)), n, axis=0)]
        for bits in inputs:
            got = gf2.rank_and_row_basis(bits)
            assert got == oracles.rank_and_row_basis_loop(bits)
            ranks.add(got[0] == min(n, cols))
    assert ranks == {True, False}


def test_select_substrings_single_differing_bit():
    selected, tilde = gf2.select_substrings(["000", "001"])
    assert selected == [2]
    assert tilde == ["0", "1"]


def test_select_substrings_standard_basis():
    nus = ["10000000", "01000000", "00100000", "00010000"]
    selected, tilde = gf2.select_substrings(nus)
    assert selected == [0, 1, 2, 3]
    assert tilde == ["1000", "0100", "0010", "0001"]


def test_select_substrings_duplicate_raises():
    with pytest.raises(gf2.DuplicateDeterminant):
        gf2.select_substrings(["0101", "0101", "1111"])


def test_select_substrings_keeps_distinctness():
    rng = np.random.default_rng(23)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        nus = oracles.random_distinct_bitstrings(rng, d, 8)
        selected, tilde = gf2.select_substrings(nus)
        assert len(selected) <= min(8, d)
        assert len(set(tilde)) == d


def test_signature_identity_when_substrings_fit():
    tilde = ["000", "001", "010", "100"]  # r == 3 == 2*log2(4) - 1
    us = gf2.find_signature_vectors(tilde)
    assert us == ["100", "010", "001"]


def test_signature_two_determinants_one_bit():
    us = gf2.find_signature_vectors(["0", "1"])
    assert us == ["1"]


def test_compress_single_determinant():
    sm = gf2.compress(["010101"])
    assert sm.selected_rows == []
    assert sm.u_vectors == []
    assert sm.signatures == [""]
    assert sm.signature_bits == 0


def test_compress_two_determinants():
    sm = gf2.compress(["000", "001"])
    assert sm.signatures == ["0", "1"]


def test_compress_duplicate_raises():
    with pytest.raises(gf2.DuplicateDeterminant):
        gf2.compress(["11", "11"])


def test_compress_four_determinants_three_bits():
    # rank-4 substrings force one inductive step down to 3 signature bits
    nus = ["10000000", "01000000", "00100000", "00010000"]
    sm = gf2.compress(nus, check=True)
    assert sm.signature_bits == 3
    assert len(set(sm.signatures)) == 4
    assert all(len(b) == 3 for b in sm.signatures)


def test_signatures_reproduce_u_dot_nu():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 33))
        nus = oracles.random_distinct_bitstrings(rng, d, 16)
        sm = gf2.compress(nus)
        U = np.array([[int(c) for c in u] for u in sm.u_vectors], dtype=np.uint8)
        for nu, b in zip(nus, sm.signatures):
            tilde = np.array([int(nu[p]) for p in sm.selected_rows], dtype=np.uint8)
            assert "".join(str(x) for x in (U @ tilde) & 1) == b


def test_property_all_signatures_distinct():
    # the core compression guarantee, over a large randomized sweep
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        d = int(rng.integers(1, 65))
        n2 = int(rng.integers(6, 41))
        if d > 2 ** n2:
            continue
        nus = oracles.random_distinct_bitstrings(rng, d, n2)
        sm = gf2.compress(nus)
        assert len(set(sm.signatures)) == d
        r = len(sm.selected_rows)
        assert r <= min(n2, d)
        if d > 1:
            m = 2 * math.ceil(math.log2(d)) - 1
            expected_bits = m if r > m else r
            assert sm.signature_bits == expected_bits


def test_derived_against_randomized_oracle():
    # our deterministic construction and a random-search oracle must agree
    # that min(r, 2*ceil(log2 D)-1) bits suffice to separate the substrings
    rng = np.random.default_rng(99)
    for _ in range(500):
        d = int(rng.integers(4, 65))
        n2 = int(rng.integers(8, 41))
        nus = oracles.random_distinct_bitstrings(rng, d, n2)
        sm = gf2.compress(nus, check=True)
        assert len(set(sm.signatures)) == d
        _, tilde = gf2.select_substrings(nus)
        U, _ = oracles.random_signature_matrix(tilde, sm.signature_bits, rng)
        assert U is not None, "oracle found no signature matrix of this size"


def test_search_budget_per_step():
    rng = np.random.default_rng(5)
    for _ in range(80):
        d = int(rng.integers(4, 65))
        nus = oracles.random_distinct_bitstrings(rng, d, 40)
        _, tilde = gf2.select_substrings(nus)
        stats = {}
        gf2.find_signature_vectors(tilde, stats=stats)
        budget = d * d // 2 + d + 1
        assert all(c <= budget for c in stats.get("search_counts", []))


def bits_from_hex(h, width):
    """A hex field of ``SignatureMap.to_json`` as a ``width``-bit string."""
    return format(int(h, 16), "0%db" % width) if width else ""


def test_json_round_trip():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 17):
        nus = oracles.random_distinct_bitstrings(rng, d, 12)
        sm = gf2.compress(nus)
        obj = json.loads(sm.to_json())
        assert obj["selected_rows"] == sm.selected_rows
        # hex fields decode to the bit strings, zero-padded to their widths
        r, m = len(sm.selected_rows), len(sm.u_vectors)
        assert [bits_from_hex(h, r) for h in obj["u_vectors"]] == sm.u_vectors
        assert [bits_from_hex(h, m) for h in obj["signatures"]] \
            == sm.signatures


def _outcome(fn, *args):
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    return "pass"


def _random_tilde(rng, d, width):
    return gf2.select_substrings(
        oracles.random_distinct_bitstrings(rng, d, width))[1]


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("d,width,words", [
    (3, 8, 1), (4, 8, 1), (5, 8, 1), (17, 24, 1), (64, 60, 1),
    (128, 100, 2), (256, 150, 3),
])
def test_signature_search_matches_set_oracle(d, width, words, check):
    rng = np.random.default_rng(1000 * d + width)
    for _ in range(4 if d <= 17 else 1):
        tilde = _random_tilde(rng, d, width)
        assert -(-len(tilde[0]) // 64) == words
        stats, want = {}, {}
        us = gf2.find_signature_vectors(tilde, check=check, stats=stats)
        # the pairwise oracle check is O(D**2) span reductions per level
        expected = oracles.find_signature_vectors_sets(
            tilde, check=check and d <= 17, stats=want)
        assert us == expected
        assert stats == want


@pytest.mark.parametrize("tilde", [
    ["0", "1"], ["01", "10"], ["0110", "0101"], ["11100", "00111"],
])
def test_two_substring_shortcut_matches_set_oracle(tilde):
    for check in (False, True):
        assert gf2.find_signature_vectors(tilde, check=check) \
            == oracles.find_signature_vectors_sets(tilde, check=check)


def _random_int(rng, n_bits):
    bits = rng.integers(0, 2, size=n_bits)
    return sum(1 << k for k in np.flatnonzero(bits).tolist())


def _pack_ints(ints, n_words):
    return np.array([[(v >> (64 * k)) & (2 ** 64 - 1) for k in range(n_words)]
                     for v in ints], dtype=np.uint64).reshape(-1, n_words)


@pytest.mark.parametrize("n_words", [1, 2, 3])
def test_forbidden_mex_matches_set_mex(monkeypatch, n_words):
    # small low words, some with upper words set, XORed in blocks of 1-3 rows
    monkeypatch.setattr(gf2, "_BLOCK_WORDS", 3 * n_words)
    rng = np.random.default_rng(n_words)
    for _ in range(300):
        vals = set()
        while len(vals) < int(rng.integers(1, 12)):
            v = int(rng.integers(0, 24))
            if n_words > 1 and rng.random() < 0.5:
                v |= 1 << (64 * int(rng.integers(1, n_words)) + 5)
            vals.add(v)
        vals = sorted(vals)
        cut = int(rng.integers(0, len(vals) + 1))
        M, N = vals[:cut], vals[cut:]
        forbidden = {0, *M, *N, *(a ^ b for a in M for b in N)}
        want = min(set(range(len(forbidden) + 1)) - forbidden)
        got = gf2._forbidden_mex(_pack_ints(M, n_words),
                                 _pack_ints(N, n_words))
        assert got == want


@pytest.mark.parametrize("r", [6, 10, 70, 140])
def test_linear_check_agrees_with_pairwise_loop(r):
    # random echelons, with span elements and span differences planted in
    # some snapshots, must draw the same verdict from both checks
    rng = np.random.default_rng(r)
    n_words = -(-r // 64)
    verdicts = Counter()
    for _ in range(300):
        n_levels = int(rng.integers(1, 4))
        n_vecs = int(rng.integers(2, 8))
        leads = sorted(rng.choice(r, size=n_levels, replace=False).tolist())
        echelon = [(lead, (1 << lead) | _random_int(rng, lead))
                   for lead in leads]
        snapshots = []
        for _ in range(n_levels):
            vecs = set()
            while len(vecs) < n_vecs:
                vecs.add(_random_int(rng, r))
            vecs = sorted(vecs)
            combo = 0
            for _, w in echelon:
                if rng.random() < 0.5:
                    combo ^= w
            plant = rng.random()
            if plant < 0.3 and combo and combo not in vecs:
                vecs[0] = combo                    # a substring in the span
            elif plant < 0.6 and combo and vecs[0] ^ combo not in vecs:
                vecs[1] = vecs[0] ^ combo          # a difference in the span
            snapshots.append(vecs)
        got = _outcome(
            gf2._check_kernel_avoidance,
            [_pack_ints(v, n_words) for v in snapshots],
            [(lead, _pack_ints([w], n_words)[0]) for lead, w in echelon])
        want = _outcome(oracles.kernel_check_pairwise,
                        [(None, set(v)) for v in snapshots], echelon)
        assert got == want
        verdicts[want] += 1
    assert set(verdicts) == {"pass", "kernel contains a substring",
                             "kernel contains a difference"}


@pytest.mark.parametrize("r", [1, 7, 63, 64, 65, 130])
def test_packed_rows_round_trip(r):
    rng = np.random.default_rng(r)
    bits = rng.integers(0, 2, size=(9, r), dtype=np.uint8)
    words = gf2._pack_rows(bits)
    assert words.shape == (9, -(-r // 64)) and words.dtype == np.uint64
    ints = [int("".join(map(str, row[::-1])), 2) for row in bits]
    assert np.array_equal(words, _pack_ints(ints, words.shape[1]))
    assert np.array_equal(gf2._unpack_rows(words, r), bits)


def test_strings_round_trip_through_the_parser():
    rows = ["0110", "1111", "0000"]
    bits = gf2._strings_to_array(rows)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [[0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]]
    assert gf2._array_to_strings(bits) == rows


@pytest.mark.parametrize("nus,match", [
    (["0121", "0110", "1100"], r"bitstring 1 \('0121'\).*0/1"),
    (["0120", "0100", "1000", "0010"], r"bitstring 1 \('0120'\).*0/1"),
    (["010", "011", "1 0"], r"bitstring 3 .*0/1"),
    (["01\u00e9", "011"], r"bitstring 1 .*0/1"),
    (["010", "0110", "1"], r"bitstring 2 \('0110'\) has 4 characters, "
                           r"expected 3"),
    (["01x"], r"bitstring 1 .*0/1"),
])
def test_malformed_bitstrings_are_refused(nus, match):
    with pytest.raises(ValueError, match=match):
        gf2.compress(nus)
    with pytest.raises(ValueError, match=match):
        gf2._strings_to_array(nus)


def test_signature_search_refuses_malformed_substrings():
    with pytest.raises(ValueError, match="bitstring 2"):
        gf2.find_signature_vectors(["0", "2"])
    with pytest.raises(ValueError, match="bitstring 2"):
        gf2.find_signature_vectors(["01", "1"])
