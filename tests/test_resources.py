import decimal
import math

import numpy as np
import pytest

from qprep import gf2, resources


def test_basic_1024_determinants():
    rep = resources.sos_cost_basic(3, 1024)
    assert rep.toffoli == 23552
    assert rep.clean_qubits - 6 == 47  # ancilla on top of the 2N system qubits
    assert rep.dirty_qubits == 0
    # independent of N except through the system register
    assert resources.sos_cost_basic(50, 1024).toffoli == 23552


def test_basic_smallest_nontrivial():
    rep = resources.sos_cost_basic(4, 2)
    assert rep.toffoli == 10
    assert rep.clean_qubits - 8 == 2


def test_basic_single_determinant():
    rep = resources.sos_cost_basic(4, 1)
    assert rep.toffoli == 0
    assert rep.clean_qubits == 8


def test_tradeoff_frozen_point():
    # arithmetic oracle: term-by-term ceiling evaluation at N=100, D=2**16
    # gives 28964 + 28672 + 11586 Toffolis, 7936 clean ancillas, 14482 dirty
    rep = resources.sos_cost_tradeoff(100, 2 ** 16)
    assert rep.toffoli == 69222
    assert rep.clean_qubits == 7936 + 200
    assert rep.dirty_qubits == 14482


def test_tradeoff_single_determinant():
    assert resources.sos_cost_tradeoff(10, 1).toffoli == 0


def test_tradeoff_min_picks_d_drops_dirty():
    # for tiny D the direct QROM term D wins and no dirty block is needed
    rep = resources.sos_cost_tradeoff(100, 2)
    assert rep.dirty_qubits == 0


def test_tradeoff_monotone_in_d():
    prev = 0
    for d in range(2, 4097):
        cur = resources.sos_cost_tradeoff(50, d).toffoli
        assert cur >= prev
        prev = cur
    samples = [resources.sos_cost_tradeoff(50, 2 ** k).toffoli
               for k in range(2, 21)]
    assert all(a <= b for a, b in zip(samples, samples[1:]))


def test_prior_art():
    assert resources.sos_cost_prior(100, 1).toffoli == 0
    rep = resources.sos_cost_prior(100, 1000)
    assert rep.toffoli == 199 * 999
    assert rep.clean_qubits - 200 == 199


def test_crossover_with_prior_at_n100():
    # per-determinant coefficients meet where 2*log2(D) + 3 == 2N - 1
    lo = resources.sos_cost_basic(100, 2 ** 97).toffoli
    hi = resources.sos_cost_basic(100, 2 ** 98).toffoli
    assert lo < resources.sos_cost_prior(100, 2 ** 97).toffoli
    assert hi > resources.sos_cost_prior(100, 2 ** 98).toffoli


def test_basic_beats_prior_when_cheap_per_determinant():
    # sufficient condition: coefficient strictly smaller and D large enough
    # that prior's (D-1) discount cannot rescue it
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        d = int(rng.integers(2, 2 ** 20))
        L = math.ceil(math.log2(d))
        basic = resources.sos_cost_basic(n, d).toffoli
        prior = resources.sos_cost_prior(n, d).toffoli
        if 2 * L + 4 <= 2 * n - 1 and d > 2 * L + 4:
            assert basic < prior


def test_all_counts_are_integers():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        d = int(rng.integers(1, 2 ** 18))
        for fn in (resources.sos_cost_basic, resources.sos_cost_tradeoff,
                   resources.sos_cost_prior):
            rep = fn(n, d)
            for v in (rep.toffoli, rep.clean_qubits, rep.dirty_qubits):
                assert isinstance(v, int) and v >= 0


def test_mps_two_site_product_state():
    rep = resources.mps_cost([1], d=4, b=10)
    assert rep.toffoli == 108  # 2 * (8*4 + 11*2)
    assert rep.method == "mps_select"


def test_mps_product_chain_scales_linearly():
    per_site = resources.mps_cost([], d=4, b=10).toffoli
    for n in (2, 5, 9):
        assert resources.mps_cost([1] * (n - 1), d=4, b=10).toffoli == n * per_site


def test_mps_select_doubling_exponent():
    chis = [8, 16, 32, 64, 128, 256]
    costs = [resources.mps_cost([c] * 9, d=4, b=10).toffoli for c in chis]
    slope = np.polyfit(np.log2(chis), np.log2(costs), 1)[0]
    assert abs(slope - 2) < 0.1


def test_mps_selswap_dirty_formula():
    # two sites by hand, d=4, b=10, lam = ceil(sqrt(chi_next * d)) per site:
    # site 1 (chi 1 -> 2): nu = 3, lam = ceil(sqrt(8)) = 3
    # site 2 (chi 2 -> 1): nu = 2, lam = ceil(sqrt(4)) = 2
    rep = resources.mps_cost([2], d=4, b=10, variant="selswap_dirty")
    site1 = math.ceil(8 * 2 * 4 / 3) + 8 * 3 * 10 * 3 + 10 * 3 + 3
    site2 = 2 * (math.ceil(8 * 4 / 2) + 8 * 2 * 10 * 2 + 10 * 2 + 2)
    assert rep.toffoli == site1 + site2
    assert rep.dirty_qubits == 30    # max over sites of lam * b


def test_mps_rejects_bad_args():
    with pytest.raises(ValueError):
        resources.mps_cost([0])
    with pytest.raises(ValueError):
        resources.mps_cost([2], variant="nope")


def test_cost_sweep_rows():
    assert resources.cost_sweep(10) == []
    rows = resources.cost_sweep(100, det_counts=[4, 1024], chi_values=[2],
                                n_sites=4)
    by_key = {(param, r.method): r for param, r in rows}
    assert by_key[(1024, "sos_basic")].toffoli == 23552
    assert by_key[(4, "sos_prior")].toffoli == 199 * 3
    chain = resources.mps_cost([2] * 3, d=4, b=10)
    assert by_key[(2, "mps_select")].toffoli == chain.toffoli
    assert all(len(row) == 2 and isinstance(row[1], resources.ResourceReport)
               for row in rows)


def test_sweep_basic_below_prior_at_n100():
    dets = [2 ** k for k in range(1, 17)]
    rows = resources.cost_sweep(100, det_counts=dets)
    basic = {d: r.toffoli for d, r in rows if r.method == "sos_basic"}
    prior = {d: r.toffoli for d, r in rows if r.method == "sos_prior"}
    for d in dets:
        if 2 * math.ceil(math.log2(d)) + 3 < 199:
            assert basic[d] < prior[d]


def _ceil_log2(n):
    """The least L with 2^L >= n, by doubling in integers."""
    L = 0
    while 1 << L < n:
        L += 1
    return L


def _ceil_times_sqrt(a, n):
    """ceil(a * sqrt(n)) from a 300-digit decimal square root."""
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        return int((a * decimal.Decimal(n).sqrt()).to_integral_value(
            decimal.ROUND_CEILING))


def test_counts_are_exact_around_every_power_of_two():
    # the float ceil(log2 D) is wrong from D = 2^52 + 1 up; the float
    # trade-off terms also where a product of roots is whole: at D = 2,
    # 2 * sqrt(32) * sqrt(2) is 16, which the float product rounded up
    for j in range(1, 98):
        for d in (2 ** j - 1, 2 ** j, 2 ** j + 1):
            basic = resources.sos_cost_basic(100, d)
            prior = resources.sos_cost_prior(100, d)
            tradeoff = resources.sos_cost_tradeoff(100, d)
            if d == 1:
                assert (basic.toffoli, basic.clean_qubits) == (0, 200)
                assert (prior.toffoli, prior.clean_qubits) == (0, 200)
                assert (tradeoff.toffoli, tradeoff.clean_qubits) == (0, 200)
                assert gf2.signature_length(d) == 0
                continue
            L = _ceil_log2(d)
            assert basic.toffoli == (2 * L + 3) * d, d
            assert basic.clean_qubits == 200 + 5 * L - 3, d
            assert prior.toffoli == 199 * (d - 1), d
            assert prior.clean_qubits == 200 + 199, d
            assert basic.dirty_qubits == prior.dirty_qubits == 0
            assert gf2.signature_length(d) == 2 * L - 1, d
            swap = _ceil_times_sqrt(2, 32 * 100 * d)
            dirty = _ceil_times_sqrt(1, 32 * 100 * d)
            if d <= swap:
                swap, dirty = d, 0
            assert tradeoff.toffoli == (swap + _ceil_times_sqrt(7 * L, d)
                                        + _ceil_times_sqrt(2, 32 * L * d)), d
            assert tradeoff.clean_qubits == (200
                                             + _ceil_times_sqrt(2 * L - 1, d))
            assert tradeoff.dirty_qubits == dirty, d


def test_report_rejects_negative_counts():
    with pytest.raises(ValueError):
        resources.ResourceReport(-1, 0, 0, "sos_basic")
