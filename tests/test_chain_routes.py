"""The chain sum, which sums out the free momenta of every partition one at
a time, checked against the brute-force oracle past single blocks and, per
outer momentum, against the box of free steps in ``tests/reference.py``."""

import json
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from weakdis import (
    BudgetError,
    Wavepacket,
    WeightDistribution,
    build_lattice,
    coefficient_T,
    coefficient_T_oracle,
)
from weakdis import coefficients as co
from weakdis import montecarlo
from weakdis import partitions as pt
from weakdis._accum import gl_nodes

from reference import box_chain_sum, is_crossing

Z = 1.0 + 0.3j
# m_2 .. m_6 nonzero: the 2+2, 2+3, nested and crossing partitions of
# n = 4 and 5 are all live, and at n = 6 three mutually crossing pairs
SKEWED = WeightDistribution(kind="explicit-moments",
                            moments=(0.0, 1.0, 1.0, 3.0, 2.0, 5.0))
PSI_D2 = (Wavepacket(x0=(0.0, 0.0), a=(0.0, 0.0), sigma=1.0),
          Wavepacket(x0=(0.25, -0.1), a=(1.0, 0.0), sigma=1.0))


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("d, K", [(1, 4), (1, 8), (2, 1)])
def test_order4_matches_oracle_rademacher(d, K, gauss_profile, rademacher,
                                          psi_pair):
    lat = build_lattice(d, 2.0, K)
    psi1, psi2 = psi_pair if d == 1 else PSI_D2
    res = coefficient_T(4, lat, gauss_profile, rademacher, Z, psi1, psi2)
    ora = coefficient_T_oracle(4, lat, gauss_profile, rademacher, Z, psi1,
                               psi2)
    assert _rel(res.value, ora) < 1e-12


@pytest.mark.parametrize("n, K", [(4, 4), (5, 4), (6, 3)], ids=["4", "5", "6"])
def test_orders_4_5_match_oracle_explicit_moments(n, K, gauss_profile,
                                                  psi_pair):
    lat = build_lattice(1, 2.0, K)
    rows = pt.live_partitions(n, SKEWED)
    assert any(is_crossing(row.partition) for row in rows)
    assert any(len(row.partition.blocks) > 1 and not is_crossing(row.partition)
               for row in rows)
    res = coefficient_T(n, lat, gauss_profile, SKEWED, Z, *psi_pair)
    ora = coefficient_T_oracle(n, lat, gauss_profile, SKEWED, Z, *psi_pair)
    assert _rel(res.value, ora) < 1e-12


@pytest.mark.parametrize("d, K, n_max", [(1, 3, 6), (2, 1, 4)])
def test_chain_sum_equals_box_reference(d, K, n_max, gauss_profile):
    lat = build_lattice(d, 2.0, K)
    btab = co.bhat_difference_table(gauss_profile, lat)
    crossing = 0
    for n in range(n_max + 1):
        # a distinct spectral parameter per chain slot
        zs = tuple(complex(0.5 + 0.25 * j, 0.3 + 0.05 * j) for j in range(n + 1))
        for A in pt.all_partitions(n):
            got, count = co._chain_sum(A, lat, btab, zs)
            want, box_count = box_chain_sum(A, lat, btab, zs)
            assert count == box_count == lat.size * (4 * K + 1) ** (
                (n - len(A.blocks)) * d)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            crossing += is_crossing(A)
    assert crossing == sum(pt.bell_number(n) - math.comb(2 * n, n) // (n + 1)
                           for n in range(n_max + 1))


def test_non_crossing_count_is_catalan():
    for n in range(9):
        count = sum(not is_crossing(A) for A in pt.all_partitions(n))
        assert count == math.comb(2 * n, n) // (n + 1)
    assert is_crossing(pt.SetPartition(4, ((1, 3), (2, 4))))
    assert not is_crossing(pt.SetPartition(4, ((1, 4), (2, 3))))
    assert is_crossing(pt.SetPartition(5, ((1, 3, 5), (2, 4))))


def test_budget_counts_the_route_taken(std_lattice, gauss_profile):
    btab = co.bhat_difference_table(gauss_profile, std_lattice)
    N = std_lattice.size
    zs = (Z,) * 5
    # {1234} sums out k3, k2, k1 at N^3, N^3 and N^2, then multiplies into
    # u at N.  {13|24} gathers three N^3 tables over (u, k1, k2) for its
    # closure k3 = k2 - k1 + u, sums out k2 at N^3 and k1 at N^2, then N.
    # Either costs far less than its N (4K+1)^{m} terms.
    for blocks, cost, m in ((((1, 2, 3, 4),), 2 * N**3 + N**2 + N, 3),
                            (((1, 3), (2, 4)), 4 * N**3 + N**2 + N, 2)):
        A = pt.SetPartition(4, blocks)
        _, count = co._chain_sum(A, std_lattice, btab, zs, budget=cost)
        assert count == N * 33**m
        with pytest.raises(BudgetError):
            co._chain_sum(A, std_lattice, btab, zs, budget=cost - 1)


def test_non_crossing_plans_cost_the_nested_products():
    # the elimination order sums the inner blocks first, as nested products
    # of T would: (r - 2) N^3 + N^2 per block of r >= 2 members, N at the end
    for n in range(9):
        for A in pt.all_partitions(n):
            if not is_crossing(A):
                want = Counter({1: 1})
                for b in A.blocks:
                    if len(b) > 1:
                        want.update({3: len(b) - 2, 2: 1})
                assert Counter(co._chain_plan(A)[2]) == +want, A.blocks


def test_crossing_pair_fits_the_default_budget_at_d3(gauss_profile):
    # the box of {13|24} at d = 3, K = 2 holds N 9^6 = 6.6e7 step tuples,
    # over the default budget; summing out the free momenta costs 7.8e6
    lat = build_lattice(3, 2.0, 2)
    btab = co.bhat_difference_table(gauss_profile, lat)
    A = pt.SetPartition(4, ((1, 3), (2, 4)))
    got, count = co._chain_sum(A, lat, btab, (Z,) * 5)
    assert count == lat.size * 9**6 > co.DEFAULT_TERM_BUDGET
    assert got.shape == (lat.size,) and np.all(np.isfinite(got))


def test_pair_block_costs_no_cube(tmp_path, std_model_dict, run_cli):
    # {12} forms no N x N product, only the diagonal of T D T: N^2 + N
    # multiply-adds at N = 2049 fit the default budget, N^3 would not.  Run
    # in a child process, so its N x N tables stay out of this one's caches.
    model = dict(std_model_dict, L=256.0, K=1024,
                 weights={"kind": "explicit-moments", "moments": [0.0, 1.0]})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": model, "study": {
        "kind": "expand", "orders": [2], "z": [[1.0, 0.3]]}}))
    proc = run_cli("expand", cfg, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    row = (tmp_path / "out" / "expand.csv").read_text().splitlines()[1]
    assert all(math.isfinite(float(x)) for x in row.split(",")[1:5])


def test_conjugate_spectral_parameter_conjugates_the_chain_sum(gauss_profile):
    # btab is real, so both routes conjugate exactly; compared with ==,
    # because the sign of an exact zero real part (nu == Re z) may differ
    lat = build_lattice(1, 2.0, 8)
    btab = co.bhat_difference_table(gauss_profile, lat)
    seen = set()
    for n in range(5):
        zs = tuple(complex(0.5 + 0.25 * j, 0.3 + 0.05 * j) for j in range(n + 1))
        for A in pt.all_partitions(n):
            got, _ = co._chain_sum(A, lat, btab, tuple(np.conj(zs)))
            want, _ = co._chain_sum(A, lat, btab, zs)
            assert np.array_equal(got, np.conj(want)), A.blocks
            seen.add(A.blocks)
    assert ((1, 3), (2, 4)) in seen


def test_transfer_and_node_tables_are_cached_read_only(std_lattice,
                                                       gauss_profile):
    btab = co.bhat_difference_table(gauss_profile, std_lattice)
    T = co._transfer_table(std_lattice, btab.tobytes())
    ints = std_lattice.ints
    assert T[3, 11] == btab[co._diff_index(ints[3] - ints[11], std_lattice.K, 1)]
    # one pair index and one table of difference points serve the chain
    # sums and the potential matrices
    assert montecarlo._pair_index is co._pair_index
    assert montecarlo._difference_points is co._difference_points
    x, w = gl_nodes((0.5, 1.0, 1.5))
    for tab in (T, co._pair_index(std_lattice), x, w):
        assert not tab.flags.writeable
    assert co._transfer_table(std_lattice, btab.tobytes()) is T
    assert gl_nodes((0.5, 1.0, 1.5))[0] is x


def test_lattice_keyed_caches_are_bounded(gauss_profile):
    # a study uses one lattice, so the tables of the lattice met before are
    # released when the next one is built, not kept for the process's life
    A = pt.SetPartition(2, ((1, 2),))
    caches = (co._pair_index, co._transfer_table, co._difference_points)
    released = []
    for K in (5, 6, 7):
        lat = build_lattice(1, 2.0, K)
        btab = co.bhat_difference_table(gauss_profile, lat)
        co._chain_sum(A, lat, btab, (Z,) * 3)
        tables = (co._difference_points(lat), co._pair_index(lat),
                  co._transfer_table(lat, btab.tobytes()))
        assert all(ref() is None for ref in released)
        released = [weakref.ref(tab) for tab in tables]
        del tables
        for cache in caches:
            assert cache.cache_info().currsize == cache.cache_info().maxsize == 1
