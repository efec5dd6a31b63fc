"""The two chain-sum routes: nested transfer-matrix products for
non-crossing partitions and the box enumeration for crossing ones, checked
against the brute-force oracle past single blocks and against each other."""

import json
import math

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
from weakdis import partitions as pt
from weakdis.montecarlo import _difference_layout, _gl_nodes

Z = 1.0 + 0.3j
# m_2, m_3 and m_4 nonzero: the 2+2, 2+3, nested and crossing partitions
# of n = 4 and 5 are all live
SKEWED = WeightDistribution(kind="explicit-moments",
                            moments=(0.0, 1.0, 1.0, 3.0, 2.0))
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


@pytest.mark.parametrize("n", [4, 5])
def test_orders_4_5_match_oracle_explicit_moments(n, gauss_profile,
                                                  psi_pair):
    lat = build_lattice(1, 2.0, 4)
    rows = pt.live_partitions(n, SKEWED)
    assert any(pt.is_crossing(row.partition) for row in rows)
    assert any(len(row.partition.blocks) > 1 and not pt.is_crossing(row.partition)
               for row in rows)
    res = coefficient_T(n, lat, gauss_profile, SKEWED, Z, *psi_pair)
    ora = coefficient_T_oracle(n, lat, gauss_profile, SKEWED, Z, *psi_pair)
    assert _rel(res.value, ora) < 1e-12


def _box(A, lat, btab, zs, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(pt, "is_crossing", lambda A: True)
        return co._chain_sum(A, lat, btab, zs)


@pytest.mark.parametrize("d, K, n_max", [(1, 3, 6), (2, 1, 4)])
def test_nested_route_equals_box_route(d, K, n_max, gauss_profile,
                                       monkeypatch):
    lat = build_lattice(d, 2.0, K)
    btab = co.bhat_difference_table(gauss_profile, lat)
    seen = 0
    for n in range(n_max + 1):
        # a distinct spectral parameter per chain slot
        zs = tuple(complex(0.5 + 0.25 * j, 0.3 + 0.05 * j) for j in range(n + 1))
        for A in pt.all_partitions(n):
            if pt.is_crossing(A):
                continue
            got, count = co._chain_sum(A, lat, btab, zs)
            want, box_count = _box(A, lat, btab, zs, monkeypatch)
            assert count == box_count == lat.size * (4 * K + 1) ** (
                (n - len(A.blocks)) * d)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            seen += 1
    assert seen == sum(math.comb(2 * n, n) // (n + 1) for n in range(n_max + 1))


def test_non_crossing_count_is_catalan():
    for n in range(9):
        count = sum(not pt.is_crossing(A) for A in pt.all_partitions(n))
        assert count == math.comb(2 * n, n) // (n + 1)
    assert pt.is_crossing(pt.SetPartition(4, ((1, 3), (2, 4))))
    assert not pt.is_crossing(pt.SetPartition(4, ((1, 4), (2, 3))))
    assert pt.is_crossing(pt.SetPartition(5, ((1, 3, 5), (2, 4))))


def test_budget_counts_the_route_taken(std_lattice, gauss_profile):
    btab = co.bhat_difference_table(gauss_profile, std_lattice)
    N = std_lattice.size
    nested = pt.SetPartition(4, ((1, 2, 3, 4),))
    crossing = pt.SetPartition(4, ((1, 3), (2, 4)))
    zs = (Z,) * 5
    # one block of r = 4 costs (r - 2) N^3 + N^2, and the chain N: well
    # under its N (4K+1)^{m} terms
    cost = 2 * N**3 + N**2 + N
    _, count = co._chain_sum(nested, std_lattice, btab, zs, budget=cost)
    assert count == N * 33**3
    with pytest.raises(BudgetError):
        co._chain_sum(nested, std_lattice, btab, zs, budget=cost - 1)
    with pytest.raises(BudgetError):
        co._chain_sum(crossing, std_lattice, btab, zs, budget=N * 33**2 - 1)


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
    # one pair index serves the transfer table and the potential matrices
    assert _difference_layout(std_lattice)[1] is co._pair_index(std_lattice)
    x, w = _gl_nodes(0.5, 1.5, 8)
    for tab in (T, co._pair_index(std_lattice), x, w):
        assert not tab.flags.writeable
    assert co._transfer_table(std_lattice, btab.tobytes()) is T
    assert _gl_nodes(0.5, 1.5, 8)[0] is x
