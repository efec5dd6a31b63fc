"""Expansion coefficients of the disorder-averaged resolvent.

The order-n coefficient is a sum over set partitions of {1..n}; each
partition contributes a momentum-lattice sum in which the per-block
momentum-conservation constraints have been solved out, leaving one free
momentum per non-maximal index plus the outer momentum carried by the test
functions.  A brute-force route that keeps the constraints as explicit
Kronecker factors is provided as an oracle.

Truncation consistency: every chain momentum is restricted to the lattice
window, which makes the resolved sum, the brute-force oracle, and the
expectation of the truncated-matrix Monte Carlo operator string identical
term sets (the equality tests in the suite rely on this).
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import partitions as pt
from ._accum import chunk_ranges, fsum_c, run_ordered
from .errors import BudgetError, ConfigError
from .lattice import (
    MomentumLattice,
    ProfileSpec,
    Wavepacket,
    dist_to_spectrum,
    int_box,
    profile_axis_envelope,
    profile_fourier_periodized,
    wavepacket_axis_envelope,
    wavepacket_fourier_periodized,
)
from .report import BoundReport

DEFAULT_TERM_BUDGET = 50_000_000
_CHUNK_ELEMS = 1 << 21


@dataclass
class CoefficientResult:
    """A computed expansion coefficient with its term counts; the window's
    truncation tail is ``truncation_tail_bound``, computed on request."""

    value: complex
    n: int
    partition_count: int
    term_count: int
    per_partition: dict = None


# ---------------------------------------------------------------------------
# cached tables


@lru_cache(maxsize=None)
def bhat_difference_table(profile: ProfileSpec, lattice: MomentumLattice):
    """Profile transform on the difference window (integer range 2K),
    flattened in lexicographic order; cached, read-only."""
    pts = int_box(lattice.d, 2 * lattice.K) / lattice.L
    tab = profile_fourier_periodized(profile, pts, lattice.L)
    tab.setflags(write=False)
    return tab


@lru_cache(maxsize=None)
def psi_hat_vector(psi: Wavepacket, lattice: MomentumLattice):
    """Wavepacket transform on the lattice; cached, read-only."""
    vec = wavepacket_fourier_periodized(psi, lattice.points, lattice.L)
    vec.setflags(write=False)
    return vec


def _diff_index(s, K, d):
    """Flat index into the difference table for integer steps s (…, d)."""
    side = 4 * K + 1
    c = np.clip(s + 2 * K, 0, side - 1)
    idx = c[..., 0].astype(np.int64)
    for j in range(1, d):
        idx = idx * side + c[..., j]
    return idx


@lru_cache(maxsize=None)
def _pair_index(lattice: MomentumLattice):
    """Difference-table index of ints[a] - ints[b], every pair; cached, read-only."""
    ints = lattice.ints
    idx = _diff_index(ints[:, None, :] - ints[None, :, :], lattice.K, lattice.d)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _transfer_table(lattice: MomentumLattice, btab_bytes: bytes):
    """T[a, b] = btab[ints[a] - ints[b]], btab given by its bytes; cached, read-only."""
    T = np.frombuffer(btab_bytes)[_pair_index(lattice)]
    T.setflags(write=False)
    return T


# ---------------------------------------------------------------------------
# the resolved per-partition lattice sum


def _nested_chain_sum(A, lattice, btab, zs):
    """Per-u0 chain sum of a non-crossing partition (see ``_chain_sum``)."""
    nu = 0.5 * np.sum((lattice.ints * (1.0 / lattice.L)) ** 2, axis=-1)
    R = [1.0 / (nu - z) for z in zs]
    T = _transfer_table(lattice, btab.tobytes())
    block_of = {j: b for b in A.blocks for j in b}

    def closed(lo, hi):
        # product of the blocks tiling positions lo..hi-1
        b = block_of.get(lo)
        return block(b) * closed(b[-1] + 1, hi) if lo < hi else 1.0

    def block(b):
        # products by einsum, whose bits do not depend on the BLAS thread
        # count; only the diagonal of the last one is formed
        D = [R[p] * closed(p + 1, q) for p, q in zip(b, b[1:])]
        M = T
        for Di in D[:-1]:
            M = np.einsum("ij,jk->ik", M * Di, T)
        return (np.einsum("ij,ji->i", M * D[-1], T) if D else T.diagonal()) * R[b[-1]]

    return R[0] * closed(1, A.n + 1)


def _chain_sum(A, lattice, btab, zs, *, threads=1, budget=DEFAULT_TERM_BUDGET):
    """Sum the resolved integrand of one partition over the truncated window;
    zs holds the spectral parameter of each chain slot (length A.n + 1).

    A non-crossing partition (every one up to n = 3) returns the momentum
    to its entry value after each closed block, so a block p1 < ... < pr
    entered at a is diag(T D_1 T ... D_{r-1} T)(a) R_{pr}(a): T[a, b] =
    btab[k_a - k_b], R_j = 1/(nu - zs[j]), and D_i is R_{pi} times the
    closed blocks between p_i and p_{i+1}; the chain is R_0 times its
    top-level blocks, m N^3 + N multiply-adds.  A crossing partition sums
    the box of N (4K+1)^{md} step tuples.  The cost of the route taken is
    checked against the budget before it runs.

    Returns (per-u0 array, term_count): one chain sum per outer momentum,
    and N (4K+1)^{md}, the size of the partition's term set on either route.
    """
    d, K, L = lattice.d, lattice.K, lattice.L
    n = A.n
    if len(zs) != n + 1:
        raise ConfigError("need one resolvent slot per chain position")
    m = n - len(A.blocks)
    side = 4 * K + 1
    Nv = side ** (m * d)
    N = lattice.size
    crossing = pt.is_crossing(A)
    cost = N * Nv if crossing else m * N**3 + N
    if cost > budget:
        raise BudgetError(
            f"partition {A.blocks} needs {cost:.3g} multiply-adds, budget {budget:.3g}")
    if not crossing:
        return _nested_chain_sum(A, lattice, btab, zs), N * Nv

    # every point of the free-momentum box, substituted into the n steps
    free = int_box(m * d, 2 * K).reshape(Nv, m, d).transpose(1, 0, 2)
    steps = pt.apply_MA(A, free)

    prefix = np.zeros((n + 1, Nv, d), dtype=np.int64)
    if n:
        np.cumsum(steps, axis=0, out=prefix[1:])

    # step factors of the profile transform (independent of the outer momentum)
    bprod = np.ones(Nv)
    for j in range(n):
        bprod *= btab[_diff_index(-steps[j], K, d)]
        # steps beyond the difference window are killed by the chain mask below
        out_of_window = np.any(np.abs(steps[j]) > 2 * K, axis=-1)
        if out_of_window.any():
            bprod[out_of_window] = 0.0

    u_ints = lattice.ints
    res = np.zeros(N, dtype=complex)
    rows = max(1, _CHUNK_ELEMS // max(Nv, 1))
    ranges = chunk_ranges(N, rows)

    inv_L = 1.0 / L

    def work(lo, hi):
        u = u_ints[lo:hi]
        acc = np.ones((hi - lo, Nv), dtype=complex)
        ok = np.ones((hi - lo, Nv), dtype=bool)
        for slot in range(n + 1):
            kj = u[:, None, :] + prefix[slot][None, :, :]
            if slot not in (0, n):
                ok &= np.all(np.abs(kj) <= K, axis=-1)
            nuv = 0.5 * np.sum((kj * inv_L) ** 2, axis=-1)
            acc *= 1.0 / (nuv - zs[slot])
        acc *= bprod[None, :]
        acc[~ok] = 0.0
        res[lo:hi] = np.sum(acc, axis=1)

    run_ordered([lambda lo=lo, hi=hi: work(lo, hi) for lo, hi in ranges], threads)
    return res, N * Nv


def _prefactor(row: pt.LivePartition, lattice) -> float:
    """Moment weight times L^{-d} for the outer and each free momentum sum."""
    return row.weight * lattice.volume ** (-(row.m + 1))


def _live_terms(rows, lattice, btab, zs, psi_w, *, threads, budget):
    """(prefactor * psi-weighted chain sum, lattice term count) of each
    live row."""
    out = []
    for row in rows:
        res, terms = _chain_sum(row.partition, lattice, btab, zs,
                                threads=threads, budget=budget)
        out.append((_prefactor(row, lattice) * fsum_c(psi_w * res), terms))
    return out


def _psi_weights(psi1, psi2, lattice):
    return np.conj(psi_hat_vector(psi1, lattice)) * psi_hat_vector(psi2, lattice)


def partition_term_C(n, A: pt.SetPartition, lattice, profile, dist, z,
                     psi1, psi2, *, threads=1, budget=DEFAULT_TERM_BUDGET) -> complex:
    """One partition's contribution to the order-n coefficient.

    Zero-weight partitions short-circuit before any lattice work.
    """
    if A.n != n:
        raise ConfigError("partition ground set must match the order")
    dist_to_spectrum(z)
    row = pt.live_partition(A, dist)
    if row is None:
        return 0.0 + 0.0j
    [(value, _)] = _live_terms([row], lattice,
                               bhat_difference_table(profile, lattice),
                               (z,) * (n + 1), _psi_weights(psi1, psi2, lattice),
                               threads=threads, budget=budget)
    return value


def coefficient_T(n, lattice, profile, dist, z, psi1, psi2, *,
                  per_partition=False, threads=1,
                  budget=DEFAULT_TERM_BUDGET) -> CoefficientResult:
    """Order-n expansion coefficient: sum of all partition terms.

    Partitions are visited in the fixed enumeration order and accumulated
    exactly, so the result is reproducible for any thread count.
    """
    dist_to_spectrum(z)
    rows = pt.live_partitions(n, dist)
    terms = _live_terms(rows, lattice, bhat_difference_table(profile, lattice),
                        (z,) * (n + 1), _psi_weights(psi1, psi2, lattice),
                        threads=threads, budget=budget)
    per = None
    if per_partition:
        # every partition is reported; the dead ones contribute exactly zero
        per = dict.fromkeys((A.blocks for A in pt.all_partitions(n)), 0.0 + 0.0j)
        per.update((row.partition.blocks, val) for row, (val, _) in zip(rows, terms))
    return CoefficientResult(
        value=fsum_c([val for val, _ in terms]),
        n=n,
        partition_count=pt.bell_number(n),
        term_count=sum(cnt for _, cnt in terms),
        per_partition=per,
    )


# ---------------------------------------------------------------------------
# brute-force oracle


def coefficient_T_oracle(n, lattice, profile, dist, z, psi1, psi2,
                         budget=100_000_000) -> complex:
    """Direct (n+1)-fold lattice sum with explicit conservation deltas.

    Ground truth for the resolved route on small instances; the two sums
    contain literally the same terms.
    """
    dist_to_spectrum(z)
    N = lattice.size
    total = N ** (n + 1)
    if total > budget:
        raise BudgetError(f"oracle needs {total:.3g} chain tuples, budget {budget:.3g}")

    ints = lattice.ints
    idx = np.meshgrid(*([np.arange(N)] * (n + 1)), indexing="ij")
    k = [ints[ix.ravel()] for ix in idx]  # chain momenta, integer coords
    p = [k[j] - k[j + 1] for j in range(n)]  # transfer momenta

    btab = bhat_difference_table(profile, lattice)
    K, d = lattice.K, lattice.d
    bvals = [btab[_diff_index(p[j], K, d)] for j in range(n)]

    EP = np.zeros(total)
    for A, mw, _, blocks in pt.live_partitions(n, dist):
        ok = np.ones(total, dtype=bool)
        for block in A.blocks:
            ssum = np.zeros((total, d), dtype=np.int64)
            for l in block:
                ssum += p[l - 1]
            ok &= np.all(ssum == 0, axis=-1)
        factor = np.full(total, mw * lattice.volume ** blocks)
        for j in range(n):
            factor *= bvals[j]
        EP[ok] += factor[ok]

    psi1_hat = psi_hat_vector(psi1, lattice)
    psi2_hat = psi_hat_vector(psi2, lattice)
    integrand = np.conj(psi1_hat[idx[0].ravel()]) * psi2_hat[idx[n].ravel()]
    integrand = integrand * EP
    inv_L = 1.0 / lattice.L
    for j in range(n + 1):
        nuv = 0.5 * np.sum((k[j] * inv_L) ** 2, axis=-1)
        integrand = integrand * (1.0 / (nuv - z))
    return fsum_c(integrand) * lattice.volume ** (-(n + 1))


# ---------------------------------------------------------------------------
# norms and truncation tails


def bhat_star_norms(profile: ProfileSpec, L, K=None, d=1):
    """(||B_hat||_{*,1} including an envelope tail, ||B_hat||_{*,inf}).

    The truncated sums run over the difference window; the omitted mass is
    bounded by the per-axis decay envelope.
    """
    K = K or 64
    side = np.arange(-2 * K, 2 * K + 1)
    axis_vals = np.abs(profile_fourier_periodized(replace(profile, b0=1.0),
                                                  side[:, None] / L, L))
    env = profile_axis_envelope(profile, L)
    axis_tail = _axis_envelope_tail(env, L, 2 * K)
    s1 = abs(profile.b0) * ((axis_vals.sum() + axis_tail) ** d) / L**d
    sinf = abs(profile.b0) * float(axis_vals.max()) ** d
    return float(s1), float(sinf)


def _axis_envelope_tail(env, L, K_in, X=200_000):
    """Upper bound on sum of env(m/L) over |m| > K_in (one axis).

    Numeric out to X plus an integral-comparison remainder for the k^-2
    envelope tail beyond it.
    """
    if X <= K_in:
        X = 2 * K_in
    ms = np.arange(K_in + 1, X + 1)
    partial = 2.0 * float(np.sum(env(ms / L)))
    # beyond X the envelopes decay at least like 1/k^2, so the remainder is
    # dominated by env(X/L) * sum_{m>X} (X/m)^2 <= env(X/L) * X
    rem = 2.0 * float(env(X / L)) * X
    return partial + rem


def _axis_pair_window_sum(env1, env2, L, K_in, X=100_000):
    """(windowed, full) sums of env1*env2 over one integer axis."""
    ms_in = np.arange(-K_in, K_in + 1)
    win = float(np.sum(env1(ms_in / L) * env2(ms_in / L)))
    ms = np.arange(K_in + 1, X + 1)
    out = 2.0 * float(np.sum(env1(ms / L) * env2(ms / L)))
    rem = 2.0 * float(env1(X / L) * env2(X / L)) * X
    return win, win + out + rem


@lru_cache(maxsize=None)
def _free_escape_sums(profile: ProfileSpec, lattice, m):
    """(SB_all, SB_thr) for m free indices; cached.

    SB_all is the summed profile envelope over the difference window, SB_thr
    the same sum inside the escape threshold max(1, K // (2m)) (K at m = 0);
    both are (1/L^d)-normalized.  Neither depends on z, nor on the
    partition beyond m.
    """
    d, K, L = lattice.d, lattice.K, lattice.L
    envB = profile_axis_envelope(profile, L)
    ones = lambda k: np.ones_like(np.asarray(k, dtype=float))
    _, ball = _axis_pair_window_sum(envB, ones, L, 2 * K)
    thr = max(1, K // (2 * m)) if m else K
    bthr, _ = _axis_pair_window_sum(envB, ones, L, thr)
    b0 = abs(profile.b0)
    return b0 * ball**d / L**d, b0 * bthr**d / L**d


@lru_cache(maxsize=None)
def _psi_escape_sums(lattice, psi1, psi2):
    """(1/L^d) sums of the paired test-function envelopes over the dual
    lattice and outside the half-window K // 2; cached."""
    d, K, L = lattice.d, lattice.K, lattice.L
    psi_all = psi_half = 1.0
    for j in range(d):
        e1 = wavepacket_axis_envelope(psi1, j, L)
        e2 = wavepacket_axis_envelope(psi2, j, L)
        _, w_all = _axis_pair_window_sum(e1, e2, L, K)
        w_half, _ = _axis_pair_window_sum(e1, e2, L, K // 2)
        psi_all *= w_all
        psi_half *= w_half
    return psi_all / L**d, max(0.0, (psi_all - psi_half)) / L**d


def truncation_tail_bound(n, lattice, profile, dist, z, psi1, psi2) -> float:
    """Conservative bound on the mass the window truncation discards.

    Union bound over the first variable to leave the window: either the
    outer momentum exceeds K/2, or some free momentum exceeds K/(2m); each
    case is bounded by decay-envelope sums, with resolvents bounded by the
    distance to the spectrum and non-free step factors by ||B||_1.
    """
    dist_z = dist_to_spectrum(z)
    s_psi_all, s_psi_escape = _psi_escape_sums(lattice, psi1, psi2)
    normB1 = profile.norm_l1(lattice.d)
    total = 0.0
    for _, w, m, blocks in pt.live_partitions(n, dist):
        SB_all, SB_thr = _free_escape_sums(profile, lattice, m)
        e = (s_psi_escape * SB_all**m + s_psi_all * m
             * max(0.0, SB_all - SB_thr) * SB_all ** max(0, m - 1))
        total += abs(w) * normB1**blocks * e
    return total * dist_z ** (-(n + 1))


def conj_symmetry_check(n, lattice, profile, dist, z, psi, *, threads=1) -> BoundReport:
    """T_n at conj(z) must equal the conjugate of T_n at z (same psi twice)."""
    t1 = coefficient_T(n, lattice, profile, dist, z, psi, psi, threads=threads).value
    t2 = coefficient_T(n, lattice, profile, dist, np.conj(z), psi, psi,
                       threads=threads).value
    lhs = abs(t2 - np.conj(t1))
    rhs = 1e-12 * max(abs(t1), 1e-300)
    return BoundReport(
        name="conjugation_symmetry",
        lhs=lhs,
        rhs=rhs,
        context={"n": n, "z": (z.real, z.imag), "T": (t1.real, t1.imag)},
    )
