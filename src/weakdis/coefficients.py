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
from ._accum import fsum_c
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
    """Profile transform on ``_difference_points``; cached, read-only."""
    tab = profile_fourier_periodized(profile, _difference_points(lattice),
                                     lattice.L)
    tab.setflags(write=False)
    return tab


@lru_cache(maxsize=None)
def psi_hat_vector(psi: Wavepacket, lattice: MomentumLattice):
    """Wavepacket transform on the lattice; cached, read-only."""
    vec = wavepacket_fourier_periodized(psi, lattice.points, lattice.L)
    vec.setflags(write=False)
    return vec


def _diff_index(s, K, d):
    """Flat index into the difference table for integer steps s (…, d),
    each coordinate clipped to the difference window."""
    return np.ravel_multi_index(tuple(np.moveaxis(s + 2 * K, -1, 0)),
                                (4 * K + 1,) * d, mode="clip")


# a study uses one lattice: the tables of the last one stay resident
@lru_cache(maxsize=1)
def _difference_points(lattice: MomentumLattice):
    """int_box(d, 2K) / L, the momenta of the difference window (integer
    range 2K), flattened in lexicographic order; cached, read-only."""
    pts = int_box(lattice.d, 2 * lattice.K) / lattice.L
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=1)
def _pair_index(lattice: MomentumLattice):
    """Difference-table index of ints[a] - ints[b], every pair; cached, read-only."""
    ints = lattice.ints
    idx = _diff_index(ints[:, None, :] - ints[None, :, :], lattice.K, lattice.d)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=1)
def _transfer_table(lattice: MomentumLattice, btab_bytes: bytes):
    """T[a, b] = btab[ints[a] - ints[b]], btab given by its bytes; cached, read-only."""
    T = np.frombuffer(btab_bytes)[_pair_index(lattice)]
    T.setflags(write=False)
    return T


# ---------------------------------------------------------------------------
# the resolved per-partition lattice sum


def _slot_forms(A):
    """Chain momenta k_0..k_n as {variable: ±1} sums of the outer momentum
    u (variable 0) and the free momenta (variable j for the k_j of a
    non-maximal j).  A block maximum closes its block:
    k_j = k_{j-1} - sum over the block's other members i of (k_i - k_{i-1})."""
    eye = np.eye(A.n + 1, dtype=int)
    forms = [eye[0]]
    for j in range(1, A.n + 1):
        b = next(b for b in A.blocks if j in b)
        forms.append(eye[j] if j < b[-1] else
                     forms[j - 1] - sum(eye[i] - forms[i - 1] for i in b[:-1]))
    return [{v: int(c) for v, c in enumerate(f) if c} for f in forms]


@lru_cache(maxsize=None)
def _chain_plan(A):
    """Symbolic plan of one partition's chain sum (see ``_chain_sum``): the
    factors as (slot j, forms, scope) in the order R_0, T_1, R_1, ..., R_n;
    the einsums as (factor ids, subscripts); and the exponent of N in the
    cost of each gathered table and each einsum."""
    forms = _slot_forms(A)
    factors = []
    for j in range(A.n + 1):
        # the step T(k_{j-1}, k_j) reads two forms, R_j(k_j) one
        for fs in ([forms[j - 1:j + 1]] if j else []) + [forms[j:j + 1]]:
            factors.append((j, fs, tuple(dict.fromkeys(v for f in fs for v in f))))
    scopes = [scope for _, _, scope in factors]
    powers = [len(scope) for _, fs, scope in factors if any(len(f) > 1 for f in fs)]
    elims = []

    def einsum(ids, out):
        letters = lambda scope: "".join(chr(97 + v) for v in scope)
        subs = ",".join(letters(scopes[i]) for i in ids) + "->" + letters(out)
        elims.append((ids, subs))
        powers.append(len(set(out).union(*(scopes[i] for i in ids))))
        scopes.append(out)
        return [i for i in live if i not in ids] + [len(scopes) - 1]

    # sum out the free momenta, fewest neighbours first and ties to the later
    # (inner) momentum, so that a non-crossing partition costs what its nested
    # products would; the last einsum multiplies what is left into one factor
    # over u
    live, free = list(range(len(scopes))), sorted(set().union(*forms) - {0})
    while free:
        nbrs = {v: set().union(*(scopes[i] for i in live if v in scopes[i])) - {v}
                for v in free}
        v = min(free, key=lambda v: (len(nbrs[v]), -v))
        free.remove(v)
        live = einsum([i for i in live if v in scopes[i]], tuple(sorted(nbrs[v])))
    einsum(live, (0,))
    return factors, elims, powers


def _window_index(form, scope, lattice):
    """Window index of the momentum sum ``form`` over the grid of ``scope``
    (one axis per variable, 0 outside the window) and the mask of the grid
    points where it lies inside."""
    K = lattice.K
    idx, ok = 0, True
    for a in range(lattice.d):
        c = sum(coef * lattice.ints[:, a].reshape([-1 if u == v else 1 for u in scope])
                for v, coef in form.items())
        ok = ok & (np.abs(c) <= K)
        idx = idx * (2 * K + 1) + c + K
    return np.where(ok, idx, 0), ok


def _chain_sum(A, lattice, btab, zs, *, budget=DEFAULT_TERM_BUDGET):
    """Sum the resolved integrand of one partition over the truncated window;
    zs holds the spectral parameter of each chain slot (length A.n + 1).

    The summand is the product of R_j(k_j) = 1/(nu(k_j) - zs[j]) and
    T(k_{j-1}, k_j) = btab[k_{j-1} - k_j] over the chain momenta, every one
    a signed sum of u and the free momenta (``_slot_forms``) inside the
    window.  Each R_j and T is one factor over its forms' variables: R_j, T
    or diag(T) itself when each form is one variable, else (the closure of
    a crossing block) a table gathered with the window mask.  The free
    momenta are summed out one at a time, fewest neighbours first, each by
    one plain einsum: no BLAS runs, so no bit depends on the thread count.
    The cost, N to the number of variables of each gathered table and each
    einsum, is checked against the budget before anything is built.  A
    non-crossing block of r >= 2 members costs (r - 2) N^3 + N^2, the final
    product over u N, and {13|24} 4 N^3 + N^2 + N.

    Returns (per-u0 array, term_count): one chain sum per outer momentum,
    and N (4K+1)^{md}, the size of the box of free steps the sum covers.
    """
    if len(zs) != A.n + 1:
        raise ConfigError("need one resolvent slot per chain position")
    N = lattice.size
    factors, elims, powers = _chain_plan(A)
    cost = sum(N**p for p in powers)
    if cost > budget:
        raise BudgetError(
            f"partition {A.blocks} needs {cost:.3g} multiply-adds, budget {budget:.3g}")

    nu = 0.5 * np.sum((lattice.ints * (1.0 / lattice.L)) ** 2, axis=-1)
    R = [1.0 / (nu - z) for z in zs]
    T = _transfer_table(lattice, btab.tobytes())
    tabs = []
    for j, fs, scope in factors:
        tab = T if len(fs) == 2 else R[j]
        if all(len(f) == 1 for f in fs):
            tabs.append(T.diagonal() if tab is T and len(scope) == 1 else tab)
        else:
            idx, ok = zip(*(_window_index(f, scope, lattice) for f in fs))
            tabs.append(np.where(ok[0] & ok[-1], tab[idx], 0.0))
    for ids, subs in elims:
        tabs.append(np.einsum(subs, *(tabs[i] for i in ids)))
    return tabs[-1], N * (4 * lattice.K + 1) ** ((A.n - len(A.blocks)) * lattice.d)


def _prefactor(row: pt.LivePartition, lattice) -> float:
    """Moment weight times L^{-d} for the outer and each free momentum sum."""
    return row.weight * lattice.volume ** (-(row.m + 1))


def coefficient_T(n, lattice, profile, dist, z, psi1, psi2, *,
                  per_partition=False,
                  budget=DEFAULT_TERM_BUDGET) -> CoefficientResult:
    """Order-n expansion coefficient: sum of all partition terms.

    Partitions are visited in the fixed enumeration order and accumulated
    exactly, so the result is reproducible for any thread count.
    """
    dist_to_spectrum(z)
    rows = pt.live_partitions(n, dist)
    btab = bhat_difference_table(profile, lattice)
    psi_w = np.conj(psi_hat_vector(psi1, lattice)) * psi_hat_vector(psi2, lattice)
    terms = []  # (prefactor * psi-weighted chain sum, lattice term count)
    for row in rows:
        res, cnt = _chain_sum(row.partition, lattice, btab, (z,) * (n + 1),
                              budget=budget)
        terms.append((_prefactor(row, lattice) * fsum_c(psi_w * res), cnt))
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


@lru_cache(maxsize=None)
def bhat_star_norms(profile: ProfileSpec, L, K=None, d=1):
    """(||B_hat||_{*,1} including an envelope tail, ||B_hat||_{*,inf}); cached.

    The truncated sums run over the difference window; the omitted mass is
    bounded by the per-axis decay envelope.
    """
    K = K or 64
    side = np.arange(-2 * K, 2 * K + 1)
    axis_vals = np.abs(profile_fourier_periodized(replace(profile, b0=1.0),
                                                  side[:, None] / L, L))
    _, out, rem = _axis_sums(profile_axis_envelope(profile, L), L, 2 * K,
                             200_000 if 2 * K < 200_000 else 4 * K)
    s1 = abs(profile.b0) * ((axis_vals.sum() + (out + rem)) ** d) / L**d
    sinf = abs(profile.b0) * float(axis_vals.max()) ** d
    return float(s1), float(sinf)


def _axis_sums(env, L, K_in, X):
    """(win, out, rem): env(m/L) summed over |m| <= K_in and over
    K_in < |m| <= X on both sides, and (env(X/L) + env(-X/L)) X, which
    bounds the rest of a k^-2 envelope.  X = K_in sums the window alone."""
    win = float(np.sum(env(np.arange(-K_in, K_in + 1) / L)))
    ms = np.arange(K_in + 1, X + 1) / L
    out = float(np.sum(env(ms))) + float(np.sum(env(-ms)))
    rem = (float(env(X / L)) + float(env(-X / L))) * X
    return win, out, rem


@lru_cache(maxsize=None)
def _profile_escape_sum(profile: ProfileSpec, lattice, thr=None):
    """|b0| (the profile envelope summed over one axis)^d / L^d, over the
    whole axis (SB_all: thr None, cut off at 1e5) or inside the escape
    threshold thr alone (SB_thr); cached, independent of z and n."""
    L = lattice.L
    env = profile_axis_envelope(profile, L)
    axis = (sum(_axis_sums(env, L, 2 * lattice.K, 100_000)) if thr is None
            else _axis_sums(env, L, thr, thr)[0])
    return abs(profile.b0) * axis**lattice.d / L**lattice.d


@lru_cache(maxsize=None)
def _psi_escape_sums(lattice, psi1, psi2):
    """(1/L^d) sums of the paired test-function envelopes over the dual
    lattice and outside the half-window K // 2; cached."""
    d, K, L = lattice.d, lattice.K, lattice.L
    psi_all = psi_half = 1.0
    for j in range(d):
        e1 = wavepacket_axis_envelope(psi1, j, L)
        e2 = wavepacket_axis_envelope(psi2, j, L)
        pair = lambda k: e1(k) * e2(k)
        psi_all *= sum(_axis_sums(pair, L, K, 100_000))
        psi_half *= _axis_sums(pair, L, K // 2, K // 2)[0]
    return psi_all / L**d, max(0.0, (psi_all - psi_half)) / L**d


def _escape_bound(n, lattice, profile, dist, outer, inner, whole, s1=0.0):
    """Union bound over the first variable to leave the window, ||B||_1 per
    block: with m free momenta, outer s1^m (the outer momentum leaves) +
    inner m (SB_all - SB_thr)_+ SB_all^(m-1) (a free one passes the
    threshold max(1, K // (2m))) + whole SB_all^m (the rest)."""
    SB_all = _profile_escape_sum(profile, lattice, None)

    def escape(m):
        SB_thr = _profile_escape_sum(profile, lattice,
                                     max(1, lattice.K // (2 * m)) if m
                                     else lattice.K)
        return (outer * s1**m + inner * m * max(0.0, SB_all - SB_thr)
                * SB_all ** max(0, m - 1) + whole * SB_all**m)

    return pt.block_sum(n, dist, profile.norm_l1(lattice.d), escape)


def truncation_tail_bound(n, lattice, profile, dist, z, psi1, psi2) -> float:
    """Conservative bound on the mass the window truncation discards:
    ``_escape_bound`` on the paired test-function envelopes (the outer
    momentum past K/2 carries the escape mass), resolvents bounded by the
    distance to the spectrum."""
    dist_z = dist_to_spectrum(z)
    s_psi_all, s_psi_escape = _psi_escape_sums(lattice, psi1, psi2)
    return _escape_bound(n, lattice, profile, dist, 0.0, s_psi_all,
                         s_psi_escape) * dist_z ** (-(n + 1))


def conj_symmetry_check(n, lattice, profile, dist, z, psi) -> BoundReport:
    """T_n at conj(z) must equal the conjugate of T_n at z (same psi twice)."""
    t1 = coefficient_T(n, lattice, profile, dist, z, psi, psi).value
    t2 = coefficient_T(n, lattice, profile, dist, np.conj(z), psi, psi).value
    lhs = abs(t2 - np.conj(t1))
    rhs = 1e-12 * max(abs(t1), 1e-300)
    return BoundReport(
        name="conjugation_symmetry",
        lhs=lhs,
        rhs=rhs,
        context={"n": n, "z": (z.real, z.imag), "T": (t1.real, t1.imag)},
    )
