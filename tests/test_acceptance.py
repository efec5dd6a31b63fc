"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line on the real
stdout (past pytest's capture) so a run produces a nine-line scorecard.
Tolerances are pinned here and must not be loosened to make a run green.
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from weakdis import (
    ChiBump,
    apply_MA,
    assemble_hamiltonian,
    bell_number,
    check_arctan_bound,
    check_log_integral_bound,
    check_resolvent_sum_bound,
    check_weighted_resolvent_sum,
    chi_tilde,
    coefficient_T,
    coefficient_T_oracle,
    conj_symmetry_check,
    dos_coefficient_D,
    dos_density_order0,
    dos_eta_grid_check,
    dos_expansion,
    dos_mc,
    enumerate_partitions,
    estimate_expectation,
    estimate_partial_term,
    fourier_decay_check,
    main_error_bound_rhs,
    neumann_identity_check,
    permutation_count_check,
    poisson_factorial_moment,
    rng_for,
    sample_config,
    build_lattice,
    trace_class_bound_check,
)


def _verdict(capsys, num, desc, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print("\n" + line, end="")


def test_criterion_1_combinatorial_identities(capsys):
    t0 = time.monotonic()
    problems = []
    for n in range(1, 5):
        parts = list(enumerate_partitions(n))
        for M in range(1, 6):
            # partition of unity: every labeling selects exactly one partition
            for labels in product(range(1, M + 1), repeat=n):
                if sum(chi_tilde(A, labels) for A in parts) != 1:
                    problems.append(("unity", n, M, labels))
            # counting identity: indicator sum is the falling factorial
            for A in parts:
                rep = permutation_count_check(A, M)
                if not rep.context["exact_equal"]:
                    problems.append(("count", n, M, A.blocks))
    for n in range(1, 11):
        if sum(1 for _ in enumerate_partitions(n)) != bell_number(n):
            problems.append(("bell", n))
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 10.0
    _verdict(capsys, 1, "partition identities exact (n<=4, M<=5; counts to "
             "n=10)", ok, f"{elapsed:.1f}s")
    assert not problems, problems[:3]
    assert elapsed < 10.0


def test_criterion_2_poisson_factorial_moments(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for mean in (0.5, 1.0, 2.0, 4.0):
        for k in range(1, 6):
            worst = max(worst,
                        abs(poisson_factorial_moment(mean, k) - mean**k))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(capsys, 2, "Poisson factorial moments match mean^k to 1e-10",
             ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_engine_matches_oracle(capsys, gauss_profile,
                                           rademacher, psi_pair):
    t0 = time.monotonic()
    psi1, psi2 = psi_pair
    worst = 0.0
    count = 0
    for L in (1.0, 2.0, 4.0):
        for K in (4, 8):
            lattice = build_lattice(1, L, K)
            for eta in (0.2, 0.6, 1.0):
                z = complex(1.0, eta)
                for n in range(4):
                    fast = coefficient_T(n, lattice, gauss_profile,
                                         rademacher, z, psi1, psi2).value
                    slow = coefficient_T_oracle(n, lattice, gauss_profile,
                                                rademacher, z, psi1, psi2)
                    scale = max(abs(slow), 1e-300)
                    worst = max(worst, abs(fast - slow) / scale)
                    count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and count >= 20 and elapsed < 120.0
    _verdict(capsys, 3, "summed coefficients match the brute-force oracle "
             "to 1e-10", ok, f"{count} instances, worst {worst:.2e}, "
             f"{elapsed:.1f}s")
    assert count >= 20
    assert worst <= 1e-10
    assert elapsed < 120.0


def test_criterion_4_sampled_terms_match_coefficients(capsys, std_lattice,
                                                      gauss_profile,
                                                      rademacher, psi_pair):
    t0 = time.monotonic()
    psi1, psi2 = psi_pair
    z = complex(1.0, 0.3)
    problems = []
    for n in (0, 2):
        est = estimate_partial_term(n, 10_000, z, psi1, psi2, 11,
                                    std_lattice, gauss_profile, rademacher)
        exact = coefficient_T(n, std_lattice, gauss_profile, rademacher, z,
                              psi1, psi2).value
        gap = abs(est.mean - exact)
        tol = 3.0 * est.std_error if n else 1e-12
        if gap > tol:
            problems.append((n, gap, tol))
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 120.0
    _verdict(capsys, 4, "sampled expansion terms match the deterministic "
             "coefficients within 3 sigma", ok, f"{elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 120.0


def test_criterion_5_residual_scaling(capsys, std_lattice, gauss_profile,
                                      rademacher, psi_pair):
    t0 = time.monotonic()
    psi1, psi2 = psi_pair
    eta, n_keep, seed, n_samples = 0.3, 2, 7, 20_000
    z = complex(1.0, eta)
    T = {j: coefficient_T(j, std_lattice, gauss_profile, rademacher, z,
                          psi1, psi2).value for j in range(4)}
    controls = {1: T[1], 2: T[2], 3: T[3]}
    lams = (0.1, 0.05, 0.025)
    residuals = []
    problems = []
    ests = estimate_expectation(n_samples, lams, z, psi1, psi2, seed,
                                std_lattice, gauss_profile, rademacher,
                                antithetic=True, control_values=controls)
    for lam, est in zip(lams, ests):
        partial = sum((-lam) ** j * T[j] for j in range(n_keep + 1))
        residual = abs(est.mean - partial)
        rhs = main_error_bound_rhs(n_keep, 1, 1.0, eta, lam, gauss_profile,
                                   rademacher, psi1, psi2)
        if residual > rhs + 3.0 * est.std_error:
            problems.append((lam, residual, rhs, est.std_error))
        residuals.append(residual)
    slope = float(np.polyfit(np.log(lams), np.log(residuals), 1)[0])
    elapsed = time.monotonic() - t0
    ok = abs(slope - 4.0) <= 0.5 and not problems and elapsed < 600.0
    _verdict(capsys, 5, "kept-order residual scales at the next surviving "
             "order and stays under the closed-form bound", ok,
             f"slope {slope:.3f}, {elapsed:.1f}s")
    assert abs(slope - 4.0) <= 0.5, slope
    assert not problems, problems
    assert elapsed < 600.0


def test_criterion_6_dos_identities(capsys, std_lattice, gauss_profile,
                                    rademacher):
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_imag = 0.0
    for E, eta in ((0.5, 0.3), (1.0, 0.1), (2.0, 1.0)):
        row0 = dos_coefficient_D(0, E, eta, std_lattice, gauss_profile,
                                 rademacher)
        worst_gap = max(worst_gap, abs(
            row0.value - dos_density_order0(E, eta, std_lattice)))
        for n in range(3):
            row = dos_coefficient_D(n, E, eta, std_lattice, gauss_profile,
                                    rademacher)
            worst_imag = max(worst_imag, row.imag_residual)
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-12 and worst_imag <= 1e-12
    _verdict(capsys, 6, "order-0 spectral density matches the closed form "
             "and all coefficients are real", ok,
             f"gap {worst_gap:.2e}, imag {worst_imag:.2e}")
    assert worst_gap <= 1e-12
    assert worst_imag <= 1e-12


def test_criterion_7_dos_expansion_vs_mc(capsys, std_lattice, gauss_profile,
                                         rademacher):
    t0 = time.monotonic()
    chi = ChiBump(center=1.0, width=0.5)
    lam, eps = 0.05, 0.5
    eta = lam ** ((2.0 - eps) / 2.0)
    total, rows, meta = dos_expansion(chi, lam, eps, 2, std_lattice,
                                      gauss_profile, rademacher, eta=eta)
    _, srows, _ = dos_expansion(chi, lam, eps, 3, std_lattice, gauss_profile,
                                rademacher, eta=eta)
    surrogate = abs(srows[3]["value"])
    est, route_diff = dos_mc(chi, lam, eta, 400, 5, std_lattice,
                             gauss_profile, rademacher, check_routes=True)
    gap = abs(total - est.mean)
    tol = 3.0 * est.std_error + surrogate
    elapsed = time.monotonic() - t0
    ok = gap <= tol and route_diff <= 1e-8 and elapsed < 900.0
    _verdict(capsys, 7, "integrated-density expansion agrees with direct "
             "sampling within 3 sigma plus the next-order scale", ok,
             f"gap {gap:.2e} <= {tol:.2e}, routes {route_diff:.1e}, "
             f"{elapsed:.1f}s")
    assert gap <= tol, (gap, tol)
    assert route_diff <= 1e-8
    assert elapsed < 900.0


def test_criterion_8_bound_grid(capsys, std_lattice, gauss_profile,
                                rademacher):
    t0 = time.monotonic()
    failures = []

    def record(rep):
        if not rep.passed:
            failures.append((rep.name, rep.lhs, rep.rhs, rep.context))

    for d in (1, 2):
        for L in (1.0, 2.0, 4.0, 8.0):
            for E, eta in product((0.5, 1.0, 2.0), (1e-3, 1e-2, 0.1, 1.0)):
                record(check_resolvent_sum_bound(E, d, L, eta,
                                                 gauss_profile))
    for d in (1, 2):
        for E, eta in product((0.5, 1.0, 2.0), (1e-3, 1e-2, 0.1, 1.0)):
            record(check_log_integral_bound(E, d, eta, gauss_profile))
    record(check_arctan_bound(gauss_profile.axis_value, -10.0, 10.0))
    record(fourier_decay_check(gauss_profile, std_lattice))
    cfg = sample_config(std_lattice, rademacher, rng_for(1, 0))
    record(trace_class_bound_check(
        cfg, 0.5, lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), 1.0,
        std_lattice, gauss_profile))
    weighted = check_weighted_resolvent_sum(1.0, 0.0, 1e-3, std_lattice)
    record(weighted)
    record(dos_eta_grid_check(1.0, std_lattice))
    elapsed = time.monotonic() - t0
    ok = not failures and weighted.lhs <= 10.0 and elapsed < 300.0
    _verdict(capsys, 8, "every closed-form bound holds across the "
             "verification grid", ok,
             f"{len(failures)} failures, weighted ratio "
             f"{weighted.lhs:.3f}, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert weighted.lhs <= 10.0
    assert elapsed < 300.0


def test_criterion_9_structural_invariants(capsys, std_lattice,
                                           gauss_profile, rademacher,
                                           psi_pair, std_model_dict, run_cli,
                                           tmp_path):
    t0 = time.monotonic()
    psi1, psi2 = psi_pair
    problems = []

    # Hermitian assembly
    for i in range(4):
        cfg = sample_config(std_lattice, rademacher, rng_for(3, i))
        H = assemble_hamiltonian(cfg, 0.7, std_lattice, gauss_profile)
        dev = float(np.max(np.abs(H - H.conj().T)))
        if dev > 1e-13:
            problems.append(("hermitian", i, dev))

    # finite-matrix resolvent expansion identity
    cfg = sample_config(std_lattice, rademacher, rng_for(11, 2))
    for n in (1, 2, 3):
        rep = neumann_identity_check(cfg, 0.5, complex(1.0, 0.3), n,
                                     std_lattice, gauss_profile, psi2)
        if rep.lhs > 1e-9:
            problems.append(("neumann", n, rep.lhs))

    # coefficient conjugation symmetry
    for n in (0, 1, 2):
        rep = conj_symmetry_check(n, std_lattice, gauss_profile, rademacher,
                                  complex(1.0, 0.3), psi1)
        if not rep.passed:
            problems.append(("conjugation", n, rep.lhs))

    # substitution map kills every block sum exactly
    for A in enumerate_partitions(4):
        from weakdis import partition_maps
        maps = partition_maps(A)
        rng = np.random.Generator(np.random.Philox(key=[17, 0]))
        v = rng.integers(-50, 50, size=(len(maps.I), 2))
        out = apply_MA(A, v)
        for block in A.blocks:
            if np.any(sum(out[l - 1] for l in block) != 0):
                problems.append(("block-sum", A.blocks, block))

    # byte-identical reruns of every batch command
    studies = {
        "expand": {"kind": "expand", "n_max": 2, "z": [[1.0, 0.3]]},
        "mc-validate": {"kind": "mc-validate", "n_keep": 2, "eta": 0.3,
                        "E": 1.0, "lambdas": [0.1, 0.05], "n_samples": 64,
                        "seed": 9, "antithetic": True,
                        "control_orders": [1, 2]},
        "dos": {"kind": "dos", "lam": 0.05, "eps": 0.5, "eta": 0.1,
                "order": 1, "chi": {"center": 1.0, "width": 0.5},
                "n_samples": 16, "seed": 5, "check_routes": True},
        "bounds": {"kind": "bounds", "E_grid": [1.0], "eta_grid": [0.1],
                   "L_grid": [2], "d_grid": [1], "seed": 1},
        "scaling": {"kind": "scaling", "n": 2, "eps": 0.5, "E": 1.0,
                    "lambdas": [0.1, 0.05, 0.025]},
        "partitions": {"kind": "partitions", "n_max": 3, "M_max": 3,
                       "bell_max": 8},
    }
    for study_name, study in studies.items():
        cfg_path = tmp_path / f"{study_name}.json"
        cfg_path.write_text(json.dumps(
            {"model": std_model_dict, "study": study,
             "output": {"per_partition": True}}))
        outs = []
        for tag, threads in (("a", "1"), ("b", "2")):
            out_dir = tmp_path / f"{study_name}-{tag}"
            proc = run_cli(study_name, cfg_path, out_dir,
                           "--threads", threads)
            if proc.returncode != 0:
                problems.append(("cli-run", study_name, proc.stderr))
                break
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out_dir.iterdir())})
        if len(outs) == 2 and outs[0] != outs[1]:
            problems.append(("cli-bytes", study_name))

    elapsed = time.monotonic() - t0
    ok = not problems
    _verdict(capsys, 9, "structural invariants hold and every command "
             "reproduces byte-identical output", ok, f"{elapsed:.1f}s")
    assert not problems, problems[:3]
