"""Batch front end: config parsing, study orchestration, file output.

One structured JSON config drives each study; unknown keys are errors.
Outputs are CSV tables (17 significant digits) and JSON reports (sorted
keys, no timestamps), so identical configs produce byte-identical files
at any thread count.

Exit codes: 0 success, 1 internal error, 2 config error, 3 budget
exceeded, 4 check failure in --check mode.
"""

import argparse
import csv
import json
import math
import os
import sys
from itertools import product

import numpy as np

from . import bounds as bnd
from . import coefficients as coeff
from . import dos as dosmod
from . import montecarlo as mc
from . import partitions as pt
from .errors import BudgetError, CheckFailure, ConfigError
from .lattice import (
    ProfileSpec,
    Wavepacket,
    build_lattice,
    fourier_decay_check,
)
from .report import BoundReport, holds

STUDIES = ("expand", "mc-validate", "dos", "bounds", "scaling", "partitions")

_MODEL_KEYS = {"d", "L", "K", "profile", "weights", "psi1", "psi2"}
_PROFILE_KEYS = {"kind", "b0", "sigma", "r"}
_WEIGHT_KEYS = {"kind", "moments"}
_PSI_KEYS = {"x0", "a", "sigma"}
_OUTPUT_KEYS = {"dir", "formats", "per_partition"}
_CHI_KEYS = {"center", "width"}
_STUDY_KEYS = {
    "expand": {"kind", "n_max", "orders", "z", "budget"},
    "mc-validate": {"kind", "n_keep", "eta", "E", "lambdas", "n_samples",
                    "seed", "antithetic", "control_orders"},
    "dos": {"kind", "lam", "eps", "eta", "order", "chi", "n_samples", "seed",
            "check_routes"},
    "bounds": {"kind", "E_grid", "eta_grid", "L_grid", "d_grid", "seed",
               "truncated_transform"},
    "scaling": {"kind", "n", "eps", "lambdas", "E"},
    "partitions": {"kind", "n_max", "M_max", "bell_max"},
}

_STOCHASTIC = {"mc-validate", "dos"}


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _require_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where, integral=False):
    """A finite config number, never parsed from a string nor truncated: a
    bool, a string, NaN, inf, or a fraction for an integer is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not math.isfinite(value)) or (
            integral and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _numbers(value, where, integral=False) -> list:
    """A config list of numbers, each checked by ``_number``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(v, where, integral) for v in value]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require_keys(cfg, {"model", "study", "output"}, "config")
    if "model" not in cfg or "study" not in cfg:
        raise ConfigError("config needs 'model' and 'study' blocks")
    _require_keys(cfg["model"], _MODEL_KEYS, "model")
    study = cfg["study"]
    kind = study.get("kind")
    if kind not in STUDIES:
        raise ConfigError(f"study.kind must be one of {STUDIES}")
    _require_keys(study, _STUDY_KEYS[kind], f"study ({kind})")
    _require_keys(cfg.get("output", {}), _OUTPUT_KEYS, "output")
    if "profile" in cfg["model"]:
        _require_keys(cfg["model"]["profile"], _PROFILE_KEYS, "model.profile")
    if "weights" in cfg["model"]:
        _require_keys(cfg["model"]["weights"], _WEIGHT_KEYS, "model.weights")
    for psi_key in ("psi1", "psi2"):
        if psi_key in cfg["model"]:
            _require_keys(cfg["model"][psi_key], _PSI_KEYS, f"model.{psi_key}")
    if kind == "dos" and "chi" in study:
        _require_keys(study["chi"], _CHI_KEYS, "study.chi")
    if kind in _STOCHASTIC and study.get("seed") is None:
        raise ConfigError(f"study '{kind}' is stochastic: seed is mandatory")
    return cfg


def _build_profile(spec: dict) -> ProfileSpec:
    kind = spec.get("kind", "gaussian")
    b0 = _number(spec.get("b0", 1.0), "model.profile.b0")
    if kind == "gaussian":
        return ProfileSpec(kind="gaussian", b0=b0, sigma=_number(
            spec.get("sigma", 1.0), "model.profile.sigma"))
    if kind == "cosine-bump":
        if "r" not in spec:
            raise ConfigError("cosine-bump profile needs a radius r")
        return ProfileSpec(kind="cosine-bump", b0=b0,
                           r=_number(spec["r"], "model.profile.r"))
    raise ConfigError(f"unknown profile kind {kind!r}")


def _build_weights(spec: dict) -> pt.WeightDistribution:
    kind = spec.get("kind", "rademacher")
    if kind == "explicit-moments":
        moments = spec.get("moments")
        if not moments:
            raise ConfigError("explicit-moments weight law needs a moments list")
        return pt.WeightDistribution(kind=kind,
                                     moments=tuple(float(m) for m in moments))
    return pt.WeightDistribution(kind=kind)


def _build_psi(spec: dict, d: int, where: str) -> Wavepacket:
    x0 = tuple(_numbers(spec.get("x0", [0.0] * d), f"{where}.x0"))
    a = tuple(_numbers(spec.get("a", [0.0] * d), f"{where}.a"))
    return Wavepacket(x0=x0, a=a,
                      sigma=_number(spec.get("sigma", 1.0), f"{where}.sigma"))


def build_model(model: dict):
    d = _number(model.get("d", 1), "model.d", True)
    L = _number(model.get("L", 2.0), "model.L")
    K = _number(model.get("K", 8), "model.K", True)
    lattice = build_lattice(d, L, K)
    profile = _build_profile(model.get("profile", {}))
    dist = _build_weights(model.get("weights", {}))
    psi1 = _build_psi(model.get("psi1", {}), d, "model.psi1")
    psi2 = _build_psi(model.get("psi2", {}), d, "model.psi2")
    if psi1.d != d or psi2.d != d:
        raise ConfigError("wavepacket dimension does not match the model")
    return lattice, profile, dist, psi1, psi2


def _model_meta(lattice, profile, dist) -> dict:
    """The built model's parameters, as the result files record them."""
    return {
        "d": lattice.d,
        "L": lattice.L,
        "K": lattice.K,
        "profile_kind": profile.kind,
        "profile_b0": profile.b0,
        "profile_param": (profile.sigma if profile.kind == "gaussian"
                          else profile.r),
        "weights": dist.kind,
    }


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, obj):
    # strict JSON: a NaN or an infinity raises here instead of being written
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def _meta_cols(meta: dict):
    keys = sorted(meta)
    return keys, [str(meta[k]) if isinstance(meta[k], str) else _fmt(meta[k])
                  if isinstance(meta[k], float) else str(meta[k])
                  for k in keys]


# ---------------------------------------------------------------------------
# studies


def cmd_expand(cfg, out_dir, threads, check):
    lattice, profile, dist, psi1, psi2 = build_model(cfg["model"])
    study = cfg["study"]
    if "orders" in study:
        orders = _numbers(study["orders"], "study.orders", True)
    else:
        orders = list(range(_number(study.get("n_max", 2), "study.n_max", True) + 1))
    if not orders or min(orders) < 0:
        raise ConfigError("expand needs at least one order, and no negative one")
    pairs = study.get("z", [[1.0, 0.3]])
    if not isinstance(pairs, list) or any(len(_numbers(p, "study.z")) != 2
                                          for p in pairs):
        raise ConfigError("study.z must be a list of [Re z, Im z] pairs")
    zs = [complex(*p) for p in pairs]
    budget = _number(study.get("budget", coeff.DEFAULT_TERM_BUDGET),
                     "study.budget", True)
    per_partition = bool(cfg.get("output", {}).get("per_partition", False))

    meta = _model_meta(lattice, profile, dist)
    mkeys, mvals = _meta_cols(meta)
    rows = []
    part_rows = []
    for z in zs:
        for n in orders:
            res = coeff.coefficient_T(n, lattice, profile, dist, z, psi1,
                                      psi2, per_partition=per_partition,
                                      budget=budget)
            tail = coeff.truncation_tail_bound(n, lattice, profile, dist, z,
                                               psi1, psi2)
            rows.append([str(n), _fmt(z.real), _fmt(z.imag),
                         _fmt(res.value.real), _fmt(res.value.imag),
                         str(res.partition_count), _fmt(tail)] + mvals)
            if per_partition:
                for blocks, val in res.per_partition.items():
                    label = "|".join("".join(str(x) for x in b)
                                     for b in blocks) or "-"
                    part_rows.append([str(n), _fmt(z.real), _fmt(z.imag),
                                      label, _fmt(val.real), _fmt(val.imag)])
    header = ["n", "Re(z)", "Im(z)", "Re(T)", "Im(T)", "partition_count",
              "tail_bound"] + mkeys
    _write_csv(os.path.join(out_dir, "expand.csv"), header, rows)
    if per_partition:
        _write_csv(os.path.join(out_dir, "expand_partitions.csv"),
                   ["n", "Re(z)", "Im(z)", "blocks", "Re(C)", "Im(C)"],
                   part_rows)
    _write_json(os.path.join(out_dir, "expand.json"),
                {"rows": len(rows), "orders": orders, "model": meta})
    return 0


def _fit_loglog(lams, values, sigmas):
    """OLS (slope, intercept, slope standard error) of log(values) vs
    log(lams); all three are None when the fit is undefined (fewer than two
    distinct lambdas, or a value that is not positive and finite)."""
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if not (sxx > 0.0 and np.all(np.isfinite(y))):
        return None, None, None
    coefs = (x - xbar) / sxx
    slope = float(np.sum(coefs * y))
    intercept = float(y.mean() - slope * xbar)
    var = 0.0
    for c, s, v in zip(coefs, sigmas, values):
        var += (c * (s / v)) ** 2 if v > 0 else 0.0
    return slope, intercept, math.sqrt(var)


def cmd_mc_validate(cfg, out_dir, threads, check):
    lattice, profile, dist, psi1, psi2 = build_model(cfg["model"])
    study = cfg["study"]
    n_keep = _number(study.get("n_keep", 2), "study.n_keep", True)
    eta = _number(study.get("eta", 0.3), "study.eta")
    E = _number(study.get("E", 1.0), "study.E")
    lams = _numbers(study.get("lambdas", [0.1, 0.05, 0.025]), "study.lambdas")
    n_samples = _number(study.get("n_samples", 20000), "study.n_samples", True)
    seed = _number(study["seed"], "study.seed", True)
    antithetic = bool(study.get("antithetic", True))
    control_orders = _numbers(study.get("control_orders", [1, 2, 3]),
                              "study.control_orders", True)
    z = complex(E, eta)

    max_order = max([n_keep] + control_orders)
    T = {}
    for j in range(max_order + 1):
        T[j] = coeff.coefficient_T(j, lattice, profile, dist, z, psi1,
                                   psi2).value
    controls = {j: T[j] for j in control_orders}

    meta = _model_meta(lattice, profile, dist)
    mkeys, mvals = _meta_cols(meta)
    rows = []
    report_rows = []
    residuals = []
    sigmas = []
    all_bounded = True
    ests = mc.estimate_expectation(
        n_samples, lams, z, psi1, psi2, seed, lattice, profile, dist,
        threads=threads, antithetic=antithetic, control_values=controls)
    for lam, est in zip(lams, ests):
        partial = sum((-lam) ** j * T[j] for j in range(n_keep + 1))
        residual = abs(est.mean - partial)
        rhs = bnd.main_error_bound_rhs(n_keep, lattice.d, E, eta, lam,
                                       profile, dist, psi1, psi2)
        ok = holds(residual, rhs + 3.0 * est.std_error)
        all_bounded = all_bounded and ok
        residuals.append(residual)
        sigmas.append(est.std_error)
        rows.append([_fmt(lam), _fmt(est.mean.real), _fmt(est.mean.imag),
                     _fmt(partial.real), _fmt(partial.imag), _fmt(residual),
                     _fmt(est.std_error), _fmt(rhs), str(ok),
                     str(n_samples), str(seed)] + mvals)
        report_rows.append({"lambda": lam, "residual": residual,
                            "std_error": est.std_error, "rhs": rhs,
                            "bounded": ok})

    slope, intercept, slope_se = _fit_loglog(lams, residuals, sigmas)
    expected = n_keep + 2  # next order with a nonvanishing moment weight
    header = ["lambda", "Re(E_MC)", "Im(E_MC)", "Re(partial)", "Im(partial)",
              "residual", "std_error", "rhs_bound", "bounded", "n_samples",
              "seed"] + mkeys
    _write_csv(os.path.join(out_dir, "mc_validate.csv"), header, rows)
    report = {
        "slope": slope,
        "slope_se": slope_se,
        "slope_ci95": None if slope_se is None else 1.96 * slope_se,
        "expected_slope": expected,
        "intercept": intercept,
        "n_keep": n_keep,
        "eta": eta,
        "rows": report_rows,
        "model": meta,
        "all_bounded": all_bounded,
    }
    _write_json(os.path.join(out_dir, "mc_validate.json"), report)
    if check:
        if not holds(None if slope is None else abs(slope - expected), 0.5):
            shown = ("undefined" if slope is None
                     else f"{slope:.3f} (fit s.e. {slope_se:.3g})")
            raise CheckFailure(
                f"residual scaling slope {shown} outside {expected} +- 0.5")
        if not all_bounded:
            raise CheckFailure("a residual exceeded the bound + 3 sigma")
    return 0


def cmd_dos(cfg, out_dir, threads, check):
    lattice, profile, dist, _, _ = build_model(cfg["model"])
    study = cfg["study"]
    lam = _number(study.get("lam", 0.05), "study.lam")
    eps = _number(study.get("eps", 0.5), "study.eps")
    eta = study.get("eta")
    eta = _number(eta, "study.eta") if eta is not None else None
    order = _number(study.get("order", 2), "study.order", True)
    if order < 0:
        raise ConfigError("order must be nonnegative")
    chi_spec = study.get("chi", {})
    chi = dosmod.ChiBump(
        center=_number(chi_spec.get("center", 1.0), "study.chi.center"),
        width=_number(chi_spec.get("width", 0.5), "study.chi.width"))
    n_samples = _number(study.get("n_samples", 400), "study.n_samples", True)
    seed = _number(study["seed"], "study.seed", True)
    check_routes = bool(study.get("check_routes", True))

    # one integration up to the order beyond the kept sum: that order's row
    # is the empirical remainder scale (absent past the dimension cap)
    _, all_rows, meta_exp = dosmod.dos_expansion(
        chi, lam, eps, order + 1, lattice, profile, dist, eta=eta)
    eta_used = meta_exp["eta"]
    rows = all_rows[:order + 1]
    total = math.fsum(row["value"] for row in rows)
    surrogate = (abs(all_rows[order + 1]["value"])
                 if len(all_rows) > order + 1 else 0.0)

    mc_out = dosmod.dos_mc(chi, lam, eta_used, n_samples, seed, lattice,
                           profile, dist, threads=threads,
                           check_routes=check_routes)
    route_diff = 0.0
    if check_routes:
        est, route_diff = mc_out
    else:
        est = mc_out

    gap = abs(total - est.mean)
    tol = 3.0 * est.std_error + surrogate
    agree = holds(gap, tol)

    meta = _model_meta(lattice, profile, dist)
    mkeys, mvals = _meta_cols(meta)
    csv_rows = []
    for row in rows:
        csv_rows.append([str(row["n"]), str(row["E"]), _fmt(row["eta"]),
                         _fmt(row["value"]), _fmt(row["tail_bound"])] + mvals)
    _write_csv(os.path.join(out_dir, "dos.csv"),
               ["n", "E", "eta", "value", "tail_bound"] + mkeys, csv_rows)
    report = {
        "expansion_total": total,
        "mc_mean": est.mean,
        "mc_std_error": est.std_error,
        "n_samples": n_samples,
        "seed": seed,
        "gap": gap,
        "tolerance": tol,
        "remainder_scale": surrogate,
        "agreement": agree,
        "route_max_diff": route_diff,
        "eta": eta_used,
        "order_cap": meta_exp["order_cap"],
        "capped": order > meta_exp["order_cap"],
        "model": meta,
    }
    _write_json(os.path.join(out_dir, "dos.json"), report)
    if check:
        if not agree:
            raise CheckFailure(
                f"expansion-vs-MC gap {gap:.3e} over tolerance {tol:.3e}")
        if check_routes and not holds(route_diff, 1e-8):
            raise CheckFailure(f"trace route difference {route_diff:.3e}")
    return 0


def _bound_rows(cfg):
    """Every BoundReport of the bounds study, in output order."""
    lattice, profile, dist, _, _ = build_model(cfg["model"])
    study = cfg["study"]
    E_grid = _numbers(study.get("E_grid", [0.5, 1.0, 2.0]), "study.E_grid")
    eta_grid = _numbers(study.get("eta_grid", [1e-3, 1e-2, 0.1, 1.0]),
                        "study.eta_grid")
    L_grid = _numbers(study.get("L_grid", [1, 2, 4, 8]), "study.L_grid")
    d_grid = _numbers(study.get("d_grid", [1, 2]), "study.d_grid", True)
    seed = _number(study.get("seed", 1), "study.seed", True)

    spot = abs(bnd.const_C1(1.0, 1) - 4.0 * math.sqrt(2.0))
    reports = [BoundReport(name="const_C1_spot", lhs=spot, rhs=1e-12),
               fourier_decay_check(profile, lattice)]

    truncated = bool(study.get("truncated_transform", False))
    for d in d_grid:
        for L in L_grid:
            for E, eta in product(E_grid, eta_grid):
                reports.append(bnd.check_resolvent_sum_bound(
                    E, d, L, eta, profile, truncated=truncated))
    log_ds = [d for d in d_grid if profile.kind == "gaussian" or d == 1]
    for d in log_ds:
        for E, eta in product(E_grid, eta_grid):
            reports.append(bnd.check_log_integral_bound(E, d, eta, profile))

    # the axis factor peaks at 0; the bump's has kinks at +-r
    points = (0.0,) if profile.kind == "gaussian" else (
        -profile.r, 0.0, profile.r)
    reports.append(bnd.check_arctan_bound(profile.axis_value, -10.0, 10.0,
                                          points))

    cfg_sample = mc.sample_config(lattice, dist, mc.rng_for(seed, 0))
    reports.append(dosmod.trace_class_bound_check(
        cfg_sample, 0.5, lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), 1.0,
        lattice, profile))

    reports.append(bnd.check_weighted_resolvent_sum(1.0, 0.0, 1e-3, lattice))
    reports.append(dosmod.dos_eta_grid_check(1.0, lattice))
    return reports


def cmd_bounds(cfg, out_dir, threads, check):
    rows = []
    failures = []
    for rep in _bound_rows(cfg):
        rows.append([rep.name, _fmt(rep.lhs), _fmt(rep.rhs), _fmt(rep.margin),
                     str(rep.passed), rep.notes,
                     json.dumps(rep.context, sort_keys=True, default=str)])
        if not rep.passed:
            failures.append(rep)
    _write_csv(os.path.join(out_dir, "bounds.csv"),
               ["name", "lhs", "rhs", "margin", "passed", "notes",
                "context"], rows)
    _write_json(os.path.join(out_dir, "bounds.json"),
                {"checks": len(rows), "failures": [f.name for f in failures]})
    if check and failures:
        rep = failures[0]
        raise CheckFailure(
            f"bound check {rep.name} failed: lhs={rep.lhs:.6g} "
            f"rhs={rep.rhs:.6g} at {rep.context}")
    return 0


def cmd_scaling(cfg, out_dir, threads, check):
    lattice, profile, dist, psi1, psi2 = build_model(cfg["model"])
    study = cfg["study"]
    n = _number(study.get("n", 2), "study.n", True)
    eps = _number(study.get("eps", 0.5), "study.eps")
    E = _number(study.get("E", 1.0), "study.E")
    lams = _numbers(study.get("lambdas", list(np.geomspace(1e-3, 1e-1, 9))),
                    "study.lambdas")

    rows = []
    xs = []
    ys = []
    for lam in lams:
        eta = lam ** (2.0 - eps)
        rhs = bnd.main_error_bound_rhs(n, lattice.d, E, eta, lam, profile,
                                       dist, psi1, psi2)
        divided = rhs / (1.0 + math.log(1.0 / eta + 1.0)) ** n
        xs.append(math.log(lam))
        ys.append(math.log(divided))
        rows.append([_fmt(lam), _fmt(eta), _fmt(rhs), _fmt(divided)])
    slope = float(np.polyfit(xs, ys, 1)[0])
    expected = bnd.scaling_exponent(n, eps)
    within = expected != 0 and holds(abs(slope / expected - 1.0), 0.05)
    _write_csv(os.path.join(out_dir, "scaling.csv"),
               ["lambda", "eta", "rhs", "rhs_div_log"], rows)
    _write_json(os.path.join(out_dir, "scaling.json"),
                {"slope": slope, "expected": expected,
                 "within_5pct": within, "n": n, "eps": eps})
    if check and not within:
        raise CheckFailure(
            f"scaling slope {slope:.4f} deviates from {expected:.4f}")
    return 0


def cmd_partitions(cfg, out_dir, threads, check):
    study = cfg["study"]
    n_max = _number(study.get("n_max", 4), "study.n_max", True)
    M_max = _number(study.get("M_max", 5), "study.M_max", True)
    bell_max = _number(study.get("bell_max", 10), "study.bell_max", True)
    _, _, dist, _, _ = build_model(cfg["model"])

    rows = []
    ok_all = True
    for n in range(1, n_max + 1):
        parts = list(pt.enumerate_partitions(n))
        for M in range(1, M_max + 1):
            unity_ok = True
            for gamma in product(range(M), repeat=n):
                total = sum(pt.chi_tilde(A, gamma) for A in parts)
                if total != 1:
                    unity_ok = False
                    break
            rows.append(["partition_of_unity", str(n), str(M), str(unity_ok)])
            count_ok = all(pt.permutation_count_check(A, M).passed
                           for A in parts)
            rows.append(["counting_identity", str(n), str(M), str(count_ok)])
            ok_all = ok_all and unity_ok and count_ok
    for n in range(1, bell_max + 1):
        enum = sum(1 for _ in pt.growth_strings(n))
        match = enum == pt.bell_number(n)
        rows.append(["bell_count", str(n), "", str(match)])
        ok_all = ok_all and match
    for k in range(1, 2 * n_max + 1):
        rows.append(["moment", str(k), "", _fmt(dist.moment(k))])
    _write_csv(os.path.join(out_dir, "partitions.csv"),
               ["check", "n", "M", "result"], rows)
    _write_json(os.path.join(out_dir, "partitions.json"),
                {"all_exact": ok_all, "n_max": n_max, "M_max": M_max,
                 "bell_max": bell_max})
    if check and not ok_all:
        raise CheckFailure("a combinatorial identity failed")
    return 0


_COMMANDS = {
    "expand": cmd_expand,
    "mc-validate": cmd_mc_validate,
    "dos": cmd_dos,
    "bounds": cmd_bounds,
    "scaling": cmd_scaling,
    "partitions": cmd_partitions,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="engine",
        description="expansion/Monte-Carlo studies for the disordered "
                    "lattice model")
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 4) when acceptance conditions "
                             "do not hold")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the study seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg["study"]["kind"] != args.study:
            raise ConfigError(
                f"config study.kind {cfg['study']['kind']!r} does not match "
                f"command {args.study!r}")
        if args.seed is not None:
            cfg["study"]["seed"] = args.seed
        threads = args.threads
        if threads is None:
            threads = int(os.environ.get("ENGINE_THREADS", "1"))
        if threads < 1:
            raise ConfigError("thread count must be at least 1")
        out_dir = args.out or cfg.get("output", {}).get("dir", "out")
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.study](cfg, out_dir, threads, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
