"""Batch front end: config parsing, study orchestration, file output.

One structured JSON config drives each study.  It is checked once, when
loaded, against one schema (``_CONFIG``: every block's keys with their
types, ranges and defaults); unknown keys, ill-typed values and values
out of range are errors.  A study returns its files and the first
acceptance condition that failed; ``main`` writes the files and, under
--check, turns that failure into exit 4.  Outputs are CSV tables (17
significant digits) and JSON reports (sorted keys, no timestamps), so
identical configs produce byte-identical files at any thread count.

Exit codes: 0 success, 1 internal error, 2 config error, 3 budget
exceeded, 4 check failure in --check mode.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from itertools import accumulate, product

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

MAX_LABEL_TUPLES = 10_000_000  # the partitions study's loops, ~3 us each


def _number(value, where, integral=False, within=(-math.inf, math.inf)):
    """A finite config number inside the open interval within, never parsed
    from a string nor truncated: a bool, a string, NaN, inf, a fraction for
    an integer or a number outside within is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not math.isfinite(value)) or (
            integral and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    if not within[0] < value < within[1]:
        raise ConfigError(f"{where} must lie in ({within[0]:g}, "
                          f"{within[1]:g}), got {value!r}")
    return int(value) if integral else float(value)


def _numbers(value, where, **kind) -> list:
    """A config list of numbers, each checked by ``_number``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(v, where, **kind) for v in value]


def _rule(check, ok, what):
    """The checker check, with a checked value for which ok is false a
    ConfigError: the value must be what."""
    def checked(value, where):
        value = check(value, where)
        if not ok(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value
    return checked


_int = functools.partial(_number, integral=True)
_ints = functools.partial(_numbers, integral=True)
_count = functools.partial(_int, within=(-1, math.inf))  # >= 0
_positive = functools.partial(_number, within=(0, math.inf))
_positives = functools.partial(_numbers, within=(0, math.inf))
_nonempty = functools.partial(_rule, ok=bool, what="non-empty")


def _pairs(value, where):
    """A config list of [Re z, Im z] pairs, each checked by ``_numbers``."""
    if not isinstance(value, list) or any(len(_numbers(p, where)) != 2
                                          for p in value):
        raise ConfigError(f"{where} must be a list of [Re z, Im z] pairs")
    return [_numbers(p, where) for p in value]


# defaults that are not values: a _REQUIRED key must be given, an _ABSENT
# one stays out of the block when it is not
_REQUIRED = object()
_ABSENT = object()


def _typed(block, schema, where):
    """block checked against schema (key -> (type, default)) and returned
    with its defaults filled.  A type is a nested schema, a Python type the
    JSON value must have (bool, str), or a checker (value, name) -> value.
    Unknown keys, a missing required key and a value of the wrong type are
    ConfigErrors; a typed block types to itself."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping, got {block!r}")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key, (check, default) in schema.items():
        name = f"{where}.{key}".removeprefix("config.")
        value = block.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{name} is required")
        if value is _ABSENT:
            continue
        if isinstance(check, dict):
            value = _typed(value, check, name)
        elif not isinstance(check, type):
            value = check(value, name)
        elif not isinstance(value, check):
            raise ConfigError(
                f"{name} must be a {check.__name__}, got {value!r}")
        out[key] = value
    return out


# the config format: every block's keys, with their types and defaults
_PSI = {"x0": (_numbers, _ABSENT), "a": (_numbers, _ABSENT),  # absent: 0
        "sigma": (_number, 1.0)}
_MODEL = {
    "d": (_int, 1), "L": (_number, 2.0), "K": (_int, 8),
    "profile": ({"kind": (str, "gaussian"), "b0": (_number, 1.0),
                 "sigma": (_number, 1.0), "r": (_number, _ABSENT)}, {}),
    "weights": ({"kind": (str, "rademacher"),
                 "moments": (_numbers, _ABSENT)}, {}),
    "psi1": (_PSI, {}), "psi2": (_PSI, {}),
}
_samples = functools.partial(_int, within=(1, math.inf))  # >= 2
_ground_set = functools.partial(  # <= MAX_GROUND_SET
    _int, within=(-math.inf, pt.MAX_GROUND_SET + 1))
_STUDY = {
    "expand": {"n_max": (_count, 2),  # orders absent: 0..n_max
               "orders": (_nonempty(functools.partial(
                   _ints, within=(-1, math.inf))), _ABSENT),
               "z": (_nonempty(_pairs), [[1.0, 0.3]]),
               "budget": (_int, coeff.DEFAULT_TERM_BUDGET)},
    "mc-validate": {
        "n_keep": (_count, 2), "eta": (_positive, 0.3), "E": (_positive, 1.0),
        "lambdas": (_nonempty(_numbers), [0.1, 0.05, 0.025]),
        "n_samples": (_samples, 20000), "seed": (_int, _REQUIRED),
        "antithetic": (bool, True),
        "control_orders": (functools.partial(_ints, within=(0, 5)),
                           [1, 2, 3])},
    "dos": {
        "lam": (_rule(_number, lambda v: v >= 0, ">= 0"), 0.05),
        "eps": (_number, 0.5),
        "eta": (lambda v, where: v if v is None else _number(v, where),
                None),  # null: lam^(2 - eps)
        "order": (_count, 2),
        "chi": ({"center": (_number, 1.0), "width": (_number, 0.5)}, {}),
        "n_samples": (_samples, 400), "seed": (_int, _REQUIRED),
        "check_routes": (bool, True)},
    "bounds": {
        "E_grid": (_positives, [0.5, 1.0, 2.0]),
        "eta_grid": (_positives, [1e-3, 1e-2, 0.1, 1.0]),
        "L_grid": (_positives, [1, 2, 4, 8]),
        "d_grid": (functools.partial(_ints, within=(0, 4)), [1, 2]),
        "seed": (_int, 1), "truncated_transform": (bool, False)},
    "scaling": {"n": (_count, 2), "E": (_positive, 1.0),
                "eps": (functools.partial(_number, within=(0, 2)), 0.5),
                "lambdas": (_positives, list(np.geomspace(1e-3, 1e-1, 9)))},
    "partitions": {"n_max": (_ground_set, 4), "M_max": (_int, 5),
                   "bell_max": (_ground_set, 10)},
}
STUDIES = tuple(_STUDY)


def _study(block, where):
    """A study block, typed by the schema of its kind."""
    kind = block.get("kind") if isinstance(block, dict) else None
    if kind not in STUDIES:
        raise ConfigError(f"{where}.kind must be one of {STUDIES}")
    return _typed(block, {"kind": (str, _REQUIRED), **_STUDY[kind]}, where)


_CONFIG = {
    "model": (_MODEL, _REQUIRED), "study": (_study, _REQUIRED),
    "output": ({"dir": (str, "out"), "per_partition": (bool, False)}, {}),
}


def load_config(path: str, seed=None) -> dict:
    """The config at path, typed by the schema.  seed, when given, is the
    study's seed; a study without a seed key rejects it as unknown."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if seed is not None and isinstance(cfg, dict) and isinstance(
            cfg.get("study"), dict):
        cfg["study"]["seed"] = seed
    return _typed(cfg, _CONFIG, "config")


def build_model(model: dict):
    model = _typed(model, _MODEL, "model")
    d = model["d"]
    lattice = build_lattice(d, model["L"], model["K"])
    origin = {"x0": [0.0] * d, "a": [0.0] * d}
    psi1, psi2 = (Wavepacket(**dict(origin, **model[key]))
                  for key in ("psi1", "psi2"))
    if psi1.d != d or psi2.d != d:
        raise ConfigError("wavepacket dimension does not match the model")
    return (lattice, ProfileSpec(**model["profile"]),
            pt.WeightDistribution(**model["weights"]), psi1, psi2)


def _model_meta(lattice, profile, dist) -> dict:
    """The built model's parameters, as the result files record them."""
    return {"d": lattice.d, "L": lattice.L, "K": lattice.K,
            "profile_kind": profile.kind, "profile_b0": profile.b0,
            "profile_param": (profile.sigma if profile.kind == "gaussian"
                              else profile.r),
            "weights": dist.kind}


def _with_model(rows, meta):
    """CSV rows (header first) with the model's columns appended, in
    sorted key order."""
    keys = sorted(meta)
    return [rows[0] + keys] + [row + [meta[k] for k in keys]
                               for row in rows[1:]]


def _first_failure(*checks):
    """The message of the first (holds, message) check that fails, or
    None."""
    return next((message for ok, message in checks if not ok), None)


def _write(path: str, content):
    """One study file: CSV rows (header first; a float cell written with 17
    significant digits, any other cell by ``str``) or a strict JSON dict
    (sorted keys; a NaN or an infinity raises here instead of being
    written)."""
    if isinstance(content, dict):
        text = json.dumps(content, sort_keys=True, indent=1,
                          allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            ["%.17g" % v if isinstance(v, float) else str(v) for v in row]
            for row in content)
        text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# studies: each returns ({file name: CSV rows or JSON dict}, the message of
# the first failed acceptance condition or None)


def cmd_expand(cfg, threads, check):
    lattice, profile, dist, psi1, psi2 = build_model(cfg["model"])
    study = cfg["study"]
    orders = study.get("orders", list(range(study["n_max"] + 1)))
    per_partition = cfg["output"]["per_partition"]

    rows = [["n", "Re(z)", "Im(z)", "Re(T)", "Im(T)", "partition_count",
             "tail_bound"]]
    part_rows = [["n", "Re(z)", "Im(z)", "blocks", "Re(C)", "Im(C)"]]
    for z in (complex(*p) for p in study["z"]):
        for n in orders:
            res = coeff.coefficient_T(n, lattice, profile, dist, z, psi1,
                                      psi2, per_partition=per_partition,
                                      budget=study["budget"])
            tail = coeff.truncation_tail_bound(n, lattice, profile, dist, z,
                                               psi1, psi2)
            rows.append([n, z.real, z.imag, res.value.real, res.value.imag,
                         res.partition_count, tail])
            for blocks, val in (res.per_partition or {}).items():
                label = "|".join("".join(map(str, b)) for b in blocks) or "-"
                part_rows.append([n, z.real, z.imag, label, val.real,
                                  val.imag])
    meta = _model_meta(lattice, profile, dist)
    files = {"expand.csv": _with_model(rows, meta)}
    if per_partition:
        files["expand_partitions.csv"] = part_rows
    files["expand.json"] = {"rows": len(rows) - 1, "orders": orders,
                            "model": meta}
    return files, None


def _fit_loglog(lams, values, sigmas):
    """OLS (slope, intercept, slope standard error) of log(values) vs
    log(lams); all three are None when the fit is undefined (fewer than two
    distinct lambdas, or a value that is not positive and finite)."""
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xbar = x.mean() if x.size else 0.0
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


def cmd_mc_validate(cfg, threads, check):
    lattice, profile, dist, psi1, psi2 = build_model(cfg["model"])
    study = cfg["study"]
    n_keep, eta, E = study["n_keep"], study["eta"], study["E"]
    lams, n_samples, seed = study["lambdas"], study["n_samples"], study["seed"]
    control_orders = study["control_orders"]
    if check and len({lam for lam in lams if lam > 0}) < 2:
        raise ConfigError("--check needs two distinct positive lambdas")
    z = complex(E, eta)

    T = [coeff.coefficient_T(j, lattice, profile, dist, z, psi1, psi2).value
         for j in range(max([n_keep] + control_orders) + 1)]
    ests = mc.estimate_expectation(
        n_samples, lams, z, psi1, psi2, seed, lattice, profile, dist,
        threads=threads, antithetic=study["antithetic"],
        control_values={j: T[j] for j in control_orders})
    rows = [["lambda", "Re(E_MC)", "Im(E_MC)", "Re(partial)", "Im(partial)",
             "residual", "std_error", "rhs_bound", "bounded", "n_samples",
             "seed"]]
    report_rows = []
    for lam, est in zip(lams, ests):
        partial = sum((-lam) ** j * T[j] for j in range(n_keep + 1))
        residual = abs(est.mean - partial)
        rhs = bnd.main_error_bound_rhs(n_keep, lattice.d, E, eta, lam,
                                       profile, dist, psi1, psi2)
        ok = holds(residual, rhs + 3.0 * est.std_error)
        rows.append([lam, est.mean.real, est.mean.imag, partial.real,
                     partial.imag, residual, est.std_error, rhs, ok,
                     n_samples, seed])
        report_rows.append({"lambda": lam, "residual": residual,
                            "std_error": est.std_error, "rhs": rhs,
                            "bounded": ok})

    slope, intercept, slope_se = _fit_loglog(
        lams, [r["residual"] for r in report_rows],
        [r["std_error"] for r in report_rows])
    expected = n_keep + 2  # next order with a nonvanishing moment weight
    all_bounded = all(r["bounded"] for r in report_rows)
    meta = _model_meta(lattice, profile, dist)
    report = {"slope": slope, "slope_se": slope_se,
              "slope_ci95": None if slope_se is None else 1.96 * slope_se,
              "expected_slope": expected, "intercept": intercept,
              "n_keep": n_keep, "eta": eta, "rows": report_rows,
              "model": meta, "all_bounded": all_bounded}
    shown = ("undefined" if slope is None
             else f"{slope:.3f} (fit s.e. {slope_se:.3g})")
    return ({"mc_validate.csv": _with_model(rows, meta),
             "mc_validate.json": report},
            _first_failure(
                (holds(None if slope is None else abs(slope - expected), 0.5),
                 f"residual scaling slope {shown} outside {expected} +- 0.5"),
                (all_bounded, "a residual exceeded the bound + 3 sigma")))


def cmd_dos(cfg, threads, check):
    lattice, profile, dist, _, _ = build_model(cfg["model"])
    study = cfg["study"]
    lam, eps, order = study["lam"], study["eps"], study["order"]
    chi = dosmod.ChiBump(**study["chi"])
    n_samples, seed = study["n_samples"], study["seed"]
    check_routes = study["check_routes"]

    # one integration up to the order beyond the kept sum: that order's row
    # is the empirical remainder scale (absent past the dimension cap)
    _, all_rows, meta_exp = dosmod.dos_expansion(
        chi, lam, eps, order + 1, lattice, profile, dist, eta=study["eta"])
    eta_used = meta_exp["eta"]
    rows = all_rows[:order + 1]
    total = math.fsum(row["value"] for row in rows)
    surrogate = (abs(all_rows[order + 1]["value"])
                 if len(all_rows) > order + 1 else 0.0)

    mc_out = dosmod.dos_mc(chi, lam, eta_used, n_samples, seed, lattice,
                           profile, dist, threads=threads,
                           check_routes=check_routes)
    est, route_diff = mc_out if check_routes else (mc_out, 0.0)

    gap = abs(total - est.mean)
    tol = 3.0 * est.std_error + surrogate
    agree = holds(gap, tol)

    meta = _model_meta(lattice, profile, dist)
    cols = ["n", "E", "eta", "value", "tail_bound"]
    table = [cols] + [[row[c] for c in cols] for row in rows]
    report = {"expansion_total": total, "mc_mean": est.mean,
              "mc_std_error": est.std_error, "n_samples": n_samples,
              "seed": seed, "gap": gap, "tolerance": tol,
              "remainder_scale": surrogate, "agreement": agree,
              "route_max_diff": route_diff, "eta": eta_used,
              "order_cap": meta_exp["order_cap"],
              "capped": order > meta_exp["order_cap"], "model": meta}
    return ({"dos.csv": _with_model(table, meta), "dos.json": report},
            _first_failure(
                (agree, f"expansion-vs-MC gap {gap:.3e} over tolerance "
                        f"{tol:.3e}"),
                (not check_routes or holds(route_diff, 1e-8),
                 f"trace route difference {route_diff:.3e}")))


def _bound_rows(cfg):
    """Every BoundReport of the bounds study, in output order."""
    lattice, profile, dist, _, _ = build_model(cfg["model"])
    study = _study(cfg["study"], "study")
    E_grid, eta_grid = study["E_grid"], study["eta_grid"]

    spot = abs(bnd.const_C1(1.0, 1) - 4.0 * math.sqrt(2.0))
    reports = [BoundReport(name="const_C1_spot", lhs=spot, rhs=1e-12),
               fourier_decay_check(profile, lattice)]

    for d, L, E, eta in product(study["d_grid"], study["L_grid"], E_grid,
                                eta_grid):
        reports.append(bnd.check_resolvent_sum_bound(
            E, d, L, eta, profile, truncated=study["truncated_transform"]))
    for d, E, eta in product(study["d_grid"], E_grid, eta_grid):
        if profile.kind == "gaussian" or d == 1:
            reports.append(bnd.check_log_integral_bound(E, d, eta, profile))

    # the axis factor peaks at 0; the bump's has kinks at +-r
    points = (0.0,) if profile.kind == "gaussian" else (
        -profile.r, 0.0, profile.r)
    reports.append(bnd.check_arctan_bound(profile.axis_value, -10.0, 10.0,
                                          points))

    cfg_sample = mc.sample_config(lattice, dist,
                                  mc.rng_for(study["seed"], 0))
    reports.append(dosmod.trace_class_bound_check(
        cfg_sample, 0.5, lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), 1.0,
        lattice, profile))

    reports.append(bnd.check_weighted_resolvent_sum(1.0, 0.0, 1e-3, lattice))
    reports.append(dosmod.dos_eta_grid_check(1.0, lattice))
    return reports


def cmd_bounds(cfg, threads, check):
    reports = _bound_rows(cfg)
    rows = [["name", "lhs", "rhs", "margin", "passed", "notes", "context"]]
    rows += [[rep.name, rep.lhs, rep.rhs, rep.margin, rep.passed, rep.notes,
              json.dumps(rep.context, sort_keys=True, default=str)]
             for rep in reports]
    return ({"bounds.csv": rows,
             "bounds.json": {"checks": len(reports), "failures": [
                 rep.name for rep in reports if not rep.passed]}},
            _first_failure(*((rep.passed, f"bound check {rep.name} failed: "
                              f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} at "
                              f"{rep.context}") for rep in reports)))


def cmd_scaling(cfg, threads, check):
    lattice, profile, dist, psi1, psi2 = build_model(cfg["model"])
    study = cfg["study"]
    n, eps, E, lams = study["n"], study["eps"], study["E"], study["lambdas"]
    if check and len(set(lams)) < 2:
        raise ConfigError("--check needs two distinct lambdas")

    rows = [["lambda", "eta", "rhs", "rhs_div_log"]]
    for lam in lams:
        eta = lam ** (2.0 - eps)
        rhs = bnd.main_error_bound_rhs(n, lattice.d, E, eta, lam, profile,
                                       dist, psi1, psi2)
        rows.append([lam, eta, rhs,
                     rhs / (1.0 + math.log(1.0 / eta + 1.0)) ** n])
    slope, _, _ = _fit_loglog(lams, [row[3] for row in rows[1:]],
                              [0.0] * len(lams))
    expected = bnd.scaling_exponent(n, eps)
    within = expected != 0 and holds(
        None if slope is None else abs(slope / expected - 1.0), 0.05)
    shown = "undefined" if slope is None else f"{slope:.4f}"
    return ({"scaling.csv": rows,
             "scaling.json": {"slope": slope, "expected": expected,
                              "within_5pct": within, "n": n, "eps": eps}},
            _first_failure((within, f"scaling slope {shown} deviates from "
                                    f"{expected:.4f}")))


def cmd_partitions(cfg, threads, check):
    study = cfg["study"]
    n_max, M_max, bell_max = study["n_max"], study["M_max"], study["bell_max"]
    _, _, dist, _, _ = build_model(cfg["model"])
    # 2 sum_n Bell(n) sum_M M^n, counted up to the budget before any is built
    if any(t > MAX_LABEL_TUPLES for t in accumulate(
            2 * pt.bell_number(n) * M**n for n in range(1, n_max + 1)
            for M in range(M_max, 0, -1))):
        raise BudgetError(f"partitions: n_max {n_max} and M_max {M_max} "
                          f"visit over {MAX_LABEL_TUPLES:.3g} label tuples")

    rows = [["check", "n", "M", "result"]]
    for n in range(1, n_max + 1):
        parts = list(pt.enumerate_partitions(n))
        for M in range(1, M_max + 1):
            unity_ok = all(sum(pt.chi_tilde(A, gamma) for A in parts) == 1
                           for gamma in product(range(M), repeat=n))
            count_ok = all(pt.permutation_count_check(A, M).passed
                           for A in parts)
            rows += [["partition_of_unity", n, M, unity_ok],
                     ["counting_identity", n, M, count_ok]]
    for n in range(1, bell_max + 1):
        enum = sum(1 for _ in pt.growth_strings(n))
        rows.append(["bell_count", n, "", enum == pt.bell_number(n)])
    ok_all = all(ok for _, _, _, ok in rows[1:])
    rows += [["moment", k, "", dist.moment(k)]
             for k in range(1, 2 * n_max + 1)]
    return ({"partitions.csv": rows,
             "partitions.json": {"all_exact": ok_all, "n_max": n_max,
                                 "M_max": M_max, "bell_max": bell_max}},
            _first_failure((ok_all, "a combinatorial identity failed")))


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
                        help="the study seed, in place of the config's")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.seed)
        if cfg["study"]["kind"] != args.study:
            raise ConfigError(
                f"config study.kind {cfg['study']['kind']!r} does not match "
                f"command {args.study!r}")
        threads = args.threads
        if threads is None:
            threads = int(os.environ.get("ENGINE_THREADS", "1"))
        if threads < 1:
            raise ConfigError("thread count must be at least 1")
        out_dir = args.out or cfg["output"]["dir"]
        os.makedirs(out_dir, exist_ok=True)
        files, failure = _COMMANDS[args.study](cfg, threads, args.check)
        for name, content in files.items():
            _write(os.path.join(out_dir, name), content)
        if args.check and failure is not None:
            raise CheckFailure(failure)
        return 0
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
