import json
import math
import subprocess
import sys

import pytest

from weakdis import ConfigError, cli


def write_config(path, model, study, output=None):
    cfg = {"model": model, "study": study}
    if output is not None:
        cfg["output"] = output
    path.write_text(json.dumps(cfg))
    return path


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_expand_outputs(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 2, "z": [[1.0, 0.3]]},
                       output={"per_partition": True})
    out = tmp_path / "out"
    proc = run_cli("expand", cfg, out)
    assert proc.returncode == 0, proc.stderr
    header = (out / "expand.csv").read_text().splitlines()[0]
    assert header.startswith(
        "n,Re(z),Im(z),Re(T),Im(T),partition_count,tail_bound")
    assert (out / "expand_partitions.csv").exists()
    report = json.loads((out / "expand.json").read_text())
    assert report["rows"] == 3
    assert report["orders"] == [0, 1, 2]


def test_expand_thread_invariance(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 2, "z": [[1.0, 0.3]]},
                       output={"per_partition": True})
    out1, out3 = tmp_path / "t1", tmp_path / "t3"
    assert run_cli("expand", cfg, out1, "--threads", "1").returncode == 0
    assert run_cli("expand", cfg, out3, "--threads", "3").returncode == 0
    assert read_outputs(out1) == read_outputs(out3)


def test_mc_validate_reduced(tmp_path, std_model_dict, run_cli):
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1, 0.05], "n_samples": 64, "seed": 9,
             "antithetic": True, "control_orders": [1, 2]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out1, out4 = tmp_path / "a", tmp_path / "b"
    proc = run_cli("mc-validate", cfg, out1, "--threads", "1")
    assert proc.returncode == 0, proc.stderr
    header = (out1 / "mc_validate.csv").read_text().splitlines()[0]
    assert header.startswith("lambda,Re(E_MC),Im(E_MC)")
    assert run_cli("mc-validate", cfg, out4,
                   "--threads", "4").returncode == 0
    assert read_outputs(out1) == read_outputs(out4)


def test_mc_validate_seed_override(tmp_path, std_model_dict, run_cli):
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1], "n_samples": 32, "seed": 9,
             "antithetic": True, "control_orders": [1]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    base, same, other = tmp_path / "p", tmp_path / "q", tmp_path / "r"
    assert run_cli("mc-validate", cfg, base).returncode == 0
    assert run_cli("mc-validate", cfg, same, "--seed", "9").returncode == 0
    assert run_cli("mc-validate", cfg, other, "--seed", "10").returncode == 0
    assert read_outputs(base) == read_outputs(same)
    assert (base / "mc_validate.csv").read_bytes() != \
        (other / "mc_validate.csv").read_bytes()


def test_dos_reduced_and_env_threads(tmp_path, std_model_dict, run_cli):
    study = {"kind": "dos", "lam": 0.05, "eps": 0.5, "eta": 0.1, "order": 1,
             "chi": {"center": 1.0, "width": 0.5}, "n_samples": 16,
             "seed": 5, "check_routes": True}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    proc = run_cli("dos", cfg, out1, "--threads", "1")
    assert proc.returncode == 0, proc.stderr
    assert (out1 / "dos.csv").exists()
    report = json.loads((out1 / "dos.json").read_text())
    assert report["route_max_diff"] <= 1e-8
    proc2 = run_cli("dos", cfg, out2, env_extra={"ENGINE_THREADS": "2"})
    assert proc2.returncode == 0, proc2.stderr
    assert read_outputs(out1) == read_outputs(out2)


def test_bounds_reduced_check(tmp_path, std_model_dict, run_cli):
    study = {"kind": "bounds", "E_grid": [1.0], "eta_grid": [0.1],
             "L_grid": [2], "d_grid": [1], "seed": 1}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    proc = run_cli("bounds", cfg, out, "--check")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "bounds.json").read_text())
    assert report["failures"] == []
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,passed,notes,context"
    assert all(",True," in line for line in lines[1:])


def test_scaling_check(tmp_path, std_model_dict, run_cli):
    study = {"kind": "scaling", "n": 2, "eps": 0.5, "E": 1.0,
             "lambdas": [0.1, 0.05, 0.025, 0.0125, 0.00625]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    proc = run_cli("scaling", cfg, out, "--check")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "scaling.json").read_text())
    assert report["within_5pct"]
    assert abs(report["slope"] - report["expected"]) <= \
        0.05 * abs(report["expected"])


@pytest.mark.parametrize("lambdas", [[0.01], [0.01, 0.01]],
                         ids=["one-lambda", "repeated-lambda"])
def test_scaling_needs_two_distinct_lambdas(lambdas, tmp_path,
                                            std_model_dict, monkeypatch,
                                            capsys):
    # the log-log fit is undefined: --check rejects the config before any
    # bound is computed, and a run without --check writes a null slope
    from weakdis import bounds

    study = {"kind": "scaling", "n": 2, "eps": 0.5, "E": 1.0,
             "lambdas": lambdas}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    rhs = bounds.main_error_bound_rhs

    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking the config")

    monkeypatch.setattr(bounds, "main_error_bound_rhs", no_work)
    code = cli.main(["scaling", "--config", str(cfg), "--out", str(out),
                     "--check"])
    assert code == 2 and "lambdas" in capsys.readouterr().err
    assert not (out / "scaling.json").exists()
    monkeypatch.setattr(bounds, "main_error_bound_rhs", rhs)
    assert cli.main(["scaling", "--config", str(cfg), "--out",
                     str(out)]) == 0
    assert json.loads((out / "scaling.json").read_text())["slope"] is None


def test_partitions_work_is_budgeted_before_enumeration(tmp_path,
                                                       std_model_dict,
                                                       monkeypatch, capsys):
    # n_max 7 visits about 1.8e8 label tuples (minutes): the count is over
    # the budget, so the study exits 3 before it builds any partition
    import time

    from weakdis import partitions

    def no_work(*args, **kwargs):
        raise AssertionError("enumerated before checking the budget")

    monkeypatch.setattr(partitions, "enumerate_partitions", no_work)
    study = {"kind": "partitions", "n_max": 7, "M_max": 5, "bell_max": 10}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    t0 = time.monotonic()
    code = cli.main(["partitions", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
    assert code == 3 and "partitions" in capsys.readouterr().err
    assert time.monotonic() - t0 < 1.0
    assert not (tmp_path / "o" / "partitions.csv").exists()


def test_partitions_check(tmp_path, std_model_dict, run_cli):
    study = {"kind": "partitions", "n_max": 3, "M_max": 3, "bell_max": 8}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    proc = run_cli("partitions", cfg, out, "--check")
    assert proc.returncode == 0, proc.stderr
    assert (out / "partitions.csv").exists()


def test_exit_2_malformed_json(tmp_path, run_cli):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli("expand", bad, tmp_path / "o").returncode == 2


def test_exit_2_unknown_key(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 2, "bogus": 1})
    assert run_cli("expand", cfg, tmp_path / "o").returncode == 2


def test_exit_2_removed_sup_weight_key(tmp_path, std_model_dict, run_cli):
    study = {"kind": "bounds", "E_grid": [1.0], "eta_grid": [0.1],
             "L_grid": [2], "d_grid": [1], "include_sup_weight": False}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    proc = run_cli("bounds", cfg, tmp_path / "o")
    assert proc.returncode == 2
    assert "include_sup_weight" in proc.stderr


def test_exit_2_missing_seed(tmp_path, std_model_dict, run_cli):
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1], "n_samples": 32}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    assert run_cli("mc-validate", cfg, tmp_path / "o").returncode == 2


def test_exit_2_kind_mismatch(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "partitions", "n_max": 3})
    assert run_cli("expand", cfg, tmp_path / "o").returncode == 2


def test_exit_2_bad_thread_env(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 1})
    proc = run_cli("expand", cfg, tmp_path / "o",
                   env_extra={"ENGINE_THREADS": "0"})
    assert proc.returncode == 2


MC_STUDY = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
            "lambdas": [0.1, 0.05], "n_samples": 32, "seed": 9}
DOS_STUDY = {"kind": "dos", "lam": 0.05, "eps": 0.5, "eta": 0.1, "order": 1,
             "n_samples": 16, "seed": 5}


def _moments_law(moments):
    return {"weights": {"kind": "explicit-moments", "moments": moments}}


# single-value range rules of the schema: (study, the key its error names, id)
RANGE_RULES = [
    (dict(MC_STUDY, lambdas=[]), "study.lambdas", "mc-lambdas-empty"),
    (dict(MC_STUDY, eta=-0.3), "study.eta", "mc-eta-negative"),
    (dict(MC_STUDY, E=0.0), "study.E", "mc-E-0"),
    (dict(MC_STUDY, n_samples=1), "study.n_samples", "mc-n_samples-1"),
    (dict(DOS_STUDY, lam=-0.05), "study.lam", "dos-lam-negative"),
    (dict(DOS_STUDY, n_samples=1), "study.n_samples", "dos-n_samples-1"),
    (dict(DOS_STUDY, order=-1), "study.order", "dos-order-negative"),
    ({"kind": "bounds", "E_grid": [1.0, 0.0]}, "study.E_grid", "E_grid-0"),
    ({"kind": "bounds", "eta_grid": [0.0]}, "study.eta_grid", "eta_grid-0"),
    ({"kind": "scaling", "n": -1}, "study.n", "scaling-n-negative"),
    ({"kind": "scaling", "E": 0.0}, "study.E", "scaling-E-0"),
    ({"kind": "partitions", "n_max": 13}, "study.n_max", "n_max-13"),
    ({"kind": "partitions", "bell_max": 13}, "study.bell_max",
     "bell_max-13"),
]


@pytest.mark.parametrize("model, study, key", [
    ({"K": 2.7}, {"kind": "expand", "n_max": 1}, "model.K"),
    ({"d": True}, {"kind": "expand", "n_max": 1}, "model.d"),
    ({}, dict(MC_STUDY, lambdas="abc"), "study.lambdas"),
    ({}, dict(MC_STUDY, lambdas=[0.1, "0.05"]), "study.lambdas"),
    ({}, dict(MC_STUDY, seed=9.5), "study.seed"),
    ({}, {"kind": "expand", "orders": [1.5]}, "study.orders"),
    ({}, {"kind": "expand", "n_max": "2"}, "study.n_max"),
    ({}, {"kind": "expand", "z": [["1", 0.3]]}, "study.z"),
    ({}, {"kind": "bounds", "d_grid": [1.5]}, "study.d_grid"),
    ({}, {"kind": "partitions", "bell_max": 8.5}, "study.bell_max"),
    ({"L": "2"}, {"kind": "expand", "n_max": 1}, "model.L"),
    ({}, dict(MC_STUDY, eta=math.nan), "study.eta"),
    ({}, dict(MC_STUDY, lambdas=[0.1, math.nan]), "study.lambdas"),
    ({}, dict(MC_STUDY, antithetic="false"), "study.antithetic"),
    (_moments_law(["x"]), {"kind": "expand", "n_max": 1},
     "model.weights.moments"),
    (_moments_law([math.nan]), {"kind": "expand", "n_max": 1},
     "model.weights.moments"),
    ({}, {"kind": "dos", "seed": 5, "chi": 3}, "study.chi"),
    ({}, {"kind": "bounds", "d_grid": [4]}, "study.d_grid"),
    ({}, {"kind": "bounds", "d_grid": [1, 0]}, "study.d_grid"),
    ({}, {"kind": "bounds", "L_grid": [0]}, "study.L_grid"),
    ({}, {"kind": "bounds", "L_grid": [-2]}, "study.L_grid"),
    ({}, {"kind": "scaling", "lambdas": [0.1, -0.01]}, "study.lambdas"),
    ({}, {"kind": "scaling", "eps": 3}, "study.eps"),
    ({}, {"kind": "scaling", "eps": 0}, "study.eps"),
] + [({}, study, key) for study, key, _ in RANGE_RULES],
    ids=["K-fraction", "d-bool", "lambdas-string", "lambdas-string-entry",
         "seed-fraction", "orders-fraction", "n_max-string", "z-string",
         "d_grid-fraction", "bell_max-fraction", "L-string", "eta-nan",
         "lambdas-nan-entry", "antithetic-string", "moments-string",
         "moments-nan", "chi-not-a-mapping", "d_grid-4", "d_grid-0",
         "L_grid-0", "L_grid-negative", "scaling-negative-lambda",
         "scaling-eps-3", "scaling-eps-0"] + [i for _, _, i in RANGE_RULES])
def test_exit_2_config_numbers_are_not_coerced(model, study, key, tmp_path,
                                               std_model_dict, capsys):
    # a fractional integer is not truncated, a string is not parsed, a
    # string is no bool, and a number outside its key's range is rejected;
    # run in-process, since each case stops at its config check
    cfg = write_config(tmp_path / "c.json", dict(std_model_dict, **model),
                       study)
    code = cli.main([study["kind"], "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 2 and key in capsys.readouterr().err


def test_exit_2_study_block_not_a_mapping(tmp_path, std_model_dict, capsys):
    cfg = write_config(tmp_path / "c.json", std_model_dict, 3)
    code = cli.main(["expand", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 2 and "study" in capsys.readouterr().err


def test_exit_2_removed_output_formats(tmp_path, std_model_dict, capsys):
    # output.formats was accepted and never read
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 1},
                       output={"formats": ["csv"]})
    code = cli.main(["expand", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 2 and "formats" in capsys.readouterr().err


@pytest.mark.parametrize("study", [MC_STUDY, DOS_STUDY],
                         ids=["mc-validate", "dos"])
def test_seed_flag_stands_in_for_a_missing_seed(study, tmp_path,
                                                std_model_dict):
    seeded = write_config(tmp_path / "s.json", std_model_dict, study)
    unseeded = write_config(
        tmp_path / "u.json", std_model_dict,
        {k: v for k, v in study.items() if k != "seed"})
    kind, seed = study["kind"], str(study["seed"])
    assert cli.main([kind, "--config", str(seeded), "--out",
                     str(tmp_path / "a")]) == 0
    assert cli.main([kind, "--config", str(unseeded), "--out",
                     str(tmp_path / "b"), "--seed", seed]) == 0
    assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")


def test_exit_2_seed_flag_on_a_study_without_seed(tmp_path, std_model_dict,
                                                  capsys):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 1})
    code = cli.main(["expand", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--seed", "3"])
    assert code == 2 and "seed" in capsys.readouterr().err


def test_config_number_helpers():
    from weakdis.cli import _number, _numbers

    assert _number(8.0, "K", True) == 8 and type(_number(8.0, "K", True)) is int
    assert _numbers([1, 0.5], "lambdas") == [1.0, 0.5]
    for bad in (2.7, True, "2", None, math.inf, math.nan):
        with pytest.raises(ConfigError):
            _number(bad, "K", True)
    for bad in ("0.3", None, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            _number(bad, "eta")
    for bad in ("abc", [0.1, "x"], [False], 0.1):
        with pytest.raises(ConfigError):
            _numbers(bad, "lambdas")


def test_cli_setup_loads_no_scipy():
    # every study pays for what its setup imports: the CLI, the model and
    # the first transform tables (perfbench's setup probe runs this path)
    code = ("import sys, weakdis.cli as cli\n"
            "from weakdis.coefficients import bhat_difference_table, "
            "psi_hat_vector\n"
            "lattice, profile, _, psi1, _ = cli.build_model({'d': 1, 'L': 2.0,"
            " 'K': 8, 'profile': {'kind': 'gaussian', 'sigma': 1.0}, "
            "'weights': {'kind': 'rademacher'}})\n"
            "bhat_difference_table(profile, lattice)\n"
            "psi_hat_vector(psi1, lattice)\n"
            "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []


def test_exit_3_budget(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 3, "budget": 10})
    assert run_cli("expand", cfg, tmp_path / "o").returncode == 3


def test_exit_3_bound_window_budget(tmp_path, std_model_dict, capsys):
    # the box-truncated transform has no zeros to leave out, so its d = 2,
    # L = 8 window would hold 3.8e7 points
    study = {"kind": "bounds", "E_grid": [1.0], "eta_grid": [0.1],
             "L_grid": [8], "d_grid": [2], "truncated_transform": True}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    code = cli.main(["bounds", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 3 and "bound window" in capsys.readouterr().err


def test_exit_3_potential_sup_budget(tmp_path, std_model_dict, capsys):
    # about 1e6 scatterers times the 4001-point grid: the trace-class check
    # stops before it builds the sampled potential
    std_model_dict["L"] = 1e6
    study = {"kind": "bounds", "E_grid": [1.0], "eta_grid": [0.1],
             "L_grid": [1], "d_grid": [1]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    code = cli.main(["bounds", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 3 and "potential sup" in capsys.readouterr().err


def test_exit_4_check_failure(tmp_path, std_model_dict, run_cli):
    # the box-truncated transform defeats the closed-form constant at the
    # resonant corner, so --check must fail there
    study = {"kind": "bounds", "E_grid": [0.5], "eta_grid": [1e-3],
             "L_grid": [1], "d_grid": [1], "seed": 1,
             "truncated_transform": True}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    proc = run_cli("bounds", cfg, out, "--check")
    assert proc.returncode == 4
    assert "resolvent_sum_bound" in proc.stderr
    # without --check the same run records the failure and exits 0
    assert run_cli("bounds", cfg, tmp_path / "o2").returncode == 0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite token {token} in JSON output")

    return json.loads(text, parse_constant=reject)


def test_mc_validate_single_lambda_check_fails(tmp_path, std_model_dict,
                                               run_cli):
    # one lambda leaves the log-log fit undefined: --check rejects the
    # config before sampling, and a run without --check writes null
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1], "n_samples": 32, "seed": 9,
             "antithetic": True, "control_orders": [1]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    proc = run_cli("mc-validate", cfg, out, "--check")
    assert proc.returncode == 2, proc.stderr
    assert "lambdas" in proc.stderr
    assert not (out / "mc_validate.json").exists()
    assert run_cli("mc-validate", cfg, out).returncode == 0
    report = _strict_json((out / "mc_validate.json").read_text())
    assert report["slope"] is None
    assert report["intercept"] is None


@pytest.mark.parametrize("study, check, key", [
    (dict(MC_STUDY, n_keep=-1), False, "study.n_keep"),
    (dict(MC_STUDY, control_orders=[1, 5]), False, "study.control_orders"),
    (dict(MC_STUDY, control_orders=[0]), False, "study.control_orders"),
    (dict(MC_STUDY, lambdas=[0.1, 0.1]), True, "lambdas"),
    (dict(MC_STUDY, lambdas=[0.1, 0.0]), True, "lambdas"),
] + [(study, False, key) for study, key, _ in RANGE_RULES],
    ids=["n_keep", "order-5", "order-0", "one-lambda", "zero-lambda"]
    + [i for _, _, i in RANGE_RULES])
def test_mc_validate_config_checked_before_any_work(study, check, key,
                                                    tmp_path, std_model_dict,
                                                    monkeypatch, capsys):
    # mc-validate's rules and every single-value range rule of the other
    # studies: in-process, so a coefficient, a realization, a bound, a
    # window or a partition enumeration fails the test at once
    from weakdis import bounds, coefficients, dos, montecarlo, partitions

    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking the config")

    for module, name in [(coefficients, "coefficient_T"),
                         (coefficients, "_chain_sum"), (dos, "_chain_sum"),
                         (montecarlo, "sample_config"),
                         (bounds, "main_error_bound_rhs"),
                         (bounds, "_check_window"),
                         (partitions, "growth_strings")]:
        monkeypatch.setattr(module, name, no_work)
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    code = cli.main([study["kind"], "--config", str(cfg), "--out",
                     str(tmp_path / "o")] + ["--check"] * check)
    err = capsys.readouterr().err
    assert code == 2, err
    assert key in err


def test_holds_needs_finite_evidence():
    from weakdis.report import holds

    assert holds(1.0, 1.0)
    assert not holds(1.0 + 1e-9, 1.0)
    for lhs, rhs in [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                     (-math.inf, 0.0), (None, 1.0)]:
        assert not holds(lhs, rhs)


def test_mc_validate_draws_each_realization_once(tmp_path, std_model_dict,
                                                 monkeypatch):
    # in-process, so the draws and the dispersion reads can be counted
    from weakdis import cli, montecarlo
    from weakdis.lattice import MomentumLattice

    counts = {"draws": 0, "nu_reads": 0}
    draw = montecarlo.sample_config
    nu_values = MomentumLattice.nu_values

    def counted_draw(*args, **kwargs):
        counts["draws"] += 1
        return draw(*args, **kwargs)

    def counted_nu(self):
        counts["nu_reads"] += 1
        return nu_values.fget(self)

    monkeypatch.setattr(montecarlo, "sample_config", counted_draw)
    monkeypatch.setattr(MomentumLattice, "nu_values", property(counted_nu))
    seen = []
    for n_samples in (64, 128):
        counts.update(draws=0, nu_reads=0)
        cfg = write_config(tmp_path / f"c{n_samples}.json", std_model_dict,
                           {"kind": "mc-validate", "n_keep": 2, "eta": 0.3,
                            "E": 1.0, "lambdas": [0.1, 0.05],
                            "n_samples": n_samples, "seed": 9,
                            "antithetic": True, "control_orders": [1, 2]})
        code = cli.main(["mc-validate", "--config", str(cfg), "--out",
                         str(tmp_path / f"out{n_samples}"), "--threads", "1"])
        assert code == 0
        seen.append(dict(counts))
    # one draw per antithetic pair, shared by both couplings and both signs
    assert [c["draws"] for c in seen] == [32, 64]
    # the dispersion is read a fixed number of times, not per realization
    assert seen[0]["nu_reads"] == seen[1]["nu_reads"] < 32


def test_only_expand_computes_truncation_tails(tmp_path, std_model_dict,
                                               monkeypatch):
    # in-process, so the tail computations can be counted: mc-validate reads
    # only the coefficient values, expand writes one tail per row
    from weakdis import cli, coefficients

    calls = []
    tail = coefficients.truncation_tail_bound

    def counted_tail(*args, **kwargs):
        calls.append(args[0])
        return tail(*args, **kwargs)

    monkeypatch.setattr(coefficients, "truncation_tail_bound", counted_tail)
    cfg = write_config(tmp_path / "mc.json", std_model_dict,
                       {"kind": "mc-validate", "n_keep": 2, "eta": 0.3,
                        "E": 1.0, "lambdas": [0.1, 0.05], "n_samples": 16,
                        "seed": 9, "antithetic": True,
                        "control_orders": [1, 2, 3]})
    assert cli.main(["mc-validate", "--config", str(cfg), "--out",
                     str(tmp_path / "mc"), "--threads", "1"]) == 0
    assert calls == []
    cfg = write_config(tmp_path / "ex.json", std_model_dict,
                       {"kind": "expand", "n_max": 2, "z": [[1.0, 0.3]]})
    assert cli.main(["expand", "--config", str(cfg), "--out",
                     str(tmp_path / "ex"), "--threads", "1"]) == 0
    assert calls == [0, 1, 2]


def test_expand_rejects_empty_or_negative_orders(tmp_path, std_model_dict,
                                                 run_cli):
    for i, study in enumerate([{"n_max": -1}, {"orders": []},
                               {"orders": [-1]}, {"z": []}]):
        cfg = write_config(tmp_path / f"c{i}.json", std_model_dict,
                           {"kind": "expand", **study})
        proc = run_cli("expand", cfg, tmp_path / f"o{i}", "--check")
        assert proc.returncode == 2, (study, proc.returncode, proc.stderr)
        assert f"study.{next(iter(study))}" in proc.stderr


def test_mc_validate_rejects_a_negative_coupling(tmp_path, std_model_dict,
                                                 run_cli):
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1, -0.05, 0.025], "n_samples": 32, "seed": 9,
             "antithetic": True, "control_orders": [1, 2]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    proc = run_cli("mc-validate", cfg, tmp_path / "o", "--check")
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "coupling" in proc.stderr


def test_dos_rejects_fewer_than_two_samples(tmp_path, std_model_dict,
                                            run_cli):
    for n_samples in (0, 1):
        study = {"kind": "dos", "lam": 0.05, "eps": 0.5, "eta": 0.1,
                 "order": 0, "chi": {"center": 1.0, "width": 0.5},
                 "n_samples": n_samples, "seed": 5}
        cfg = write_config(tmp_path / f"c{n_samples}.json", std_model_dict,
                           study)
        proc = run_cli("dos", cfg, tmp_path / f"o{n_samples}", "--check")
        assert proc.returncode == 2, (n_samples, proc.returncode, proc.stderr)
        assert "samples" in proc.stderr
