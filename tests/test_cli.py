import json
import math


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


def test_exit_3_budget(tmp_path, std_model_dict, run_cli):
    cfg = write_config(tmp_path / "c.json", std_model_dict,
                       {"kind": "expand", "n_max": 3, "budget": 10})
    assert run_cli("expand", cfg, tmp_path / "o").returncode == 3


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
    # one lambda leaves the log-log fit undefined; --check must not pass it
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1], "n_samples": 32, "seed": 9,
             "antithetic": True, "control_orders": [1]}
    cfg = write_config(tmp_path / "c.json", std_model_dict, study)
    out = tmp_path / "out"
    proc = run_cli("mc-validate", cfg, out, "--check")
    assert proc.returncode == 4, proc.stderr
    report = _strict_json((out / "mc_validate.json").read_text())
    assert report["slope"] is None
    assert report["intercept"] is None


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
                               {"orders": [-1]}]):
        cfg = write_config(tmp_path / f"c{i}.json", std_model_dict,
                           {"kind": "expand", **study})
        proc = run_cli("expand", cfg, tmp_path / f"o{i}", "--check")
        assert proc.returncode == 2, (study, proc.returncode, proc.stderr)
        assert "order" in proc.stderr
