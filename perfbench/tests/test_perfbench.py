"""Tests of the benchmark's own logic: span arithmetic, the failure
classifier, per-child rusage, and traced runs writing the same bytes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from classify import classify, digest, non_finite_tokens, reference_mismatches  # noqa: E402
from run import HERE, SRC, FirstRuns, judge, read_files, spawn  # noqa: E402
from spans import LAYER_UNITS, Trace, layer_metrics  # noqa: E402

# ---------------------------------------------------------------------------
# self time over nested spans


def _trace(rows):
    """rows: (name, start, end, parent index) with times in ns."""
    names = sorted({r[0] for r in rows})
    return Trace(names, [[names.index(n), lo, hi, p] for n, lo, hi, p in rows])


def test_self_time_subtracts_direct_children_only():
    t = _trace([
        ("study", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 20, 30, 1),
        ("b", 50, 60, 0),
    ])
    assert t.self_s("study") == pytest.approx(60e-9)
    assert t.self_s("a") == pytest.approx(20e-9)
    assert t.self_s("leaf") == pytest.approx(10e-9)
    assert t.calls("a", "b") == 2


def test_self_time_counts_overlapping_children_once():
    t = _trace([("p", 0, 100, -1), ("c", 10, 40, 0), ("c", 30, 50, 0),
                ("c", 90, 120, 0)])
    assert t.self_s("p") == pytest.approx((100 - 40 - 10) * 1e-9)


def test_group_time_skips_spans_nested_in_the_group():
    t = _trace([
        ("outer", 0, 100, -1),
        ("f", 10, 50, 0),
        ("f", 20, 30, 1),
        ("g", 25, 28, 2),
        ("g", 60, 70, 0),
    ])
    assert t.time_s("f") == pytest.approx(40e-9)
    assert t.time_s("f", "g") == pytest.approx(50e-9)
    assert t.time_s("missing") == 0.0


def test_layer_metrics_fill_every_layer_name():
    t = _trace([("coefficients._chain_sum", 0, 2_000_000_000, -1)])
    t.counters["coefficients.terms"] = 10
    m = layer_metrics(t, 0.0, 0)
    assert set(m) == set(LAYER_UNITS)
    assert m["coefficients.terms_per_s"] == pytest.approx(5.0)
    assert m["dos.mc_samples_per_s"] == 0.0


# ---------------------------------------------------------------------------
# failure classifier

GOOD = {"r.csv": b"lambda,residual\n0.1,1.5e-05\n",
        "r.json": b'{"slope": 4.2, "notes": "information"}\n'}


def test_classifier_passes_a_clean_run():
    assert classify(0, GOOD, digest(GOOD), {"k": [1.0]}, {"k": [1.0]}) == []


def test_classifier_fails_a_nonzero_exit():
    assert classify(4, GOOD) == ["exit code 4"]


@pytest.mark.parametrize("name,data,token", [
    ("r.json", b'{"intercept": NaN, "slope": 4.1}', "NaN"),
    ("r.json", b'{"x": -Infinity}', "-Infinity"),
    ("r.csv", b"lambda,residual\n0.1,nan\n", "nan"),
    ("r.csv", b"a,b\ninf,1\n", "inf"),
])
def test_classifier_fails_a_non_finite_token(name, data, token):
    files = dict(GOOD, **{name: data})
    assert non_finite_tokens(files) == {name: token}
    assert classify(0, files)


def test_classifier_fails_a_byte_mismatch():
    changed = dict(GOOD, **{"r.csv": GOOD["r.csv"].replace(b"1.5", b"1.6")})
    reasons = classify(0, changed, digest(GOOD))
    assert len(reasons) == 1 and "differ" in reasons[0]


def test_failed_first_invocation_is_not_the_reference(tmp_path):
    first = FirstRuns(tmp_path / "first_runs.json")
    partial = {"r.csv": GOOD["r.csv"]}
    assert judge(first, "k", -9, partial) == ["exit code -9"]
    assert first.recorded("k", "digest") is None
    assert judge(first, "k", 0, GOOD) == []
    assert first.recorded("k", "digest") == digest(GOOD)
    # kept across benchmark runs, and held against later invocations
    again = FirstRuns(tmp_path / "first_runs.json")
    assert judge(again, "k", 0, GOOD) == []
    assert "differ" in judge(again, "k", 0, partial)[0]


def test_reference_tolerance_is_relative_to_the_entry():
    ref = {"a": [1.0, -2.0], "b": [0.0]}
    assert reference_mismatches({"a": [1.0 + 1e-9, -2.0], "b": [0.0]}, ref) == []
    assert reference_mismatches({"a": [1.0 + 1e-8, -2.0], "b": [0.0]}, ref) == ["a"]
    assert reference_mismatches({"a": [1.0, -2.0], "b": [1e-300]}, ref) == ["b"]
    assert reference_mismatches({"a": [float("nan"), -2.0], "b": [0.0]}, ref) == ["a"]
    assert reference_mismatches({"a": [1.0, -2.0]}, ref) == ["b"]


# ---------------------------------------------------------------------------
# per-child rusage


def test_peak_rss_is_each_childs_own():
    # A child's peak RSS starts from its parent's at fork, so the check runs
    # from a small parent, as run.py is, and not from the test process.
    code = f"""
import resource, sys
sys.path.insert(0, {str(HERE)!r})
from run import spawn
big = spawn([sys.executable, "-c",
             "import numpy as np; a = np.ones(300 * 2**17); print(a.sum())"])
small = spawn([sys.executable, "-c", "pass"])
print(big[0], small[0], big[3], small[3],
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    big_code, small_code, big, small, cumulative = map(float, out)
    assert big_code == 0 and small_code == 0
    assert big > 250
    assert small < 100
    # the cumulative figure keeps the big child's peak, so it cannot be used
    assert cumulative > 250


# ---------------------------------------------------------------------------
# traced run writes the same bytes as the untraced run


@pytest.mark.skipif(not (SRC / "weakdis").is_dir(), reason="needs the sources")
def test_traced_run_writes_identical_result_files(tmp_path):
    cfg = {"model": {"d": 1, "L": 2.0, "K": 4,
                     "psi1": {"x0": [0.0], "a": [0.0], "sigma": 1.0},
                     "psi2": {"x0": [0.25], "a": [1.0], "sigma": 1.0}},
           "study": {"kind": "expand", "orders": [0, 1, 2], "z": [[1.0, 0.3]]},
           "output": {"per_partition": True}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["expand", "--config", str(path), "--check", "--threads", "1"]
    plain = spawn([sys.executable, "-m", "weakdis"] + args
                  + ["--out", str(tmp_path / "plain")])
    spans = tmp_path / "spans.json"
    traced = spawn([sys.executable, str(HERE / "tracer.py"), "--spans",
                    str(spans), "--run-id", "t", "--"] + args
                   + ["--out", str(tmp_path / "traced")])
    assert plain[0] == 0 and traced[0] == 0
    files = read_files(tmp_path / "plain")
    assert files and files == read_files(tmp_path / "traced")

    doc = json.loads(spans.read_text())
    assert doc["missing"] == []
    m = layer_metrics(Trace.from_json(doc), 0.0, 0)
    # orders 0..2 with Rademacher weights: the empty partition and {12}
    assert m["coefficients.chain_sum_calls"] == 2
    assert m["coefficients.terms"] == 9 + 9 * 17
    assert m["partitions.visited"] > m["partitions.live"] > 0
    assert m["cli.study.self_s"] > 0
