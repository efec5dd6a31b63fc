"""Benchmark of the weakdis batch studies, end to end and layer by layer.

    python3 perfbench/run.py --workload chain|mc|dos|bounds|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation runs one study as
``python3 -m weakdis <study> --check --threads 1`` on inputs made from the
seed (see workloads.py), in a closed loop: one client, one study at a time,
BLAS pinned to one thread.  Invocations repeat, at least twice, while the
next one is expected to end within S seconds; timings are medians over them.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of
one invocation (from its own ``wait4`` rusage) and setup_s, the median of
at least SETUP_PROBES fresh interpreters running setup_probe.py, a few at
the start and one after every invocation.  --trace 1 alternates untraced
invocations with traced ones (tracer.py) and reports the per-layer metrics
of spans.py, the traced wall time beside the untraced one, and checks that
both write the same result bytes.  Every invocation is checked by
classify.py; the last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Scratch files go to .perfbench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from classify import classify, digest  # noqa: E402
from spans import EXACT_COUNTS, LAYER_UNITS, Trace, layer_metrics  # noqa: E402
from workloads import WORKLOADS, mc_std_error, reference_for  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "ENGINE_THREADS": "1"}
SETUP_FIRST = 3
SETUP_PROBES = 9
MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
               "trace.overhead": "ratio"}


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run argv to its end.  Returns (exit code, wall s, cpu s, peak RSS MB,
    stdout bytes or None), the rusage being this child's own from wait4.
    The child's peak RSS starts from this process's at fork, so the caller
    stays small while it measures."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout,
                            stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read() if proc.stdout else None
    if proc.stdout:
        proc.stdout.close()
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0, out)


def tree_hash(root):
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.is_file()}


def study_args(study, config, seed_arg=None):
    """Arguments of ``python3 -m weakdis`` for one benchmarked study,
    without ``--out``."""
    args = [study, "--config", str(config), "--check", "--threads", "1"]
    if seed_arg is not None:
        args += ["--seed", str(seed_arg)]
    return args


class FirstRuns:
    """Digest and exact counts of the first passing invocation of each
    (code, workload, seed), kept across benchmark runs in the work
    directory.  Only an invocation with no other failure is recorded, so a
    crashed or killed first run cannot become the reference."""

    def __init__(self, path):
        self.path = path
        self.table = json.loads(path.read_text()) if path.exists() else {}

    def recorded(self, key, field):
        return self.table.get(key, {}).get(field)

    def record(self, key, field, value):
        self.table.setdefault(key, {})[field] = value
        self.path.write_text(json.dumps(self.table, indent=1, sort_keys=True))


def judge(first, key, code, files, values=None, reference=None):
    """Failure reasons of one invocation (classify.py), held to the first
    passing invocation of the same key; records this one if it is the
    first to pass."""
    recorded = first.recorded(key, "digest")
    reasons = classify(code, files, recorded, values, reference)
    if recorded is None and not reasons:
        first.record(key, "digest", digest(files))
    return reasons


def environment(seed, probe_out):
    info = json.loads(probe_out.decode().strip().splitlines()[-1])
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": info["numpy"], "scipy": info["scipy"],
            "openblas": info["blas"], "git_commit": commit,
            "src_sha256": tree_hash(SRC), "seed": seed,
            "thread_env": dict(PINNED_ENV, threads_flag="1")}


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, name, seed):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        cfg, seed_arg = self.wl.make(seed)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        self.engine_args = study_args(self.wl.study, self.config, seed_arg)
        table = json.loads((HERE / "reference.json").read_text())
        self.reference = reference_for(name, seed, table)
        self.first = FirstRuns(WORK / "first_runs.json")
        self.key = hashlib.sha256("|".join(
            [tree_hash(SRC), name, str(seed), self.config.read_text()])
            .encode()).hexdigest()
        self.attempted = 0
        self.failures = []
        self.probe_out = None

    def probe(self):
        """Wall time of one fresh set-up probe; keeps its output for the
        environment record."""
        code, wall, _, _, self.probe_out = spawn(
            [sys.executable, str(HERE / "setup_probe.py"), str(self.config)],
            stdout=subprocess.PIPE)
        if code != 0:
            raise RuntimeError(f"setup probe exited with code {code}")
        return wall

    def invoke(self, traced=False):
        """One study invocation; returns (exit code, wall, cpu, rss, files,
        trace document or None) after classifying it."""
        tag = "traced" if traced else "plain"
        out = self.dir / f"out_{tag}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "weakdis"] + self.engine_args
        spans_path = self.dir / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans",
                    str(spans_path), "--run-id",
                    f"{self.wl.name}-{self.seed}-{self.attempted}", "--"
                    ] + self.engine_args
        argv += ["--out", str(out)]
        with open(self.dir / f"stderr_{tag}.txt", "wb") as err:
            code, wall, cpu, rss, _ = spawn(argv, stderr=err)
        files = read_files(out) if out.is_dir() else {}
        try:
            values = self.wl.values(files) if self.wl.values else None
        except (KeyError, ValueError):
            values = {}
        reasons = judge(self.first, self.key, code, files, values,
                        self.reference)
        doc = None
        if traced:
            if spans_path.exists():
                doc = json.loads(spans_path.read_text())
                if doc["missing"]:
                    reasons.append("trace: bindings not found: "
                                   + ", ".join(doc["missing"]))
            else:
                reasons.append("traced run wrote no spans")
        self.attempted += 1
        if reasons:
            err_tail = (self.dir / f"stderr_{tag}.txt").read_text(
                errors="replace").strip().splitlines()[-1:]
            self.failures.append({"invocation": self.attempted, "traced": traced,
                                  "reasons": reasons, "stderr": err_tail})
        return code, wall, cpu, rss, files, doc

    def fail(self, reason):
        self.failures.append({"invocation": self.attempted, "reasons": [reason]})

    def run_plain(self, seconds):
        """Set-up probes, then invocations each followed by a probe, while
        the next invocation, its probe and the probes still owed to
        SETUP_PROBES are expected to end within seconds."""
        start = time.perf_counter()
        probes = [self.probe() for _ in range(SETUP_FIRST)]
        samples = []
        while True:
            _, wall, cpu, rss, _, _ = self.invoke()
            samples.append((wall, cpu, rss))
            probes.append(self.probe())
            probe = statistics.median(probes)
            owed = max(SETUP_PROBES - len(probes) - 1, 0) * probe
            ahead = statistics.median(s[0] for s in samples) + probe + owed
            if (len(samples) >= MIN_INVOCATIONS
                    and time.perf_counter() - start + ahead > seconds):
                break
        while len(probes) < SETUP_PROBES:
            probes.append(self.probe())
        metrics = {
            "wall_s": statistics.median(s[0] for s in samples),
            "cpu_s": statistics.median(s[1] for s in samples),
            "peak_rss_mb": statistics.median(s[2] for s in samples),
            "setup_s": statistics.median(probes),
        }
        return (metrics, END_TO_END_UNITS, environment(self.seed, self.probe_out),
                {"invocations": samples, "setup_probes": probes})

    def run_traced(self, seconds):
        self.probe()
        env = environment(self.seed, self.probe_out)
        plain_walls, traced_walls, layers = [], [], []
        start = time.perf_counter()
        while True:
            _, wall, _, _, plain_files, _ = self.invoke()
            plain_walls.append(wall)
            failures = len(self.failures)
            _, twall, _, _, files, doc = self.invoke(traced=True)
            traced_walls.append(twall)
            if files != plain_files:
                self.fail("traced result files differ from the untraced run")
            if doc is not None:
                layer = layer_metrics(Trace.from_json(doc), mc_std_error(files),
                                      sum(len(b) for b in files.values()))
                layers.append(layer)
                counts = {k: layer[k] for k in EXACT_COUNTS}
                first = self.first.recorded(self.key, "counts")
                if first is None and len(self.failures) == failures:
                    self.first.record(self.key, "counts", counts)
                elif first is not None and first != counts:
                    self.fail("exact counts differ from the first passing traced run")
            typical = (statistics.median(plain_walls)
                       + statistics.median(traced_walls))
            if time.perf_counter() - start + typical > seconds:
                break
        metrics = {k: statistics.median(m[k] for m in layers) if layers else 0.0
                   for k in LAYER_UNITS}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.median(plain_walls)
        metrics["trace.overhead"] = (metrics["trace.wall_s"]
                                     / metrics["trace.untraced_wall_s"])
        return (metrics, dict(LAYER_UNITS, **TRACE_UNITS), env,
                {"plain_walls": plain_walls, "traced_walls": traced_walls})

    def run(self, seconds, trace):
        metrics, units, env, detail = (self.run_traced if trace else
                                       self.run_plain)(seconds)
        failed = len({f["invocation"] for f in self.failures})
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        }
        record = dict(result, workload=self.wl.name, trace=int(trace),
                      environment=env, detail=detail, failures=self.failures)
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{self.wl.name}-seed{self.seed}-trace{int(trace)}.json"
         ).write_text(json.dumps(record, indent=1, sort_keys=True))
        return result, record


def report(name, record):
    print(f"== {name}: {record['attempted']} invocations, fail_share "
          f"{record['failed'] / record['attempted']:.3f}")
    for key, m in record["metrics"].items():
        print(f"{name:7s} {key:32s} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"failed invocation {f['invocation']}: {'; '.join(f['reasons'])}"
              f" {f.get('stderr', '')}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weakdis" / "cli.py").is_file():
        print(f"no weakdis sources under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, record = Bench(name, args.seed).run(args.seconds, args.trace)
        report(name, record)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        total["metrics"].update({prefix + k: v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
