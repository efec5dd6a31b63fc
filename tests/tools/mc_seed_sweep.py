"""Seed sweep of the shipped ``mc-validate --check``.

    python tests/tools/mc_seed_sweep.py [--seeds 1-70] [--threads 1]
                                        [--root CHECKOUT] [--compare FILE]

Runs ``python -m weakdis mc-validate --config configs/mc_validate.json
--check --seed S`` of the checkout at ``--root`` (default: the one this file
is in) once per seed, one after the other, with one BLAS thread, and prints
one JSON line per seed: the exit code, the fitted slope (null when the fit
is undefined or no report was written) and the sha256 of
``mc_validate.csv`` and ``mc_validate.json``.  The lines of two checkouts
can be diffed as they are.  With ``--compare FILE`` (the lines of another
checkout's sweep), it then prints the seeds whose exit code differs and the
largest slope difference, and exits 1 if any exit code differs: a change
that moves output digests must keep every exit code.  Not a test module:
the test suite does not collect it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = ("mc_validate.csv", "mc_validate.json")


def seed_list(text):
    """'1-70' or '3,7,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep_one(root, seed, threads, out):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("ENGINE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "weakdis", "mc-validate", "--config",
         str(root / "configs" / "mc_validate.json"), "--out", str(out),
         "--check", "--seed", str(seed), "--threads", str(threads)],
        env=env, capture_output=True)
    line = {"seed": seed, "exit": proc.returncode, "slope": None}
    for name in FILES:
        path = out / name
        line[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                      if path.exists() else None)
    if line["mc_validate.json"] is not None:
        line["slope"] = json.loads((out / "mc_validate.json").read_text())[
            "slope"]
    return line


def compare(lines, other):
    """(seeds whose exit code differs, largest |slope difference| and its
    seed) between two sweeps; a slope null on one side only counts as inf."""
    theirs = {line["seed"]: line for line in other}
    missing = [line["seed"] for line in lines if line["seed"] not in theirs]
    if missing:
        raise SystemExit(f"no line to compare for seeds {missing}")
    differ, gap, at = [], 0.0, None
    for line in lines:
        a, b = line["slope"], theirs[line["seed"]]["slope"]
        if line["exit"] != theirs[line["seed"]]["exit"]:
            differ.append(line["seed"])
        diff = (abs(a - b) if a is not None and b is not None
                else 0.0 if a is b else float("inf"))
        if diff > gap or at is None:
            gap, at = diff, line["seed"]
    return differ, gap, at


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-70"))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2])
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            out = Path(tmp) / str(seed)
            lines.append(sweep_one(args.root.resolve(), seed, args.threads,
                                   out))
            print(json.dumps(lines[-1]), flush=True)
    if args.compare is None:
        return 0
    differ, gap, at = compare(lines, [
        json.loads(text) for text in args.compare.read_text().splitlines()
        if text.strip()])
    print(f"exit code differs on seeds: {differ or 'none'}")
    print(f"largest slope difference: {gap:.3g} (seed {at})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
