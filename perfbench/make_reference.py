"""Record reference.json: the deterministic outputs of every input the
benchmark can make, as the current code computes them.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs later commits are held to; the
benchmark fails an invocation whose values drift more than
classify.REL_TOL from these.
"""

import json
import shutil
import sys

from run import HERE, WORK, read_files, spawn, study_args
from workloads import (BOUNDS_SEEDS, CHAIN_Z_POOL, WORKLOADS, bounds_values,
                       chain_values, dos_values)


def outputs(name, cfg, seed_arg=None):
    """Result files of one study run on cfg."""
    d = WORK / "reference" / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    (d / "config.json").write_text(json.dumps(cfg))
    argv = ([sys.executable, "-m", "weakdis"]
            + study_args(WORKLOADS[name].study, d / "config.json", seed_arg)
            + ["--out", str(d / "out")])
    code = spawn(argv)[0]
    if code != 0:
        raise SystemExit(f"{name} exited with code {code}")
    return read_files(d / "out")


def main():
    bounds = {str(1 + s): bounds_values(
        outputs("bounds", WORKLOADS["bounds"].make(s)[0]))
        for s in range(BOUNDS_SEEDS)}
    common = {k: v for k, v in bounds["1"].items()
              if all(b[k] == v for b in bounds.values())}
    chain_cfg, _ = WORKLOADS["chain"].make(0)
    chain_cfg["study"]["z"] = [list(z) for z in CHAIN_Z_POOL]
    dos_cfg, dos_seed = WORKLOADS["dos"].make(0)
    table = {
        "chain": chain_values(outputs("chain", chain_cfg)),
        "dos": dos_values(outputs("dos", dos_cfg, dos_seed)),
        "bounds": {"common": common,
                   "by_seed": {s: {k: v for k, v in b.items() if k not in common}
                               for s, b in bounds.items()}},
    }
    (HERE / "reference.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
