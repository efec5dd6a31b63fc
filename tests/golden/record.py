"""Golden output ledger: sha256 of every file the six studies write.

    PYTHONPATH=src python tests/golden/record.py

runs the six reduced configs of acceptance criterion 9 (about 11 s) with
``--threads 1`` and writes ``tests/golden/ledger.json``: one digest per
output file, plus the numpy, scipy and OpenBLAS builds it was recorded on.
``test_golden.py`` reruns the same configs and compares.  A change that means
to move output bits records the ledger again and says why.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
LEDGER = HERE / "ledger.json"

MODEL = {
    "d": 1,
    "L": 2.0,
    "K": 8,
    "profile": {"kind": "gaussian", "b0": 1.0, "sigma": 1.0},
    "weights": {"kind": "rademacher"},
    "psi1": {"x0": [0.0], "a": [0.0], "sigma": 1.0},
    "psi2": {"x0": [0.25], "a": [1.0], "sigma": 1.0},
}

# the reduced study blocks of acceptance criterion 9
STUDIES = {
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


def versions() -> dict:
    """The builds whose arithmetic the digests depend on."""
    np_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_blas": np_blas.get("openblas configuration", np_blas["name"]),
        "scipy": scipy.__version__,
        "scipy_blas": sp_blas.get("openblas configuration", sp_blas["name"]),
    }


def run_studies(work: Path) -> dict:
    """Run every study once into work/<study>; returns {"study/file": sha256}.
    Raises RuntimeError naming the study that did not exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("ENGINE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    digests = {}
    for name, study in STUDIES.items():
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps({"model": MODEL, "study": study,
                                   "output": {"per_partition": True}}))
        out = work / name
        proc = subprocess.run(
            [sys.executable, "-m", "weakdis", name, "--config", str(cfg),
             "--out", str(out), "--threads", "1"],
            capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_studies(Path(tmp))
    LEDGER.write_text(json.dumps({"versions": versions(), "files": digests},
                                 sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {LEDGER}")


if __name__ == "__main__":
    main()
