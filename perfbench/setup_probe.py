"""Set-up probe: the work a fresh interpreter does before a study computes.

    python3 perfbench/setup_probe.py CONFIG

Imports weakdis, loads CONFIG, builds its model and the first transform
tables, then prints the numpy/scipy versions and BLAS build as one JSON
line.  The benchmark times this process from spawn to exit as setup_s.
"""

import json
import sys

import weakdis  # noqa: F401  (the import is part of what is timed)
from weakdis import cli
from weakdis.coefficients import bhat_difference_table, psi_hat_vector


def main(path):
    cfg = cli.load_config(path)
    lattice, profile, _, psi1, psi2 = cli.build_model(cfg["model"])
    bhat_difference_table(profile, lattice)
    psi_hat_vector(psi1, lattice)
    psi_hat_vector(psi2, lattice)

    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "blas": blas.get("openblas configuration")
                      or blas.get("name")}))


if __name__ == "__main__":
    main(sys.argv[1])
