"""The benchmark's four workloads: study inputs made from a workload seed.

Each workload puts most of its time in one layer and little in the others.
The model and study values are copies of the shipped ``configs/*.json`` at
the commit the benchmark was written on, kept here so that an edit to the
shipped configs cannot change what the benchmark measures.

Seeds that pick deterministic inputs (``chain`` spectral points, the
``bounds`` trace-class sample) draw them from a fixed pool, so that
``reference.json`` can hold the recorded output for every input the
benchmark can make.
"""

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

MODEL = {
    "d": 1, "L": 2.0, "K": 8,
    "profile": {"kind": "gaussian", "b0": 1.0, "sigma": 1.0},
    "weights": {"kind": "rademacher"},
    "psi1": {"x0": [0.0], "a": [0.0], "sigma": 1.0},
    "psi2": {"x0": [0.25], "a": [1.0], "sigma": 1.0},
}

# chain: spectral points are drawn from this grid, E in [0.5, 4] and
# eta in [0.3, 0.6]
CHAIN_Z_POOL = [(0.5 * i, eta) for i in range(1, 9)
                for eta in (0.3, 0.4, 0.5, 0.6)]
CHAIN_K = 16
CHAIN_ORDERS = [0, 1, 2, 3, 4]
CHAIN_POINTS = 4

# bounds: the seed picks the trace-class sample's seed from 1..BOUNDS_SEEDS
BOUNDS_SEEDS = 16
# the shipped grid minus L = 4 and 8: the d = 2, L = 8 window alone has
# 3.8e7 points and takes about a minute, longer than one benchmark run
BOUNDS_L_GRID = [1, 2]


def _model(**over):
    model = json.loads(json.dumps(MODEL))
    model.update(over)
    return model


def chain_points(seed):
    return sorted(random.Random(seed).sample(CHAIN_Z_POOL, CHAIN_POINTS))


def bounds_seed(seed):
    return 1 + seed % BOUNDS_SEEDS


def _chain(seed):
    study = {"kind": "expand", "orders": CHAIN_ORDERS,
             "z": [list(z) for z in chain_points(seed)]}
    return ({"model": _model(K=CHAIN_K), "study": study,
             "output": {"per_partition": True}}, None)


def _mc(seed):
    study = {"kind": "mc-validate", "n_keep": 2, "eta": 0.3, "E": 1.0,
             "lambdas": [0.1, 0.05, 0.025], "n_samples": 20000, "seed": 7,
             "antithetic": True, "control_orders": [1, 2, 3]}
    return {"model": _model(), "study": study, "output": {}}, seed


def _dos(seed):
    model = _model()
    del model["psi1"], model["psi2"]
    # order 1, not the shipped 2: the study then integrates orders 0-2 (the
    # last as the remainder scale) instead of 0-3, which halves its time
    study = {"kind": "dos", "lam": 0.05, "eps": 0.5,
             "eta": 0.10573712634405642, "order": 1,
             "chi": {"center": 1.0, "width": 0.5}, "n_samples": 400,
             "seed": 5, "check_routes": True}
    return {"model": model, "study": study, "output": {}}, seed


def _bounds(seed):
    model = _model()
    del model["psi1"], model["psi2"]
    study = {"kind": "bounds", "seed": bounds_seed(seed),
             "L_grid": BOUNDS_L_GRID}
    return {"model": model, "study": study, "output": {}}, None


# ---------------------------------------------------------------------------
# deterministic values in the result files, compared with reference.json


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def chain_values(files):
    """{"n|Re(z)|Im(z)": [Re T, Im T]} from expand.csv."""
    return {_chain_key(int(r["n"]), float(r["Re(z)"]), float(r["Im(z)"])):
            [float(r["Re(T)"]), float(r["Im(T)"])]
            for r in _csv_rows(files["expand.csv"])}


def _chain_key(n, E, eta):
    return f"{n}|{E!r}|{eta!r}"


def dos_values(files):
    return {"expansion_total": [json.loads(files["dos.json"])["expansion_total"]]}


def bounds_values(files):
    """{"<row>|<name>": [lhs, rhs]} from bounds.csv, in row order."""
    return {f"{i}|{r['name']}": [float(r["lhs"]), float(r["rhs"])]
            for i, r in enumerate(_csv_rows(files["bounds.csv"]))}


def reference_for(name, seed, table):
    """The recorded values a run of (workload, seed) is held to, or None
    for a workload without deterministic values."""
    if name == "chain":
        keys = [_chain_key(n, E, eta) for E, eta in chain_points(seed)
                for n in CHAIN_ORDERS]
        return {k: table["chain"][k] for k in keys}
    if name == "bounds":
        return dict(table["bounds"]["common"],
                    **table["bounds"]["by_seed"][str(bounds_seed(seed))])
    return table.get(name)


def mc_std_error(files):
    """Largest Monte-Carlo standard error the run reported (0 if none)."""
    if "mc_validate.csv" in files:
        return max(float(r["std_error"])
                   for r in _csv_rows(files["mc_validate.csv"]))
    if "dos.json" in files:
        return float(json.loads(files["dos.json"])["mc_std_error"])
    return 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    make: Callable  # seed -> (config dict, --seed value or None)
    values: Callable = None  # result files -> deterministic values


WORKLOADS = {w.name: w for w in [
    Workload("chain", "expand", _chain, chain_values),
    Workload("mc", "mc-validate", _mc),
    Workload("dos", "dos", _dos, dos_values),
    Workload("bounds", "bounds", _bounds, bounds_values),
]}
