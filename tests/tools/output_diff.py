"""Which outputs of the six reduced ledger studies a change moves.

    python tests/tools/output_diff.py --root PARENT

Runs the six studies of ``tests/golden/record.py`` (its model and study
blocks, ``--threads 1``, one BLAS thread) once with the package of the
checkout at ``--root`` and once with this checkout's, and then each
checkout's shipped ``configs/*.json`` with ``--check --threads 1`` (files
``shipped/<config>/...``).  For every output file whose bytes differ it
prints each CSV column or JSON key that changed and the largest relative
change |a - b| / max(|a|, |b|) among its numbers (``text`` where a value
that is not a number changed); a file that only one run wrote is named as
such.  This is the sentence the ledger protocol asks for when a change
re-records the ledger.  Exits 1 when any file differs; a run that does not
exit 0 stops the tool with its study, config and exit code.
Not a test module: the test suite does not collect it.
"""

import argparse
import csv
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location(
    "golden_record", HERE.parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def rel_change(a, b):
    """|a - b| / max(|a|, |b|) for two numbers (0 when equal), else None."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y or (x != x and y != y):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def csv_cells(text):
    """{column: [cells]} of a CSV file with a header row."""
    rows = list(csv.reader(io.StringIO(text)))
    return {name: [row[i] for row in rows[1:]]
            for i, name in enumerate(rows[0] if rows else [])}


def json_leaves(node, path=""):
    """{dotted path: leaf value} of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = ((f"[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    out = {}
    for key, value in items:
        sub = f"{path}{key}" if key.startswith("[") else (
            f"{path}.{key}" if path else key)
        out.update(json_leaves(value, sub))
    return out


def changes(old, new):
    """[(field, largest relative change or 'text', or 'only in ...')] of
    two {field: value or [values]} maps, fields in the new file's order."""
    found = []
    for field in list(new) + [f for f in old if f not in new]:
        if field not in old or field not in new:
            found.append((field, "only in " + ("new" if field in new
                                               else "parent")))
            continue
        a, b = old[field], new[field]
        pairs = zip(a, b) if isinstance(a, list) and isinstance(b, list) \
            else [(a, b)]
        worst = None
        for x, y in pairs:
            if x == y:
                continue
            r = rel_change(x, y)
            worst = "text" if r is None or worst == "text" else max(
                r, worst or 0.0)
        if isinstance(a, list) and isinstance(b, list) and len(a) != len(b):
            worst = f"{len(a)} -> {len(b)} rows"
        if worst is not None:
            found.append((field, worst))
    return found


def file_changes(path_old, path_new):
    old, new = path_old.read_text(), path_new.read_text()
    if path_new.suffix == ".csv":
        return changes(csv_cells(old), csv_cells(new))
    if path_new.suffix == ".json":
        return changes(json_leaves(json.loads(old)),
                       json_leaves(json.loads(new)))
    return [("(bytes)", "text")]


def run_shipped(work, root):
    """Run every ``configs/*.json`` of the checkout at root with --check
    into work/shipped/<config>, with that checkout's package; returns
    {"shipped/<config>/file": sha256}."""
    digests = {}
    for cfg in sorted((root / "configs").glob("*.json")):
        study = json.loads(cfg.read_text())["study"]["kind"]
        out = work / "shipped" / cfg.stem
        for file, digest in record.run_engine(study, cfg, out, root / "src",
                                              "--check").items():
            digests[f"shipped/{cfg.stem}/{file}"] = digest
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="checkout to compare against (its src/ runs, "
                             "on its configs/ too)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for label, root in (("parent", args.root.resolve()),
                            ("new", record.SRC.parent)):
            work = Path(tmp) / label
            work.mkdir()
            runs[label] = (work, {**record.run_studies(work, root / "src"),
                                  **run_shipped(work, root)})
        (old_dir, old), (new_dir, new) = runs["parent"], runs["new"]
        moved = 0
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) == new.get(name):
                continue
            moved += 1
            if name not in old or name not in new:
                print(f"{name}: only in {'new' if name in new else 'parent'}")
                continue
            print(f"{name}:")
            for field, worst in file_changes(old_dir / name, new_dir / name):
                shown = f"{worst:.3g}" if isinstance(worst, float) else worst
                print(f"  {field}: largest relative change {shown}")
        print(f"{moved} of {len(old.keys() | new.keys())} files differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
