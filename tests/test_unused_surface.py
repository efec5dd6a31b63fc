"""Guard against unused surface in the package.

Every top-level function, class and method of ``src/weakdis`` must be named
somewhere in the package outside its own definition: by another module
(``__init__`` re-exports do not count) or elsewhere in its own module.  The
few that only tests or the benchmark reach are listed here, each with its
reason; anything else that no study reaches is deleted or moved to
``tests/reference.py``.

Every key of the config schema in ``cli`` must likewise be read somewhere
outside the schema table, and every shipped config must load.
"""

import ast
from pathlib import Path

from weakdis import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "weakdis"
CONFIGS = SRC.parent.parent / "configs"
# the module-level names of cli that hold the schema table
SCHEMA_TABLE = {"_PSI", "_MODEL", "_STUDY", "_CONFIG"}

ALLOWED = {
    "coefficients.coefficient_T_oracle": "criterion 3's independent reference",
    "dos.dos_coefficient_D": "criterion 6; binding pinned by perfbench/tracer.py",
    "montecarlo.estimate_partial_term":
        "criterion 4; binding pinned by perfbench/tracer.py",
    "coefficients.conj_symmetry_check": "acceptance criterion 9",
    "montecarlo.neumann_identity_check": "acceptance criterion 9",
    "partitions.poisson_factorial_moment": "acceptance criterion 2",
    "partitions.apply_MA": "acceptance criterion 9",
}


def _definitions(tree):
    """(qualified name, bare name, node) of every top-level function and
    class, and of every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _names(tree, skip=None):
    """Every identifier a tree names (variables, attributes, imports),
    leaving out the subtree skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_surface():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    users = {m: _names(t) for m, t in trees.items() if m != "__init__"}
    unused = []
    for mod, tree in trees.items():
        for qual, name, node in _definitions(tree):
            named = any(name in names for m, names in users.items() if m != mod)
            if not (named or name in _names(tree, skip=node)):
                unused.append(f"{mod}.{qual}")
    return sorted(unused)


def test_every_definition_is_used_or_allowed():
    assert unused_surface() == sorted(ALLOWED)


def _schema_keys(schema, where):
    """(block, key) of every key of a schema and of its nested blocks."""
    for key, (check, _) in schema.items():
        yield where, key
        if isinstance(check, dict):
            yield from _schema_keys(check, f"{where}.{key}")


def _key_readers(tree, skip):
    """The string constants a tree holds outside docstrings and the
    top-level assignments to the names in skip, and the names of the
    fields its classes annotate (the keyword arguments a block spreads
    into)."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in skip for t in node.targets):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Constant):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        elif isinstance(node, ast.ClassDef):
            out.update(n.target.id for n in node.body
                       if isinstance(n, ast.AnnAssign))
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_schema_key_is_read():
    assert SCHEMA_TABLE <= set(vars(cli))
    readers = set()
    for path in SRC.glob("*.py"):
        skip = SCHEMA_TABLE if path.stem == "cli" else set()
        readers |= _key_readers(ast.parse(path.read_text()), skip)
    keys = list(_schema_keys(cli._CONFIG, "config"))
    for kind, schema in cli._STUDY.items():
        keys += _schema_keys(schema, f"study ({kind})")
    assert [f"{where}: {key}" for where, key in keys
            if key not in readers] == []


def test_shipped_configs_load():
    kinds = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(str(path))
        assert cli._typed(cfg, cli._CONFIG, "config") == cfg
        cli.build_model(cfg["model"])
        kinds.append(cfg["study"]["kind"])
    assert sorted(kinds) == sorted(cli.STUDIES)
