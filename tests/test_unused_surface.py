"""Guard against unused surface in the package.

Every top-level function, class and method of ``src/weakdis`` must be named
somewhere in the package outside its own definition: by another module
(``__init__`` re-exports do not count) or elsewhere in its own module.  The
few that only tests or the benchmark reach are listed here, each with its
reason; anything else that no study reaches is deleted or moved to
``tests/reference.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weakdis"

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
