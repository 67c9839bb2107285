"""Package layout: src/saddlecheck holds only what the pipeline runs.

Every public top-level function and class in src/saddlecheck, and every
public method and property of those classes, must be used somewhere in src/
outside its own definition and the package __init__ re-exports.  Code that
only tests reach (reference implementations the tests compare against)
belongs in tests/oracles.py, not in the program.
"""

import ast
from collections import Counter
from pathlib import Path

import saddlecheck

SRC = Path(saddlecheck.__file__).resolve().parent
ENTRY_POINTS = {"cli.main"}        # the console script
# read by the benchmark harness (perfbench/trace_child.py records the
# unknowns of each Newton solve), which lives outside src/
HARNESS_NAMES = {"grid.Grid.n_unknowns"}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _names(node) -> Counter:
    """How often each name is read or looked up as an attribute in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(module: str, tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method and property of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) \
                            and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member


def test_every_public_name_is_used_by_the_program():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [name for module, tree in trees.items()
              for name, node in _public_defs(module, tree)
              if name not in ENTRY_POINTS | HARNESS_NAMES
              and used[node.name] == _names(node)[node.name]]
    assert unused == [], unused
