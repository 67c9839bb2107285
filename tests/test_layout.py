"""Package layout: src/saddlecheck holds only what the pipeline runs.

Every public top-level function and class in src/saddlecheck must be used
somewhere in src/ outside its own definition and the package __init__
re-exports.  Code that only tests reach (reference implementations the
tests compare against) belongs in tests/oracles.py, not in the program.
"""

import ast
from collections import Counter
from pathlib import Path

import saddlecheck

SRC = Path(saddlecheck.__file__).resolve().parent
ENTRY_POINTS = {"cli.main"}        # the console script


def _names(node) -> Counter:
    """How often each name is read or looked up as an attribute in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_is_used_by_the_program():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and f"{module}.{node.name}" not in ENTRY_POINTS
              and used[node.name] == _names(node)[node.name]]
    assert unused == [], unused
