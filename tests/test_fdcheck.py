"""The oracle's independence from the jet pipeline, checked on its source.

`fdcheck` is the independent half of every oracle cross-check, so it may
use the package only to evaluate a metric expression in mpmath: it
imports no bachlab module but `exprs`, and reads nothing of `exprs` but
`eval_mp`.
"""

import ast
from importlib import resources


def test_oracle_uses_the_package_only_through_exprs_eval_mp():
    source = resources.files("bachlab").joinpath("fdcheck.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    bound = set()  # local names of the exprs module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.partition(".")[0] == "bachlab"
                           for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("bachlab")):
            module = (node.module or "").removeprefix("bachlab").lstrip(".")
            names = {a.name for a in node.names}
            if module:
                assert module == "exprs" and names <= {"eval_mp"}, \
                    ast.unparse(node)
            else:
                assert names == {"exprs"}, ast.unparse(node)
                bound.update(a.asname or a.name for a in node.names)
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in bound}
    assert reads <= {"eval_mp"}, f"fdcheck reads exprs.{sorted(reads)}"
