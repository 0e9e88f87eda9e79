"""The demo scripts compile and import only names pbclab has.

Running a demo takes seconds to minutes, so this check stops short of it:
each `demos/*.py` is compiled, and every ``from pbclab... import name``
in it must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_a_demo_compiles_and_its_pbclab_imports_resolve(path):
    source = path.read_text()
    tree = compile(source, str(path), "exec", ast.PyCF_ONLY_AST)
    compile(tree, str(path), "exec")
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pbclab"]
    assert imports, f"{path.name} imports nothing from pbclab"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{path.name}: {node.module} has no {alias.name}"
