"""Source hygiene checks: unused imports, and one algorithm list shared by
the CLI table, its argparse choices and the README."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from nukc import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nukc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_algorithm_lists_agree():
    """cli.ALGOS, `solve --algo` choices and README's "Algorithms: ..." list
    name the same algorithms in the same order."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    algo = next(a for a in sub.choices["solve"]._actions if a.dest == "algo")
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"Algorithms: (.*?)\.\n", readme, re.S).group(1)
    names = [name.strip(" #\n") for name in listed.split(",")]
    assert list(algo.choices) == list(cli.ALGOS) == names
