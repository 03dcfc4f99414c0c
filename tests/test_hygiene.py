"""Source hygiene checks: unused imports, dead locals, unread parameters,
one coverage rule, LP row thresholds only in `lp`, no private names read
across modules, named float guards, no zero-argument lambdas, no
`scipy.optimize`, no `scipy` at import time, `json` and `orjson` only in
`fileio`, one algorithm list shared by the CLI table, its argparse choices
and the README, package attributes that name a module are that module, and
a pinned list of public names."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nukc
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


def outermost_functions(tree):
    """Module-level functions and class methods; nested defs belong to the
    function that encloses them."""
    for node in ast.walk(tree):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef)) else []
        for child in body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child


def dead_locals(func):
    """Names bound anywhere inside `func`, nested closures included, that
    nothing inside `func` reads.  Parameters, `global` names and `_` are
    exempt."""
    bound, read, exempt = {}, set(), {"_"}
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            else:
                read.add(node.id)
        elif isinstance(node, ast.arg):
            exempt.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Global):
            exempt.update(node.names)
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read and name not in exempt]


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_locals(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    dead = [f"{func.name}: {name}" for func in outermost_functions(tree)
            for name in dead_locals(func)]
    assert not dead, f"{module} binds locals it never reads: {', '.join(dead)}"


def unread_parameters(tree, exempt=frozenset()):
    """'name: parameter (line)' for every parameter of a def or lambda that
    nothing inside it, nested closures included, reads.  Functions in
    `exempt` are skipped."""
    unread = []
    for func in ast.walk(tree):
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                or func in exempt):
            continue
        args = func.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unread += [f"{getattr(func, 'name', '<lambda>')}: {p.arg} (line {func.lineno})"
                   for p in params if p is not None and p.arg not in read]
    return unread


def algos_runners(tree):
    """The defs and lambdas `cli.ALGOS` maps algorithm names to."""
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "ALGOS" for t in node.targets))
    named = {v.id for v in table.values if isinstance(v, ast.Name)}
    return ({v for v in table.values if isinstance(v, ast.Lambda)}
            | {node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in named})


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_every_parameter_is_read(module):
    """A parameter nothing reads is an input that changes nothing.  Only the
    `cli.ALGOS` runners are exempt: their `(instance, q)` signature is the
    table's contract, and most runners ignore q."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    exempt = set()
    if module == "cli.py":
        exempt = algos_runners(tree)
        assert len(exempt) == len(cli.ALGOS)
    unread = unread_parameters(tree, exempt)
    assert not unread, f"{module} has parameters it never reads: {', '.join(unread)}"


def test_unread_parameter_is_caught():
    source = "\n".join([
        "def f(a, b):", "    return a", "g = lambda x, y: y",
        "def h(*args, k, **kw):", "    return [args, kw]",
        "def m(z):", "    def inner():", "        return z", "    return inner",
        "class C:", "    def n(self, w):", "        w = 1",
    ])
    assert sorted(unread_parameters(ast.parse(source))) == [
        "<lambda>: x (line 3)", "f: b (line 1)", "h: k (line 4)",
        "n: self (line 11)", "n: w (line 11)",
    ]
    tree = ast.parse("def r(i, q):\n    return i\nALGOS = {'r': r, 's': lambda i, q: i}\n")
    assert unread_parameters(tree, algos_runners(tree)) == []


def modules_naming(name, home):
    """Modules other than `home` whose source names `name`."""
    return [m for m in MODULES
            if m != home and re.search(rf"\b{name}\b", (SRC / m).read_text())]


def test_cover_tol_named_only_in_metric():
    """Ball membership goes through metric.within / metric.covered, so no
    other module restates the comparison with its own copy of the slack."""
    naming = modules_naming("COVER_TOL", "metric.py")
    assert not naming, f"modules naming COVER_TOL outside metric: {', '.join(naming)}"


def test_feas_tol_named_only_in_lp():
    """Row thresholds are lp's alone: lp.solve and lp.verdict apply them, so
    no other module judges an LP point with its own copy of the slack."""
    naming = modules_naming("FEAS_TOL", "lp.py")
    assert not naming, f"modules naming FEAS_TOL outside lp: {', '.join(naming)}"


def is_private(name):
    """A `_`-prefixed name that is not a dunder."""
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree):
    """Line of every read of another nukc module's private name: imported
    by `from .m import _x` (or `from nukc.m import _x`), or read as `m._x`
    off a module bound by `from . import m`, `from nukc import m` or
    `import nukc.m as m`."""
    modules, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.level > 0 and node.module is None) or node.module == "nukc"
            inside = node.level > 0 or (node.module or "").startswith("nukc.")
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                if (package or inside) and is_private(alias.name):
                    lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("nukc."))
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and is_private(node.attr)]
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_private_reads_across_modules(module):
    """A module's `_` names are its own: `lp` alone lays out the dense rows
    it pivots on, and no other module reaches into it, or into any other
    module, for a private helper."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = private_reads(tree)
    assert not lines, f"{module} reads another module's private names on lines {lines}"


def test_private_read_is_caught():
    source = "\n".join([
        "from . import lp", "from nukc import model as m", "import nukc.metric as met",
        "a = lp._rows(c)", "b = m._certify(c)", "c = met._x", "from .lp import _rows",
        "from nukc.model import _certify", "from . import _hidden",
        "d = lp.solve(c)", "e = lp.__name__", "f = other._x", "from .lp import solve",
        "from numpy import _private", "import numpy as np", "g = np._x",
    ])
    assert private_reads(ast.parse(source)) == [4, 5, 6, 7, 8, 9]


def bare_float_guards(tree):
    """Line of every float literal v with 0 < |v| < 1e-5 that is not the
    whole value of a module-level assignment to UPPER_CASE names."""
    named = {
        id(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)
    }
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-5 and id(node) not in named]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_float_guards_are_named(module):
    """A tiny float is a tolerance, so it gets a module constant whose
    comment says which error it absorbs, not a bare literal in the code."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = bare_float_guards(tree)
    assert not lines, f"{module} has bare float guards on lines {lines}"


def test_bare_float_guard_is_caught():
    source = "X = 1e-9\ny = 1e-9\nZ = (1e-9, 0.5)\ndef f(v):\n    return v - 1e-12\n"
    assert bare_float_guards(ast.parse(source)) == [2, 3, 5]


def zero_argument_lambdas(tree):
    """Line of every lambda that takes no arguments."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Lambda)
            and not (node.args.posonlyargs or node.args.args or node.args.vararg
                     or node.args.kwonlyargs or node.args.kwarg)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_thunks(module):
    """A search probe returns its witness or None and the search returns
    its winner's, so no deferred call is handed around to probe or solve
    the winner later."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = zero_argument_lambdas(tree)
    assert not lines, f"{module} has zero-argument lambdas on lines {lines}"


def test_thunk_is_caught():
    source = "f = lambda: 1\ng = lambda x: x\nh = lambda *a: a\nk = [lambda: 2]\n"
    assert zero_argument_lambdas(ast.parse(source)) == [1, 4]


def imported_modules(tree):
    """Dotted name of every module an import statement loads, with
    `from a import b` giving both a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_scipy_optimize(module):
    """Importing scipy.optimize (HiGHS, linprog) adds about 16 MB of peak
    RSS and 0.15 s to `import nukc.cli`, beyond the benchmark's 10%
    `peak_rss_mb` bound; the LPs are settled by `nukc.lp` instead."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    loaded = [name for name in imported_modules(tree)
              if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert not loaded, f"{module} imports {', '.join(loaded)}"


def eager_imports(tree):
    """(dotted module, line) for every import that runs when the module is
    imported: everywhere but inside a function body."""
    body = list(tree.body)
    while body:
        node = body.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((name, node.lineno) for name in imported_modules(node))
        body.extend(ast.iter_child_nodes(node))


def eager_scipy(tree):
    return sorted({line for name, line in eager_imports(tree)
                   if name == "scipy" or name.startswith("scipy.")})


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_scipy_at_import_time(module):
    """scipy.sparse.csgraph costs every `nukc` command about 0.3 s and 25 MB
    of peak RSS at start-up, and only `random_metric` uses it, so it imports
    it where it runs."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = eager_scipy(tree)
    assert not lines, f"{module} imports scipy at module level on lines {lines}"


def test_scipy_at_import_time_is_caught():
    source = ("import scipy\nfrom scipy.sparse import csgraph\n"
              "if True:\n    import scipy.linalg\n"
              "class A:\n    from scipy import sparse\n"
              "def f():\n    import scipy\n"
              "g = lambda: __import__('scipy')\nimport numpy\n")
    assert eager_scipy(ast.parse(source)) == [1, 2, 4, 6]


def json_imports(tree):
    return sorted({name for name in imported_modules(tree)
                   if name.split(".")[0] in ("json", "orjson")})


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_fileio_imports_json(module):
    """The file format stays behind `nukc.fileio`: it writes through orjson
    and reads through orjson or, for the documents orjson refuses, the
    stdlib, so no other module can parse or spell JSON its own way."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    loaded = json_imports(tree)
    assert module == "fileio.py" or not loaded, f"{module} imports {', '.join(loaded)}"


def test_json_import_is_caught():
    source = ("import json\nfrom orjson import loads\ndef f():\n    import json.decoder\n"
              "import jsonschema\nfrom . import fileio\n")
    assert json_imports(ast.parse(source)) == ["json", "json.decoder", "orjson", "orjson.loads"]


# Solves and validates a coordinates instance through the CLI, loads a matrix
# instance, then draws a random metric; prints whether scipy was loaded after
# each step.
SCIPY_SCRIPT = """
import json, sys
from nukc import cli, fileio, gadgets
out, loaded = sys.argv[1], []
coords = {"points": {"coords": [[0.0], [1.0], [5.0], [6.5]]},
          "classes": [{"k": 1, "r": 1.0}, {"k": 1, "r": 0.5}]}
matrix = {"points": {"matrix": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]},
          "classes": [{"k": 1, "r": 2.0}]}
for name, doc in (("coords", coords), ("matrix", matrix)):
    with open(f"{out}/{name}.json", "w") as fh:
        json.dump(doc, fh)
loaded.append("scipy" in sys.modules)
solved = cli.main(["solve", "--algo", "bicriteria", "--input", f"{out}/coords.json",
                   "--out", f"{out}/sol.json"])
checked = cli.main(["validate", "--instance", f"{out}/coords.json",
                    "--solution", f"{out}/sol.json"])
loaded.append("scipy" in sys.modules)
fileio.instance_from_obj(fileio.load(f"{out}/matrix.json"))
loaded.append("scipy" in sys.modules)
gadgets.random_metric(4, 0)
loaded.append("scipy" in sys.modules)
print(json.dumps([solved, checked, loaded]))
"""


def test_coordinates_instances_never_load_scipy(tmp_path):
    """Importing nukc.cli, solving and validating a coordinates instance,
    and loading a matrix instance (its metric certificate is numpy alone)
    leave scipy unloaded; `random_metric` loads it, so the check can fail."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, [false, false, false, true]]"


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


def test_module_names_are_the_modules():
    """`from .embed import embed` in `__init__` would rebind `nukc.embed` to
    the function, and `import nukc.embed as m` would then give the function,
    so no package attribute named after a module may be anything else."""
    shadowed = [name for name in (Path(m).stem for m in MODULES)
                if importlib.import_module(f"nukc.{name}") is not getattr(nukc, name)]
    assert not shadowed, f"nukc attributes that are not their modules: {', '.join(shadowed)}"


PUBLIC = [
    "Ball", "LayeredTree", "MetricSpace", "NukcInstance", "NukcSolution", "RadiusClass",
    "SizeBudgetError", "achieved_dilation", "bicriteria", "build_nukc_lp", "build_rmfct_lp",
    "charikar_kcwo", "charikar_kcwo_search", "compress_radii", "coverage", "embed",
    "enum_solve", "exact_nukc", "gadgets", "gonzalez_kcenter",
    "hardness_gadget", "lift_compressed_solution", "lift_tree_solution", "lp", "metric",
    "min_feasible_dilation", "model", "oracle", "random_euclidean", "random_layered_tree",
    "random_metric", "rmfct", "round_bottom_heavy", "round_depth2", "round_loose",
    "solve_guess_q", "solve_kcwo", "solve_two_radii", "solvers", "validate_metric",
    "validate_solution",
]


def test_public_names_are_pinned():
    """Adding or dropping a name from `nukc.__all__` is a change to this list."""
    assert sorted(nukc.__all__) == PUBLIC
