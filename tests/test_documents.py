"""Document mutation: replacing any node of a valid instance or solution
document with a hostile value gives a defined exit code (0 to 4) from
`nukc solve` and `nukc validate`, never a traceback; in a tree document it
gives a tree or a `FormatError` from `fileio.tree_from_obj`."""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nukc import cli, fileio

# Fixed values only: an unbounded integer drawn as a "k" of 10**9 would make
# the solvers expand 10**9 radius slots.
PALETTE = [None, True, "x", -1, 0, 1.5, 1e308, math.nan, math.inf, -math.inf,
           [], {}, [[]], 2**70]

INSTANCES = [
    {
        "points": {"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]},
        "classes": [{"k": 1, "r": 1.5}, {"k": 2, "r": 0.0}],
        "labels": ["a", "b", "c", "d"],
    },
    {
        "points": {"matrix": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]},
        "classes": [{"k": 1, "r": 1.0}, {"k": 1, "r": 0.5}],
    },
]
SOLUTION = {
    "balls": [{"center": 0, "class": 0, "radius": 2.0},
              {"center": 2, "class": 1, "radius": 0.0}],
    "outliers": [1],
}
FACTORS = [[], ["--count-factor", "1", "--radius-factor", "1"],
           ["--count-factor", "0", "--radius-factor", "0"]]


def node_paths(node, prefix=()):
    """The key path of every node of a JSON document, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutated(draw, doc):
    path = draw(st.sampled_from(list(node_paths(doc))))
    return replaced(doc, path, draw(st.sampled_from(PALETTE)))


@st.composite
def document_pairs(draw):
    """(instance, solution) with one hostile node in one of them."""
    instance = draw(st.sampled_from(INSTANCES))
    if draw(st.booleans()):
        return draw(mutated(instance)), SOLUTION
    return instance, draw(mutated(SOLUTION))


# A "k" beyond an index once escaped as an OverflowError traceback.
HUGE_K = [(replaced(INSTANCES[0], ("classes", 0, "k"), k), SOLUTION) for k in (1e308, 2**70)]
# A near-max diagonal entry once overflowed the triangle scan into a warning.
HUGE_DIAGONAL = (replaced(INSTANCES[1], ("points", "matrix", 0, 0), 1e308), SOLUTION)


@settings(max_examples=200, deadline=None)
@example(HUGE_K[0], "kcenter", [])
@example(HUGE_K[1], "bicriteria", [])
@example(HUGE_DIAGONAL, "exact", [])
@given(document_pairs(), st.sampled_from(list(cli.ALGOS)), st.sampled_from(FACTORS))
def test_hostile_node_gives_a_defined_exit_code(docs, algo, factors):
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol = Path(tmp, "inst.json"), Path(tmp, "sol.json")
        inst.write_text(json.dumps(docs[0]))
        sol.write_text(json.dumps(docs[1]))
        solved = cli.main(["solve", "--algo", algo, "--input", str(inst),
                           "--out", str(Path(tmp, "out.json"))])
        checked = cli.main(["validate", "--instance", str(inst), "--solution", str(sol),
                            *factors])
    assert solved in range(5) and checked in range(5)


TREE = {"parents": [None, 0, 0, 1, 1, 2, 2]}


def test_hostile_tree_node_gives_a_tree_or_a_format_error():
    # A forward or negative parent and uneven leaves once escaped as a
    # plain ValueError.
    for path in node_paths(TREE):
        for value in PALETTE:
            doc = replaced(TREE, path, value)
            try:
                tree = fileio.tree_from_obj(doc)
            except fileio.FormatError:
                continue
            assert fileio.tree_to_obj(tree) == doc
