"""JSON file formats for instances, solutions and trees.

Round trip is exact: parse(emit(x)) == x for both formats.  Timing and
other run metadata live only under the solution's "meta" key so that
everything outside it is deterministic.  This is the one module that reads
or writes JSON: orjson does both, and the stdlib `json` reads every
document orjson refuses, so each accepted value and each error message is
the stdlib's.
"""

from __future__ import annotations

import json
import mmap
import os
import re
from contextlib import nullcontext
from itertools import chain

import numpy as np
import orjson

from .metric import MetricSpace
from .model import Ball, NukcInstance, NukcSolution
from .rmfct import LayeredTree


class FormatError(ValueError):
    """Malformed instance or solution document."""


def _integral(value, what: str) -> int:
    """A JSON number with an integral value, as an int; anything else
    (booleans, strings, null, 1.5) is a FormatError."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise FormatError(f"{what} must be an integer, got {value!r}")


def _point_array(points: dict, key: str) -> np.ndarray:
    """points[key] as a float array: a list of equal-length lists of JSON
    numbers (not strings or booleans), or a FormatError naming the key."""
    rows = points[key]
    if isinstance(rows, np.ndarray):  # instance_to_obj's own array, not a document's
        return np.array(rows, dtype=float)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError(f'points "{key}" must be a list of lists of numbers')
    if len({len(row) for row in rows}) > 1:
        raise FormatError(f'points "{key}" rows must all have the same length')
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise FormatError(f'points "{key}" must hold only numbers')
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:  # an integer such as 10**400
        raise FormatError(f'points "{key}" holds an integer beyond float range') from exc


def instance_to_obj(instance: NukcInstance, coords=None) -> dict:
    """The instance document, its coords or matrix as a C-contiguous float
    array that `dump` writes without boxing a float per entry."""
    points = (
        {"coords": np.ascontiguousarray(coords, dtype=float)}
        if coords is not None
        else {"matrix": np.ascontiguousarray(instance.space.dist, dtype=float)}
    )
    obj = {
        "points": points,
        "classes": [
            {"k": c.multiplicity, "r": c.radius} for c in instance.classes
        ],
    }
    if instance.space.labels is not None:
        obj["labels"] = list(instance.space.labels)
    return obj


def instance_from_obj(obj: dict) -> NukcInstance:
    if not isinstance(obj, dict):
        raise FormatError("instance document must be a JSON object")
    points = obj.get("points")
    if not isinstance(points, dict):
        raise FormatError('instance needs a "points" object')
    has_coords = "coords" in points
    has_matrix = "matrix" in points
    if has_coords and has_matrix:
        raise FormatError('points must carry "coords" or "matrix", not both')
    if has_coords:
        coords = _point_array(points, "coords")
        if not np.isfinite(coords).all():
            raise FormatError("coords must be finite numbers")
        with np.errstate(over="ignore"):
            space = MetricSpace.from_coords(coords)
        if not np.isfinite(space.dist).all():
            raise FormatError("coords too large: their distances overflow")
    elif has_matrix:
        space = MetricSpace(_point_array(points, "matrix"), check=True)
    else:
        raise FormatError('points must carry "coords" or "matrix"')
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise FormatError('"labels" must be a list')
        space.labels = list(labels)
        if len(space.labels) != space.n:
            raise FormatError("labels length must match the number of points")
    classes = obj.get("classes")
    if not isinstance(classes, list) or not classes:
        raise FormatError('instance needs a non-empty "classes" list')
    parsed = []
    for i, c in enumerate(classes):
        try:
            k, r = c["k"], c["r"]
            if type(r) not in (int, float):  # bool, strings and null are not radii
                raise TypeError(r)
            parsed.append((_integral(k, f'class {i} "k"'), float(r)))
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f'class {i} needs integer "k" and numeric "r"') from exc
    return NukcInstance(space, parsed)


def solution_to_obj(solution: NukcSolution, outliers=None, meta=None) -> dict:
    obj = {
        "balls": [
            {"center": b.center, "class": b.class_index, "radius": b.radius_used}
            for b in solution.balls
        ],
        "outliers": sorted(int(p) for p in (outliers or [])),
    }
    if meta is not None:
        obj["meta"] = meta
    return obj


def solution_from_obj(obj: dict):
    if not isinstance(obj, dict) or not isinstance(obj.get("balls"), list):
        raise FormatError('solution document needs a "balls" list')
    balls = []
    for i, b in enumerate(obj["balls"]):
        try:
            center, cls, radius = b["center"], b["class"], b["radius"]
            if type(radius) not in (int, float):  # bool, strings and null are not radii
                raise TypeError(radius)
            radius = float(radius)
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(
                f'ball {i} needs "center", "class" and "radius"'
            ) from exc
        if not (np.isfinite(radius) and radius >= 0):
            raise FormatError(f"ball {i} radius must be finite and >= 0, got {radius}")
        balls.append(Ball(
            _integral(center, f"ball {i} center"), _integral(cls, f"ball {i} class"), radius
        ))
    outliers = obj.get("outliers", [])
    if not isinstance(outliers, list):
        raise FormatError('"outliers" must be a list of point ids')
    return NukcSolution(balls), [_integral(p, "outlier id") for p in outliers]


def tree_to_obj(tree: LayeredTree) -> dict:
    """The document of a tree whose nodes are 1..num_nodes, each numbered
    after its parent (as tree_from_obj and random_layered_tree number them)."""
    return {"parents": [None] + [tree.parent[v] or 0 for v in range(1, tree.num_nodes + 1)]}


def tree_from_obj(obj: dict) -> LayeredTree:
    """Node v > 0 of {"parents": [null, ...]} hangs off parents[v] < v, and
    node 0 is the root; the tree has one level per depth, budget 1 each."""
    if not isinstance(obj, dict) or not isinstance(obj.get("parents"), list):
        raise FormatError('tree document needs a "parents" list')
    parents = obj["parents"]
    if not parents or parents[0] is not None:
        raise FormatError("tree parents[0] must be null (the root)")
    depth, levels, parent = [0], [], {}
    for v, p in enumerate(parents[1:], 1):
        p = _integral(p, f"parent of node {v}")
        if not 0 <= p < v:
            raise FormatError(f"node {v} has invalid parent {p}")
        depth.append(depth[p] + 1)
        if depth[v] > len(levels):
            levels.append([])
        levels[depth[v] - 1].append(v)
        parent[v] = p or None
    try:
        return LayeredTree(levels, parent, [1.0] * len(levels))
    except ValueError as exc:  # a childless node above the leaves, or no node
        raise FormatError(f"tree document: {exc}") from exc


DUMP_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY

# orjson recurses once per nesting level with no limit of its own and
# crashes the process past about 4,000 levels on a 256 KiB thread stack
# (130,000 on the 8 MB main stack); the stdlib refuses at about 1,000
# levels with a RecursionError.  A deeper document goes to the stdlib.
MAX_DEPTH = 512
# Files above this size are parsed from a read-only mmap: a read() of a
# 3 MB matrix leaves its buffer to the malloc heap, and on the benchmark's
# matrix-io workload that raised peak RSS by 2.5 MB.  A small file costs
# less as one read().
MMAP_BYTES = 1 << 20
# What `_nesting` keeps of a document besides brackets: quotes, and a
# backslash with every byte that may follow it in a JSON string escape.
_STRING_MARKS = b'"\\/bfnrtu'
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b"[]{}" + _STRING_MARKS)))
_CHUNK = 1 << 18


def _nesting(data) -> int:
    """An upper bound on how deeply a parser of JSON text `data` (bytes or an
    mmap) recurses: the count of opening brackets when that is at most
    MAX_DEPTH, else the deepest nesting of the brackets outside strings,
    which is exact on the longest valid prefix, the only part a parser
    reads before it stops."""
    marks = b"".join(data[i:i + _CHUNK].translate(None, _NOT_MARKS)
                     for i in range(0, len(data), _CHUNK))
    opens = marks.count(b"[") + marks.count(b"{")
    if opens <= MAX_DEPTH:
        return opens
    if b"\\" in marks:
        marks = re.sub(rb"\\.", b"", marks, flags=re.S)
    marks = re.sub(rb'"[^"]*"', b"", marks).translate(None, _STRING_MARKS)
    brackets = np.frombuffer(marks, dtype=np.uint8)
    steps = np.where((brackets == ord("[")) | (brackets == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def dump(obj, path) -> None:
    """Write obj as one line of compact JSON with sorted keys, numpy arrays
    and scalars included; `python -m json.tool` reads it back indented."""
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(obj, option=DUMP_OPTIONS))


def load(path):
    """The JSON document at `path`, parsed by orjson, or by the stdlib when
    orjson refuses the text or it nests deeper than MAX_DEPTH; a FormatError
    when the stdlib refuses it too."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        with (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size > MMAP_BYTES
              else nullcontext(fh.read())) as data:
            if _nesting(data) <= MAX_DEPTH:
                try:
                    with memoryview(data) as view:
                        return orjson.loads(view)
                except orjson.JSONDecodeError:
                    pass
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise FormatError(f"{path}: JSON nested too deeply to parse") from exc
