import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nukc import fileio
from nukc.gadgets import random_euclidean, random_layered_tree, random_metric
from nukc.model import Ball, NukcInstance, NukcSolution


class TestInstanceRoundTrip:
    def test_matrix_round_trip(self, line_instance):
        obj = fileio.instance_to_obj(line_instance)
        back = fileio.instance_from_obj(obj)
        assert np.allclose(back.space.dist, line_instance.space.dist)
        assert back.radii == line_instance.radii
        assert back.budgets == line_instance.budgets
        # Emit again: identical object (its matrix is an array).
        np.testing.assert_equal(fileio.instance_to_obj(back), obj)

    def test_coords_expand_to_matrix(self):
        space, coords = random_euclidean(6, 2, seed=0)
        inst = NukcInstance(space, [(2, 0.5)])
        obj = fileio.instance_to_obj(inst, coords=coords)
        assert "coords" in obj["points"]
        back = fileio.instance_from_obj(obj)
        assert np.allclose(back.space.dist, space.dist)

    def test_both_coords_and_matrix_rejected(self):
        obj = {
            "points": {"coords": [[0.0]], "matrix": [[0.0]]},
            "classes": [{"k": 1, "r": 1.0}],
        }
        with pytest.raises(fileio.FormatError, match="not both|both"):
            fileio.instance_from_obj(obj)

    def test_missing_points_rejected(self):
        with pytest.raises(fileio.FormatError):
            fileio.instance_from_obj({"classes": [{"k": 1, "r": 1.0}]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_coords_rejected(self, bad):
        obj = {"points": {"coords": [[0.0], [bad]]}, "classes": [{"k": 1, "r": 1.0}]}
        with pytest.raises(fileio.FormatError, match="finite"):
            fileio.instance_from_obj(obj)

    def test_overflowing_coords_rejected(self):
        # Finite coords whose squared differences overflow give inf
        # distances, which a ball of radius inf would "cover".
        obj = {"points": {"coords": [[0.0], [1e200]]}, "classes": [{"k": 1, "r": 1.0}]}
        with pytest.raises(fileio.FormatError, match="overflow"):
            fileio.instance_from_obj(obj)

    def test_bad_class_entry_rejected(self):
        obj = {"points": {"matrix": [[0.0]]}, "classes": [{"k": "one"}]}
        with pytest.raises(fileio.FormatError):
            fileio.instance_from_obj(obj)


class TestSolutionRoundTrip:
    def test_round_trip(self):
        sol = NukcSolution([Ball(0, 0, 1.5), Ball(3, 1, 0.0)])
        obj = fileio.solution_to_obj(sol, outliers=[4, 2])
        back, outliers = fileio.solution_from_obj(obj)
        assert back.balls == sol.balls
        assert outliers == [2, 4]
        assert fileio.solution_to_obj(back, outliers=outliers) == obj

    def test_meta_is_optional_and_preserved(self):
        sol = NukcSolution([Ball(0, 0, 1.0)])
        obj = fileio.solution_to_obj(sol, meta={"algo": "x"})
        assert obj["meta"]["algo"] == "x"
        back, _ = fileio.solution_from_obj(obj)
        assert back.balls == sol.balls


    @pytest.mark.parametrize(
        "radius",
        [float("nan"), float("inf"), float("-inf"), -1.0, -1, 10**400],
        ids=["nan", "inf", "-inf", "-1.0", "-1", "10**400"],
    )
    def test_bad_ball_radius_rejected(self, radius):
        obj = {"balls": [{"center": 0, "class": 0, "radius": radius}]}
        with pytest.raises(fileio.FormatError, match="ball 0"):
            fileio.solution_from_obj(obj)


class TestTreeRoundTrip:
    def test_round_trip(self):
        obj = {"parents": [None, 0, 0, 1, 1, 2, 2]}
        tree = fileio.tree_from_obj(obj)
        assert tree.levels == [[1, 2], [3, 4, 5, 6]]
        assert tree.parent == {1: None, 2: None, 3: 1, 4: 1, 5: 2, 6: 2}
        assert tree.budgets == [1.0, 1.0]
        assert fileio.tree_to_obj(tree) == obj
        for seed in range(8):
            tree = random_layered_tree(1 + seed % 4, 3, seed)
            back = fileio.tree_from_obj(fileio.tree_to_obj(tree))
            assert (back.levels, back.parent, back.budgets) == (tree.levels, tree.parent, tree.budgets)

    @pytest.mark.parametrize(
        "parents",
        [[None, 0.5, 0.9], [None, "0"], [None, None], [5, 0], [],
         [None, 5], [None, -1], [None, 0, 0, 1], [None]],
        ids=["fractional", "string", "null-parent", "root-with-parent", "empty",
             "forward-parent", "negative-parent", "uneven-leaves", "root-only"],
    )
    def test_bad_parents_rejected(self, parents):
        with pytest.raises(fileio.FormatError):
            fileio.tree_from_obj({"parents": parents})


class TestFiles:
    def test_dump_load(self, tmp_path, line_instance):
        path = tmp_path / "inst.json"
        fileio.dump(fileio.instance_to_obj(line_instance), path)
        obj = fileio.load(path)
        assert fileio.instance_from_obj(obj).n == 5

    def test_matrix_instance_survives_dump_and_load(self, tmp_path):
        # One line of JSON, and the 400 x 400 matrix comes back bit for bit.
        inst = NukcInstance(random_metric(400, seed=11), [(4, 1.0), (2, 0.0)])
        path = tmp_path / "matrix.json"
        fileio.dump(fileio.instance_to_obj(inst), path)
        assert path.read_text().count("\n") == 1
        back = fileio.instance_from_obj(fileio.load(path))
        assert back.space.dist.tobytes() == inst.space.dist.tobytes()
        assert back.classes == inst.classes

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(fileio.FormatError):
            fileio.load(path)

    def test_dump_is_compact_with_sorted_keys(self, tmp_path):
        # orjson spells floats its own way: 1e-05 as 0.00001, 1e+16 as 1e16.
        path = tmp_path / "doc.json"
        fileio.dump({"b": [1e-05, 1e16, np.arange(2.0)], "a": {"d": None, "c": True}}, path)
        assert path.read_text() == '{"a":{"c":true,"d":null},"b":[0.00001,1e16,[0.0,1.0]]}\n'


def assert_reads_like_stdlib(path, text):
    """fileio.load(path) of `text` gives what json.loads gives, NaN, -0.0,
    key order and int/float types included, or its error message."""
    path.write_text(text)
    try:
        expected = repr(json.loads(text))
    except json.JSONDecodeError as exc:
        with pytest.raises(fileio.FormatError) as raised:
            fileio.load(path)
        assert str(raised.value) == f"{path}: not valid JSON ({exc})"
    else:
        assert repr(fileio.load(path)) == expected


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63) | st.floats()
    | st.text(st.characters(blacklist_categories=())),
    lambda values: st.lists(values, max_size=4) | st.dictionaries(st.text(), values, max_size=4),
    max_leaves=20,
)


class TestLoadAgreesWithStdlib:
    """orjson parses what it can; the stdlib reads the rest (NaN and
    Infinity tokens, 1e400, lone surrogates, deep nesting, invalid text)."""

    @settings(max_examples=300, deadline=None)
    @given(json_values, st.booleans(), st.sampled_from([None, 0, 2]), st.booleans(), st.data())
    def test_documents_written_by_json_dumps(self, tmp_path_factory, value, ascii_only,
                                             indent, huge, data):
        text = json.dumps(value, ensure_ascii=ascii_only, indent=indent)
        if huge:  # an out-of-range literal: inf to json.loads, refused by orjson
            text = text.replace("Infinity", "1e400")
        if data.draw(st.booleans(), label="truncate"):
            text = text[:data.draw(st.integers(0, max(len(text) - 1, 0)), label="cut")]
        if not ascii_only and any("\ud800" <= ch <= "\udfff" for ch in text):
            return  # a lone surrogate has no UTF-8 encoding, so no file holds it raw
        assert_reads_like_stdlib(tmp_path_factory.mktemp("doc") / "doc.json", text)

    @pytest.mark.parametrize("text", [
        "[1.5, NaN]", '{"a": [1, 2], "b": -0.0}', "[1, 2", "[1] x",
    ], ids=["nan", "valid", "unterminated", "extra-data"])
    def test_large_files_read_like_small_ones(self, tmp_path, text):
        # Past MMAP_BYTES the file is parsed from an mmap.
        assert_reads_like_stdlib(tmp_path / "big.json", text + " " * (fileio.MMAP_BYTES + 1))

    def test_integers_beyond_64_bits_read_as_the_nearest_double(self, tmp_path):
        # The one value orjson reads differently: json.loads keeps the int.
        path = tmp_path / "ints.json"
        path.write_text(f"[{2**64}, {2**70 + 1}, {-2**63 - 1}, {2**64 - 1}, {-2**63}]")
        assert fileio.load(path) == [2.0**64, 2.0**70, -2.0**63, 2**64 - 1, -2**63]
        assert [type(v) for v in fileio.load(path)] == [float, float, float, int, int]

    @pytest.mark.parametrize("depth", [fileio.MAX_DEPTH, fileio.MAX_DEPTH + 1, 700])
    def test_nesting_past_the_limit_reads_like_stdlib(self, tmp_path, depth):
        assert_reads_like_stdlib(tmp_path / "deep.json", "[" * depth + "1" + "]" * depth)

    @pytest.mark.parametrize("text,depth", [
        ('["' + "]" * 600 + '", ' + "[" * 600 + "]" * 601, 601),
        ('["' + "[" * 600 + '"]', 1),
        (r'["\"", ' + "[" * 600 + "]" * 601, 601),
        (r'["\"]\\", "[\n' + "[" * 600 + '"]', 1),
        ('{"a": {"b": ' + "[" * 600, 602),
        ('["' + "[" * 600, 601),
    ], ids=["closers-in-string", "openers-in-string", "escaped-quote", "escaped-backslash",
            "unclosed", "unterminated-string"])
    def test_nesting_skips_strings(self, text, depth):
        # A bound on the valid prefix is what keeps orjson's recursion safe.
        assert fileio._nesting(text.encode()) == depth
