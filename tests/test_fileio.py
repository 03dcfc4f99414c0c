import numpy as np
import pytest

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
        # Emit again: identical object.
        assert fileio.instance_to_obj(back) == obj

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
