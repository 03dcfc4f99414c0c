import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nukc import cli, fileio, lp
from nukc.cli import EXIT_SOLVER, main


def run(args, capsys=None):
    code = main(list(args))
    return code


class TestGenerate:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("euclidean", ["--n", "8"]),
            ("random-metric", ["--n", "7"]),
            ("hardness-gadget", ["--depth", "2", "--branching", "2", "--c", "1"]),
            ("layered-tree", ["--depth", "2", "--branching", "3"]),
        ],
    )
    def test_kinds_write_files(self, tmp_path, kind, extra):
        out = tmp_path / "x.json"
        assert run(["generate", "--kind", kind, "--seed", "1", "--out", str(out), *extra]) == 0
        assert out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["generate", "--kind", "euclidean", "--n", "8", "--seed", "9"]
        run([*base, "--out", str(a)])
        run([*base, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_classes_override(self, tmp_path):
        out = tmp_path / "x.json"
        run(
            ["generate", "--kind", "euclidean", "--n", "6", "--seed", "1",
             "--classes", "2:0.5,1:0.25", "--out", str(out)]
        )
        inst = fileio.instance_from_obj(fileio.load(out))
        assert inst.budgets == [2, 1]

    @pytest.mark.parametrize("kind", ["euclidean", "random-metric"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_point_count_below_one_is_usage_error(self, tmp_path, capsys, kind, n):
        out = tmp_path / "x.json"
        assert run(["generate", "--kind", kind, "--n", n, "--seed", "0",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_is_usage_error(self, tmp_path, capsys, dim):
        out = tmp_path / "x.json"
        assert run(["generate", "--kind", "euclidean", "--dim", dim, "--seed", "0",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --dim must be at least 1, got {dim}\n"
        assert not out.exists()


    @pytest.mark.parametrize("c", ["nan", "0.5", "0"])
    def test_gadget_c_below_one_is_usage_error(self, tmp_path, capsys, c):
        # NaN used to pass the c < 1 test and fail later as "not a metric".
        out = tmp_path / "x.json"
        assert run(["generate", "--kind", "hardness-gadget", "--c", c, "--seed", "0",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: gadget needs c >= 1, got {float(c)}\n"
        assert not out.exists()


class TestSolveValidate:
    def make_instance(self, tmp_path, n=8, classes="1:0.4,2:0.15", seed=2):
        out = tmp_path / "inst.json"
        run(["generate", "--kind", "euclidean", "--n", str(n), "--seed", str(seed),
             "--classes", classes, "--out", str(out)])
        return out

    @pytest.mark.parametrize(
        "algo", ["exact", "kcenter", "two-radii", "guess-q", "bicriteria"]
    )
    def test_round_trip_exit_zero(self, tmp_path, algo):
        inst = self.make_instance(tmp_path)
        sol = tmp_path / "sol.json"
        assert run(["solve", "--algo", algo, "--input", str(inst), "--out", str(sol)]) == 0
        obj = fileio.load(sol)
        assert "meta" in obj and obj["meta"]["algo"] == algo
        assert run(["validate", "--instance", str(inst), "--solution", str(sol)]) == 0

    def test_kcwo_needs_zero_second_radius(self, tmp_path):
        inst = self.make_instance(tmp_path)
        sol = tmp_path / "sol.json"
        code = run(["solve", "--algo", "kcwo", "--input", str(inst), "--out", str(sol)])
        assert code == 2  # usage error: second class radius is not 0

    def test_kcwo_round_trip(self, tmp_path):
        inst = self.make_instance(tmp_path, classes="2:0.3,2:0")
        sol = tmp_path / "sol.json"
        assert run(["solve", "--algo", "kcwo", "--input", str(inst), "--out", str(sol)]) == 0
        assert run(["validate", "--instance", str(inst), "--solution", str(sol)]) == 0

    def test_kcwo_coincident_points(self, tmp_path, capsys):
        """The two points at 100 are one distance-zero group: a single
        zero-radius ball excuses both."""
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        inst.write_text(json.dumps({"points": {"coords": [[0], [1], [100], [100]]},
                                    "classes": [{"k": 1, "r": 1.0}, {"k": 1, "r": 0.0}]}))
        assert run(["solve", "--algo", "kcwo", "--input", str(inst), "--out", str(sol)]) == 0
        capsys.readouterr()
        assert run(["validate", "--instance", str(inst), "--solution", str(sol),
                    "--count-factor", "1"]) == 0
        assert capsys.readouterr().out.startswith("valid")

    def test_validate_strict_factors_can_fail(self, tmp_path, capsys):
        inst = self.make_instance(tmp_path)
        sol = tmp_path / "sol.json"
        run(["solve", "--algo", "bicriteria", "--input", str(inst), "--out", str(sol)])
        code = run(["validate", "--instance", str(inst), "--solution", str(sol),
                    "--radius-factor", "1e-6", "--count-factor", "1"])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_exact_budget_refusal(self, tmp_path):
        inst = self.make_instance(tmp_path, n=20, classes="3:0.4,3:0.2")
        sol = tmp_path / "sol.json"
        assert run(["solve", "--algo", "exact", "--input", str(inst), "--out", str(sol)]) == 3

    def test_dump_lp(self, tmp_path):
        inst = self.make_instance(tmp_path)
        sol = tmp_path / "sol.json"
        lp_path = tmp_path / "relax.lp"
        run(["solve", "--algo", "kcenter", "--input", str(inst), "--out", str(sol),
             "--dump-lp", str(lp_path)])
        assert "Subject To" in lp_path.read_text()

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-0.5"])
    def test_dump_lp_dilation_must_be_finite_and_nonnegative(self, tmp_path, capsys, value):
        # nan or -1 wrote an LP whose every covering row read 0 >= 1.
        inst = self.make_instance(tmp_path)
        sol, lp_path = tmp_path / "sol.json", tmp_path / "relax.lp"
        assert run(["solve", "--algo", "kcenter", "--input", str(inst), "--out", str(sol),
                    "--dump-lp", str(lp_path), "--dump-lp-dilation", value]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: --dump-lp-dilation must be a finite number >= 0, "
                       f"got {float(value)}\n")
        assert not lp_path.exists() and not sol.exists()

    def test_dump_lp_dilation_zero_is_accepted(self, tmp_path):
        inst = self.make_instance(tmp_path)
        sol, lp_path = tmp_path / "sol.json", tmp_path / "relax.lp"
        assert run(["solve", "--algo", "kcenter", "--input", str(inst), "--out", str(sol),
                    "--dump-lp", str(lp_path), "--dump-lp-dilation", "0"]) == 0
        assert "Subject To" in lp_path.read_text()

    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_guess_q_below_one_is_usage_error(self, tmp_path, capsys, q):
        # q < 1 ran silently as q = 1.
        inst = self.make_instance(tmp_path)
        sol = tmp_path / "sol.json"
        assert run(["solve", "--algo", "guess-q", "--input", str(inst), "--out", str(sol),
                    "--q", q]) == 2
        assert capsys.readouterr().err == f"error: q must be at least 1, got {q}\n"
        assert not sol.exists()

    def test_guess_q_huge_q_ends(self, tmp_path):
        # The iterated log reaches its fixed point 1 within a few steps, so
        # q = 10^20 must not spin through 10^20 of them.
        inst = self.make_instance(tmp_path, classes="1:0.4,2:0.15,3:0.05")
        huge, small = tmp_path / "huge.json", tmp_path / "small.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "nukc.cli", "solve", "--algo", "guess-q",
                        "--input", str(inst), "--out", str(huge), "--q", str(10**20)],
                       env=env, capture_output=True, timeout=60, check=True)
        assert run(["solve", "--algo", "guess-q", "--input", str(inst), "--out", str(small),
                    "--q", "64"]) == 0
        got, want = json.loads(huge.read_text()), json.loads(small.read_text())
        got.pop("meta"), want.pop("meta")
        assert got == want

    def test_solution_deterministic_apart_from_meta(self, tmp_path):
        inst = self.make_instance(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["solve", "--algo", "two-radii", "--input", str(inst), "--out", str(out)])
        oa, ob = json.loads(a.read_text()), json.loads(b.read_text())
        oa.pop("meta"), ob.pop("meta")
        assert oa == ob

    @pytest.mark.parametrize("algo", ["two-radii", "kcwo", "bicriteria"])
    def test_output_fixed_at_each_thread_count(self, tmp_path, algo):
        # The golden euclid-2class instance (for kcwo, an n = 40 instance
        # shaped like the benchmark's kcwo cases, whose relaxation winner is
        # proved by a verdict started from a stored basis), solved in new
        # processes: two runs at one BLAS thread count write the same bytes
        # outside "meta".
        inst = (self.make_instance(tmp_path, n=40, classes="3:0.1,2:0", seed=0)
                if algo == "kcwo" else self.make_instance(tmp_path))
        src = str(Path(cli.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OMP_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(var, None)  # they would override OMP_NUM_THREADS
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{threads}-{attempt}.json"
                subprocess.run([sys.executable, "-m", "nukc.cli", "solve", "--algo", algo,
                                "--input", str(inst), "--out", str(out)],
                               env=env, capture_output=True, timeout=60, check=True)
                obj = json.loads(out.read_text())
                obj.pop("meta")
                outputs.append(json.dumps(obj, sort_keys=True))
            assert outputs[0] == outputs[1], threads

    def edit(self, path, change):
        obj = json.loads(path.read_text())
        change(obj)
        path.write_text(json.dumps(obj))

    # NaN and Infinity tokens are read by the stdlib parser, which passes
    # them on to the instance checks; the messages name no path.
    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda o: o["points"]["coords"][0].__setitem__(0, float("nan")),
             "coords must be finite numbers"),
            (lambda o: o["classes"][0].__setitem__("r", float("nan")),
             "class radius must be finite and >= 0, got nan"),
            (lambda o: o["classes"][1].__setitem__("r", float("inf")),
             "class radius must be finite and >= 0, got inf"),
        ],
        ids=["nan-coord", "nan-radius", "inf-radius"],
    )
    def test_nonfinite_instance_is_usage_error(self, tmp_path, capsys, change, message):
        inst = self.make_instance(tmp_path)
        self.edit(inst, change)
        code = run(["solve", "--algo", "kcenter", "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nonfinite_matrix_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(["generate", "--kind", "random-metric", "--n", "5", "--seed", "1",
             "--out", str(inst)])
        self.edit(inst, lambda o: o["points"]["matrix"][1].__setitem__(3, float("inf")))
        code = run(["solve", "--algo", "kcenter", "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: not a metric: ('nonfinite', 1, 3)\n"

    @pytest.mark.parametrize(
        "change",
        [
            lambda o: o["balls"][0].__setitem__("center", -1),
            lambda o: o["balls"][0].__setitem__("center", 99),
            lambda o: o.__setitem__("outliers", [8]),
            lambda o: o.__setitem__("outliers", [-1]),
        ],
        ids=["center-minus-one", "center-99", "outlier-n", "outlier-minus-one"],
    )
    def test_point_id_out_of_range_is_usage_error(self, tmp_path, capsys, change):
        inst = self.make_instance(tmp_path)
        sol = tmp_path / "sol.json"
        run(["solve", "--algo", "kcenter", "--input", str(inst), "--out", str(sol)])
        self.edit(sol, change)
        code = run(["validate", "--instance", str(inst), "--solution", str(sol)])
        assert code == 2
        assert "not a point id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,change",
        [
            ("inst", lambda o: o.__setitem__("labels", 5)),
            ("sol", lambda o: o.__setitem__("outliers", [None])),
            ("sol", lambda o: o.__setitem__("outliers", [1.5])),
            ("sol", lambda o: o["balls"][0].__setitem__("center", 1.7)),
            ("inst", lambda o: o["classes"][0].__setitem__("k", 2.5)),
            ("inst", lambda o: o["classes"][0].__setitem__("r", "0.5")),
            ("inst", lambda o: o["classes"][0].__setitem__("r", True)),
            ("sol", lambda o: o["balls"][0].__setitem__("radius", "150")),
            ("sol", lambda o: o["balls"][0].__setitem__("radius", True)),
            ("sol", lambda o: o["balls"][0].__setitem__("radius", float("nan"))),
            ("sol", lambda o: o["balls"][0].__setitem__("radius", float("inf"))),
            ("sol", lambda o: o["balls"][0].__setitem__("radius", float("-inf"))),
            ("sol", lambda o: o["balls"][0].__setitem__("radius", -0.5)),
        ],
        ids=["labels-5", "outlier-null", "outlier-1.5", "center-1.7", "k-2.5",
             "r-string", "r-true", "radius-string", "radius-true", "radius-nan",
             "radius-inf", "radius-minus-inf", "radius-negative"],
    )
    def test_non_integer_ids_are_usage_errors(self, tmp_path, capsys, doc, change):
        paths = {"inst": self.make_instance(tmp_path), "sol": tmp_path / "sol.json"}
        run(["solve", "--algo", "kcenter", "--input", str(paths["inst"]),
             "--out", str(paths["sol"])])
        self.edit(paths[doc], change)
        capsys.readouterr()
        code = run(["validate", "--instance", str(paths["inst"]),
                    "--solution", str(paths["sol"])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_solver_breakdown_exit_code(self, tmp_path, capsys, monkeypatch):
        inst = self.make_instance(tmp_path)

        def broken(*args, **kwargs):
            raise lp.LpSolverError("singular basis matrix")

        monkeypatch.setattr(lp, "solve", broken)
        code = run(["solve", "--algo", "guess-q", "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == EXIT_SOLVER == 4
        assert capsys.readouterr().err == "solver error: singular basis matrix\n"

    def test_simplex_refuting_a_confirmed_lp_exit_code(self, tmp_path, capsys, monkeypatch):
        # The certificates and lp.verdict confirm guess-q's best guess, whose
        # window LP fractional_cover then solves; a simplex that refutes it
        # is a solver breakdown, not a miss.
        inst = self.make_instance(tmp_path)
        monkeypatch.setattr(lp, "solve", lambda cover: None)
        code = run(["solve", "--algo", "guess-q", "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "solver error: simplex refuted an LP a feasibility check confirmed\n")

    @pytest.mark.parametrize(
        "points",
        [
            {"coords": {"a": 1}},
            {"matrix": {"a": 1}},
            {"coords": [[0.0, 1.0], [2.0]]},
            {"matrix": [[0.0, 1.0], [1.0]]},
            {"coords": [["0"], ["1"], ["5"]]},
            {"matrix": [[0, "1"], ["1", 0]]},
            {"coords": [[True], [False]]},
        ],
        ids=["dict-coords", "dict-matrix", "ragged-coords", "ragged-matrix",
             "string-coords", "string-matrix", "bool-coords"],
    )
    def test_malformed_points_are_usage_errors(self, tmp_path, capsys, points):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"points": points, "classes": [{"k": 1, "r": 1.0}]}))
        code = run(["solve", "--algo", "kcenter", "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: points ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["coords", "matrix"])
    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_integer_beyond_float_range_is_usage_error(self, tmp_path, capsys, key, command):
        # np.array(rows, dtype=float) once let 10**400 out as an OverflowError.
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        rows = [[0, 10**400], [10**400, 0]]
        inst.write_text(json.dumps({"points": {key: rows}, "classes": [{"k": 1, "r": 1.0}]}))
        sol.write_text(json.dumps({"balls": [{"center": 0, "class": 0, "radius": 1.0}]}))
        code = run({
            "solve": ["solve", "--algo", "kcenter", "--input", str(inst),
                      "--out", str(tmp_path / "s.json")],
            "validate": ["validate", "--instance", str(inst), "--solution", str(sol)],
        }[command])
        assert code == 2
        assert capsys.readouterr().err == (
            f'error: points "{key}" holds an integer beyond float range\n')

    @pytest.mark.parametrize("flag", ["--input", "--solution"])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, flag):
        # json.load once let a RecursionError out as exit 1, which `validate`
        # uses for "invalid solution".
        inst, deep = self.make_instance(tmp_path), tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code = run({
            "--input": ["solve", "--algo", "kcenter", "--input", str(deep),
                        "--out", str(tmp_path / "s.json")],
            "--solution": ["validate", "--instance", str(inst), "--solution", str(deep)],
        }[flag])
        assert code == 2
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply to parse\n"

    @pytest.mark.parametrize("flag", ["--input", "--solution"])
    def test_deeper_than_the_main_stack_is_usage_error(self, tmp_path, flag):
        # orjson recurses once per level with no limit of its own and crashes
        # the process at about 130,000 levels on the main stack, a SIGSEGV
        # and not an exception, so the CLI runs in a new interpreter.
        inst, deep = self.make_instance(tmp_path), tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        argv = {
            "--input": ["solve", "--algo", "kcenter", "--input", str(deep),
                        "--out", str(tmp_path / "s.json")],
            "--solution": ["validate", "--instance", str(inst), "--solution", str(deep)],
        }[flag]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "nukc.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (
            2, f"error: {deep}: JSON nested too deeply to parse\n")

    @pytest.mark.parametrize("algo", ["exact", "guess-q", "bicriteria"])
    def test_uncoverable_instance_is_usage_error(self, tmp_path, capsys, algo):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"points": {"coords": [[0], [1], [5]]},
                                    "classes": [{"k": 1, "r": 0.0}]}))
        code = run(["solve", "--algo", algo, "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def write_line_case(self, tmp_path, balls, outliers=()):
        """Points 0, 1, 2, 10, 11 on a line, classes (1, 2.0) and (1, 1.0)."""
        inst, sol = tmp_path / "line.json", tmp_path / "line-sol.json"
        inst.write_text(json.dumps({
            "points": {"coords": [[0.0], [1.0], [2.0], [10.0], [11.0]]},
            "classes": [{"k": 1, "r": 2.0}, {"k": 1, "r": 1.0}],
        }))
        sol.write_text(json.dumps({
            "balls": [{"center": c, "class": t, "radius": r} for c, t, r in balls],
            "outliers": list(outliers),
        }))
        return inst, sol

    def test_validate_report_text(self, tmp_path, capsys):
        inst, sol = self.write_line_case(
            tmp_path, [(1, 0, 3.0), (1, 0, 1.0)], outliers=[4]
        )
        capsys.readouterr()
        code = run(["validate", "--instance", str(inst), "--solution", str(sol),
                    "--count-factor", "1", "--radius-factor", "1"])
        assert code == 1
        assert capsys.readouterr().out == (
            "uncovered points: [3, 4]\n"
            "radius violations: [(0, 3.0, 2.0)]\n"
            "count violations: [(0, 2, 1)]\n"
        )

    def test_listed_outliers_are_not_excused(self, tmp_path, capsys):
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        inst.write_text(json.dumps({"points": {"coords": [[0.0], [1.0], [2.0]]},
                                    "classes": [{"k": 1, "r": 1.0}]}))
        sol.write_text(json.dumps({"balls": [], "outliers": [0, 1, 2]}))
        capsys.readouterr()
        code = run(["validate", "--instance", str(inst), "--solution", str(sol),
                    "--count-factor", "1", "--radius-factor", "1"])
        assert code == 1
        assert capsys.readouterr().out == "uncovered points: [0, 1, 2]\n"

    @pytest.mark.parametrize("k", [1e308, 2**70], ids=["1e308", "2**70"])
    @pytest.mark.parametrize("algo", list(cli.ALGOS))
    def test_multiplicity_beyond_an_index_is_usage_error(self, tmp_path, capsys, algo, k):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"points": {"coords": [[0.0], [1.0], [5.0]]},
                                    "classes": [{"k": k, "r": 1.0}, {"k": 1, "r": 0.0}]}))
        code = run(["solve", "--algo", algo, "--input", str(inst),
                    "--out", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: class multiplicity") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "factors",
        [("nan", "1"), ("1", "nan"), ("nan", "nan"), ("-1", "1"), ("1", "-1"),
         ("-0.5", "-0.5")],
        ids=["count-nan", "radius-nan", "both-nan", "count-negative", "radius-negative",
             "both-negative"],
    )
    def test_nan_factors_are_usage_errors(self, tmp_path, capsys, factors):
        inst = self.make_instance(tmp_path, n=6, classes="1:0.3,1:0.1", seed=0)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({
            "balls": [{"center": c, "class": 0, "radius": 5.0} for c in range(3)],
            "outliers": [],
        }))
        base = ["validate", "--instance", str(inst), "--solution", str(sol)]
        assert run([*base, "--count-factor", "1", "--radius-factor", "1"]) == 1
        capsys.readouterr()
        code = run([*base, "--count-factor", factors[0], "--radius-factor", factors[1]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_malformed_instance_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(["solve", "--algo", "exact", "--input", str(bad),
                    "--out", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize(
        "case",
        ["missing-input", "input-is-directory", "out-in-missing-dir",
         "dump-lp-in-missing-dir", "missing-solution", "compare-out-in-missing-dir"],
    )
    def test_file_errors_are_usage_errors(self, tmp_path, capsys, case):
        inst = self.make_instance(tmp_path)
        missing = tmp_path / "no-such-dir"
        solve = ["solve", "--algo", "kcenter", "--input", str(inst),
                 "--out", str(tmp_path / "s.json")]
        args = {
            "missing-input": [*solve, "--input", str(missing / "i.json")],
            "input-is-directory": [*solve, "--input", str(tmp_path)],
            "out-in-missing-dir": [*solve, "--out", str(missing / "s.json")],
            "dump-lp-in-missing-dir": [*solve, "--dump-lp", str(missing / "r.lp")],
            "missing-solution": ["validate", "--instance", str(inst),
                                 "--solution", str(missing / "s.json")],
            "compare-out-in-missing-dir": ["compare", "--instances", str(tmp_path),
                                           "--algos", "kcenter",
                                           "--out", str(missing / "r.csv")],
        }[case]
        capsys.readouterr()
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


# Solves a 3-point instance with one class of k balls under each algorithm,
# k = 3 first and then the huge k, in one interpreter; prints per run the
# exit code, the solve time and the peak RSS so far (KiB), as JSON.
HUGE_K_SCRIPT = """
import json, resource, sys, time
from nukc.cli import main
out, rows = sys.argv[1], []
for k in (3, int(sys.argv[2])):
    path = f"{out}/i{k}.json"
    with open(path, "w") as fh:
        json.dump({"points": {"coords": [[0.0], [1.0], [5.0]]},
                   "classes": [{"k": k, "r": 1.0}]}, fh)
    for algo in ("guess-q", "bicriteria", "kcenter"):
        started = time.perf_counter()
        code = main(["solve", "--input", path, "--algo", algo, "--out", f"{path}.{algo}"])
        rows.append([k, algo, code, time.perf_counter() - started,
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])
print(json.dumps(rows))
"""


def test_huge_k_solves_without_a_per_ball_list(tmp_path):
    """A class of 10^9 balls costs no more memory than one of 3: nothing
    lists the balls one by one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", HUGE_K_SCRIPT, str(tmp_path), str(10**9)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    rows = json.loads(done.stdout)
    small_rss = max(rss for k, _, _, _, rss in rows if k == 3)
    for k, algo, code, seconds, rss in rows:
        assert code == 0, (k, algo)
        assert seconds < 1.0, (k, algo, seconds)
        assert rss - small_rss <= 20 * 1024, (k, algo, rss, small_rss)
        if k > 3:
            assert run(["validate", "--instance", str(tmp_path / f"i{k}.json"),
                        "--solution", str(tmp_path / f"i{k}.json.{algo}"),
                        "--count-factor", "1"]) == 0


class TestCompare:
    def test_csv_one_row_per_instance_algo(self, tmp_path):
        inst_dir = tmp_path / "inst"
        inst_dir.mkdir()
        for seed in range(3):
            run(["generate", "--kind", "euclidean", "--n", "7", "--seed", str(seed),
                 "--classes", "1:0.4,1:0.1", "--out", str(inst_dir / f"i{seed}.json")])
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--instances", str(inst_dir),
                    "--algos", "exact,two-radii", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        assert {r["algo"] for r in rows} == {"exact", "two-radii"}
        # Ratios against the fractional lower bound are recorded.
        assert all(r["ratio"] for r in rows)

    def test_ratio_below_one_shows_count_factor(self, tmp_path):
        inst_dir = tmp_path / "inst"
        inst_dir.mkdir()
        run(["generate", "--kind", "euclidean", "--n", "12", "--seed", "0",
             "--classes", "1:0.4,2:0.15,3:0.05", "--out", str(inst_dir / "i0.json")])
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--instances", str(inst_dir),
                    "--algos", "kcenter,guess-q,bicriteria", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        below = [r for r in rows if float(r["ratio"]) < 1.0]
        assert below and all(float(r["count_factor"]) > 1.0 for r in below)
        # kcenter opens at most k_t balls per class.
        assert float(rows[0]["count_factor"]) <= 1.0

    def test_lower_bound_once_per_instance(self, tmp_path, monkeypatch):
        inst_dir = tmp_path / "inst"
        inst_dir.mkdir()
        for seed in range(2):
            run(["generate", "--kind", "euclidean", "--n", "7", "--seed", str(seed),
                 "--out", str(inst_dir / f"i{seed}.json")])
        calls = []
        real = cli.relaxation_search
        monkeypatch.setattr(cli, "relaxation_search",
                            lambda instance: calls.append(instance) or real(instance))
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--instances", str(inst_dir),
                    "--algos", "kcenter,two-radii", "--out", str(out)]) == 0
        assert len(calls) == 2
        rows = list(csv.DictReader(out.open()))
        assert [(r["instance"][-7:], r["algo"]) for r in rows] == [
            ("i0.json", "kcenter"), ("i0.json", "two-radii"),
            ("i1.json", "kcenter"), ("i1.json", "two-radii"),
        ]
        assert all(r["lower_bound"] and r["ratio"] for r in rows)

    def test_empty_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run(["compare", "--instances", str(empty), "--algos", "exact",
                    "--out", str(tmp_path / "c.csv")]) == 2

    def test_unknown_algo_is_usage_error(self, tmp_path):
        inst_dir = tmp_path / "inst"
        inst_dir.mkdir()
        run(["generate", "--kind", "euclidean", "--n", "6", "--seed", "0",
             "--out", str(inst_dir / "i.json")])
        assert run(["compare", "--instances", str(inst_dir), "--algos", "nope",
                    "--out", str(tmp_path / "c.csv")]) == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_kind(self, tmp_path):
        assert run(["generate", "--kind", "nope", "--seed", "1",
                    "--out", str(tmp_path / "x.json")]) == 2
