"""Golden corpus: `nukc solve` output on seeded instances, pinned by digest.

For every instance below and every algorithm in `ALGOS`, the test runs
`nukc solve`, drops the solution's "meta" key (timings and other run
data) and hashes the rest.  An algorithm the instance does not admit is
pinned by its exit code instead (2: wrong class shape, 3: over the exact
solver's size budget).  The `--dump-lp` text of every instance is pinned
the same way, and so is its fractional lower bound (`min_feasible_dilation`:
the dilation and the bytes of the basic solution x), which moves with any
change to the simplex's pivot choices and with any change to its
arithmetic, down to the last ulp of an entry.  A change that claims to
keep behaviour keeps these values; one that changes output on purpose
updates them and says why.
"""

import hashlib
import json

import pytest

from nukc import fileio
from nukc.cli import ALGOS, main
from nukc.model import min_feasible_dilation

INSTANCES = {
    "euclid-2class": ["--kind", "euclidean", "--n", "8", "--seed", "2",
                      "--classes", "1:0.4,2:0.15"],
    "euclid-kcwo": ["--kind", "euclidean", "--n", "8", "--seed", "3",
                    "--classes", "2:0.3,2:0"],
    "euclid-3class": ["--kind", "euclidean", "--n", "9", "--seed", "4",
                      "--classes", "1:0.5,2:0.2,3:0.05"],
    "metric-default": ["--kind", "random-metric", "--n", "7", "--seed", "1"],
    # total k = 18 > SHORT_CIRCUIT_K: bicriteria runs the full recursion,
    # embedding and firefighter LP.
    "euclid-recursion": ["--kind", "euclidean", "--n", "20", "--seed", "1",
                         "--classes", "1:0.4,5:0.15,12:0.04"],
    "gadget": ["--kind", "hardness-gadget", "--depth", "2", "--branching", "2",
               "--c", "1", "--seed", "0"],
}

GOLDEN = {
    "euclid-2class": {
        "exact": "e305c33462abeecd", "kcenter": "151e02bd0b428c20", "kcwo": 2,
        "kcwo-greedy": 2, "two-radii": "5a8277280827abcb",
        "guess-q": "71cf96d59a7bd52a", "bicriteria": "71cf96d59a7bd52a",
        "dump-lp": "f7c32522ce96e268",
        # Same vertex as the Bland loop before the shared pivot loop; its
        # rank-one updates move six entries by at most 6.7e-16.
        "relaxation": "d2e525b2cac58e13",
    },
    "euclid-kcwo": {
        "exact": "9fc05922d86576d7", "kcenter": "5dc657b2b5e3929d",
        "kcwo": "34473c106ce2845b", "kcwo-greedy": "3221a4d13d1b5bf2",
        "two-radii": "34473c106ce2845b", "guess-q": "279a8e6ea7ff4717",
        "bicriteria": "279a8e6ea7ff4717", "dump-lp": "688e373d6bcf04dc",
        "relaxation": "20012e45d644b638",
    },
    "euclid-3class": {
        "exact": 3, "kcenter": "b6448b20cf443c7f", "kcwo": 2, "kcwo-greedy": 2,
        "two-radii": 2, "guess-q": "48ce28c222febf3f",
        "bicriteria": "48ce28c222febf3f", "dump-lp": "dd6c25f502ba5c5b",
        "relaxation": "21a126b086b7f1cc",
    },
    "metric-default": {
        "exact": 3, "kcenter": "cc7313ab92d00f70", "kcwo": 2, "kcwo-greedy": 2,
        # The two-class path embeds the point that proved the winner, not
        # the simplex's: same radii, centers (0, 1 | 2, 6) for (0, 6 | 1, 2).
        "two-radii": "68d2593f46bb041b", "guess-q": "b4dd4a68b0f88de7",
        "bicriteria": "b4dd4a68b0f88de7", "dump-lp": "da7a8714de9a1b46",
        "relaxation": "4e144e6c1d5d2e0b",
    },
    "euclid-recursion": {
        "exact": 3, "kcenter": "8820eb1ede69461b", "kcwo": 2, "kcwo-greedy": 2,
        "two-radii": 2, "guess-q": "7dea07ad04bcb44f",
        "bicriteria": "b8af2d41906f836a", "dump-lp": "3f407343933e0499",
        # Same vertex; six entries move by at most 4.4e-16 (as above).
        "relaxation": "f4d6db3677e0d58b",
    },
    "gadget": {
        "exact": "e9847fef4dc030fc", "kcenter": "e9847fef4dc030fc",
        "kcwo": "51df9f13c9490d68", "kcwo-greedy": "51df9f13c9490d68",
        "two-radii": "e9847fef4dc030fc", "guess-q": "15701dd49bac38cb",
        "bicriteria": "15701dd49bac38cb", "dump-lp": "23438648e4c18f1e",
        "relaxation": "11a82a7bd181507a",
    },
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in INSTANCES.items():
        paths[name] = out / f"{name}.json"
        assert main(["generate", *argv, "--out", str(paths[name])]) == 0
    return paths


def test_corpus_covers_every_algorithm():
    assert all(set(pins) == {*ALGOS, "dump-lp", "relaxation"} for pins in GOLDEN.values())


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name", INSTANCES)
def test_solve_output(instance_files, tmp_path, name, algo):
    out = tmp_path / "sol.json"
    code = main(["solve", "--algo", algo, "--input", str(instance_files[name]),
                 "--out", str(out)])
    if code == 0:
        obj = json.loads(out.read_text())
        del obj["meta"]
        got = digest(json.dumps(obj, sort_keys=True).encode())
    else:
        got = code
    assert got == GOLDEN[name][algo]


@pytest.mark.parametrize("name", INSTANCES)
def test_dump_lp_text(instance_files, tmp_path, name):
    lp_path = tmp_path / "relax.lp"
    assert main(["solve", "--algo", "kcenter", "--input", str(instance_files[name]),
                 "--out", str(tmp_path / "sol.json"), "--dump-lp", str(lp_path)]) == 0
    assert digest(lp_path.read_bytes()) == GOLDEN[name]["dump-lp"]


@pytest.mark.parametrize("name", INSTANCES)
def test_relaxation(instance_files, name):
    instance = fileio.instance_from_obj(fileio.load(instance_files[name]))
    alpha, x = min_feasible_dilation(instance)
    assert digest(repr(alpha).encode() + x.tobytes()) == GOLDEN[name]["relaxation"]
