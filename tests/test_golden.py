"""Golden outputs: SHA-256 digests of data files from fixed CLI commands.

The lattice digests were recorded before the lattice-set kernel was
rewritten; any refactor of the set representation, the generator action
or the perimeter routes must leave every byte of these files unchanged.
The two further ``poincare`` cases were recorded before the rhs window of
``local_poincare`` moved to one shared ball search: ``poincare-box-k2``
has R = 4 at k = 2, and ``poincare-default-alpha`` has R = 21, beyond the
one-sided search, so it pins the per-row bidirectional route.

The solver digests (``c1``, ``sparsest-cut``, ``duality``) were recorded
before the metric codec, the cut-incidence matrix and the triangle rows
were merged.  Their floats depend on the BLAS thread count, so they are
computed in one child process with every BLAS pool pinned to one thread
before numpy is imported.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heislab
from heislab.cli import main

GOLDEN = {
    "isoperim-corpus": (
        ["isoperim", "--k", "2", "--corpus"],
        {
            "ratios.csv": "90e98ed7d32404d3d4bb3e93aa0f4c71ea43d54cc8413d558bf97395e0330340",
            "summary.json": "53f46d13299df951561b48f2bbe0fd4c95d1f3a968e18dc0691c8fb30d19978d",
        },
    ),
    "isoperim-box": (
        ["isoperim", "--k", "1", "--set", "box(4,4,8)", "--lq", "1.0"],
        {
            "ratios.csv": "4553ff8f4f1a9cf056348d31fd582c527f5f9e596a3c56bffa071fce91c265ad",
            "spectrum.csv": "b00ecc17c68e8668f9a53097ae9fe3374a304fadfc821964f61944ff87a5e19b",
        },
    ),
    "isoperim-blob": (
        ["isoperim", "--k", "2", "--set", "random_blob(500,3)"],
        {
            "ratios.csv": "a84f6e6d726121761bf1b1d19a9777e783f419ae991057a7774121de02f1442a",
            "spectrum.csv": "3af627768a0ea69288b965f1d1e7aa79f511b3d2c0c14d909b37625d759817dc",
        },
    ),
    "growth": (
        ["growth", "--k", "1", "--r-max", "6", "--z-powers", "8", "--dump-ball"],
        {
            "growth.csv": "dff2dc611dbd67928068409ff1bc0ee674624811cc933e592b31dc057ecd74ee",
            "z_powers.csv": "8424a6c8d2e37270adc0721e4ec3115d27894f7b907fb69f70264739c0c6ab9d",
            "ball.txt": "3fe54119f2e130bdee3b9bfaad9e97143016f8f08df36b0c5de4903e2095f768",
        },
    ),
    "poincare": (
        ["poincare", "--k", "1", "--set", "random_blob(200,5)", "--values=-3,4",
         "--seed", "2", "--local", "2", "--alpha", "2.0"],
        {
            "poincare.json": "ebdf8358d1966e337e30525915c51d57b17a43fd69005c2a0540226ea2f3c008",
        },
    ),
    "poincare-box-k2": (
        ["poincare", "--k", "2", "--set", "box(3,3,6)", "--values=-2,3",
         "--seed", "4", "--local", "2", "--alpha", "2.0"],
        {
            "poincare.json": "64c6121d812f2ed63dd942968ac1573121d9ea4861ffb80ffab93d068628e7e4",
        },
    ),
    "poincare-default-alpha": (
        ["poincare", "--k", "1", "--set", "random_blob(300,5)", "--values=-3,4",
         "--seed", "2", "--local", "1"],
        {
            "poincare.json": "084597a305e1eceec2f3581264097e8a74dc18248b7a9e34187756dd87e23e0a",
        },
    ),
    "voxelize": (
        ["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.25", "--seed", "5"],
        {
            "voxels.txt": "a92d805d263780bcf2a51a45ca58a53f513ee97fae5181f0e63084b8b2c6c500",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(tmp_path, name):
    argv, digests = GOLDEN[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    for fname, want in digests.items():
        got = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        assert got == want, fname


# n = 6, unit capacities on the 6-cycle, unit demand on every pair: the
# first lazy triangle round has tied violations, which pins the row order
CYCLE6 = "6\n1 0 0 0 1\n1 0 0 0\n1 0 0\n1 0\n1\n" + "1 1 1 1 1\n1 1 1 1\n1 1 1\n1 1\n1\n"

SOLVER_GOLDEN = {
    "c1-bipartite": (
        ["c1", "--demo", "bipartite:2,3", "--refine", "on"],
        {
            "c1.json": "faca6cf008fbe8c9ddb88e29dc5181ba5b7870f39b22ef22451f613e4db982cc",
        },
    ),
    "c1-random": (
        ["c1", "--demo", "random:8,5", "--refine", "on"],
        {
            "c1.json": "d7cc982aae15c621c2a4bbde3c9736d9429214e14d9821d50f4effe9cf2db1e8",
        },
    ),
    "c1-ball": (
        ["c1", "--demo", "ball:1,2", "--subsample", "9"],
        {
            "c1.json": "d646e95716409c885f0afac2eb039f51827df3847629a2823eae1419bbf9410c",
        },
    ),
    "sparsest-random-8": (
        ["sparsest-cut", "--random", "8,3", "--solver", "all"],
        {
            "instance.txt": "5757efbbb738c56de11c2cfc0d23ef1320f6178d126c90c46a9266a03578c320",
            "sparsest_cut.json": "42bbe36fdac7a04a89d57b7e664a038a8e6178962f1b58134cae81301c2b13af",
        },
    ),
    "sparsest-random-6": (
        ["sparsest-cut", "--random", "6,11", "--solver", "all"],
        {
            "instance.txt": "e7814d52003d2e32c4172100aaafdc13aa4874b893d4831e14c6d32af864a49f",
            "sparsest_cut.json": "5935928d93631fb1f6f07e7fd96eb65aea17da3daffc24b332cba40974468bd2",
        },
    ),
    "sparsest-cycle6": (
        ["sparsest-cut", "--instance", "cycle6.txt", "--solver", "all"],
        {
            "instance.txt": "ea3a1cb61ad06350c494cb5a976ef16f3d5a86397097b976b7990abb269565a8",
            "sparsest_cut.json": "0bd25097812d065abc584731c0067a6d8ac847dca5a4715a37240463d8530be8",
        },
    ),
    "duality-search": (
        ["duality", "--demo", "search:5,4"],
        {
            "instance.txt": "13c66653c287530dd891ecedbf75e4caef9f8d84fb7eb0a2cdf42c1fd06ae453",
            "duality.json": "12c047e6602355fc82ede908bd952a86b5ddf4a23cf52f970c546a2f93587eb6",
        },
    ),
}

_CHILD = """
import contextlib, hashlib, io, json, sys
from heislab.cli import main
out = {}
for name, (argv, files) in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out-dir", name])
    digests = {}
    for fname in files:
        with open(f"{name}/{fname}", "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    out[name] = [rc, digests]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def solver_digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("solver_golden")
    (root / "cycle6.txt").write_text(CYCLE6)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(heislab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(SOLVER_GOLDEN)],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(SOLVER_GOLDEN))
def test_solver_golden_digests(solver_digests, name):
    rc, got = solver_digests[name]
    assert rc == 0
    assert got == SOLVER_GOLDEN[name][1]
