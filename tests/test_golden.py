"""Golden outputs: SHA-256 digests of data files from fixed CLI commands.

The lattice digests were recorded before the lattice-set kernel was
rewritten; any refactor of the set representation, the generator action
or the perimeter routes must leave every byte of these files unchanged.
The two further ``poincare`` cases were recorded before the rhs window of
``local_poincare`` moved to one shared ball search: ``poincare-box-k2``
has R = 4 at k = 2, and ``poincare-default-alpha`` has R = 21, beyond the
one-sided search, so it pins the per-row bidirectional route.
``poincare-blob-k2`` (irregular k = 2 columns, negative values, no local
sides) was recorded before lattice functions moved from a dict of tuples
to ``FiniteSet`` rows plus a value array.

The solver digests (``c1``, ``sparsest-cut``, ``duality``) were recorded
before the metric codec, the cut-incidence matrix and the triangle rows
were merged.  Their floats depend on the BLAS thread count, so they are
computed in one child process with every BLAS pool set to one thread
before numpy is imported, and again in a child that starts with two
threads, which the CLI's own pin must bring back to the same bytes.

The ``run_record.json`` digests (taken with ``wall_time_s`` dropped), the
``box-profile`` and ``nm`` cases and the stdout summary lines were
recorded before the command frame moved into ``cli.main``: the frame
must leave every record, data file and summary unchanged.

The further ``voxelize`` cases (a half-space cap, a slab complement, a
k = 2 quasi-ball and 32,364 cells at h = 0.1) and the 700-line ``nm``
cases (three line blocks, k = 1 and k = 2, one and two workers) were
recorded before voxelization skipped the cells an interval bound decides
and before the line estimator traced whole blocks of lines at once.

``box-profile-k2``, ``box-profile-k4`` and ``nm-k4-two-slab`` (k = 4, so
the quasi-norm sums eight coordinates) were recorded before membership
tests summed rows by column chains and the box tested each shifted pair
once.
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
            "run_record.json": "8d2b5bddf3c66dab6d352389b8e365b935ccb2be51889726b20e712bfd46d313",
        },
    ),
    "isoperim-box": (
        ["isoperim", "--k", "1", "--set", "box(4,4,8)", "--lq", "1.0"],
        {
            "ratios.csv": "4553ff8f4f1a9cf056348d31fd582c527f5f9e596a3c56bffa071fce91c265ad",
            "spectrum.csv": "b00ecc17c68e8668f9a53097ae9fe3374a304fadfc821964f61944ff87a5e19b",
            "run_record.json": "d9f55cba0ee8bedd885066632565fe3727c6c89313b53995e8ae839a302fac81",
        },
    ),
    "isoperim-blob": (
        ["isoperim", "--k", "2", "--set", "random_blob(500,3)"],
        {
            "ratios.csv": "a84f6e6d726121761bf1b1d19a9777e783f419ae991057a7774121de02f1442a",
            "spectrum.csv": "3af627768a0ea69288b965f1d1e7aa79f511b3d2c0c14d909b37625d759817dc",
            "run_record.json": "18358ad9bbbd2bc8233f6527ed90121ab640cabb3c731de0652d0af64c275e08",
        },
    ),
    "growth": (
        ["growth", "--k", "1", "--r-max", "6", "--z-powers", "8", "--dump-ball"],
        {
            "growth.csv": "dff2dc611dbd67928068409ff1bc0ee674624811cc933e592b31dc057ecd74ee",
            "z_powers.csv": "8424a6c8d2e37270adc0721e4ec3115d27894f7b907fb69f70264739c0c6ab9d",
            "ball.txt": "3fe54119f2e130bdee3b9bfaad9e97143016f8f08df36b0c5de4903e2095f768",
            "run_record.json": "668ba63ac34cf48c4142864d19dc0ddf151489502706d40283c668ec4bf32012",
        },
    ),
    "poincare": (
        ["poincare", "--k", "1", "--set", "random_blob(200,5)", "--values=-3,4",
         "--seed", "2", "--local", "2", "--alpha", "2.0"],
        {
            "poincare.json": "ebdf8358d1966e337e30525915c51d57b17a43fd69005c2a0540226ea2f3c008",
            "run_record.json": "bbbba750ac791c6165431174dfbc6659f34640db20ef97a634b12bf3ad405391",
        },
    ),
    "poincare-box-k2": (
        ["poincare", "--k", "2", "--set", "box(3,3,6)", "--values=-2,3",
         "--seed", "4", "--local", "2", "--alpha", "2.0"],
        {
            "poincare.json": "64c6121d812f2ed63dd942968ac1573121d9ea4861ffb80ffab93d068628e7e4",
            "run_record.json": "d08f702e2af0fc4660053ec121addd5d6dd88b0c9ffc760606a656415cadd71d",
        },
    ),
    "poincare-blob-k2": (
        ["poincare", "--k", "2", "--set", "random_blob(400,9)", "--values=-4,5",
         "--seed", "3"],
        {
            "poincare.json": "1125433f5adfc925cfe449ed1b0eb972809c3100a4d067d60c6ee35d98f21bcf",
            "run_record.json": "4792642f7648f3ff88968d2526b501a89937642f2caded25321c9b36a810590f",
        },
    ),
    "poincare-default-alpha": (
        ["poincare", "--k", "1", "--set", "random_blob(300,5)", "--values=-3,4",
         "--seed", "2", "--local", "1"],
        {
            "poincare.json": "084597a305e1eceec2f3581264097e8a74dc18248b7a9e34187756dd87e23e0a",
            "run_record.json": "9bdb4118b95aca5ebea9443e478d07f99e3185f272ef9a7516775f93ec1cfea2",
        },
    ),
    "voxelize": (
        ["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.25", "--seed", "5"],
        {
            "voxels.txt": "a92d805d263780bcf2a51a45ca58a53f513ee97fae5181f0e63084b8b2c6c500",
            "run_record.json": "e6b7180fac6f5ca0d40a0633fc61bccea43af02e47f3ae06222fabe5c7b0a8b0",
        },
    ),
    "box-profile": (
        ["box-profile", "--k", "1", "--r", "1.5", "--s-min", "0", "--s-max", "3",
         "--steps", "7", "--mc-samples", "8000", "--seed", "3"],
        {
            "profile.csv": "a31f689b46b4919a6a8b9ba634210602d7a78aa44034cbbe972a9203a960d270",
            "profile_mc.csv": "bf2c17b2239b9ee661a94f82129599500f78405a18106dd191113bb45a2eefe2",
            "plot.gp": "ceb55d19d422c3c5b8365856746aa6ceef0339b0373ca2fa5a3a84942719b881",
            "run_record.json": "bacf0ae546541ffae7fcc815f18da6cf798876b99aed813bad4eb5fbcdfa7113",
        },
    ),
    "nm": (
        ["nm", "--region", "two-slab:k=1,R=4,a=0.5", "--radius", "4",
         "--lines", "96", "--steps", "60", "--seed", "11"],
        {
            "nm.json": "a93077847720d326dc70fcc3b3fb8b2b79bf45ae4be21ab043e8ea078d4af041",
            "run_record.json": "7eea0c938e18a094af8fc64e20e817a2ffd5b6b5555fa0033e0c976f83d3defa",
        },
    ),
    "voxelize-halfspace-cap": (
        ["voxelize", "--region", "halfspace-cap:k=1,R=2.5,axis=1,offset=0.3",
         "--h", "0.125", "--seed", "2"],
        {
            "voxels.txt": "4d7dfba0a644fb2c454787d48dbdb10de3b1909190322677067b5105d8bba36b",
            "run_record.json": "6aef0c3ede6dbbac2486754afeaea366214d91047192d2b9a363d8587c657118",
        },
    ),
    "voxelize-two-slab": (
        ["voxelize", "--region", "two-slab:k=1,R=2.5,a=0.6", "--h", "0.125", "--seed", "4"],
        {
            "voxels.txt": "570428c79263ef038d49bd84adcafdbaed192de58e0de5048b693a267b50c696",
            "run_record.json": "af73044e31ee95307b924fc0bf8499fae09bb54b4e77da19e9a88345ecf749fa",
        },
    ),
    "voxelize-k2": (
        ["voxelize", "--region", "quasi-ball:k=2,R=1.5", "--h", "0.25", "--seed", "6"],
        {
            "voxels.txt": "5ebd701cefe5bcc7afa496eb8b5c85b32f2d39550e1aeeb024e432a9f5010645",
            "run_record.json": "73eb90ad41503cefcffed90b2cead46380a4976f8ced37b55786247b0313fa3a",
        },
    ),
    "voxelize-fine": (
        ["voxelize", "--region", "quasi-ball:k=1,R=3", "--h", "0.1",
         "--samples-per-cell", "16", "--seed", "1"],
        {
            "voxels.txt": "6a774a54be713517c9d928a704a9e745f2ec40b884c66341819f2db533964410",
            "run_record.json": "38b6fdd4319d21bcb5e589835c6b501b879453f7ac288e9a09b5670aa7b2cd77",
        },
    ),
    "nm-700-w1": (
        ["nm", "--region", "quasi-ball:k=1,R=3", "--radius", "4", "--lines", "700",
         "--steps", "48", "--seed", "13", "--workers", "1"],
        {
            "nm.json": "5a014834e03932e84f529859e9bab237aaf637a66f3d382c0f24447701601ec4",
            "run_record.json": "3451eba17fc1139720fb41baccaf3bb823406753502244ab55357076ec3f62c4",
        },
    ),
    "nm-700-w2": (
        ["nm", "--region", "quasi-ball:k=1,R=3", "--radius", "4", "--lines", "700",
         "--steps", "48", "--seed", "13", "--workers", "2"],
        {
            "nm.json": "5a014834e03932e84f529859e9bab237aaf637a66f3d382c0f24447701601ec4",
            "run_record.json": "c023882f802a2e0ac69e353c5bf42b473b3bcaca83d21c137ad29eb5d2502692",
        },
    ),
    "nm-k2-700-w1": (
        ["nm", "--region", "two-slab:k=2,R=4,a=0.5,axis=1", "--radius", "4",
         "--lines", "700", "--steps", "40", "--seed", "17", "--workers", "1"],
        {
            "nm.json": "ccc316e966611b4068e87a63178b659f076740de40de89a85a3631125a9b0857",
            "run_record.json": "b94fb21deed86671f2d033bfb30dbc0619a634714be806d5d9a73a655df52f80",
        },
    ),
    "nm-k2-700-w2": (
        ["nm", "--region", "two-slab:k=2,R=4,a=0.5,axis=1", "--radius", "4",
         "--lines", "700", "--steps", "40", "--seed", "17", "--workers", "2"],
        {
            "nm.json": "ccc316e966611b4068e87a63178b659f076740de40de89a85a3631125a9b0857",
            "run_record.json": "8fb47c6fc1bb8e3b1761745b088e6b312a773395182fe3097c1c2197d21cb972",
        },
    ),
    "box-profile-k2": (
        ["box-profile", "--k", "2", "--r", "1.5", "--s-min", "-1", "--s-max", "3",
         "--steps", "5", "--mc-samples", "20000", "--seed", "2"],
        {
            "profile.csv": "cecd5aefc41f19ad9a0daff32f7a0333d2d76f73cee38c6a813369d198fc400f",
            "profile_mc.csv": "33f5b7caab3b22594e9dd0b3e8dbc522ca018a56e4a6471ef51b4d99c0c39bd2",
            "plot.gp": "ceb55d19d422c3c5b8365856746aa6ceef0339b0373ca2fa5a3a84942719b881",
            "run_record.json": "e0d11aac18ce607314dd81fcd795b91ecc71b9289e648ead6d7442d8a7acc141",
        },
    ),
    "box-profile-k4": (
        ["box-profile", "--k", "4", "--r", "1", "--s-min", "-1", "--s-max", "2",
         "--steps", "4", "--mc-samples", "20000", "--seed", "3"],
        {
            "profile.csv": "d7825173a1d0df0ad4c9a363a0f76615e91b866e2a4730abf84ab0fbe95437d9",
            "profile_mc.csv": "89f6df81fbb310c736466c7fea8b435a64f7855e9f50e5373a337a3fd9a971de",
            "plot.gp": "ceb55d19d422c3c5b8365856746aa6ceef0339b0373ca2fa5a3a84942719b881",
            "run_record.json": "d32179a2b1d87a5e7cb427dfcadfa97c482e368c83b5d39627dc4a3c45f5f07d",
        },
    ),
    "nm-k4-two-slab": (
        ["nm", "--region", "two-slab:k=4,R=3,a=0.2,axis=2", "--radius", "3",
         "--lines", "400", "--steps", "40", "--seed", "19"],
        {
            "nm.json": "bc24a92d75d21f37bfb615d546cdf06ac14ce94dd7601b655a07660451925499",
            "run_record.json": "7caa82db661377ec19d2e5d9fb681acf28b79194fc661d8fc95379f893d3089b",
        },
    ),
}


# the exact stdout line of one case per command
SUMMARIES = {
    "growth": "growth: |B_6| = 593 at k=1, normalized 0.457562",
    "isoperim-box": "isoperim: 1 set(s), max ratio 0.76871 at set0 = box(4,4,8)",
    "box-profile": "box-profile: knee at s = 1.08496, l2 closed form 45.8634, "
                   "grid quadrature 45.8683",
    "nm": "nm: value 0.0329861 +- 0.0072 (z = 4.61)",
    "box-profile-k2": "box-profile: knee at s = 1.08496, l2 closed form 412.77, "
                      "grid quadrature 427.306",
    "box-profile-k4": "box-profile: knee at s = 0.5, l2 closed form 869.706, "
                      "grid quadrature 827.268",
    "nm-k4-two-slab": "nm: value 0.0013125 +- 0.00046 (z = 2.86)",
    "voxelize": "voxelize: 142 cells at h = 0.25, volume estimate 0.554688",
    "poincare": "poincare: indicator lhs 299.289 vs rhs 584, "
                "function lhs 868.903 vs rhs 2528",
    "poincare-blob-k2": "poincare: indicator lhs 810.859 vs rhs 3604, "
                        "function lhs 2399.62 vs rhs 13556",
    "c1-bipartite": "c1: distortion 1.33333333 (exact), 9 cuts",
    "sparsest-random-6": "sparsest-cut: n = 6, opt 0.241072267, lp 0.241072267, "
                         "sdp 0.241072267",
    "duality-search": "duality: distortion 1.060141, cut optimum 1.060141, "
                      "certified gap >= 1.060141",
}


def _digest(path: Path) -> str:
    """SHA-256 of a file; of a run record, with its wall time dropped."""
    if path.name != "run_record.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    record = json.loads(path.read_text())
    record.pop("wall_time_s")
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(tmp_path, capsys, name):
    argv, digests = GOLDEN[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    for fname, want in digests.items():
        assert _digest(tmp_path / fname) == want, fname
    if name in SUMMARIES:
        assert capsys.readouterr().out == SUMMARIES[name] + "\n"


# n = 6, unit capacities on the 6-cycle, unit demand on every pair: the
# first lazy triangle round has tied violations, which pins the row order
CYCLE6 = "6\n1 0 0 0 1\n1 0 0 0\n1 0 0\n1 0\n1\n" + "1 1 1 1 1\n1 1 1 1\n1 1 1\n1 1\n1\n"

SOLVER_GOLDEN = {
    "c1-bipartite": (
        ["c1", "--demo", "bipartite:2,3", "--refine", "on"],
        {
            "c1.json": "faca6cf008fbe8c9ddb88e29dc5181ba5b7870f39b22ef22451f613e4db982cc",
            "run_record.json": "009e64506902546c9f828692ada73247ee0913f21fe25301dedfe949f7f23f02",
        },
    ),
    "c1-random": (
        ["c1", "--demo", "random:8,5", "--refine", "on"],
        {
            "c1.json": "d7cc982aae15c621c2a4bbde3c9736d9429214e14d9821d50f4effe9cf2db1e8",
            "run_record.json": "33db3663d92bbc846f2b799d2a7d53047521b22c4365c0b6d7fe85bf082108c3",
        },
    ),
    "c1-ball": (
        ["c1", "--demo", "ball:1,2", "--subsample", "9"],
        {
            "c1.json": "d646e95716409c885f0afac2eb039f51827df3847629a2823eae1419bbf9410c",
            "run_record.json": "69b465a9805cf21b24465deabcad158e26ab45e5649e9b1edd42e84289238e0a",
        },
    ),
    "sparsest-random-8": (
        ["sparsest-cut", "--random", "8,3", "--solver", "all"],
        {
            "instance.txt": "5757efbbb738c56de11c2cfc0d23ef1320f6178d126c90c46a9266a03578c320",
            "sparsest_cut.json": "42bbe36fdac7a04a89d57b7e664a038a8e6178962f1b58134cae81301c2b13af",
            "run_record.json": "32215114fa22cbcd6aae1d1611d1d83948ec889035d974a29c3456232744869f",
        },
    ),
    "sparsest-random-6": (
        ["sparsest-cut", "--random", "6,11", "--solver", "all"],
        {
            "instance.txt": "e7814d52003d2e32c4172100aaafdc13aa4874b893d4831e14c6d32af864a49f",
            "sparsest_cut.json": "5935928d93631fb1f6f07e7fd96eb65aea17da3daffc24b332cba40974468bd2",
            "run_record.json": "3f6c8510bd0b444a7a8f47af6467cc5107fc6b9ec7ba7d505bd2685c76943b4a",
        },
    ),
    "sparsest-cycle6": (
        ["sparsest-cut", "--instance", "cycle6.txt", "--solver", "all"],
        {
            "instance.txt": "ea3a1cb61ad06350c494cb5a976ef16f3d5a86397097b976b7990abb269565a8",
            "sparsest_cut.json": "0bd25097812d065abc584731c0067a6d8ac847dca5a4715a37240463d8530be8",
            "run_record.json": "0a7c632451cbcb47fc2f027541c24b0bf9e12cafb02bc767d36ad044c04054da",
        },
    ),
    "duality-search": (
        ["duality", "--demo", "search:5,4"],
        {
            "instance.txt": "13c66653c287530dd891ecedbf75e4caef9f8d84fb7eb0a2cdf42c1fd06ae453",
            "duality.json": "12c047e6602355fc82ede908bd952a86b5ddf4a23cf52f970c546a2f93587eb6",
            "run_record.json": "f8fdd91ceab93c23da367d29351efa902027a97a2e6026222d49471308458f4b",
        },
    ),
}

_CHILD = """
import contextlib, io, json, sys
from heislab.cli import main
out = {}
for name, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + ["--out-dir", name])
    out[name] = [rc, buf.getvalue()]
print(json.dumps(out))
"""


def _solver_child(root, threads):
    """(root, {case: [exit code, stdout]}) of every solver case, run in one
    child whose BLAS pools start with the given thread count."""
    (root / "cycle6.txt").write_text(CYCLE6)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(Path(heislab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argvs = {name: argv for name, (argv, _) in SOLVER_GOLDEN.items()}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    return root, json.loads(proc.stdout)


@pytest.fixture(scope="module")
def solver_runs(tmp_path_factory):
    return _solver_child(tmp_path_factory.mktemp("solver_golden"), "1")


@pytest.mark.parametrize("name", sorted(SOLVER_GOLDEN))
def test_solver_golden_digests(solver_runs, name):
    root, runs = solver_runs
    rc, stdout = runs[name]
    assert rc == 0
    got = {fname: _digest(root / name / fname) for fname in SOLVER_GOLDEN[name][1]}
    assert got == SOLVER_GOLDEN[name][1]
    if name in SUMMARIES:
        assert stdout == SUMMARIES[name] + "\n"


def test_solver_golden_digests_at_two_blas_threads(tmp_path):
    # the CLI pins the bundled OpenBLAS pool to one thread, so a child that
    # starts with two writes the same bytes
    root, runs = _solver_child(tmp_path, "2")
    for name, (_, want) in SOLVER_GOLDEN.items():
        assert runs[name][0] == 0
        assert {fname: _digest(root / name / fname) for fname in want} == want
