import argparse
import json
import tracemalloc
from pathlib import Path

import pytest

from heislab import cayley, cli, parallel, poincare
from heislab.cli import build_parser, main
from heislab.errors import ValidationError
from heislab.records import canonical_config, config_hash, format_value


def parse_config(text: str) -> tuple[str, dict]:
    """Parse canonical key=value text back to (command, params).

    '#' starts a comment and blank lines are skipped.  Values come back
    as strings, which is their canonical form, so parse and re-serialize
    is an exact round trip on comment-free canonical text.
    """
    command = None
    params: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValidationError(f"config line without '=': {raw!r}")
        key, val = key.strip(), val.strip()
        if key == "command":
            command = val
        else:
            params[key] = val
    if command is None:
        raise ValidationError("config is missing the command line")
    return command, params


def read_record(out_dir):
    with open(Path(out_dir) / "run_record.json") as fh:
        return json.load(fh)


def count_calls(monkeypatch, name, *modules):
    """Wrap the function `name` in each module that binds it; one list
    entry per call through any of them."""
    calls = []
    orig = getattr(modules[0], name)

    def counted(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_format_value():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(True) == "true"
    assert format_value(3) == "3"
    assert format_value("x") == "x"


def test_canonical_config_sorted():
    text = canonical_config("demo", {"b": 2, "a": 1})
    assert text == "command=demo\na=1\nb=2\n"
    assert config_hash(text) == config_hash(canonical_config("demo", {"a": 1, "b": 2}))


def test_config_round_trip():
    text = canonical_config("demo", {"b": 0.1, "a": True, "c": "box(2,2,2)"})
    command, params = parse_config(text)
    assert command == "demo"
    assert canonical_config(command, params) == text
    # comments and blank lines are ignored
    commented = "# header\n\ncommand=demo # trailing\na=true\nb=0.10000000000000001\nc=box(2,2,2)\n"
    assert parse_config(commented) == (command, params)
    with pytest.raises(ValidationError):
        parse_config("a=1\n")  # no command line
    with pytest.raises(ValidationError):
        parse_config("command=x\nbroken line\n")


def test_growth_command(tmp_path):
    rc = main(["growth", "--k", "1", "--r-max", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "growth.csv").read_text().splitlines()
    assert lines[0] == "r,count,normalized"
    assert lines[1] == "0,1,1"
    assert lines[-1].startswith("4,135,")
    rec = read_record(tmp_path)
    assert rec["command"] == "growth"
    assert "growth.csv" in rec["outputs"]


def test_growth_builds_the_ball_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "ball", cayley, cli)
    argv = ["growth", "--k", "2", "--r-max", "4", "--z-powers", "3", "--dump-ball"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    last = (tmp_path / "growth.csv").read_text().splitlines()[-1]
    assert last.split(",")[1] == str(len((tmp_path / "ball.txt").read_text().splitlines()))


def test_isoperim_command(tmp_path):
    rc = main(
        ["isoperim", "--k", "1", "--set", "box(2,2,2)", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "ratios.csv").exists()
    srows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert srows[0] == "t,count" and srows[-1].startswith("tail,")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_sets"] == 1 and summary["argmax_set_id"] == "set0"
    assert summary["argmax_spec"] == "box(2,2,2)" and summary["max_ratio"] > 0


def test_isoperim_requires_input(tmp_path):
    assert main(["isoperim", "--out-dir", str(tmp_path)]) == 2


def test_box_profile_command(tmp_path):
    rc = main(
        ["box-profile", "--k", "1", "--r", "2", "--s-min", "0", "--s-max", "3",
         "--steps", "4", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = (tmp_path / "profile.csv").read_text().splitlines()
    assert rows[0] == "s,value,stderr"
    assert len(rows) == 5
    assert all(r.endswith(",0") for r in rows[1:])  # closed form carries no error
    assert not (tmp_path / "profile_mc.csv").exists()
    plot = (tmp_path / "plot.gp").read_text()
    assert '"profile.csv"' in plot and "profile_mc" not in plot


def test_box_profile_mc_files(tmp_path):
    rc = main(
        ["box-profile", "--k", "1", "--r", "2", "--s-min", "0", "--s-max", "2",
         "--steps", "3", "--mc-samples", "2000", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = (tmp_path / "profile_mc.csv").read_text().splitlines()
    assert rows[0] == "s,value,stderr" and len(rows) == 4
    plot = (tmp_path / "plot.gp").read_text()
    assert '"profile_mc.csv"' in plot


def test_nm_command(tmp_path):
    rc = main(
        ["nm", "--region", "halfspace-cap:k=1,R=4", "--radius", "4",
         "--lines", "16", "--steps", "30", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    obj = json.loads((tmp_path / "nm.json").read_text())
    assert obj["nm"] == 0.0
    assert obj["z_score"] is None
    assert obj["ball"] == 4.0 and obj["n_lines"] == 16
    assert obj["resolution"] == pytest.approx(4.0 / 30)
    assert isinstance(obj["histogram"], list)
    total = sum(row["count"] for row in obj["histogram"])
    assert total + obj["censored"] == pytest.approx(obj["runs"])


def test_voxelize_command(tmp_path):
    rc = main(
        ["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.5",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert len((tmp_path / "voxels.txt").read_text().splitlines()) == 7


def test_c1_command(tmp_path):
    rc = main(["c1", "--demo", "bipartite:2,3", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "c1.json").read_text())
    assert obj["value"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert obj["exact"] is True
    assert obj["negative_type"] is False


def test_c1_metric_file(tmp_path):
    f = tmp_path / "metric.txt"
    f.write_text("3\n1 1\n1\n")
    out = tmp_path / "out"
    assert main(["c1", "--metric", str(f), "--out-dir", str(out)]) == 0
    obj = json.loads((out / "c1.json").read_text())
    assert obj["value"] == pytest.approx(1.0)


BAD_MATRIX_FILES = {
    "empty": ("", ""),
    "count": ("3\n1 1\n", "3\n1 1\n1\n1 1\n"),
    "non-numeric": ("3\n1 x\n1\n", "3\n1 1\n1\n1 x\n1\n"),
    "negative-n": ("-2\n1 1 1\n", "-2\n1 1 1\n1 1 1\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_MATRIX_FILES))
def test_bad_matrix_files_exit_2(tmp_path, case):
    metric_text, instance_text = BAD_MATRIX_FILES[case]
    f = tmp_path / "matrix.txt"
    f.write_text(metric_text)
    assert main(["c1", "--metric", str(f), "--out-dir", str(tmp_path / "c1")]) == 2
    f.write_text(instance_text)
    argv = ["sparsest-cut", "--instance", str(f), "--out-dir", str(tmp_path / "sc")]
    assert main(argv) == 2


@pytest.mark.parametrize(
    "argv,cap",
    [(["c1"], 16), (["duality"], 16), (["c1", "--subsample", "9"], 1024), (["sparsest-cut"], 24)],
    ids=["c1", "duality", "c1-subsample", "sparsest-cut"],
)
def test_oversized_matrix_file_refused_at_its_count(tmp_path, capsys, argv, cap):
    # the count is read first: a file that declares 2^31 points holds three tokens
    f = tmp_path / "matrix.txt"
    f.write_text("2147483648\n1 1\n1\n")
    flag = "--instance" if argv[0] == "sparsest-cut" else "--metric"
    assert main(argv + [flag, str(f), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"at most {cap} points from a file, got 2147483648" in err


@pytest.mark.parametrize("flag", ["--metric", "--instance"])
def test_missing_matrix_file_exits_2(tmp_path, capsys, flag):
    command = "c1" if flag == "--metric" else "sparsest-cut"
    missing = str(tmp_path / "missing.txt")
    assert main([command, flag, missing, "--out-dir", str(tmp_path / "out")]) == 2
    assert missing in capsys.readouterr().err


def test_sparsest_cut_command(tmp_path):
    rc = main(["sparsest-cut", "--random", "5,3", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "sparsest_cut.json").read_text())
    assert obj["lp"]["value"] <= obj["sdp"]["value"] + 1e-4
    assert obj["sdp"]["value"] <= obj["opt"]["value"] + 1e-4
    for key in ("opt", "lp", "sdp"):
        block = obj[key]
        assert block["kind"] == key
        for field in ("value", "certificate", "residuals", "iterations", "converged"):
            assert field in block
    assert obj["opt"]["iterations"] == (1 << 4) - 1
    assert obj["lp"]["residuals"]["triangle"] <= 1e-7
    assert obj["lp"]["residuals"]["normalization"] <= 1e-9
    assert obj["sdp"]["certificate"]["gram"]
    assert (tmp_path / "instance.txt").exists()


def test_sparsest_cut_nonconverged_exit(tmp_path, capsys):
    rc = main(
        ["sparsest-cut", "--random", "6,17", "--solver", "sdp",
         "--sdp-max-iter", "5", "--out-dir", str(tmp_path)]
    )
    assert rc == 4
    obj = json.loads((tmp_path / "sparsest_cut.json").read_text())
    assert obj["sdp"]["converged"] is False
    assert (tmp_path / "run_record.json").exists()  # written before the exit
    captured = capsys.readouterr()  # so is the summary
    assert captured.out.startswith("sparsest-cut: n = 6, sdp ")
    assert captured.err == "error: sdp stopped at 5 iterations without meeting tolerances\n"


def test_sparsest_cut_zero_ratio_instance(tmp_path, capsys):
    # a capacity component separates a demand pair: the SDP is 0, exactly
    rc = main(["sparsest-cut", "--random", "4,44067", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "sparsest_cut.json").read_text())
    assert obj["sdp"]["value"] == 0.0 and obj["sdp"]["iterations"] == 0
    assert obj["sdp"]["converged"] is True
    assert "sdp_gap" not in obj
    assert capsys.readouterr().out == "sparsest-cut: n = 4, opt 0, lp 0, sdp 0\n"


def test_duality_command(tmp_path):
    rc = main(["duality", "--demo", "path:4", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "duality.json").read_text())
    assert obj["distortion"] == pytest.approx(1.0, abs=1e-7)
    assert obj["sdp_feasible_value"] == pytest.approx(1.0, abs=1e-9)


def test_duality_rejects_non_negative_type(tmp_path):
    assert main(["duality", "--demo", "bipartite:2,3", "--out-dir", str(tmp_path)]) == 2


def test_poincare_command(tmp_path):
    rc = main(
        ["poincare", "--k", "1", "--set", "box(2,2,2)", "--seed", "5",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    obj = json.loads((tmp_path / "poincare.json").read_text())
    assert obj["indicator"]["lhs"] == pytest.approx(obj["indicator"]["v_perim"])
    assert obj["indicator"]["rhs"] == 2 * obj["indicator"]["h_perim"]
    assert obj["coarea"]["rhs_exact"] is True
    assert obj["local"] is None


def test_poincare_sides_once_per_function(tmp_path, monkeypatch):
    # once (inside coarea) for the random function; the indicator's sides are
    # the set's perimeters, which the command computes anyway
    calls = count_calls(monkeypatch, "poincare_sides", poincare)
    argv = ["poincare", "--k", "1", "--set", "box(2,2,3)", "--values=-2,3", "--seed", "4"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_bad_region_exit_code(tmp_path):
    assert main(["nm", "--region", "torus:k=1", "--radius", "2",
                 "--out-dir", str(tmp_path)]) == 2


NM = ["nm", "--region", "quasi-ball:k=1,R=3"]
NM4 = ["--radius", "2", "--lines", "4"]
BOX = ["box-profile", "--k", "1", "--r", "1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,message",
    [
        (NM + ["--radius", "4", "--steps", "0"], "grid step"),
        (NM + ["--radius", "0"], "observation radius must be positive and finite"),
        (NM + ["--radius", "nan"], "observation radius must be positive and finite"),
        (NM + ["--radius", "-2"], "observation radius must be positive and finite"),
        (NM + ["--radius", "4", "--steps", "-3"], "grid step"),
        (["box-profile", "--r", "-2"], "box half-width must be positive and finite"),
        (["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "nan"],
         "voxel scale must be positive and finite"),
        (["nm", "--region", "quasi-ball:k=1,R=-3"] + NM4,
         "region parameter R must be positive and finite"),
        (["voxelize", "--region", "quasi-ball:k=1,R=nan", "--h", "0.5"],
         "region parameter R must be positive and finite"),
        (["voxelize", "--region", "box:k=1,r=0", "--h", "0.5"],
         "region parameter r must be positive and finite"),
        (["nm", "--region", "two-slab:k=1,R=4,a=-0.5"] + NM4,
         "region parameter a must be positive and finite"),
        (["nm", "--region", "halfspace-cap:k=1,R=4,offset=inf"] + NM4,
         "region parameter offset must be finite"),
        (["nm", "--region", "halfspace-cap:k=1,R=4,axis=7"] + NM4,
         "region parameter axis must be in 0..1"),
        (["nm", "--region", "two-slab:k=2,R=4,a=0.5,axis=-1"] + NM4,
         "region parameter axis must be in 0..3"),
        (["nm", "--region", "quasi-ball:k=0,R=2"] + NM4, "region parameter k must be >= 1"),
        (["nm", "--region", "quasi-ball:k=1,R=2,radius=3"] + NM4,
         "unknown region parameter 'radius'"),
        (["c1", "--demo", "ball:0,1"], "lattice rank k must be >= 1"),
        (["sparsest-cut", "--random", "1,3"], "instance needs at least two points"),
        (["sparsest-cut", "--random", "5,1", "--sdp-max-iter", "0"],
         "argument --sdp-max-iter: must be >= 1, got 0"),
        (BOX + ["--steps", "-5"], "argument --steps: must be >= 2, got -5"),
        (BOX + ["--steps", "1"], "argument --steps: must be >= 2, got 1"),
        (BOX + ["--s-min", "5", "--s-max", "1"], "--s-min below --s-max"),
        (BOX + ["--s-min", "1", "--s-max", "1"], "--s-min below --s-max"),
        (BOX + ["--s-max", "inf"], "--s-min and --s-max must be finite"),
        (["isoperim", "--k", "1", "--set", "box(2,2,2)", "--lq", "0"],
         "argument --lq: must be positive and finite, got 0"),
        (["poincare", "--k", "1", "--set", "box(2,2,2)", "--local", "1", "--alpha", "-1"],
         "argument --alpha: must be positive and finite, got -1"),
        (BOX + ["--mc-samples", "100", "--workers", "0"], "argument --workers: must be >= 1, got 0"),
        (NM + NM4 + ["--workers", "-2"], "argument --workers: must be >= 1, got -2"),
        (["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.5", "--workers", "0"],
         "argument --workers: must be >= 1, got 0"),
        (BOX + ["--mc-samples", "-3"], "argument --mc-samples: must be >= 0, got -3"),
        (["growth", "--r-max", "2", "--z-powers", "-1"],
         "argument --z-powers: must be >= 0, got -1"),
        (["growth", "--r-max", "2", "--mem-cap-mib", "-1"],
         "argument --mem-cap-mib: must be positive and finite, got -1"),
        (["poincare", "--k", "1", "--set", "box(2,2,2)", "--mem-cap-mib", "0"],
         "argument --mem-cap-mib: must be positive and finite, got 0"),
        (["c1", "--demo", "random:-1,1"], "a metric needs at least one point, got -1"),
        (["c1", "--demo", "bipartite:-1,2"], "bipartite sides must be >= 1, got -1 and 2"),
        (["c1", "--demo", "ball:1,1,4096,3"], "demo ball takes ball:K,R, got 'ball:1,1,4096,3'"),
        (["c1", "--demo", "search:4,1"], "a search needs at least 5 points, got 4"),
        (["c1", "--demo", "search:17,1"], "a search supports at most 16 points, got 17"),
        (["c1", "--demo", "search:3000000,1"],
         "a search supports at most 16 points, got 3000000"),
        (BOX + ["--mc-samples", "100", "--workers", "65"],
         "argument --workers: must be <= 64, got 65"),
        (NM + NM4 + ["--workers", "65"], "argument --workers: must be <= 64, got 65"),
        (["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.5", "--workers", "100000"],
         "argument --workers: must be <= 64, got 100000"),
        (["c1", "--demo", "cycle:3000000"], "demo metrics have at most 1024 points, got 3000000"),
        (["c1", "--demo", "path:1025"], "demo metrics have at most 1024 points, got 1025"),
        (["c1", "--demo", "random:1025,1"], "demo metrics have at most 1024 points, got 1025"),
        (["c1", "--demo", "bipartite:1000,25"], "demo metrics have at most 1024 points, got 1025"),
        (["c1", "--demo", "ball:1,9", "--subsample", "5"],
         "a ball metric has at most 1024 points, got 2845"),
        (["c1", "--demo", "ball:1,40"], "a ball metric has at most 1024 points, got at least 3281"),
        (["c1", "--demo", "ball:1,22", "--subsample", "5"],
         "a ball metric has at most 1024 points, got 99689"),
        (["sparsest-cut", "--random", "3000000,1", "--solver", "opt"],
         "random instances have at most 24 points, the most any solver takes, got 3000000"),
        (["sparsest-cut", "--random", "17,1", "--solver", "lp"],
         "LP relaxation supports at most 16 points, got 17"),
        (["sparsest-cut", "--random", "21,1", "--solver", "sdp"],
         "SDP relaxation supports at most 20 points, got 21"),
    ],
    ids=["nm-steps-0", "nm-radius-0", "nm-radius-nan", "nm-radius-negative",
         "nm-steps-negative", "box-profile-r-negative", "voxelize-h-nan",
         "region-R-negative", "region-R-nan", "region-r-zero", "region-a-negative",
         "region-offset-inf", "region-axis-7", "region-axis-negative", "region-k-0",
         "region-unknown-key", "c1-demo-rank-0", "sparsest-one-point",
         "sparsest-sdp-max-iter-0", "box-profile-steps-negative", "box-profile-steps-1",
         "box-profile-s-descending", "box-profile-s-equal", "box-profile-s-max-inf",
         "isoperim-lq-0", "poincare-alpha-negative", "box-profile-workers-0",
         "nm-workers-negative", "voxelize-workers-0", "box-profile-mc-samples-negative",
         "growth-z-powers-negative", "growth-mem-cap-negative", "poincare-mem-cap-0",
         "c1-demo-random-negative-size", "c1-demo-bipartite-negative-side",
         "c1-demo-ball-four-args", "c1-demo-search-4", "c1-demo-search-17",
         "c1-demo-search-3000000", "box-profile-workers-65",
         "nm-workers-65", "voxelize-workers-100000", "c1-demo-cycle-3000000",
         "c1-demo-path-1025", "c1-demo-random-1025", "c1-demo-bipartite-1025",
         "c1-demo-ball-2845", "c1-demo-ball-1-40", "c1-demo-ball-1-22", "sparsest-opt-3000000", "sparsest-lp-17", "sparsest-sdp-21"],
)
def test_bad_numeric_flags_exit_2(tmp_path, capsys, argv, message):
    tracemalloc.start()
    try:
        rc = main(argv + ["--out-dir", str(tmp_path)])
    except SystemExit as exc:
        rc = exc.code
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert rc == 2
    assert peak < 64 << 20  # a size cap refuses before it allocates
    out, err = capsys.readouterr()
    assert out == ""
    if err.startswith("usage: "):  # the parser refused a flag: "heislab CMD: error: ..."
        err = err.splitlines()[-1].partition(": ")[2]
    assert err.startswith("error: ") and message in err
    assert not any(tmp_path.iterdir())  # refused before the first data file


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["growth", "--k", "0", "--r-max", "2"], "--k"),
        (["isoperim", "--k", "-1", "--set", "box(2,2,2)"], "--k"),
        (["box-profile", "--k", "0", "--r", "1"], "--k"),
        (["poincare", "--k", "-2", "--set", "box(2,2,2)"], "--k"),
        (["growth", "--r-max", "-1"], "--r-max"),
    ],
    ids=["growth-k-0", "isoperim-k-negative", "box-profile-k-0", "poincare-k-negative",
         "growth-r-max-negative"],
)
def test_bad_ranks_exit_2(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SEEDED = {
    "isoperim": ["isoperim", "--k", "1", "--set", "box(2,2,2)", "--seed", "{}"],
    "isoperim-blob": ["isoperim", "--k", "1", "--set", "random_blob(10,{})"],
    "box-profile": BOX + ["--mc-samples", "100", "--seed", "{}"],
    "nm": NM + NM4 + ["--seed", "{}"],
    "voxelize": ["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.5", "--seed", "{}"],
    "c1-random": ["c1", "--demo", "random:5,{}"],
    "c1-search": ["c1", "--demo", "search:5,{}"],
    "sparsest-cut": ["sparsest-cut", "--random", "5,{}"],
    "duality": ["duality", "--demo", "search:5,{}"],
    "poincare": ["poincare", "--k", "1", "--set", "box(2,2,2)", "--seed", "{}"],
    "poincare-blob": ["poincare", "--k", "1", "--set", "random_blob(10,{})"],
}


@pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["minus-1", "2-to-the-64"])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeds_out_of_range_exit_2(tmp_path, capsys, name, seed):
    # a seed reduced mod 2^64 would run another seed than the record names
    argv = [arg.format(seed) for arg in SEEDED[name]]
    try:
        rc = main(argv + ["--out-dir", str(tmp_path)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be in 0..2^64-1" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_seed_range_ends_are_accepted(tmp_path):
    for seed in (0, (1 << 64) - 1):
        argv = [arg.format(seed) for arg in SEEDED["sparsest-cut"]] + ["--solver", "opt"]
        assert main(argv + ["--out-dir", str(tmp_path / str(seed))]) == 0


def test_pool_holds_at_most_one_process_per_payload(monkeypatch):
    # a stand-in executor records the pool size and runs the map in-process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, payloads):
            return map(fn, payloads)

        def shutdown(self):
            pass

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    assert parallel.block_map(abs, [-1, -2, -3], workers=parallel.MAX_WORKERS) == [1, 2, 3]
    assert parallel.block_map(abs, list(range(-9, 0)), workers=4) == list(range(9, 0, -1))
    assert sizes == [3, 4]


def test_nm_steps_over_the_trace_budget_exit_3(tmp_path, capsys):
    # 4 * 10^8 + 1 grid positions per line: refused before any is allocated
    argv = NM + ["--radius", "2", "--steps", "100000000", "--lines", "4"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 3
    assert "positions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "region, h",
    [("two-slab:k=4,R=1,a=0.2,axis=7", "0.5"), ("quasi-ball:k=2,R=1.5", "0.1"),
     ("quasi-ball:k=1,R=3", "1e-100")],
    ids=["two-slab-k4", "quasi-ball-k2", "quasi-ball-h-1e-100"],
)
def test_oversized_voxel_grids_exit_3(tmp_path, capsys, region, h):
    # 7^8, 33^4 and about 10^201 xy columns: refused before the grid of
    # columns is built
    tracemalloc.start()
    try:
        rc = main(["voxelize", "--region", region, "--h", h, "--out-dir", str(tmp_path)])
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert rc == 3
    assert peak < 64 << 20
    assert "voxel candidate count exceeds 5000000" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_growth_under_mem_cap(tmp_path):
    # ball(2, 8) has 28,825 points, about 1.5 MiB
    rc = main(["growth", "--k", "2", "--r-max", "8", "--mem-cap-mib", "100",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "growth.csv").read_text().splitlines()[-1].startswith("8,28825,")


def test_resource_cap_exit_code(tmp_path):
    rc = main(["growth", "--k", "2", "--r-max", "8", "--mem-cap-mib", "0.01",
               "--out-dir", str(tmp_path)])
    assert rc == 3


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["nm", "--region", "two-slab:k=1,R=4,a=0.5", "--radius", "4",
            "--lines", "64", "--steps", "40", "--seed", "9"]
    assert main(argv + ["--out-dir", str(a)]) == 0
    assert main(argv + ["--out-dir", str(b)]) == 0
    assert (a / "nm.json").read_bytes() == (b / "nm.json").read_bytes()
    ra, rb = read_record(a), read_record(b)
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert ra == rb


@pytest.mark.parametrize(
    "argv,data_file,n_maps",
    [
        (["box-profile", "--k", "1", "--r", "1.5", "--s-min", "0", "--s-max", "3",
          "--steps", "4", "--mc-samples", "40000", "--seed", "3"], "profile_mc.csv", 4),
        (["nm", "--region", "two-slab:k=1,R=4,a=0.5", "--radius", "4",
          "--lines", "600", "--steps", "30", "--seed", "11"], "nm.json", 1),
    ],
    ids=["box-profile", "nm"],
)
def test_one_process_pool_per_command(tmp_path, pool_counter, argv, data_file, n_maps):
    # several blocks per block_map call; box-profile makes one call per
    # scale, nm one pass over its lines for both statistics
    started, maps = pool_counter
    assert main(argv + ["--workers", "1", "--out-dir", str(tmp_path / "w1")]) == 0
    assert (len(started), len(maps)) == (0, 0)
    assert main(argv + ["--workers", "2", "--out-dir", str(tmp_path / "w2")]) == 0
    assert len(started) == 1 and len(maps) == n_maps
    assert parallel._scope is None  # the pool ends with the command
    w1, w2 = (tmp_path / w / data_file for w in ("w1", "w2"))
    assert w1.read_bytes() == w2.read_bytes()


FRAME_CASES = {
    "growth": (["growth", "--k", "1", "--r-max", "3", "--z-powers", "2", "--dump-ball"], 0),
    "isoperim": (["isoperim", "--k", "1", "--set", "box(2,2,2)"], 0),
    "box-profile": (["box-profile", "--k", "1", "--r", "2", "--s-min", "0", "--s-max", "2",
                     "--steps", "3", "--mc-samples", "2000"], 0),
    "nm": (["nm", "--region", "halfspace-cap:k=1,R=4", "--radius", "4",
            "--lines", "16", "--steps", "30"], 0),
    "voxelize": (["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.5"], 0),
    "c1": (["c1", "--demo", "bipartite:2,3"], 0),
    "sparsest-cut": (["sparsest-cut", "--random", "5,3"], 0),
    "sparsest-cut-unconverged": (["sparsest-cut", "--random", "6,17", "--solver", "sdp",
                                  "--sdp-max-iter", "5"], 4),
    "duality": (["duality", "--demo", "path:4"], 0),
    "poincare": (["poincare", "--k", "1", "--set", "box(2,2,2)", "--local", "1",
                  "--alpha", "2.0"], 0),
}


def subcommands() -> dict:
    """{name: subparser} of every CLI command."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_frame_cases_cover_every_command():
    assert {argv[0] for argv, _ in FRAME_CASES.values()} == set(subcommands())


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_run_record_lists_every_file(tmp_path, name):
    # a file written past the frame's writer would be missing from the record
    argv, rc = FRAME_CASES[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == rc
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "run_record.json")
    assert read_record(tmp_path)["outputs"] == written


INPUT_FLAGS = {"metric", "demo", "subsample", "instance", "random"}


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_run_record_config_is_the_parsed_flags(tmp_path, name):
    # the record holds every flag of the command, a flag not given at its
    # default, and the input flags as the one source string
    argv, rc = FRAME_CASES[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == rc
    defaults = {a.dest: a.default for a in subcommands()[argv[0]]._actions}
    del defaults["help"], defaults["out_dir"]
    inputs = defaults.keys() & INPUT_FLAGS
    config = read_record(tmp_path)["config"]
    assert set(config) == defaults.keys() - inputs | ({"source"} if inputs else set())
    for dest, default in defaults.items():
        if dest not in inputs and "--" + dest.replace("_", "-") not in argv:
            assert config[dest] == ("" if default is None else format_value(default)), dest


def test_one_blas_thread_restores_the_pool():
    from heislab import parallel

    pool = parallel._openblas_threads()
    if pool is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, set_ = pool
    old = get()
    set_(2)
    try:
        with parallel.one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(old)
