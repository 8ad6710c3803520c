import csv
import json
import math
import os
import subprocess
import sys

import pytest

from thermomi.cli import CSV_HEADER, main

from oracles import xy_closed_form

LN2 = math.log(2.0)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def test_point_zero_field_json(capsys):
    code, out = run_cli(["point", "--b1", "0", "--b2", "0", "--g", "1", "--beta", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    q = xy_closed_form(0.0, 0.0, 1.0, 1.0)
    assert abs(obj["mutual_info"] - 0.65562) < 1e-4
    assert abs(obj["mutual_info"] - q["mutual_info"]) < 1e-10
    assert abs(obj["upper_bound"] - q["upper_bound"]) < 1e-10
    assert abs(obj["gap"]) < 1e-10
    assert obj["beta"] == 1
    assert obj["ground_state"] == "entangled"
    assert set(obj) == set(CSV_HEADER.split(",")) | {"beta", "ground_state"}


def test_point_no_coupling_is_trivial(capsys):
    code, out = run_cli(
        ["point", "--b1", "0.5", "--b2", "0.5", "--g", "0", "--beta", "1"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["mutual_info"]) <= 1e-10
    assert abs(obj["upper_bound"]) <= 1e-10


def test_point_low_temperature_bound_exceeds_two_ln2(capsys):
    code, out = run_cli(
        ["point", "--b1", "0.5", "--b2", "0.5", "--g", "1", "--beta", "10"], capsys
    )
    assert code == 0
    assert json.loads(out)["upper_bound"] > 2 * LN2


def test_point_beta_inv_flag(capsys):
    code, out = run_cli(
        ["point", "--b1", "0.5", "--b2", "0.5", "--g", "1", "--beta-inv", "0.1"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["beta_inv"] == 0.1
    assert abs(obj["beta"] - 10.0) < 1e-12


def test_point_csv_and_json_print_identical_digits(capsys):
    args = ["point", "--b1", "1.5", "--b2", "-0.5", "--g", "0.8", "--beta", "2"]
    code, json_out = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    code, csv_out = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0

    header, row = csv_out.strip().split("\n")
    assert header == CSV_HEADER
    tokens = dict(zip(header.split(","), row.split(",")))
    obj = json.loads(json_out)
    for name, token in tokens.items():
        assert format(float(obj[name]), ".15g") == token


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_temperature_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        [
            "sweep-temperature",
            "--b1", "0.5", "--b2", "0.5", "--g", "1",
            "--points", "25",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert float(rows[0]["beta_inv"]) == 0.1
    assert float(rows[-1]["beta_inv"]) == 10.0
    # round-trip invariants on every re-parsed row
    for row in rows:
        mi = float(row["mutual_info"])
        assert abs(mi - (float(row["s_a"]) + float(row["s_b"]) - float(row["s_ab"]))) <= 1e-9
        assert float(row["gap"]) >= -1e-9


def test_sweep_coupling_json(capsys):
    code, out = run_cli(
        [
            "sweep-coupling",
            "--b1", "1", "--b2", "1", "--beta-inv", "1",
            "--points", "11", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 11
    assert rows[0]["g"] == 0
    assert abs(rows[0]["mutual_info"]) <= 1e-10
    assert all(rows[i]["g"] < rows[i + 1]["g"] for i in range(10))


def test_sweep_grid_override(capsys):
    code, out = run_cli(
        [
            "sweep-temperature",
            "--b1", "0", "--b2", "0", "--g", "1",
            "--min", "0.5", "--max", "2", "--points", "4", "--spacing", "linear",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["beta_inv"] for r in rows] == [0.5, 1.0, 1.5, 2.0]
    assert max(abs(r["gap"]) for r in rows) <= 1e-10


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------

def test_fig1_matches_frozen_goldens(tmp_path, capsys):
    # goldens were frozen from the first verified run; comparison is numeric
    # (1e-9) rather than byte-exact so a different LAPACK/libm build cannot
    # fail it spuriously
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    out = tmp_path / "fresh"
    assert run_cli(["fig1", "--out", str(out)], capsys)[0] == 0
    for label in "abcdef":
        with open(os.path.join(golden_dir, f"fig1_{label}.csv")) as fh:
            golden_rows = list(csv.DictReader(fh))
        with open(out / f"fig1_{label}.csv") as fh:
            fresh_rows = list(csv.DictReader(fh))
        assert len(fresh_rows) == len(golden_rows)
        for golden, fresh in zip(golden_rows, fresh_rows):
            for name in golden:
                assert abs(float(fresh[name]) - float(golden[name])) <= 1e-9, (label, name)


def test_fig1_writes_six_deterministic_files(tmp_path, capsys):
    out_a = tmp_path / "one"
    out_b = tmp_path / "two"
    assert run_cli(["fig1", "--out", str(out_a)], capsys)[0] == 0
    assert run_cli(["fig1", "--out", str(out_b)], capsys)[0] == 0

    names = [f"fig1_{label}.csv" for label in "abcdef"]
    assert sorted(os.listdir(out_a)) == sorted(names)
    for name in names:
        first = (out_a / name).read_bytes()
        second = (out_b / name).read_bytes()
        assert first == second

    lines = (out_a / "fig1_a.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 200
    lines_d = (out_a / "fig1_d.csv").read_text().splitlines()
    assert len(lines_d) == 1 + 201
    first_d = dict(zip(CSV_HEADER.split(","), lines_d[1].split(",")))
    assert float(first_d["g"]) == 0.0
    assert abs(float(first_d["mutual_info"])) <= 1e-10
    assert abs(float(first_d["upper_bound"])) <= 1e-10

    with open(out_a / "fig1_c.csv") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["b1"]) == 3.0 and float(row["b2"]) == 1.0


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def test_explore_zero_scale(capsys):
    code, out = run_cli(
        ["explore", "--dims", "2x2", "--samples", "50", "--scale", "0", "--seed", "7"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == 0
    assert max(abs(obj["gap_min"]), abs(obj["gap_max"])) <= 1e-10


def test_explore_proof_backed_battery(capsys):
    code, out = run_cli(
        [
            "explore",
            "--dims", "2x3", "--samples", "200", "--scale", "1", "--seed", "1",
            "--beta-list", "0.1,1,10",
        ],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == 0
    assert obj["gap_min"] >= -1e-10
    assert {"violations", "gap_min", "gap_mean", "gap_max", "worst_seed"} <= set(obj)


def test_explore_beta_alias(capsys):
    canonical = run_cli(
        ["explore", "--dims", "2x2", "--samples", "5", "--seed", "3",
         "--beta-list", "0.5,1"],
        capsys,
    )
    alias = run_cli(
        ["explore", "--dims", "2x2", "--samples", "5", "--seed", "3", "--beta", "0.5,1"],
        capsys,
    )
    assert canonical == alias


def test_explore_byte_identical_output(capsys):
    args = ["explore", "--dims", "2x2", "--samples", "20", "--scale", "1", "--seed", "5"]
    assert run_cli(args, capsys) == run_cli(args, capsys)


def test_explore_violations_exit_5(monkeypatch, capsys):
    # a real violation is impossible (the inequality is proven), so the exit
    # mapping is exercised with a stubbed summary
    import thermomi.cli as cli_module
    from thermomi.sweep import ExploreSummary

    fake = ExploreSummary(
        d_a=2, d_b=2, samples=1, interaction_scale=1.0, seed=0,
        beta_list=(1.0,), violations=3, gap_min=-1e-3, gap_mean=0.0,
        gap_max=1e-3, worst_seed=0, mi_min=0.0, mi_max=1.0,
    )
    monkeypatch.setattr(cli_module, "explore_bound", lambda **kwargs: fake)
    code, out = run_cli(["explore", "--dims", "2x2", "--samples", "1"], capsys)
    assert code == 5
    assert json.loads(out)["violations"] == 3


def test_import_loads_no_heavy_dependency():
    # a CLI point pays for every import at start-up
    code = (
        "import sys, thermomi, thermomi.cli; "
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    cases = [
        ["point", "--b1", "1", "--beta", "1"],                        # missing flags
        ["point", "--b1", "1", "--b2", "1", "--g", "1"],              # no beta
        ["point", "--b1", "1", "--b2", "1", "--g", "1",
         "--beta", "1", "--beta-inv", "2"],                           # both betas
        ["point", "--b1", "1", "--b2", "1", "--g", "1", "--beta", "-1"],
        ["sweep-coupling", "--b1", "1", "--b2", "1", "--beta", "1", "--g", "2"],
        ["explore", "--dims", "5"],                                   # malformed dims
        ["explore", "--dims", "1x2"],
        ["nonsense"],
        [],
        # rejected by the library's validators, not by the CLI
        ["point", "--b1", "nan", "--b2", "1", "--g", "1", "--beta", "1"],
        ["point", "--b1", "1", "--b2", "1", "--g", "inf", "--beta", "1"],
        ["sweep-temperature", "--b1", "nan", "--b2", "1", "--g", "1"],
        ["explore", "--dims", "2x2", "--samples", "2", "--seed", "-1"],
        ["point", "--b1", "1", "--b2", "1", "--g", "1", "--beta-inv", "1e-320"],
        ["explore", "--dims", "2x2", "--samples", "0"],
        ["explore", "--dims", "2x2", "--scale", "nan"],
        ["explore", "--dims", "2x2", "--beta-list", "1,-1"],
        ["explore", "--dims", "2x2", "--beta-list", ","],
        ["sweep-coupling", "--b1", "1", "--b2", "1", "--beta", "0"],
        # --beta-inv never reaches the library, so the CLI checks it
        ["point", "--b1", "1", "--b2", "1", "--g", "1", "--beta-inv", "inf"],
        ["point", "--b1", "1", "--b2", "1", "--g", "1", "--beta-inv", "0"],
    ]
    for args in cases:
        assert main(args) == 2, args
        capsys.readouterr()


@pytest.mark.parametrize(
    "args, line",
    [
        (["explore", "--dims", "2x2", "--seed", "-3"], "--seed must be >= 0, got -3"),
        (
            ["explore", "--dims", "2x2", "--scale", "inf"],
            "--scale must be finite and >= 0, got inf",
        ),
        (
            ["sweep-temperature", "--b1", "1", "--b2", "1", "--g", "1", "--min", "5", "--max", "1"],
            "--min 5.0 must be below --max 1.0",
        ),
        (
            ["sweep-coupling", "--b1", "1", "--b2", "1", "--beta", "1", "--min", "5", "--max", "1"],
            "--min 5.0 must be below --max 1.0",
        ),
        (
            ["sweep-coupling", "--b1", "1", "--b2", "1", "--beta", "1", "--max", "inf"],
            "--min 0.0 and --max inf must be finite",
        ),
    ],
)
def test_usage_error_names_the_flag_that_was_typed(capsys, args, line):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"thermomi: error: {line}\n"


def test_rejected_beta_is_printed_as_a_plain_float(capsys):
    # the grid's last beta, 1 / 1e-320, overflows to inf
    args = ["sweep-temperature", "--b1", "1", "--b2", "1", "--g", "1", "--min", "1e-320", "--max", "1"]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "thermomi: error: beta must be finite and >= 0, got inf\n"


def test_numerical_validation_exits_3(capsys):
    # fields this large overflow the assembled Hamiltonian to Inf entries
    code = main(["point", "--b1", "1e308", "--b2", "1e308", "--g", "1", "--beta", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numerical validation error: matrix contains NaN or Inf entries\n"


@pytest.mark.parametrize(
    "args",
    [
        ["point", "--b1", "1", "--b2", "1", "--g", "1", "--beta", "1e308"],
        ["explore", "--dims", "2x2", "--samples", "3", "--beta-list", "1,1e308"],
        ["sweep-temperature", "--b1", "1", "--b2", "1", "--g", "1",
         "--min", "1e-308", "--max", "1", "--points", "2"],
    ],
)
def test_non_finite_result_exits_3(args, capsys):
    # at beta = 1e308 ln Z overflows, so the bound would come out NaN
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "numerical validation error: upper_bound is nan at beta 1e+308\n"


def test_allocation_failure_exits_3(monkeypatch, capsys):
    # stubbed: a model too large to allocate must never be allocated in a test
    import thermomi.cli as cli_module

    def out_of_memory(**kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli_module, "explore_bound", out_of_memory)
    code = main(["explore", "--dims", "1000000x1000000", "--samples", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "7.28 TiB" in err


def test_io_failure_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["fig1", "--out", str(blocker / "sub")])
    capsys.readouterr()
    assert code == 4
