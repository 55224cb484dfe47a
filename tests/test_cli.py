"""End-to-end tests for the dpminimax command-line interface."""

import json
import math

import pytest

from dpminimax.cli import main

CSV_HEADER = "model,n,constraint_kind,eps,delta,rho,mechanism,risk,stderr,lower_bound,branch"


def _stdout_value(capsys, key):
    out = capsys.readouterr().out
    for token in out.split():
        if token.startswith(key + "="):
            return token[len(key) + 1 :]
    raise AssertionError(f"{key}= not found in: {out!r}")


# ------------------------------------------------------------------- bounds


def test_lecam_product_dp_value(capsys):
    rc = main([
        "bounds", "lecam", "--n", "2", "--tv", "0.5",
        "--dp", "--eps", "0.6931471805599453", "--form", "product",
    ])
    assert rc == 0
    assert float(_stdout_value(capsys, "value")) == 0.28125


def test_fano_joint_zcdp_value(capsys):
    rc = main([
        "bounds", "fano", "--n", "1", "--N", "3", "--tv-all", "1.0",
        "--zcdp", "--rho", "0.1",
    ])
    assert rc == 0
    assert float(_stdout_value(capsys, "value")) == 0.029078158264706833


def test_lecam_grid_prints_every_cell(capsys):
    rc = main(["bounds", "lecam", "--n", "2,4", "--tv", "0.25,0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("lecam n=") == 4


def test_bounds_csv_output(tmp_path, capsys):
    path = tmp_path / "lecam.csv"
    rc = main([
        "bounds", "lecam", "--n", "2", "--tv", "0.5", "--dp", "--eps", "0.5",
        "--out", str(path), "--format", "csv",
    ])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,tv,form,value,raw,branch"
    assert len(lines) == 2


# ------------------------------------------------------------------- couple


def test_couple_lp_example2(tmp_path, capsys):
    path = tmp_path / "lp.json"
    rc = main(["couple", "lp", "--example2", "--out", str(path)])
    assert rc == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"schema", "version", "config", "seed", "report"}
    assert payload["schema"] == "dpminimax.report/1"
    report = payload["report"]
    assert abs(report["lp_value"] - 2.0) <= 1e-9
    assert abs(report["sum_pairwise_tv"] - 1.5) <= 1e-12
    assert report["lp_value"] > report["sum_pairwise_tv"]


def test_couple_pair_reports_tv_and_race_bound(capsys):
    rc = main([
        "couple", "pair", "--p", "0.5,0.5", "--q", "0.2,0.8",
        "--trials", "2000", "--seed", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pair (0,1)" in out
    assert "tv=0.300000" in out


def test_couple_output_bytes_are_reproducible(tmp_path, capsys):
    args = [
        "couple", "races", "--marginals", "0.5,0.5;0.2,0.8",
        "--trials", "2000", "--seed", "7",
    ]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


# ------------------------------------------------------------------- verify


def test_verify_suite_rr_passes(capsys):
    rc = main(["verify", "suite", "--mechanism", "rr", "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "privacy: ok" in out
    assert "group_privacy: ok" in out
    assert "kl_dp: ok" in out
    assert "admissibility[lecam_match]: ok" in out
    assert "transport[lecam_match]: ok" in out
    assert "all checks hold" in out


def test_verify_suite_zcdp_constraint(capsys):
    rho = (math.log(3.0)) ** 2 / 2.0
    rc = main(["verify", "suite", "--mechanism", "rr", "--n", "1", "--rho", repr(rho)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "admissibility[fano_match]" not in out or "ok" in out
    assert "all checks hold" in out


def test_verify_identity_admissibility_fails(capsys, tmp_path):
    path = tmp_path / "verify.json"
    rc = main([
        "verify", "admissibility", "--mechanism", "identity", "--alphabet", "2",
        "--n", "1", "--eps", "1.0", "--kind", "lecam_match", "--out", str(path),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "violations found" in out
    payload = json.loads(path.read_text())
    checks = payload["report"]["checks"]
    assert checks[0]["holds"] is False
    assert "witness" in checks[0]["detail"]


def test_verify_too_large_is_checked_failure(capsys):
    rc = main(["verify", "privacy", "--mechanism", "identity", "--alphabet", "3", "--n", "4"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--dp", "--eps", "1.0", "--zcdp", "--rho", "0.1"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--zcdp"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--dp"],
        ["bounds", "fano", "--n", "1", "--N", "3", "--tv", "0.5,0.5"],
        ["couple", "lp"],
        ["verify", "kldp", "--mechanism", "rr", "--rho", "0.5"],
        ["verify", "kldp", "--mechanism", "identity", "--n", "1", "--eps", "inf"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--dp", "--eps", "inf"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dpminimax" in capsys.readouterr().out


# --------------------------------------------------------------- experiment


def test_experiment_bernoulli_writes_json_and_csv(tmp_path, capsys):
    out = tmp_path / "bern.json"
    argv = [
        "experiment", "bernoulli", "--ns", "50,100,200", "--eps", "0.5",
        "--trials", "200", "--seed", "5", "--out", str(out),
    ]
    assert main(argv) == 0
    json_path, csv_path = tmp_path / "bern.json", tmp_path / "bern.csv"
    payload = json.loads(json_path.read_text())
    assert set(payload) == {"schema", "version", "config", "seed", "report"}
    assert payload["seed"] == 5
    assert payload["config"]["subcommand"] == "bernoulli"
    assert len(payload["report"]["cells"]) == 6
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    capsys.readouterr()

    rerun_a, rerun_b = json_path.read_bytes(), csv_path.read_bytes()
    assert main(argv) == 0
    assert json_path.read_bytes() == rerun_a
    assert csv_path.read_bytes() == rerun_b
    capsys.readouterr()


def test_experiment_uniform_defaults_include_private_cells(capsys):
    rc = main(["experiment", "uniform", "--ns", "10", "--trials", "200", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("uniform n=10") == 3
    assert "max_estimator" in out


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    """The parser is built once per process; a call must not leak into the next."""
    paths = [tmp_path / f"uniform{i}.json" for i in range(3)]
    base = ["experiment", "uniform", "--ns", "10", "--trials", "100", "--seed", "4"]
    assert main([*base, "--out", str(paths[0])]) == 0
    assert main([*base, "--eps", "0.9,1.1", "--rho", "0.3", "--out", str(paths[1])]) == 0
    assert main([*base, "--out", str(paths[2])]) == 0
    capsys.readouterr()
    first, overridden, again = (json.loads(p.read_text())["config"] for p in paths)
    assert (first["eps"], first["rho"]) == ([0.5], [0.1])
    assert (overridden["eps"], overridden["rho"]) == ([0.9, 1.1], [0.3])
    assert paths[2].read_bytes() == paths[0].read_bytes()


def test_experiment_dpsgml_quick_run(capsys):
    rc = main([
        "experiment", "dpsgml", "--ns", "60", "--rho", "1.0", "--d", "3",
        "--radius", "5", "--m", "16", "--trials", "100", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dp_sgml" in out
    assert "mle" in out


def test_experiment_dpsgml_budget_failure_exits_1(capsys):
    rc = main(["experiment", "dpsgml", "--ns", "3", "--rho", "0.1", "--trials", "100"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
