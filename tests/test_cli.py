"""End-to-end tests for the dpminimax command-line interface."""

import json
import math

import pytest

from dpminimax import PrivacyConstraint, cli, rr_kernel
from dpminimax import verify as verify_mod
from dpminimax.cli import build_parser, main
from dpminimax.errors import KindConstraintMismatch

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
    assert payload["schema"] == "dpminimax.report/3"
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


def test_verify_suite_over_three_datasets_leaves_out_the_two_dataset_kinds(capsys, tmp_path):
    path = tmp_path / "suite.json"
    rc = main(["verify", "suite", "--mechanism", "rr", "--n", "2", "--N", "3", "--eps", "0.5",
               "--out", str(path)])
    assert rc == 0
    names = [check["check"] for check in json.loads(path.read_text())["report"]["checks"]]
    assert names == [
        "privacy", "group_privacy", "kl_dp",
        "admissibility[projection_anchor]", "admissibility[pairwise_anchor]",
        "admissibility[fano_match]",
        "transport[global_anchor]", "transport[projection_anchor]", "transport[lecam_match]",
        "transport[pairwise_anchor]", "transport[fano_match]",
    ]
    assert "all checks hold" in capsys.readouterr().out


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


def test_verify_transport_config_records_marginals(tmp_path, capsys):
    configs = []
    for marginals in (None, "0:1;2:1"):
        path = tmp_path / f"transport{len(configs)}.json"
        argv = ["verify", "transport", "--mechanism", "rr", "--n", "2", "--out", str(path)]
        assert main(argv + (["--marginals", marginals] if marginals else [])) == 0
        configs.append(json.loads(path.read_text())["config"])
    capsys.readouterr()
    default, given = configs
    assert default["marginals"] == [{"atoms": [0], "weights": [1.0]}, {"atoms": [3], "weights": [1.0]}]
    assert given["marginals"] == [{"atoms": [0], "weights": [1.0]}, {"atoms": [2], "weights": [1.0]}]
    assert default != given
    assert default["N"] is None


def test_verify_too_large_is_checked_failure(capsys):
    rc = main(["verify", "privacy", "--mechanism", "identity", "--alphabet", "3", "--n", "4"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, count",
    [
        (["rr", "--n", "7"], "128"),
        (["rr-sum", "--n", "7"], "128"),
        (["identity", "--alphabet", "3", "--n", "4"], "81"),
        (["rr", "--n", "100000"], "2^100000"),
    ],
    ids=["rr", "rr-sum", "identity", "rr-unprintable-count"],
)
def test_verify_refuses_a_large_instance_before_building_it(flags, count, monkeypatch, capsys):
    def unbuilt(*args):
        raise AssertionError("the kernel was built")

    for builder in ("rr_kernel", "rr_sum_kernel", "identity_kernel"):
        monkeypatch.setattr(cli, builder, unbuilt)
    assert main(["verify", "privacy", "--mechanism", *flags]) == 1
    assert capsys.readouterr().err == f"error: {count} datasets exceeds cap 64\n"


# Each constraint with its verify flags; verify has no flag for "none".
_KIND_RULE_CONSTRAINTS = {
    "pure": (PrivacyConstraint.pure(math.log(3.0)), []),
    "approx": (PrivacyConstraint.approx(math.log(3.0), 0.01), ["--delta", "0.01"]),
    "zcdp": (PrivacyConstraint.zcdp(0.6), ["--rho", "0.6"]),
    "none": (PrivacyConstraint.none(), None),
}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", list(_KIND_RULE_CONSTRAINTS))
def test_suite_checks_exactly_the_kinds_the_constraint_admits(name, N, tmp_path, capsys):
    c, flags = _KIND_RULE_CONSTRAINTS[name]
    admitted = verify_mod._similarity_kinds(c)
    assert admitted == tuple(k for k in verify_mod._SIMILARITY_KINDS if k in admitted)
    # global_anchor's default anchor and lecam_match need two datasets.
    expected = [k for k in admitted if N == 2 or k not in ("global_anchor", "lecam_match")]
    assert cli._suite_kinds(c, N) == expected
    if flags is not None:
        path = tmp_path / "suite.json"
        main(["verify", "suite", "--mechanism", "rr", "--N", str(N), *flags, "--out", str(path)])
        capsys.readouterr()
        names = [check["check"] for check in json.loads(path.read_text())["report"]["checks"]]

        def kinds(check):
            return [name[len(check) + 1 : -1] for name in names if name.startswith(check + "[")]

        assert kinds("admissibility") == expected
        # Transport checks the two default marginals, so it runs the N = 2 kinds.
        assert kinds("transport") == list(admitted)
    mech = rr_kernel(math.log(3.0), 1)
    for kind in verify_mod._SIMILARITY_KINDS:
        if kind not in admitted:
            # Refused at any N, before global_anchor's default anchor (N = 2 only).
            with pytest.raises(KindConstraintMismatch):
                verify_mod.verify_admissibility(mech, c, kind, N)


@pytest.mark.parametrize("sub", ["admissibility", "transport"])
def test_kind_choices_are_the_similarity_kinds(sub):
    kind = next(a for a in _subparser("verify", sub)._actions if a.dest == "kind")
    assert tuple(kind.choices) == verify_mod._SIMILARITY_KINDS


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
        ["couple", "pair", "--p", "0.5,abc", "--q", "0.5,0.5"],
        ["couple", "races", "--marginals", "0:0.5,1"],
        ["couple", "shared", "--ps", "0.2,abc"],
        ["verify", "transport", "--mechanism", "rr", "--n", "2", "--marginals", "0:x;1:1"],
        ["couple", "pair", "--p", "nan,1", "--q", "0.5,0.5"],
        ["experiment", "dpsgml", "--ns", "200", "--rho", "0.5", "--trials", "100", "--clip", "nan"],
        ["experiment", "dpsgml", "--ns", "200", "--rho", "0.5", "--trials", "100", "--clip", "inf"],
        ["bounds", "fano", "--n", "1", "--N", "3", "--tv-all", "0.5", "--kl-q", "nan,0.1,0.2", "--dp", "--eps", "1"],
        ["bounds", "fano", "--n", "1", "--N", "3", "--tv", "nan,0.1,0.2", "--dp", "--eps", "1"],
        ["experiment", "bernoulli", "--ns=", "--trials", "100"],
        ["experiment", "dpsgml", "--ns", "200", "--rho=", "--trials", "100"],
        ["experiment", "dpsgml", "--ns", "200", "--rho", "0.5", "--trials", "100", "--smoothness", "inf"],
        ["experiment", "dpsgml", "--ns", "200", "--rho", "0.5", "--trials", "100", "--sigma", "nan"],
        ["experiment", "dpsgml", "--ns", "200", "--rho", "0.5", "--trials", "100", "--sigma", "inf"],
        ["experiment", "dpsgml", "--ns", "200", "--rho", "0.5", "--trials", "100", "--radius", "nan"],
        ["verify", "privacy", "--mechanism", "identity", "--alphabet", "-2"],
        ["bounds", "fano", "--n", "2", "--N", "-1", "--tv-all", "0.5"],
        ["experiment", "gaussian", "--d", "3", "--ns", "0", "--trials", "100"],
        ["verify", "privacy", "--mechanism", "rr", "--alphabet", "3"],
        ["verify", "suite", "--mechanism", "rr-sum", "--n", "2", "--alphabet", "1"],
        ["verify", "admissibility", "--mechanism", "rr", "--rho", "0.25", "--N", "3", "--kind", "global_anchor"],
        ["verify", "transport", "--mechanism", "rr", "--n", "2", "--rho", "0.25", "--kind", "global_anchor",
         "--marginals", "0:1;1:1;3:1"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    if "global_anchor" in argv:
        # zCDP admits no global_anchor at any N, whatever the default anchor.
        assert "is not defined under zcdp(rho=0.25)" in err



@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--eps", "0.5"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--delta", "0.1"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--rho", "0.5"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--dp", "--eps", "0.5", "--rho", "0.5"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--zcdp", "--rho", "0.5", "--eps", "0.5"],
        ["bounds", "lecam", "--n", "2", "--tv", "0.5", "--zcdp", "--rho", "0.5", "--delta", "0.1"],
        ["bounds", "fano", "--n", "2", "--N", "3", "--tv-all", "0.5", "--kl-q", "0.1,0.1,0.1", "--eps", "0.5"],
        ["bounds", "fano", "--n", "2", "--N", "3", "--tv-all", "0.5", "--kl-q", "0.1,0.1,0.1", "--rho", "0.5"],
        ["verify", "privacy", "--mechanism", "rr", "--delta", "0.1", "--rho", "0.2"],
        ["verify", "suite", "--mechanism", "rr", "--delta", "0.1", "--rho", "0.2"],
    ],
)
def test_constraint_flags_the_command_ignores_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_dpsgml_rate_above_the_space_is_not_a_violation(capsys):
    # radius^2 = 0.01 < d/(2 gamma n) = 0.025: the rate carries no constant
    # and is not a bound on this ball.
    rc = main([
        "experiment", "dpsgml", "--d", "5", "--radius", "0.1", "--theta", "0.02", "--ns", "200",
        "--rho", "0.5", "--trials", "100", "--seed", "7",
    ])
    assert rc == 0
    assert "VIOLATION" not in capsys.readouterr().out


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "privacy", "--mechanism", "rr", "--format", "csv"],
        ["experiment", "uniform", "--ns", "10", "--trials", "100", "--format", "json"],
    ],
)
def test_format_only_where_a_csv_projection_exists(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["couple", "pair", "--p", "0.5,0.5", "--q", "0.2,0.8", "--trials", "100", "--seed", "-1"], "--seed"),
        (["experiment", "uniform", "--ns", "10", "--trials", "100", "--seed", "-3"], "--seed"),
        (["verify", "transport", "--mechanism", "rr", "--N", "5"], "--N"),
    ],
)
def test_argparse_rejects_bad_seed_and_unread_N(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


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


def _subparser(*names):
    """The parser of a subcommand path such as ("verify", "suite")."""
    parser = build_parser()
    for name in names:
        parser = parser._subparsers._group_actions[0].choices[name]
    return parser


def _experiment_options(sub):
    """The dests of an experiment subcommand's options, read off the parser."""
    return {a.dest for a in _subparser("experiment", sub)._actions if a.option_strings and a.dest != "help"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "--ns", "50", "--trials", "100"],
        ["gaussian", "--d", "3", "--ns", "20", "--trials", "100"],
        ["uniform", "--ns", "10", "--eps", "", "--rho", "", "--trials", "100"],
        ["dpsgml", "--d", "3", "--ns", "60", "--rho", "1.0", "--radius", "5", "--m", "16",
         "--trials", "100"],
    ],
)
def test_experiment_config_records_every_option_but_out(argv, tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["experiment", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    config = json.loads(out.read_text())["config"]
    assert set(config) == {"command", "subcommand"} | _experiment_options(argv[0]) - {"out"}
    assert (config["command"], config["subcommand"]) == ("experiment", argv[0])
    if argv[0] != "dpsgml":
        assert (config["eps"], config["rho"]) == ([], [])


def test_experiment_dpsgml_quick_run(capsys):
    rc = main([
        "experiment", "dpsgml", "--ns", "60", "--rho", "1.0", "--d", "3",
        "--radius", "5", "--m", "16", "--trials", "100", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dp_sgml" in out
    assert "mle" in out


def test_experiment_dpsgml_infinite_radius_runs_unconstrained(capsys):
    rc = main([
        "experiment", "dpsgml", "--ns", "60", "--rho", "1.0", "--d", "3",
        "--radius", "inf", "--m", "16", "--trials", "100", "--seed", "3",
    ])
    assert rc == 0
    assert "dp_sgml" in capsys.readouterr().out


def test_experiment_dpsgml_mle_rows_are_never_flagged(tmp_path, capsys):
    # At this seed the n = 500 MLE row falls more than three standard errors
    # below d/n, which is its own expected risk, not a bound below it.
    out = tmp_path / "report.json"
    rc = main([
        "experiment", "dpsgml", "--d", "5", "--ns", "500", "--rho", "0.001,0.01,0.1",
        "--trials", "100", "--seed", "245", "--out", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "VIOLATION" not in captured.out
    assert "violation" not in captured.err
    cells = json.loads(out.read_text())["report"]["cells"]
    assert not any(cell["violation"] for cell in cells)
    (mle,) = [cell for cell in cells if cell["mechanism"] == "mle"]
    assert mle["lower_bound"] == pytest.approx(5.0 / 500.0)
    assert mle["branch"] == "nonprivate_parametric"
    assert mle["risk"] < mle["lower_bound"] - 3.0 * mle["stderr"]


def test_experiment_gaussian_cells_past_the_zcdp_bound_are_unavailable(tmp_path):
    argv = ["experiment", "gaussian", "--d", "66", "--ns", "100", "--trials", "100"]
    assert main([*argv, "--rho", "0.01,2", "--out", str(tmp_path / "both.json")]) == 0
    assert main([*argv, "--rho", "0.01", "--out", str(tmp_path / "small.json")]) == 0
    both = json.loads((tmp_path / "both.json").read_text())["report"]["cells"]
    small = json.loads((tmp_path / "small.json").read_text())["report"]["cells"]
    assert [cell["constraint"]["rho"] for cell in both] == [None, 0.01, 2.0]
    assert both[:2] == small
    assert small[1]["branch"] != "unavailable"
    assert (both[2]["lower_bound"], both[2]["branch"]) == (0.0, "unavailable")
    assert not both[2]["violation"]


def test_experiment_dpsgml_budget_failure_exits_1(capsys):
    rc = main(["experiment", "dpsgml", "--ns", "3", "--rho", "0.1", "--trials", "100"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
