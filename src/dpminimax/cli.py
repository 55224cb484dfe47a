"""Command-line front end: bounds, couplings, exhaustive verifiers, experiments.

Every invocation is stateless and reproducible: the seed is explicit, reports
embed the tool version and the fully resolved run configuration, and output
files contain no timestamps, so re-running a command reproduces its files
byte for byte.

Exit codes: 0 success, 1 checked failure (a verifier found a witness, an
experiment cell undercuts its lower bound, or an instance exceeds the
documented size caps), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bounds import PrivacyConstraint, fano_private, le_cam_private
from .couplings import (
    estimate_disagreement,
    exponential_races,
    maximal_pair,
    min_disagreement_lp,
    product_lift,
    shared_uniform_bernoulli,
)
from .divergences import DiscreteDistribution, tv
from .errors import (
    ArityMismatch,
    DegenerateInput,
    DegenerateMarginal,
    DomainError,
    DPMinimaxError,
    KindConstraintMismatch,
    LengthMismatch,
    RegimeError,
    ShapeMismatch,
    TooLarge,
    UnsupportedPair,
)
from .experiments import run_bernoulli, run_dpsgml, run_gaussian, run_uniform
from .mechanisms import (
    gaussian_mean_model,
    identity_kernel,
    rr_kernel,
    rr_sum_kernel,
)
from .verify import (
    _MAX_DATASETS,
    _SIMILARITY_KINDS,
    _suite_kinds,
    _transport_left_side,
    verify_admissibility,
    verify_group_privacy,
    verify_kl_dp,
    verify_privacy,
    verify_transport_bound,
)

__all__ = ["main"]

_SCHEMA = "dpminimax.report/3"

_USAGE_ERRORS = (
    DomainError,
    ShapeMismatch,
    LengthMismatch,
    UnsupportedPair,
    DegenerateMarginal,
    KindConstraintMismatch,
    ArityMismatch,
    DegenerateInput,
    RegimeError,
)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's seeding requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _number(tok: str, kind=float):
    try:
        return kind(tok)
    except ValueError:
        raise DomainError(f"malformed number {tok!r}") from None


def _weights(text: str) -> list[float]:
    """A comma list of weights; unlike _float_list, a bad token is a DomainError."""
    return [_number(tok) for tok in text.split(",") if tok.strip()]


def _parse_dist(text: str) -> DiscreteDistribution:
    """Parse one marginal: either 'w0,w1,...' on atoms 0..k-1 or 'a:w,a:w'."""
    if ":" in text:
        atoms = []
        weights = []
        for tok in text.split(","):
            a, colon, w = tok.partition(":")
            if not colon:
                raise DomainError(f"malformed atom:weight token {tok!r}")
            atoms.append(_number(a, int))
            weights.append(_number(w))
        return DiscreteDistribution(tuple(atoms), np.array(weights))
    return DiscreteDistribution.from_weights(_weights(text))


def _parse_marginals(text: str) -> list[DiscreteDistribution]:
    return [_parse_dist(part) for part in text.split(";") if part.strip()]


def _example2_marginals() -> list[DiscreteDistribution]:
    half = np.array([0.5, 0.5])
    return [
        DiscreteDistribution((-1, 0), half),
        DiscreteDistribution((0, 1), half),
        DiscreteDistribution((1, -1), half),
    ]


def _add_constraint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dp", action="store_true", help="differential privacy constraint")
    p.add_argument("--eps", type=float, help="epsilon for --dp")
    p.add_argument("--delta", type=float, default=0.0, help="delta for --dp (default 0)")
    p.add_argument("--zcdp", action="store_true", help="zero-concentrated DP constraint")
    p.add_argument("--rho", type=float, help="rho for --zcdp")


def _constraint_from_args(args) -> PrivacyConstraint:
    if args.dp and args.zcdp:
        raise DomainError("choose one of --dp and --zcdp")
    if not args.dp and (args.eps is not None or args.delta != 0.0):
        raise DomainError("--eps and --delta need --dp")
    if not args.zcdp and args.rho is not None:
        raise DomainError("--rho needs --zcdp")
    if args.dp:
        if args.eps is None:
            raise DomainError("--dp requires --eps")
        if args.delta == 0.0:
            return PrivacyConstraint.pure(args.eps)
        return PrivacyConstraint.approx(args.eps, args.delta)
    if args.zcdp:
        if args.rho is None:
            raise DomainError("--zcdp requires --rho")
        return PrivacyConstraint.zcdp(args.rho)
    return PrivacyConstraint.none()


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _wrapper(config: dict, seed: Optional[int], report: dict) -> dict:
    return {
        "schema": _SCHEMA,
        "version": __version__,
        "config": _jsonable(config),
        "seed": seed,
        "report": _jsonable(report),
    }


def _write_json(path: str, wrapper: dict) -> None:
    # One write: json.dump would make one per token.
    with open(path, "w") as handle:
        handle.write(json.dumps(wrapper, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _emit(args, config: dict, report: dict, csv_rows=None, csv_fields=None) -> None:
    """Write the canonical JSON report (and CSV projection) when --out is set."""
    out = getattr(args, "out", None)
    if out is None:
        return
    if getattr(args, "format", "json") == "csv":
        _write_csv(out, csv_fields, csv_rows)
    else:
        _write_json(out, _wrapper(config, config.get("seed"), report))


def _base_path(path: str) -> str:
    for suffix in (".json", ".csv"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


# ----------------------------------------------------------------- bounds


def _bound_row(res, **keys) -> dict:
    """One bounds report row: the given keys, then the bound's value, raw and branch."""
    return {**keys, "value": res.value, "raw": res.raw, "branch": res.branch}


def _cmd_bounds_lecam(args) -> int:
    c = _constraint_from_args(args)
    if not args.n or not args.tv:
        raise DomainError("--n and --tv need at least one value each")
    rows = []
    for n in args.n:
        for tv_value in args.tv:
            res = le_cam_private(c, n, tv_value, form=args.form)
            rows.append(_bound_row(res, n=n, tv=tv_value, form=args.form))
            print(f"lecam n={n} tv={tv_value:g} value={res.value!r} "
                  f"raw={res.raw!r} branch={res.branch}")
    config = {
        "command": "bounds",
        "subcommand": "lecam",
        "n": args.n,
        "tv": args.tv,
        "form": args.form,
        "constraint": dataclasses.asdict(c),
        "seed": None,
    }
    _emit(args, config, {"rows": rows}, rows, list(rows[0].keys()))
    return 0


def _tv_matrix(args) -> np.ndarray:
    N = args.N
    if N < 2:
        raise DomainError("need at least two hypotheses")
    if args.tv_all is not None:
        m = np.full((N, N), args.tv_all)
        np.fill_diagonal(m, 0.0)
        return m
    if args.tv is None:
        raise DomainError("fano needs --tv-all or --tv")
    vals = args.tv
    expect = N * (N - 1) // 2
    if len(vals) != expect:
        raise LengthMismatch(f"--tv needs {expect} upper-triangle entries for N={N}")
    m = np.zeros((N, N))
    pos = 0
    for i in range(N):
        for j in range(i + 1, N):
            m[i, j] = m[j, i] = vals[pos]
            pos += 1
    return m


def _cmd_bounds_fano(args) -> int:
    c = _constraint_from_args(args)
    tvs = _tv_matrix(args)
    res = fano_private(c, args.n, args.N, tvs, kls_to_q=args.kl_q, form=args.form)
    print(f"fano n={args.n} N={args.N} value={res.value!r} "
          f"raw={res.raw!r} branch={res.branch}")
    row = _bound_row(res, n=args.n, N=args.N, form=args.form)
    config = {
        "command": "bounds",
        "subcommand": "fano",
        "n": args.n,
        "N": args.N,
        "tv": tvs.tolist(),
        "kl_q": args.kl_q,
        "form": args.form,
        "constraint": dataclasses.asdict(c),
        "seed": None,
    }
    _emit(args, config, {"rows": [row], "branches": res.extras}, [row], list(row.keys()))
    return 0


# ----------------------------------------------------------------- couple


def _pair_rows(marginals, matrix, lifted_n: int = 1) -> list[dict]:
    rows = []
    N = len(marginals)
    for i in range(N):
        for j in range(i + 1, N):
            tv_base = tv(marginals[i], marginals[j])
            race = 2.0 * tv_base / (1.0 + tv_base) if tv_base > 0.0 else 0.0
            bound = 1.0 - (1.0 - race) ** lifted_n
            rows.append(
                {
                    "i": i,
                    "j": j,
                    "estimate": float(matrix.estimates[i, j]),
                    "stderr": float(matrix.stderr[i, j]),
                    "tv": tv_base,
                    "race_bound": bound,
                }
            )
    return rows


def _cmd_couple(args) -> int:
    if args.subcommand == "lp":
        if not args.example2 and args.marginals is None:
            raise DomainError("lp needs --marginals or --example2")
        marginals = _example2_marginals() if args.example2 else _parse_marginals(args.marginals)
        value = min_disagreement_lp(marginals)
        pair_tvs = [
            tv(marginals[i], marginals[j])
            for i in range(len(marginals))
            for j in range(i + 1, len(marginals))
        ]
        report = {
            "lp_value": value,
            "sum_pairwise_tv": float(sum(pair_tvs)),
            "pairwise_tv": pair_tvs,
        }
        print(f"lp value={value!r} sum_pairwise_tv={report['sum_pairwise_tv']!r}")
        config = {
            "command": "couple",
            "subcommand": "lp",
            "example2": bool(args.example2),
            "marginals": [_dist_config(m) for m in marginals],
            "seed": None,
        }
        _emit(args, config, report)
        return 0

    lifted_n = 1
    if args.subcommand == "pair":
        marginals = [_parse_dist(args.p), _parse_dist(args.q)]
        sampler = maximal_pair(marginals[0], marginals[1])
    elif args.subcommand == "shared":
        ps = _weights(args.ps)
        sampler = shared_uniform_bernoulli(ps)
        marginals = list(sampler.marginals)
    elif args.subcommand == "races":
        marginals = _parse_marginals(args.marginals)
        sampler = exponential_races(marginals)
    else:
        marginals = _parse_marginals(args.marginals)
        sampler = product_lift(exponential_races(marginals), args.n)
        lifted_n = args.n
    matrix = estimate_disagreement(sampler, args.trials, args.seed)
    rows = _pair_rows(marginals, matrix, lifted_n)
    for row in rows:
        print(
            f"pair ({row['i']},{row['j']}) disagreement={row['estimate']:.6f} "
            f"stderr={row['stderr']:.6f} tv={row['tv']:.6f} race_bound={row['race_bound']:.6f}"
        )
    config = {
        "command": "couple",
        "subcommand": args.subcommand,
        "marginals": [_dist_config(m) for m in marginals],
        "trials": args.trials,
        "seed": args.seed,
    }
    if args.subcommand == "lift":
        config["n"] = args.n
    _emit(
        args,
        config,
        {"pairs": rows, "kind": sampler.kind},
        rows,
        ["i", "j", "estimate", "stderr", "tv", "race_bound"],
    )
    return 0


def _dist_config(m: DiscreteDistribution) -> dict:
    return {"atoms": list(m.atoms), "weights": m.weights.tolist()}


# ----------------------------------------------------------------- verify


def _build_mechanism(args):
    for flag in ("n", "alphabet"):
        if getattr(args, flag) < 1:
            raise DomainError(f"--{flag} must be >= 1")
    if args.alphabet != 2 and args.mechanism != "identity":
        raise DomainError("--alphabet needs --mechanism identity: rr and rr-sum are binary")
    # Check the size before building: a kernel has base^n rows.
    base = args.alphabet
    if base > 1 and args.n * base.bit_length() > 4096:  # base^n > 2^2048: too long to print
        raise TooLarge(f"{base}^{args.n} datasets exceeds cap {_MAX_DATASETS}")
    if base**args.n > _MAX_DATASETS:
        raise TooLarge(f"{base**args.n} datasets exceeds cap {_MAX_DATASETS}")
    if args.mechanism == "rr":
        return rr_kernel(args.eps, args.n)
    if args.mechanism == "rr-sum":
        return rr_sum_kernel(args.eps, args.n)
    return identity_kernel(args.alphabet, args.n)


def _verify_constraint(args) -> PrivacyConstraint:
    if args.rho is not None:
        if args.delta != 0.0:
            raise DomainError("--delta does not apply to a zCDP check (--rho)")
        return PrivacyConstraint.zcdp(args.rho)
    if args.delta != 0.0:
        return PrivacyConstraint.approx(args.eps, args.delta)
    return PrivacyConstraint.pure(args.eps)


def _default_transport_marginals(m) -> list[DiscreteDistribution]:
    last = m.n_datasets - 1
    return [
        DiscreteDistribution((0,), np.array([1.0])),
        DiscreteDistribution((last,), np.array([1.0])),
    ]


def _cmd_verify(args) -> int:
    mech = _build_mechanism(args)
    c = _verify_constraint(args)
    checks = []

    def record(name: str, holds: bool, detail=None):
        checks.append({"check": name, "holds": bool(holds), "detail": detail})
        status = "ok" if holds else "VIOLATION"
        suffix = "" if detail is None or holds else f" witness={detail}"
        print(f"{name}: {status}{suffix}")

    which = args.subcommand
    if which in ("privacy", "suite"):
        res = verify_privacy(mech, c)
        record("privacy", res.holds, None if res.holds else repr(res.witness))
    if which in ("group", "suite"):
        record("group_privacy", verify_group_privacy(mech, c))
    if which in ("kldp", "suite"):
        if c.is_dp:
            record("kl_dp", verify_kl_dp(mech, c.eps_delta()[0]))
        elif which == "kldp":
            raise KindConstraintMismatch("the KL check applies to DP constraints")
    if which in ("admissibility", "suite"):
        kinds = [args.kind] if which == "admissibility" else _suite_kinds(c, args.N)
        for kind in kinds:
            res = verify_admissibility(mech, c, kind, args.N)
            detail = {"worst_gap": float(res.worst_gap)}
            if not res.holds:
                detail["witness"] = repr(res.witness)
            record(f"admissibility[{kind}]", res.holds, detail)
    if which in ("transport", "suite"):
        marginals = (
            _parse_marginals(args.marginals)
            if getattr(args, "marginals", None)
            else _default_transport_marginals(mech)
        )
        kinds = [args.kind] if which == "transport" else _suite_kinds(c)
        left_side = _transport_left_side(mech, marginals)
        for kind in kinds:
            record(f"transport[{kind}]", verify_transport_bound(mech, c, kind, marginals, left_side=left_side))

    all_hold = all(check["holds"] for check in checks)
    config = {
        "command": "verify",
        "subcommand": which,
        "mechanism": args.mechanism,
        "n": args.n,
        "alphabet": args.alphabet,
        "eps": args.eps,
        "delta": args.delta,
        "rho": args.rho,
        "N": getattr(args, "N", None),
        "kind": getattr(args, "kind", None),
        "seed": None,
    }
    if which == "transport":
        config["marginals"] = [_dist_config(m) for m in marginals]
    _emit(args, config, {"checks": checks, "all_hold": all_hold})
    print("all checks hold" if all_hold else "violations found")
    return 0 if all_hold else 1


# ------------------------------------------------------------- experiment


def _experiment_constraints(args) -> list[PrivacyConstraint]:
    cs = [PrivacyConstraint.none()]
    for eps in args.eps or []:
        cs.append(PrivacyConstraint.pure(eps))
    for rho in args.rho or []:
        cs.append(PrivacyConstraint.zcdp(rho))
    return cs


def _cmd_experiment(args) -> int:
    sub = args.subcommand
    if sub in ("bernoulli", "uniform"):
        run = run_bernoulli if sub == "bernoulli" else run_uniform
        report = run(args.ns, _experiment_constraints(args), args.trials, args.seed)
    elif sub == "gaussian":
        report = run_gaussian(
            args.d, args.sigma, args.ns, _experiment_constraints(args), args.trials, args.seed
        )
    else:
        model = gaussian_mean_model(
            args.d, sigma=args.sigma, radius=args.radius,
            clip_norm=args.clip, smoothness=args.smoothness,
        )
        theta_star = args.theta * np.ones(args.d)
        report = run_dpsgml(
            model, theta_star, args.ns, args.rho, args.m, args.trials, args.seed
        )
    # The resolved options; the only ones an experiment parser leaves unset
    # are the --eps and --rho lists, written as [].
    config = {
        key: [] if value is None else value
        for key, value in vars(args).items() if key != "out"
    }

    for cell in report.cells:
        flag = "  VIOLATION" if cell.violation else ""
        print(
            f"{cell.model} n={cell.n} {cell.constraint.label()} {cell.mechanism} "
            f"risk={cell.risk:.6g} stderr={cell.stderr:.3g} "
            f"lower={cell.lower_bound:.6g} branch={cell.branch}{flag}"
        )
    for key, slope in sorted(report.slopes.items()):
        print(f"slope {key}: {slope:.4f}")

    if args.out is not None:
        base = _base_path(args.out)
        _write_json(base + ".json", _wrapper(config, args.seed, report.to_dict()))
        csv_rows = report.csv_rows()
        _write_csv(base + ".csv", list(csv_rows[0]), csv_rows)

    bad = report.violations()
    if bad:
        for cell in bad:
            print(
                f"violation: {cell.model} n={cell.n} {cell.mechanism} "
                f"risk {cell.risk!r} < lower bound {cell.lower_bound!r}",
                file=sys.stderr,
            )
        return 1
    return 0


# -------------------------------------------------------------- dispatch


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file path")


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    """--out plus --format, for commands whose report has a CSV projection."""
    _add_out_flag(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every main call.

    argparse hands out defaults without copying them, so commands must not
    mutate the values they find in args.
    """
    parser = argparse.ArgumentParser(
        prog="dpminimax",
        description="Minimax lower bounds under differential privacy: "
        "bounds, couplings, exhaustive verifiers, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"dpminimax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="evaluate testing lower bounds")
    bsub = bounds.add_subparsers(dest="subcommand", required=True)
    lecam = bsub.add_parser("lecam", help="two-point bound")
    lecam.add_argument("--n", type=_int_list, required=True, help="sample sizes (comma list)")
    lecam.add_argument("--tv", type=_float_list, required=True, help="total variations (comma list)")
    lecam.add_argument("--form", choices=("joint", "product"), default="joint")
    _add_constraint_flags(lecam)
    _add_out_flags(lecam)
    fano = bsub.add_parser("fano", help="multi-hypothesis bound")
    fano.add_argument("--n", type=int, required=True)
    fano.add_argument("--N", type=int, required=True, help="number of hypotheses")
    fano.add_argument("--tv-all", type=float, help="use this tv for every pair (n-sample TV with "
                      "--form joint, single-sample TV with --form product)")
    fano.add_argument("--tv", type=_float_list, help="upper-triangle tv entries (comma list), "
                      "n-sample or single-sample TVs as for --tv-all")
    fano.add_argument("--kl-q", type=_float_list, help="KLs to a reference law (classical branch)")
    fano.add_argument("--form", choices=("joint", "product"), default="joint")
    _add_constraint_flags(fano)
    _add_out_flags(fano)

    couple = sub.add_parser("couple", help="sample couplings / solve the disagreement LP")
    csub = couple.add_subparsers(dest="subcommand", required=True)
    pair = csub.add_parser("pair", help="maximal coupling of two marginals")
    pair.add_argument("--p", required=True, help="first marginal ('w0,w1' or 'a:w,a:w')")
    pair.add_argument("--q", required=True, help="second marginal")
    shared = csub.add_parser("shared", help="shared-uniform Bernoulli coupling")
    shared.add_argument("--ps", required=True, help="Bernoulli means (comma list)")
    races = csub.add_parser("races", help="exponential-races coupling")
    races.add_argument("--marginals", required=True, help="semicolon-separated marginals")
    lift = csub.add_parser("lift", help="n-fold product lift of a races coupling")
    lift.add_argument("--marginals", required=True)
    lift.add_argument("--n", type=int, required=True, help="product length")
    lp = csub.add_parser("lp", help="exact minimum total pairwise disagreement")
    lp.add_argument("--marginals", help="semicolon-separated marginals")
    lp.add_argument("--example2", action="store_true",
                    help="three uniform pairs on {-1,0}, {0,1}, {1,-1}")
    for p in (pair, shared, races, lift):
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--seed", type=_seed, default=0)
        _add_out_flags(p)
    _add_out_flag(lp)

    verify = sub.add_parser("verify", help="exhaustive finite-mechanism verifiers")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    for name, desc in (
        ("privacy", "neighboring-dataset privacy check"),
        ("group", "group-privacy check over all pairs"),
        ("kldp", "KL-vs-Hamming check"),
        ("admissibility", "similarity admissibility check"),
        ("transport", "transport lower-bound check"),
        ("suite", "all checks"),
    ):
        p = vsub.add_parser(name, help=desc)
        p.add_argument("--mechanism", choices=("rr", "rr-sum", "identity"), required=True)
        p.add_argument("--eps", type=float, default=math.log(3.0),
                       help="mechanism / constraint epsilon")
        p.add_argument("--delta", type=float, default=0.0)
        p.add_argument("--rho", type=float, help="check a zCDP constraint instead")
        p.add_argument("--n", type=int, default=1, help="number of input bits")
        p.add_argument("--alphabet", type=int, default=2, help="alphabet size (identity only)")
        if name in ("admissibility", "suite"):
            p.add_argument("--N", type=int, default=2, help="admissibility hypotheses")
        if name in ("admissibility", "transport"):
            # The default is lecam_match, which every DP and zCDP constraint admits.
            p.add_argument("--kind", choices=_SIMILARITY_KINDS, default=_SIMILARITY_KINDS[2])
        if name == "transport":
            p.add_argument("--marginals", help="marginals over dataset indices")
        _add_out_flag(p)

    experiment = sub.add_parser("experiment", help="Monte-Carlo risk studies")
    esub = experiment.add_subparsers(dest="subcommand", required=True)
    bern = esub.add_parser("bernoulli", help="Bernoulli mean estimation")
    bern.add_argument("--ns", type=_int_list, required=True)
    bern.add_argument("--eps", type=_float_list, help="DP epsilons (comma list)")
    bern.add_argument("--rho", type=_float_list, help="zCDP rhos (comma list)")
    bern.add_argument("--trials", type=int, default=10_000)
    gauss = esub.add_parser("gaussian", help="Gaussian mean estimation")
    gauss.add_argument("--d", type=int, default=66)
    gauss.add_argument("--sigma", type=float, default=1.0)
    gauss.add_argument("--ns", type=_int_list, required=True)
    gauss.add_argument("--eps", type=_float_list)
    gauss.add_argument("--rho", type=_float_list)
    gauss.add_argument("--trials", type=int, default=1_000)
    unif = esub.add_parser("uniform", help="uniform support estimation")
    unif.add_argument("--ns", type=_int_list, required=True)
    unif.add_argument("--eps", type=_float_list, default=[0.5])
    unif.add_argument("--rho", type=_float_list, default=[0.1])
    unif.add_argument("--trials", type=int, default=100_000)
    sgml = esub.add_parser("dpsgml", help="noisy projected gradient ascent risk grid")
    sgml.add_argument("--d", type=int, default=5)
    sgml.add_argument("--sigma", type=float, default=1.0)
    sgml.add_argument("--radius", type=float, default=10.0)
    sgml.add_argument("--clip", type=float, default=4.0)
    sgml.add_argument("--smoothness", type=float, default=32.0)
    sgml.add_argument("--theta", type=float, default=0.5, help="true mean per coordinate")
    sgml.add_argument("--m", type=int, default=64, help="batch size")
    sgml.add_argument("--ns", type=_int_list, required=True)
    sgml.add_argument("--rho", type=_float_list, required=True)
    sgml.add_argument("--trials", type=int, default=200)
    for p in (bern, gauss, unif, sgml):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", help="output base path: writes <base>.json and <base>.csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bounds":
            if args.subcommand == "lecam":
                return _cmd_bounds_lecam(args)
            return _cmd_bounds_fano(args)
        if args.command == "couple":
            return _cmd_couple(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_experiment(args)
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DPMinimaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
